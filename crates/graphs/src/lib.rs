//! SINR-induced connectivity graphs and the graph algorithms the paper's
//! analysis relies on.
//!
//! The paper derives graphs from the SINR model via reception zones
//! (§4.3): `G_a` connects two nodes iff their Euclidean distance is at
//! most `R_a = a·R`. The MAC layer implements reliable local broadcast on
//! the *strong connectivity graph* `G₁₋ε` and measures approximate
//! progress on its approximation `G̃ = G₁₋₂ε`.
//!
//! Provided here:
//!
//! * [`Graph`] — an immutable adjacency-list graph with BFS, diameter,
//!   degree and connectivity queries, all on one BFS routine. The
//!   diameter is exact and memoized. [`Graph::diameter`] finds it by
//!   eccentricity bounding, in a handful of BFS on SINR-induced graphs
//!   instead of one per node, so a report's `diameter_strong` costs
//!   about a millisecond at n = 1024,
//! * [`induce_graph`] / [`SinrGraphs`] — induction of `G₁`, `G₁₋ε`,
//!   `G₁₋₂ε` from node positions and [`sinr_phys::SinrParams`],
//! * [`mis`] — greedy maximal independent sets and validators used to
//!   cross-check the distributed MIS inside the MAC layer,
//! * [`growth`] — the growth-bound function `f(r) = (2r+1)²` valid for
//!   every SINR-induced graph (disc packing), with runtime checkers.
//!
//! # Examples
//!
//! ```
//! use sinr_graphs::{induce_graph, SinrGraphs};
//! use sinr_phys::SinrParams;
//!
//! let params = SinrParams::builder().range(16.0).build().unwrap();
//! let positions = sinr_geom::deploy::line(8, 2.0).unwrap();
//! let graphs = SinrGraphs::induce(&params, &positions);
//! assert!(graphs.strong.is_connected());
//! // The approximate-progress graph is a subgraph of the strong graph.
//! assert!(graphs.approx.edge_count() <= graphs.strong.edge_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod induce;

pub mod growth;
pub mod mis;

pub use graph::Graph;
pub use induce::{edge_length_extremes, induce_graph, SinrGraphs};
