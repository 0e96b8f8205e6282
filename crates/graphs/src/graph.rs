//! Immutable adjacency-list graphs with the queries the paper's analysis
//! needs: degrees, BFS hop distances, diameter, connectivity.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Sentinel hop distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// An undirected graph over nodes `0..n` with sorted adjacency lists.
///
/// Construction deduplicates edges and ignores self-loops; the structure
/// is immutable afterwards. All algorithms are deterministic.
///
/// # Examples
///
/// ```
/// use sinr_graphs::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.hop_distance(0, 3), Some(3));
/// assert_eq!(g.diameter(), Some(3));
/// ```
#[derive(Clone)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    edge_count: usize,
    /// Memoized [`Graph::diameter`] — the one query that runs more than
    /// one BFS. Shared through clones (an `Arc`), so every copy of a graph
    /// handed out by a cache or sweep planner computes it at most once
    /// between them.
    diameter: Arc<OnceLock<Option<u32>>>,
}

/// Reusable BFS buffers: hop distances and the FIFO queue (a `Vec` read
/// from the front by index).
#[derive(Default)]
struct Bfs {
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // Structural identity only; the memo is derived state.
        self.adj == other.adj
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates a graph with `n` nodes from an edge iterator.
    ///
    /// Self-loops are ignored; duplicate edges (in either orientation) are
    /// deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in edges {
            assert!(a < n && b < n, "edge ({a}, {b}) out of range for n={n}");
            if a == b {
                continue;
            }
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        let mut edge_count = 0;
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            edge_count += list.len();
        }
        Graph {
            adj,
            edge_count: edge_count / 2,
            diameter: Arc::new(OnceLock::new()),
        }
    }

    /// An empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
            diameter: Arc::new(OnceLock::new()),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sorted neighbors of `v` (excluding `v` itself).
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree `δ(v)`: number of neighbors, excluding `v` (§4.1).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree `Δ_G`, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether `{a, b}` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&(b as u32)).is_ok()
    }

    /// Iterates over all undirected edges as `(min, max)` pairs, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            list.iter()
                .filter(move |&&b| a < b as usize)
                .map(move |&b| (a, b as usize))
        })
    }

    /// The one BFS: fills `scratch.dist` with hop distances from `src`
    /// ([`UNREACHABLE`] for nodes it cannot reach) and returns the
    /// largest finite distance together with the number of nodes
    /// reached. Both buffers are reused, so a caller running many
    /// searches allocates once.
    fn search(&self, src: usize, scratch: &mut Bfs) -> (u32, usize) {
        let Bfs { dist, queue } = scratch;
        dist.clear();
        dist.resize(self.adj.len(), UNREACHABLE);
        queue.clear();
        dist[src] = 0;
        queue.push(src as u32);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let next = dist[v as usize] + 1;
            for &w in &self.adj[v as usize] {
                if dist[w as usize] == UNREACHABLE {
                    dist[w as usize] = next;
                    queue.push(w);
                }
            }
        }
        // FIFO order visits nodes by non-decreasing distance, so the
        // last one dequeued is the farthest.
        (dist[queue[queue.len() - 1] as usize], queue.len())
    }

    /// BFS hop distances from `src`; unreachable nodes get [`UNREACHABLE`].
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        let mut scratch = Bfs::default();
        self.search(src, &mut scratch);
        scratch.dist
    }

    /// Hop distance `d_G(a, b)`, or `None` if disconnected.
    pub fn hop_distance(&self, a: usize, b: usize) -> Option<u32> {
        let d = self.bfs(a)[b];
        (d != UNREACHABLE).then_some(d)
    }

    /// The `r`-neighborhood `N_{G,r}(v)` (§4.1), including `v`, sorted.
    pub fn neighborhood(&self, v: usize, r: u32) -> Vec<usize> {
        let dist = self.bfs(v);
        (0..self.adj.len())
            .filter(|&u| dist[u] != UNREACHABLE && dist[u] <= r)
            .collect()
    }

    /// Whether the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        self.adj.len() <= 1 || self.search(0, &mut Bfs::default()).1 == self.adj.len()
    }

    /// Eccentricity of `v` (max hop distance to any node), or `None` if
    /// some node is unreachable from `v`.
    pub fn eccentricity(&self, v: usize) -> Option<u32> {
        let (ecc, reached) = self.search(v, &mut Bfs::default());
        (reached == self.adj.len()).then_some(ecc)
    }

    /// Diameter `D_G` (max hop distance over all pairs), or `None` if the
    /// graph is disconnected or empty.
    ///
    /// Exact, by eccentricity bounding (Takes & Kosters, "Determining the
    /// diameter of small world networks", CIKM 2011) rather than a BFS
    /// from every node. A BFS from `v` with eccentricity `e` bounds every
    /// node `w` at distance `d` from it by the triangle inequality:
    /// `max(d, e − d) ≤ ecc(w) ≤ e + d`. Each node keeps the tightest
    /// bounds seen so far; the largest lower bound `D⁻` never exceeds
    /// the diameter, and a node whose upper bound is `≤ D⁻` cannot raise
    /// it, so it stops being a candidate. The next BFS source alternates
    /// between the candidate with the largest upper bound (a far node,
    /// which raises `D⁻`) and the one with the smallest lower bound (a
    /// central node, whose small eccentricity tightens every upper
    /// bound). Every BFS drops at least its own source, whose bounds
    /// meet, so the search ends with no candidates left. That is the
    /// point at which the upper bound on D, `D⁻` or the largest upper
    /// bound among candidates, meets `D⁻`, which is then the exact
    /// diameter.
    ///
    /// The first BFS runs from node 0 and answers `None` if it does not
    /// reach every node. The worst case is n BFS, O(n·(n+m)), on graphs
    /// where every node has the same eccentricity (cycles). SINR-induced
    /// graphs need a handful: 6–30 BFS on sixteen connected uniform
    /// n=1024 deployments (0.3–1.4 ms, against ~50 ms for a BFS from
    /// every node, on a 2-CPU Xeon container), 12–17 at n=4096, and 130
    /// on the symmetric 64×64 lattice.
    ///
    /// Computed **once**: the result is memoized and shared through
    /// clones, so repeated reports over a cached deployment pay nothing
    /// after the first.
    pub fn diameter(&self) -> Option<u32> {
        *self.diameter.get_or_init(|| self.bounded_diameter().0)
    }

    /// [`Graph::diameter`]'s search, uncached, with the number of BFS it
    /// ran.
    fn bounded_diameter(&self) -> (Option<u32>, usize) {
        let n = self.adj.len();
        if n == 0 {
            return (None, 0);
        }
        let mut scratch = Bfs::default();
        let mut lo = vec![0u32; n];
        let mut hi = vec![u32::MAX; n];
        let mut candidates: Vec<u32> = (0..n as u32).collect();
        let mut d_lo = 0;
        let mut src = 0;
        let mut searches = 0;
        loop {
            let (ecc, reached) = self.search(src, &mut scratch);
            searches += 1;
            if reached < n {
                return (None, searches);
            }
            for &w in &candidates {
                let w = w as usize;
                let d = scratch.dist[w];
                lo[w] = lo[w].max(d.max(ecc - d));
                hi[w] = hi[w].min(ecc + d);
                d_lo = d_lo.max(lo[w]);
            }
            candidates.retain(|&w| hi[w as usize] > d_lo);
            // Ties go to the lowest index, so the search is deterministic.
            let next = if searches % 2 == 1 {
                candidates
                    .iter()
                    .copied()
                    .max_by_key(|&w| (hi[w as usize], u32::MAX - w))
            } else {
                candidates
                    .iter()
                    .copied()
                    .min_by_key(|&w| (lo[w as usize], w))
            };
            match next {
                Some(w) => src = w as usize,
                None => return (Some(d_lo), searches),
            }
        }
    }

    /// The subgraph induced by `nodes` (§4.1's `G|S`), with nodes
    /// renumbered `0..nodes.len()` in the given order.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-range indices.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Graph {
        let mut map = vec![usize::MAX; self.adj.len()];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < self.adj.len(), "node {old} out of range");
            assert!(map[old] == usize::MAX, "duplicate node {old}");
            map[old] = new;
        }
        let mut edges = Vec::new();
        for (new_a, &old_a) in nodes.iter().enumerate() {
            for &old_b in &self.adj[old_a] {
                let new_b = map[old_b as usize];
                if new_b != usize::MAX && new_a < new_b {
                    edges.push((new_a, new_b));
                }
            }
        }
        Graph::from_edges(nodes.len(), edges)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.adj.len())
            .field("edges", &self.edge_count)
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
    }

    #[test]
    fn from_edges_dedups_and_ignores_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn path_distances_and_diameter() {
        let g = path(5);
        assert_eq!(g.hop_distance(0, 4), Some(4));
        assert_eq!(g.diameter(), Some(4));
        assert_eq!(g.eccentricity(2), Some(2));
    }

    #[test]
    fn disconnected_graph_reports_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.hop_distance(0, 3), None);
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn neighborhood_includes_self() {
        let g = path(5);
        assert_eq!(g.neighborhood(2, 0), vec![2]);
        assert_eq!(g.neighborhood(2, 1), vec![1, 2, 3]);
        assert_eq!(g.neighborhood(0, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g0 = Graph::empty(0);
        assert!(g0.is_connected());
        assert_eq!(g0.diameter(), None);
        let g1 = Graph::empty(1);
        assert!(g1.is_connected());
        assert_eq!(g1.diameter(), Some(0));
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let g = Graph::from_edges(4, [(3, 0), (1, 2), (0, 1)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let sub = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.len(), 3);
        let edges: Vec<_> = sub.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        let g = path(3);
        let _ = g.induced_subgraph(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = Graph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn max_degree_of_star() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 1);
    }

    /// The all-pairs oracle: the largest eccentricity over every node.
    fn all_pairs_diameter(g: &Graph) -> Option<u32> {
        if g.is_empty() {
            return None;
        }
        (0..g.len())
            .map(|v| g.eccentricity(v))
            .try_fold(0, |m, e| Some(m.max(e?)))
    }

    /// Asserts the bounded search matches the oracle within n BFS, and
    /// returns how many BFS it ran.
    fn check_diameter(g: &Graph) -> usize {
        let (d, searches) = g.bounded_diameter();
        assert_eq!(d, all_pairs_diameter(g), "{g:?}");
        assert_eq!(g.diameter(), d);
        assert!(searches <= g.len().max(1), "{searches} BFS on {g:?}");
        searches
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    fn grid(w: usize, h: usize) -> Graph {
        let id = |x: usize, y: usize| y * w + x;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        Graph::from_edges(w * h, edges)
    }

    fn complete(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))))
    }

    #[test]
    fn diameter_of_cycles() {
        for n in [3, 4, 5, 10, 11, 32, 33] {
            check_diameter(&cycle(n));
            assert_eq!(cycle(n).diameter(), Some(n as u32 / 2));
        }
    }

    #[test]
    fn diameter_of_paths_stars_and_complete_graphs() {
        for n in [2, 3, 7, 50] {
            // A double sweep settles a path: BFS from node 0, then from
            // the far end.
            assert!(check_diameter(&path(n)) <= 3);
            assert_eq!(path(n).diameter(), Some(n as u32 - 1));
            let star = Graph::from_edges(n, (1..n).map(|i| (0, i)));
            check_diameter(&star);
            assert_eq!(star.diameter(), Some(if n > 2 { 2 } else { 1 }));
            check_diameter(&complete(n));
            assert_eq!(complete(n).diameter(), Some(1));
        }
    }

    #[test]
    fn diameter_of_grids() {
        for (w, h) in [(1, 5), (2, 2), (4, 7), (8, 8), (9, 6)] {
            check_diameter(&grid(w, h));
            assert_eq!(grid(w, h).diameter(), Some((w + h - 2) as u32));
        }
    }

    #[test]
    fn diameter_of_cliques_joined_by_a_long_path() {
        // Two 6-cliques, nodes 0..6 and 6..12, joined by a path of 9
        // extra nodes from clique node 5 to clique node 6.
        let mut edges: Vec<(usize, usize)> = complete(6).edges().collect();
        edges.extend(complete(6).edges().map(|(a, b)| (a + 6, b + 6)));
        let mut prev = 5;
        for v in 12..21 {
            edges.push((prev, v));
            prev = v;
        }
        edges.push((prev, 6));
        let g = Graph::from_edges(21, edges);
        check_diameter(&g);
        assert_eq!(g.diameter(), Some(12));
    }

    #[test]
    fn diameter_of_tiny_and_disconnected_graphs() {
        assert_eq!(check_diameter(&Graph::empty(0)), 0);
        assert_eq!(Graph::empty(0).diameter(), None);
        check_diameter(&Graph::empty(1));
        assert_eq!(Graph::empty(1).diameter(), Some(0));
        check_diameter(&Graph::empty(2));
        assert_eq!(Graph::empty(2).diameter(), None);
        check_diameter(&path(2));
        let split = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        // One BFS from node 0 proves the graph disconnected.
        assert_eq!(check_diameter(&split), 1);
        assert_eq!(split.diameter(), None);
    }
}
