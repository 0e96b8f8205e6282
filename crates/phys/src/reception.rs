//! Reception decisions: who decodes whom in a slot.
//!
//! Because the decoding threshold satisfies `β > 1`, at most one
//! transmitter can be decoded by a given listener in a given slot, and it
//! can only be the transmitter with the strongest received signal (any
//! weaker candidate has both less signal and more interference). The
//! backends here exploit that: per listener they find the nearest
//! transmitter and evaluate the SINR inequality once.
//!
//! # The [`InterferenceBackend`] trait
//!
//! Every slot of every simulation funnels through one reception decision
//! per listener, so this is the hot path of the whole workspace. The
//! computation is pluggable through [`InterferenceBackend`], with three
//! implementations offering different accuracy/throughput trade-offs:
//!
//! * [`ExactBackend`] sums `P/d^α` over every transmitter — the ground
//!   truth, O(listeners × senders) per slot. Use it for small networks and
//!   as the reference the other backends are validated against.
//!
//! * [`GridFarFieldBackend`] handles transmitters near the listener
//!   exactly and aggregates each far grid cell as
//!   `|cell| · P / dist(cell)^α` using the cell's nearest point to the
//!   listener. Far distances are under-estimated, so interference is
//!   over-estimated: the approximation is **conservative** — it never
//!   grants a reception the exact model would deny (verified by unit
//!   tests, the `tests/backend_equivalence.rs` proptests and the
//!   `interference` bench). This mirrors the ring decomposition used in
//!   the proof of Lemma 10.3 of the paper: there, interference from
//!   transmitters in concentric distance ring `i` is bounded by
//!   `|ring_i| · P / r_i^α` with `r_i` the ring's inner radius; here each
//!   grid cell plays the role of one ring segment, with
//!   [`HashGrid::cell_min_dist`] as its inner radius. Cost per listener is
//!   O(near transmitters + occupied cells) instead of O(senders).
//!
//! * [`CachedBackend`] precomputes every pairwise link gain `P/d^α` once
//!   per deployment into an immutable [`GainTable`] (flat row-major
//!   `n×n`, held in an `Arc` so many runs over one deployment share a
//!   single copy), then drives each slot from the *delta* of the
//!   transmitter set: the total interference at every listener is
//!   maintained incrementally — in a small per-run [`SlotState`] — as
//!   senders enter and leave, with a periodic exact refresh bounding
//!   float drift and a guarded near-threshold fallback that replays the
//!   exact summation — receptions are **bit-identical** to
//!   [`ExactBackend`] (verified by proptest, including churn). Per-slot
//!   cost is O(|Δ senders| × n) instead of O(n × senders), at O(n²)
//!   memory *per deployment* (not per run: sweeps over a fixed
//!   deployment hand every cell a clone of one `Arc<GainTable>`). The
//!   fastest choice for long simulations whose transmitter set evolves
//!   gradually (every MAC layer in this workspace).
//!
//! * [`HybridBackend`] fuses the two approximable halves for city-scale
//!   deployments (n = 10⁴–10⁵, where the dense table would need 1.6 GB
//!   to 160 GB): pairs within a spatial-hash cutoff radius get the
//!   cached treatment — exact gains in CSR-style sparse rows
//!   ([`HybridTable`], O(n·near_degree) memory), driven incrementally by
//!   transmitter deltas — while each far cell is aggregated as
//!   `count · P/box^α` with `box` the cell-pair lower-bound distance,
//!   maintained incrementally from per-cell transmitter counts. Far
//!   distances are under-estimated, so like the grid model the kernel is
//!   **conservative**: it never decodes a message [`ExactBackend`] would
//!   reject (and since `β > 1` forces any granted sender to strictly
//!   dominate, a granted message always names the sender exact would
//!   name). The near-field half of the arithmetic is bit-identical to
//!   the dense kernel's. [`BackendSpec::tuned`] auto-selects this model
//!   when a requested dense table would exceed [`max_table_bytes`].
//!
//! * [`ParallelBackend`] wraps the exact or grid model and splits the
//!   per-listener loop across OS threads (`std::thread::scope`).
//!   Listeners are independent, so the result is **bit-identical** to the
//!   serial computation at any thread count (verified by proptest) —
//!   parallelism is purely a wall-clock lever for large deployments.
//!   Below [`PAR_CROSSOVER_LISTENERS`] listeners the thread fan-out costs
//!   more than it saves, so the parallel paths automatically fall back to
//!   serial execution (see [`effective_threads`]).
//!
//! # Lifecycle: `prepare` once, `decide_slot` every slot
//!
//! Backends are stateful. [`InterferenceBackend::prepare`] is called once
//! per run with the deployment (the `Engine` does this at construction
//! and on backend swaps) and front-loads whatever the backend can
//! precompute — the gain matrix for [`CachedBackend`], nothing for the
//! stateless models. [`decide_slot`](InterferenceBackend::decide_slot)
//! then runs every slot against the prepared deployment; scratch
//! allocations (sender position buffers, flattened cell lists, delta
//! sets) are reused across slots. Calling `decide_slot` without `prepare`
//! (or with a different deployment) stays correct — backends detect the
//! mismatch and re-prepare lazily — so the [`decide_receptions`]
//! convenience wrapper keeps working, it just pays the preparation cost
//! on every call.
//!
//! Moving deployments add a third lifecycle hook:
//! [`update_positions`](InterferenceBackend::update_positions), called by
//! the engine between slots with the nodes that moved. Stateless
//! backends ignore it; the cached kernel repairs only the touched gain
//! rows/columns and the affected incremental totals — O(movers × n)
//! instead of the O(n²) re-`prepare` a position change would otherwise
//! force (measured ≥5x per slot at n = 1024 with n/32 movers; see
//! `BENCH_reception.json`). When the kernel's [`GainTable`] is shared
//! with other runs, the first repair forks a private copy
//! (`Arc::make_mut` copy-on-write), so movement in one run can never
//! corrupt another run's gains — sharing stays safe even if a moving
//! scenario is accidentally handed a shared table.
//!
//! Selection is data-driven through [`BackendSpec`], a small `Copy` value
//! that travels through constructor APIs (`Engine`, `SinrAbsMac`,
//! `DecayMac`, the baselines, the bench binaries) and builds the backend
//! at the edge.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use sinr_geom::{HashGrid, Point};

use crate::{simd, PhysError, SinrParams};

/// How interference sums are computed by [`decide_receptions`].
///
/// This is the legacy serial-model selector, kept because it appears in
/// many constructor signatures; [`BackendSpec`] supersedes it and adds
/// parallel execution. Every `InterferenceModel` converts losslessly into
/// a `BackendSpec`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum InterferenceModel {
    /// Exact summation over all transmitters.
    #[default]
    Exact,
    /// Exact within the weak range (plus one cell diagonal); per-cell
    /// aggregation beyond. Conservative (see module docs).
    GridFarField {
        /// Grid cell side; a good default is half the weak range.
        cell_size: f64,
    },
    /// Cached-gain kernel: pairwise gains precomputed once per deployment,
    /// per-listener interference maintained incrementally from transmitter
    /// deltas. Receptions are bit-identical to [`Exact`](Self::Exact) at
    /// O(|Δ senders| × n) per slot and O(n²) memory (see module docs).
    Cached,
    /// Sparse near-field / aggregated far-field kernel: exact cached gains
    /// only for pairs within a spatial-hash cutoff radius (sparse
    /// CSR-style rows), per-cell far-field interference maintained
    /// incrementally from transmitter deltas. Conservative like
    /// [`GridFarField`](Self::GridFarField), O(n · near_degree) memory —
    /// the city-scale kernel for n = 10⁴–10⁵ where the dense table cannot
    /// exist (see module docs).
    Hybrid {
        /// Near-field cutoff radius; `0.0` means auto (the weak range R).
        cutoff: f64,
    },
}

/// Complete, serializable description of a reception backend: which
/// interference model to run and across how many threads.
///
/// `BackendSpec` is the value that travels through constructor APIs; the
/// actual worker state is built once at the edge with
/// [`BackendSpec::build`].
///
/// # Examples
///
/// ```
/// use sinr_phys::reception::BackendSpec;
///
/// let spec = BackendSpec::grid_far_field(8.0).with_threads(4);
/// let backend = spec.build();
/// assert_eq!(backend.name(), "grid+par");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSpec {
    /// The serial interference model each listener decision uses.
    pub model: InterferenceModel,
    /// OS threads the per-listener loop is split across (1 = serial).
    pub threads: usize,
}

impl Default for BackendSpec {
    fn default() -> Self {
        BackendSpec {
            model: InterferenceModel::Exact,
            threads: 1,
        }
    }
}

impl From<InterferenceModel> for BackendSpec {
    fn from(model: InterferenceModel) -> Self {
        BackendSpec { model, threads: 1 }
    }
}

impl BackendSpec {
    /// Serial exact summation.
    pub fn exact() -> Self {
        BackendSpec::default()
    }

    /// Serial grid-aggregated far field with the given cell side.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is positive and finite.
    pub fn grid_far_field(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive"
        );
        BackendSpec {
            model: InterferenceModel::GridFarField { cell_size },
            threads: 1,
        }
    }

    /// The cached-gain delta kernel (bit-identical to exact, fastest for
    /// long runs; see module docs).
    pub fn cached() -> Self {
        BackendSpec {
            model: InterferenceModel::Cached,
            threads: 1,
        }
    }

    /// The sparse hybrid near/far kernel with the given near-field cutoff
    /// radius (`0.0` = auto: the weak range R of the parameters the
    /// backend is later prepared with).
    ///
    /// # Panics
    ///
    /// Panics unless `cutoff` is finite and non-negative.
    pub fn hybrid(cutoff: f64) -> Self {
        assert!(
            cutoff.is_finite() && cutoff >= 0.0,
            "hybrid cutoff must be finite and non-negative"
        );
        BackendSpec {
            model: InterferenceModel::Hybrid { cutoff },
            threads: 1,
        }
    }

    /// The same model split across `threads` OS threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        BackendSpec { threads, ..self }
    }

    /// Resolves the thread count against a concrete deployment size via
    /// the serial/parallel crossover ([`effective_threads`]): below
    /// [`PAR_CROSSOVER_LISTENERS`] listeners the returned spec is serial,
    /// so small scenarios never pay thread fan-out that costs more than
    /// it saves. Thread tuning never changes results — only wall clock.
    ///
    /// **Memory fallback:** a [`Cached`](InterferenceModel::Cached) model
    /// whose dense table would exceed [`max_table_bytes`] at this
    /// deployment size is replaced by the sparse
    /// [`Hybrid`](InterferenceModel::Hybrid) kernel (auto cutoff). Unlike
    /// thread tuning this **does change results** — hybrid is a
    /// conservative approximation, not bit-identical to exact — but the
    /// alternative is a structured refusal
    /// ([`PhysError::GainTableTooLarge`]) at preparation time, and a
    /// scenario that opted into `tuned` sizing asked for the backend to
    /// fit the deployment. The swap is loud in reports: the backend name
    /// becomes `hybrid`.
    pub fn tuned(self, listeners: usize) -> Self {
        let model = match self.model {
            InterferenceModel::Cached if dense_table_bytes(listeners) > max_table_bytes() => {
                InterferenceModel::Hybrid { cutoff: 0.0 }
            }
            m => m,
        };
        BackendSpec {
            model,
            threads: effective_threads(self.threads, listeners),
        }
    }

    /// Builds the worker for this spec.
    pub fn build(self) -> Box<dyn InterferenceBackend> {
        let serial: Box<dyn InterferenceBackend> = match self.model {
            InterferenceModel::Exact => Box::new(ExactBackend::new()),
            InterferenceModel::GridFarField { cell_size } => {
                Box::new(GridFarFieldBackend::new(cell_size))
            }
            // The cached and hybrid kernels own their thread handling
            // (their hot loops are listener-chunked internally), so they
            // never go through `ParallelBackend`.
            InterferenceModel::Cached => {
                return Box::new(CachedBackend::with_threads(self.threads))
            }
            InterferenceModel::Hybrid { cutoff } => {
                return Box::new(HybridBackend::with_threads(cutoff, self.threads))
            }
        };
        if self.threads == 1 {
            serial
        } else {
            Box::new(ParallelBackend::new(self.model, self.threads))
        }
    }

    /// Builds the worker for this spec around an already-built shared
    /// gain table.
    ///
    /// Only the cached model consumes the table (the stateless models
    /// have nothing to precompute), and only when it matches the
    /// deployment the backend is later prepared against — a mismatched
    /// table is simply rebuilt by `prepare`, so this is always correct
    /// and at worst as expensive as [`BackendSpec::build`]. This is the
    /// construction path the scenario sweep planner uses to amortize one
    /// O(n²) preparation across every cell of a sweep group.
    pub fn build_with_table(self, table: Option<&Arc<GainTable>>) -> Box<dyn InterferenceBackend> {
        match (self.model, table) {
            (InterferenceModel::Cached, Some(table)) => Box::new(CachedBackend::with_shared_table(
                Arc::clone(table),
                self.threads,
            )),
            _ => self.build(),
        }
    }

    /// Like [`BackendSpec::build_with_table`], but consuming whichever
    /// member of a [`SharedTables`] carrier this spec's model can use:
    /// the dense table for the cached kernel, the sparse table for the
    /// hybrid kernel, nothing for the stateless models. A missing or
    /// later-mismatching table degrades to a private build, never to an
    /// error.
    pub fn build_with_tables(self, tables: Option<&SharedTables>) -> Box<dyn InterferenceBackend> {
        match self.model {
            InterferenceModel::Cached => self.build_with_table(tables.and_then(|t| t.dense())),
            InterferenceModel::Hybrid { cutoff } => match tables.and_then(|t| t.hybrid()) {
                Some(table) => Box::new(HybridBackend::with_shared_table(
                    cutoff,
                    Arc::clone(table),
                    self.threads,
                )),
                None => self.build(),
            },
            _ => self.build(),
        }
    }

    /// Parses a spec from a compact string, for CLI/bench selection:
    /// `exact`, `grid:CELL`, `cached`, `hybrid[:CUTOFF]`, `par:THREADS`,
    /// or combinations like `grid:CELL:par:THREADS` and
    /// `hybrid:16:par:8`. The hybrid cutoff is optional — bare `hybrid`
    /// auto-selects the weak range R at preparation time.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on malformed input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = BackendSpec::exact();
        let mut parts = s.split(':').peekable();
        loop {
            match parts.next() {
                None => return Ok(spec),
                Some("exact") => spec.model = InterferenceModel::Exact,
                Some("cached") => spec.model = InterferenceModel::Cached,
                Some("hybrid") => {
                    // The cutoff component is optional: consume the next
                    // component only if it is numeric (so `hybrid:par:8`
                    // keeps working).
                    let mut cutoff = 0.0f64;
                    if let Some(c) = parts.peek().and_then(|p| p.parse::<f64>().ok()) {
                        if !(c.is_finite() && c >= 0.0) {
                            return Err(format!(
                                "hybrid cutoff must be finite and non-negative, got {c}"
                            ));
                        }
                        cutoff = c;
                        parts.next();
                    }
                    spec.model = InterferenceModel::Hybrid { cutoff };
                }
                Some("grid") => {
                    let cell = parts
                        .next()
                        .ok_or_else(|| "grid needs a cell size, e.g. grid:8".to_string())?;
                    let cell_size: f64 = cell
                        .parse()
                        .map_err(|e| format!("bad grid cell size {cell:?}: {e}"))?;
                    if !(cell_size.is_finite() && cell_size > 0.0) {
                        return Err(format!("grid cell size must be positive, got {cell_size}"));
                    }
                    spec.model = InterferenceModel::GridFarField { cell_size };
                }
                Some("f32") => {
                    return Err("backend component \"f32\" was removed: every table kernel \
                         now runs in f64; drop \":f32\" from the spec"
                        .to_string())
                }
                Some("par") => {
                    let t = parts
                        .next()
                        .ok_or_else(|| "par needs a thread count, e.g. par:4".to_string())?;
                    let threads: usize = t
                        .parse()
                        .map_err(|e| format!("bad thread count {t:?}: {e}"))?;
                    if threads == 0 {
                        return Err("thread count must be nonzero".to_string());
                    }
                    spec.threads = threads;
                }
                Some(other) => {
                    return Err(format!(
                    "unknown backend component {other:?}; expected exact, grid:CELL, cached, hybrid[:CUTOFF] or par:THREADS"
                ))
                }
            }
        }
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.model {
            InterferenceModel::Exact => write!(f, "exact")?,
            InterferenceModel::GridFarField { cell_size } => write!(f, "grid:{cell_size}")?,
            InterferenceModel::Cached => write!(f, "cached")?,
            InterferenceModel::Hybrid { cutoff: 0.0 } => write!(f, "hybrid")?,
            InterferenceModel::Hybrid { cutoff } => write!(f, "hybrid:{cutoff}")?,
        }
        if self.threads > 1 {
            write!(f, ":par:{}", self.threads)?;
        }
        Ok(())
    }
}

/// A reusable worker that resolves all reception decisions of one slot.
///
/// Implementations own their scratch buffers, so calling
/// [`decide_slot`](InterferenceBackend::decide_slot) every slot performs
/// no per-slot allocations beyond what the slot's sender count forces.
/// See the module docs for the trade-offs between the implementations.
pub trait InterferenceBackend: Send {
    /// Short stable identifier (`"exact"`, `"grid"`, `"cached"`,
    /// `"exact+par"`, `"grid+par"`, `"cached+par"`), used by benches and
    /// diagnostics.
    fn name(&self) -> &'static str;

    /// Front-loads per-deployment work (first phase of the lifecycle;
    /// see module docs).
    ///
    /// Called once per run before the first
    /// [`decide_slot`](InterferenceBackend::decide_slot), and again
    /// whenever positions or parameters change. The default is a no-op:
    /// the exact and grid models have nothing to precompute. The cached
    /// kernel builds its [`GainTable`] here (unless it was constructed
    /// around a matching shared table, in which case only the per-run
    /// [`SlotState`] is reset), so the O(n²) gain matrix is paid at
    /// construction instead of inside the first simulated slot; the
    /// hybrid kernel builds its sparse [`HybridTable`] likewise.
    ///
    /// # Errors
    ///
    /// [`PhysError::GainTableTooLarge`] when the cached kernel's dense
    /// table would exceed [`max_table_bytes`] — a structured refusal
    /// instead of an OOM abort inside the n×n allocation. The stateless
    /// and hybrid backends never fail.
    fn prepare(&mut self, _params: &SinrParams, _positions: &[Point]) -> Result<(), PhysError> {
        Ok(())
    }

    /// Decides receptions for every node given the set of transmitters.
    ///
    /// Writes one entry per node into `out` (which must have
    /// `positions.len()` entries): `Some(sender)` if that node decodes a
    /// transmission this slot, `None` otherwise. Transmitters themselves
    /// are always `None` (half-duplex).
    ///
    /// `senders` must be sorted, deduplicated node indices into
    /// `positions`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != positions.len()`, or if `senders` is not
    /// sorted/deduplicated or contains an index out of range — all are
    /// engine invariants, not user input.
    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    );

    /// Fallible variant of
    /// [`decide_slot`](InterferenceBackend::decide_slot) for long-lived
    /// callers (a scenario service worker) that must reject one bad
    /// request instead of letting it poison the process: backends whose
    /// slot path can fail — the table-backed kernels, whose lazy
    /// re-preparation can hit the [`max_table_bytes`] cap — return the
    /// structured [`PhysError`] here and reserve panicking for the
    /// infallible-signature `decide_slot` edge. The default forwards to
    /// `decide_slot`: the stateless models have no failure mode.
    ///
    /// # Errors
    ///
    /// Whatever [`prepare`](InterferenceBackend::prepare) can produce
    /// (the lazy re-preparation runs it), plus
    /// [`PhysError::BackendNotPrepared`] if a table-backed kernel's
    /// state went missing mid-decision.
    fn try_decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) -> Result<(), PhysError> {
        self.decide_slot(params, positions, senders, out);
        Ok(())
    }

    /// Notifies the backend that nodes moved between slots (the mobility
    /// lifecycle hook).
    ///
    /// `positions` is the **already updated** full position slice and
    /// `moved` lists the changed nodes as `(index, new position)` pairs —
    /// ascending indices, each node at most once. Stateless backends
    /// (exact, grid, their parallel wrappers) read positions fresh every
    /// slot, so the default is a no-op. The cached kernel overrides this
    /// to repair only the touched gain rows/columns and the affected
    /// incremental interference totals — O(movers × n) instead of the
    /// O(n²) re-`prepare` the position change would otherwise force on
    /// the next slot.
    ///
    /// Calling [`decide_slot`](InterferenceBackend::decide_slot) after a
    /// position change *without* this hook stays correct for every
    /// backend (the cached kernel detects the mismatch and re-prepares
    /// lazily); the hook is purely the fast path.
    fn update_positions(
        &mut self,
        _params: &SinrParams,
        _positions: &[Point],
        _moved: &[(usize, Point)],
    ) {
    }
}

/// Validates the shared `decide_slot` preconditions.
fn check_invariants(positions: &[Point], senders: &[usize], out: &[Option<usize>]) {
    assert_eq!(
        out.len(),
        positions.len(),
        "output slice must have one entry per node"
    );
    assert!(
        senders.windows(2).all(|w| w[0] < w[1]),
        "senders must be sorted and deduplicated"
    );
    if let Some(&last) = senders.last() {
        assert!(last < positions.len(), "sender index out of range");
    }
}

/// Exact interference summation (see module docs).
#[derive(Debug, Default)]
pub struct ExactBackend {
    sender_pts: Vec<Point>,
}

impl ExactBackend {
    /// A fresh backend with empty scratch buffers.
    pub fn new() -> Self {
        ExactBackend::default()
    }
}

impl InterferenceBackend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        check_invariants(positions, senders, out);
        out.fill(None);
        if senders.is_empty() {
            return;
        }
        self.sender_pts.clear();
        self.sender_pts
            .extend(senders.iter().map(|&s| positions[s]));
        for (u, slot) in out.iter_mut().enumerate() {
            *slot = decide_exact(params, positions, senders, &self.sender_pts, u);
        }
    }
}

/// Grid-aggregated far-field interference (see module docs).
#[derive(Debug)]
pub struct GridFarFieldBackend {
    cell_size: f64,
    sender_pts: Vec<Point>,
    /// Flattened `(cell, members)` list rebuilt each slot; the outer `Vec`
    /// and the per-cell member `Vec`s are recycled across slots.
    cells: Vec<((i64, i64), Vec<usize>)>,
}

impl GridFarFieldBackend {
    /// A fresh backend with square cells of side `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive"
        );
        GridFarFieldBackend {
            cell_size,
            sender_pts: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// The grid cell side this backend aggregates with.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }
}

impl InterferenceBackend for GridFarFieldBackend {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        check_invariants(positions, senders, out);
        out.fill(None);
        if senders.is_empty() {
            return;
        }
        self.sender_pts.clear();
        self.sender_pts
            .extend(senders.iter().map(|&s| positions[s]));
        // The grid is built once per slot over this slot's transmitter
        // set; the flattened cell list reuses last slot's allocations.
        let grid = HashGrid::build(&self.sender_pts, self.cell_size);
        rebuild_cells(&grid, &mut self.cells);
        let ctx = GridSlot {
            grid: &grid,
            cells: &self.cells,
            near_cutoff: near_cutoff(params, self.cell_size),
        };
        for (u, slot) in out.iter_mut().enumerate() {
            *slot = decide_grid(params, positions, senders, &self.sender_pts, &ctx, u);
        }
    }
}

/// Any transmitter within the weak range R of a listener is handled
/// exactly (it could be the decode candidate or a dominant interferer);
/// one cell diagonal of slack means such a cell is never aggregated.
fn near_cutoff(params: &SinrParams, cell_size: f64) -> f64 {
    params.range() + cell_size * std::f64::consts::SQRT_2
}

/// Refills the reusable flattened cell list from a freshly built grid,
/// recycling last slot's member allocations. Sorted by cell key: the
/// grid's hash map iterates in a per-instance random order, and float
/// interference sums are order-sensitive, so without the sort the same
/// seeded simulation could differ by ulps across process runs — breaking
/// the workspace's determinism contract at near-threshold decodes.
fn rebuild_cells(grid: &HashGrid, cells: &mut Vec<((i64, i64), Vec<usize>)>) {
    let mut pool: Vec<Vec<usize>> = cells
        .drain(..)
        .map(|(_, mut members)| {
            members.clear();
            members
        })
        .collect();
    for (cell, members) in grid.cells() {
        let mut owned = pool.pop().unwrap_or_default();
        owned.extend_from_slice(members);
        cells.push((cell, owned));
    }
    cells.sort_unstable_by_key(|(cell, _)| *cell);
}

/// Below this many listeners, parallel reception paths run serial.
///
/// Thread spawn/join costs a few tens of microseconds per slot, so
/// requesting threads for a small deployment must not be honored
/// blindly: BENCH_reception.json measured `exact+par` 2.2x *slower*
/// than `exact` at n = 64 and still behind at n = 256. The threshold
/// sits at 512 rather than at that run's break-even (~1024) because the
/// BENCH numbers come from a core-starved CI container whose parallel
/// rows mostly price spawn overhead — on machines with real cores the
/// crossover lands earlier — and because the same gate serves the
/// one-shot [`GainTable::build`] row fill, an O(n²) job that amortizes
/// its spawns far sooner than a per-slot loop does.
pub const PAR_CROSSOVER_LISTENERS: usize = 512;

/// Minimum listeners each spawned thread must own past the crossover.
///
/// A per-slot sweep touches ~8–16 bytes per listener per delta sender —
/// a few microseconds of work per 256 listeners — which is the smallest
/// chunk that reliably pays for a `thread::scope` spawn/join. Smaller
/// chunks turned the n=1024 `grid+par` row *slower* than serial `grid`
/// in BENCH_reception.json; this floor (together with the hardware cap)
/// is what guarantees `+par` backends are never slower than their
/// serial counterparts at any benched size.
pub const PAR_MIN_CHUNK: usize = 256;

/// Resolves a requested thread count against a deployment size: serial
/// below [`PAR_CROSSOVER_LISTENERS`] listeners, never more threads than
/// the machine has cores, and never fewer than [`PAR_MIN_CHUNK`]
/// listeners per thread. Every parallel path in this module routes
/// through this, so `with_threads(8)` on a 64-node scenario — or on a
/// single-core container — is a no-op rather than a slowdown.
pub fn effective_threads(requested: usize, listeners: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    effective_threads_for(requested, listeners, hw)
}

/// The injectable core of [`effective_threads`]: the same resolution
/// against an explicit hardware thread count `hw`, so the crossover,
/// the hardware cap (no oversubscription: spawning 8 threads on 1 core
/// made `grid+par` 2x slower than `grid` at n = 1024) and the
/// per-thread work floor can be pinned by tests independently of the
/// machine running them.
pub fn effective_threads_for(requested: usize, listeners: usize, hw: usize) -> usize {
    if listeners < PAR_CROSSOVER_LISTENERS {
        return 1;
    }
    requested
        .min(hw.max(1))
        .clamp(1, (listeners / PAR_MIN_CHUNK).max(1))
}

/// Runs one task per chunk of pre-split work, spawning a scoped OS
/// thread per chunk — the single chunking primitive behind every
/// parallel loop in this module (gain-table row fill, the cached and
/// hybrid listener-state sweeps, the parallel per-listener decide).
///
/// Callers split their mutable state into disjoint chunk values first
/// (`chunks_mut` plus whatever per-chunk context the task needs) and
/// decide the chunk count via [`effective_threads`]; a single chunk runs
/// inline on the calling thread, so the serial path never pays
/// `thread::scope` setup.
fn chunked_scope<T: Send>(chunks: Vec<T>, task: impl Fn(T) + Sync) {
    if chunks.len() <= 1 {
        for chunk in chunks {
            task(chunk);
        }
        return;
    }
    let task = &task;
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move || task(chunk));
        }
    });
}

/// Default dense gain-table memory cap: 2 GiB (n ≈ 11586).
const DEFAULT_MAX_TABLE_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Granularity of the nearest-sender prune index: one entry of the
/// gain table's block-min array covers this many consecutive
/// listeners, and one `u64` word of a sender bitmap covers exactly
/// one block.
const PRUNE_BLOCK: usize = 64;

/// Per-row minima of `matrix` (row-major, `n` columns) over
/// [`PRUNE_BLOCK`]-wide column blocks.
fn block_min_rows(matrix: &[f64], n: usize) -> Vec<f64> {
    let nb = n.div_ceil(PRUNE_BLOCK);
    let mut bmin = vec![f64::INFINITY; n * nb];
    for (bmins, row) in bmin.chunks_mut(nb.max(1)).zip(matrix.chunks(n.max(1))) {
        for (bm, chunk) in bmins.iter_mut().zip(row.chunks(PRUNE_BLOCK)) {
            *bm = chunk
                .iter()
                .fold(f64::INFINITY, |m, &v| if v < m { v } else { m });
        }
    }
    bmin
}

/// Bytes a dense [`GainTable`] needs for an `n`-node deployment: two
/// n×n `f64` matrices (gains and squared distances), 16 bytes per pair.
pub fn dense_table_bytes(n: usize) -> u64 {
    (n as u64).saturating_mul(n as u64).saturating_mul(16)
}

/// The dense gain-table memory cap in bytes: `SINR_MAX_TABLE_BYTES` if
/// set (read once per process), else 2 GiB. [`GainTable::try_build`] and
/// [`CachedBackend::prepare`](InterferenceBackend::prepare) refuse —
/// with a structured [`PhysError::GainTableTooLarge`] — deployments
/// whose table would exceed it, and [`BackendSpec::tuned`] swaps such
/// deployments to the sparse hybrid kernel instead.
///
/// # Panics
///
/// Panics if `SINR_MAX_TABLE_BYTES` is set but not a valid `u64` — a
/// misconfigured cap must not silently fall back to the default.
pub fn max_table_bytes() -> u64 {
    static CAP: OnceLock<u64> = OnceLock::new();
    *CAP.get_or_init(|| match std::env::var("SINR_MAX_TABLE_BYTES") {
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("SINR_MAX_TABLE_BYTES: bad value {raw:?}: {e}")),
        Err(_) => DEFAULT_MAX_TABLE_BYTES,
    })
}

/// Chunked parallel execution of either serial model across OS threads.
///
/// Listener decisions are independent, so splitting `out` into contiguous
/// chunks and deciding each chunk on its own thread produces bit-identical
/// results at any thread count. Slot preparation (sender gather, grid
/// build) stays serial — it is linear in the sender count and not worth
/// distributing. Below [`PAR_CROSSOVER_LISTENERS`] listeners the whole
/// slot runs serial ([`effective_threads`]).
#[derive(Debug)]
pub struct ParallelBackend {
    model: InterferenceModel,
    threads: usize,
    sender_pts: Vec<Point>,
    cells: Vec<((i64, i64), Vec<usize>)>,
}

impl ParallelBackend {
    /// A backend running `model` across `threads` OS threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, or if `model` is
    /// [`InterferenceModel::Cached`] or [`InterferenceModel::Hybrid`] —
    /// those kernels chunk their own hot loops (build via
    /// [`BackendSpec::build`] instead).
    pub fn new(model: InterferenceModel, threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        assert!(
            !matches!(
                model,
                InterferenceModel::Cached | InterferenceModel::Hybrid { .. }
            ),
            "the cached/hybrid kernels parallelize internally; build them through BackendSpec"
        );
        if let InterferenceModel::GridFarField { cell_size } = model {
            assert!(
                cell_size.is_finite() && cell_size > 0.0,
                "cell_size must be positive"
            );
        }
        ParallelBackend {
            model,
            threads,
            sender_pts: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl InterferenceBackend for ParallelBackend {
    fn name(&self) -> &'static str {
        match self.model {
            InterferenceModel::Exact => "exact+par",
            InterferenceModel::GridFarField { .. } => "grid+par",
            InterferenceModel::Cached | InterferenceModel::Hybrid { .. } => {
                unreachable!("rejected by ParallelBackend::new")
            }
        }
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        check_invariants(positions, senders, out);
        out.fill(None);
        if senders.is_empty() {
            return;
        }
        self.sender_pts.clear();
        self.sender_pts
            .extend(senders.iter().map(|&s| positions[s]));
        let grid_ctx: Option<(HashGrid, f64)> = match self.model {
            InterferenceModel::Exact => None,
            InterferenceModel::GridFarField { cell_size } => {
                let grid = HashGrid::build(&self.sender_pts, cell_size);
                rebuild_cells(&grid, &mut self.cells);
                Some((grid, near_cutoff(params, cell_size)))
            }
            InterferenceModel::Cached | InterferenceModel::Hybrid { .. } => {
                unreachable!("rejected by ParallelBackend::new")
            }
        };
        let threads = effective_threads(self.threads, positions.len());
        let chunk = positions.len().div_ceil(threads);
        let tasks: Vec<(usize, &mut [Option<usize>])> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, chunk_out)| (k * chunk, chunk_out))
            .collect();
        let sender_pts = &self.sender_pts;
        let cells = &self.cells;
        let grid_ctx = &grid_ctx;
        chunked_scope(tasks, |(base, out_chunk)| {
            for (i, slot) in out_chunk.iter_mut().enumerate() {
                let u = base + i;
                *slot = match grid_ctx {
                    None => decide_exact(params, positions, senders, sender_pts, u),
                    Some((grid, cutoff)) => {
                        let ctx = GridSlot {
                            grid,
                            cells,
                            near_cutoff: *cutoff,
                        };
                        decide_grid(params, positions, senders, sender_pts, &ctx, u)
                    }
                };
            }
        });
    }
}

/// Sentinel in the per-listener best-sender arrays: no current sender.
const NO_SENDER: usize = usize::MAX;

/// Incremental updates per listener between mandatory full refreshes of
/// the cached kernel's interference totals. Each update contributes at
/// most one rounding error of relative size `f64::EPSILON`, so the
/// accumulated drift stays orders of magnitude below the near-threshold
/// guard band that triggers exact recomputation.
const REFRESH_OPS: u64 = 1024;

/// Diffs two sorted, deduplicated index sets into `enters` (in `curr`
/// only) and `leaves` (in `prev` only), clearing both outputs first.
/// Shared by the cached and hybrid kernels' per-slot delta derivation.
fn diff_sorted(prev: &[usize], curr: &[usize], enters: &mut Vec<usize>, leaves: &mut Vec<usize>) {
    enters.clear();
    leaves.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < prev.len() || j < curr.len() {
        match (prev.get(i), curr.get(j)) {
            (Some(&p), Some(&s)) if p == s => {
                i += 1;
                j += 1;
            }
            (Some(&p), Some(&s)) if p < s => {
                leaves.push(p);
                i += 1;
            }
            (Some(_), Some(&s)) => {
                enters.push(s);
                j += 1;
            }
            (Some(&p), None) => {
                leaves.push(p);
                i += 1;
            }
            (None, Some(&s)) => {
                enters.push(s);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
}

/// All pairwise link gains of a deployment, precomputed once.
///
/// Flat row-major storage: `gain(s, u) = P / d(s, u)^α` lives at
/// `s·n + u`, so applying one sender's arrival or departure to every
/// listener is a single contiguous row sweep. A parallel matrix of
/// squared distances backs nearest-sender selection with the same
/// tie-breaking the exact backend uses. Diagonal entries are
/// gain `0` / distance `+∞`: a node never interferes with itself and
/// never becomes its own decode candidate.
///
/// Gains are computed with exactly the operations [`ExactBackend`]
/// performs per pair (`dist_sq → sqrt → received_power`), so sums over
/// cached entries reproduce exact-backend sums bit for bit.
///
/// Memory is O(n²) — 16 MiB of `f64` at n = 1024 — the price of turning
/// per-slot `powf` calls into loads. The table is **immutable from the
/// kernel's point of view**: all per-run mutability lives in
/// [`SlotState`], so one `Arc<GainTable>` built once per deployment can
/// back any number of concurrent [`CachedBackend`]s (sweep cells, worker
/// threads). The only mutation, [`GainTable::move_node`], is applied by
/// the cached kernel through `Arc::make_mut` — copy-on-write, so a
/// moving run forks a private table instead of disturbing its sharers.
#[derive(Debug, Clone)]
pub struct GainTable {
    n: usize,
    params: SinrParams,
    positions: Vec<Point>,
    gains: Vec<f64>,
    d2: Vec<f64>,
    /// Per-sender *lower bounds* on the squared distance into each
    /// [`PRUNE_BLOCK`]-wide listener block (`n × ⌈n/PRUNE_BLOCK⌉`,
    /// row-major). Exact after a build; [`GainTable::move_node`] keeps
    /// them conservative in O(1) per touched row, so pruning can only
    /// get less effective under mobility, never unsound.
    d2_bmin: Vec<f64>,
}

impl GainTable {
    /// Precomputes the gain and distance matrices for a deployment,
    /// chunking the row fill across up to `threads` OS threads (rows are
    /// independent; [`effective_threads`] applies, so small deployments
    /// build serially). The thread count never changes the entries —
    /// each pair is computed independently — so a table built by a sweep
    /// planner equals the one any cell would have built for itself, bit
    /// for bit.
    pub fn build(params: &SinrParams, positions: &[Point], threads: usize) -> Self {
        Self::try_build_with_cap(params, positions, threads, u64::MAX)
            .expect("uncapped build cannot fail")
    }

    /// Like [`GainTable::build`], but refusing — with
    /// [`PhysError::GainTableTooLarge`] — deployments whose n×n matrices
    /// would exceed [`max_table_bytes`], instead of OOM-aborting inside
    /// the allocation. This is the build the cached kernel's
    /// [`prepare`](InterferenceBackend::prepare) uses.
    ///
    /// # Errors
    ///
    /// [`PhysError::GainTableTooLarge`] when `n × n × 16` bytes exceed
    /// the cap.
    pub fn try_build(
        params: &SinrParams,
        positions: &[Point],
        threads: usize,
    ) -> Result<Self, PhysError> {
        Self::try_build_with_cap(params, positions, threads, max_table_bytes())
    }

    /// [`GainTable::try_build`] against an explicit byte cap — the
    /// injectable core, so tests can exercise the refusal without
    /// mutating process environment.
    ///
    /// # Errors
    ///
    /// [`PhysError::GainTableTooLarge`] when `n × n × 16` bytes exceed
    /// `cap`.
    pub fn try_build_with_cap(
        params: &SinrParams,
        positions: &[Point],
        threads: usize,
        cap: u64,
    ) -> Result<Self, PhysError> {
        let n = positions.len();
        let bytes = dense_table_bytes(n);
        if bytes > cap {
            return Err(PhysError::GainTableTooLarge { n, bytes, cap });
        }
        let mut gains = vec![0.0f64; n * n];
        let mut d2 = vec![f64::INFINITY; n * n];
        let fill = |first_row: usize, grows: &mut [f64], drows: &mut [f64]| {
            for (i, (grow, drow)) in grows.chunks_mut(n).zip(drows.chunks_mut(n)).enumerate() {
                let s = first_row + i;
                let ps = positions[s];
                // Two passes per row: the squared-distance sweep is pure
                // mul/add over contiguous memory (the autovectorizable
                // half of the fill), the gain pass then runs the
                // transcendental `sqrt → received_power` chain. Per pair
                // the arithmetic is unchanged — `dist_sq` then
                // `received_power(dd.sqrt())` — so entries stay
                // bit-identical to the fused single-pass fill.
                for (u, dv) in drow.iter_mut().enumerate() {
                    if s != u {
                        *dv = ps.dist_sq(positions[u]);
                    }
                }
                for (u, (gv, dv)) in grow.iter_mut().zip(drow.iter()).enumerate() {
                    if s != u {
                        *gv = params.received_power(dv.sqrt());
                    }
                }
            }
        };
        let eff = effective_threads(threads.max(1), n);
        let tasks: Vec<(usize, &mut [f64], &mut [f64])> = if eff <= 1 || n == 0 {
            vec![(0, gains.as_mut_slice(), d2.as_mut_slice())]
        } else {
            let rows = n.div_ceil(eff);
            gains
                .chunks_mut(rows * n)
                .zip(d2.chunks_mut(rows * n))
                .enumerate()
                .map(|(k, (grows, drows))| (k * rows, grows, drows))
                .collect()
        };
        chunked_scope(tasks, |(first_row, grows, drows)| {
            fill(first_row, grows, drows)
        });
        let d2_bmin = block_min_rows(&d2, n);
        Ok(GainTable {
            n,
            params: *params,
            positions: positions.to_vec(),
            gains,
            d2,
            d2_bmin,
        })
    }

    /// Number of nodes the cache was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resident size of the table in bytes: the gain and distance
    /// matrices (`2 × n² × 8`) and their block minima plus the retained
    /// position copy. This is the quantity byte-budgeted caches account
    /// per entry — a shared `Arc` costs this once no matter how many
    /// runs adopt it.
    pub fn bytes(&self) -> usize {
        (self.gains.len() + self.d2.len() + self.d2_bmin.len()) * std::mem::size_of::<f64>()
            + self.positions.len() * std::mem::size_of::<Point>()
    }

    /// Whether this cache was built for exactly these parameters and
    /// positions (bitwise position equality — the kernel's totals are
    /// only valid against the deployment the gains were derived from).
    pub fn matches(&self, params: &SinrParams, positions: &[Point]) -> bool {
        self.params == *params && self.positions == positions
    }

    /// Received power of sender `s` at listener `u` (0 on the diagonal).
    #[inline]
    pub fn gain(&self, s: usize, u: usize) -> f64 {
        self.gains[s * self.n + u]
    }

    /// Squared distance from sender `s` to listener `u` (`+∞` on the
    /// diagonal).
    #[inline]
    pub fn dist_sq(&self, s: usize, u: usize) -> f64 {
        self.d2[s * self.n + u]
    }

    /// Sender `s`'s gains at the listener range `[base, base + len)`.
    #[inline]
    fn gain_row(&self, s: usize, base: usize, len: usize) -> &[f64] {
        &self.gains[s * self.n + base..s * self.n + base + len]
    }

    /// Sender `s`'s squared distances at the listener range
    /// `[base, base + len)`.
    #[inline]
    fn d2_row(&self, s: usize, base: usize, len: usize) -> &[f64] {
        &self.d2[s * self.n + base..s * self.n + base + len]
    }

    /// Lower bound on sender `s`'s squared distance into listener
    /// block `b` (covering listeners `[b·PRUNE_BLOCK, (b+1)·PRUNE_BLOCK)`).
    #[inline]
    fn d2_block_min(&self, s: usize, b: usize) -> f64 {
        self.d2_bmin[s * self.n.div_ceil(PRUNE_BLOCK) + b]
    }

    /// Repairs the table after `node` moved to `to`: its gain/distance
    /// row (node as sender) and column (node as listener) are recomputed
    /// against the current positions, O(n) with the same per-pair
    /// arithmetic as [`GainTable::build`] — so sums over patched entries
    /// still reproduce exact-backend sums bit for bit. `dist_sq` is
    /// symmetric at the bit level (`(-x)·(-x) == x·x` in IEEE 754), so
    /// one distance computation serves both orientations.
    pub fn move_node(&mut self, node: usize, to: Point) {
        let GainTable {
            n,
            params,
            positions,
            gains,
            d2,
            d2_bmin,
        } = self;
        let n = *n;
        let nb = n.div_ceil(PRUNE_BLOCK);
        let bnode = node / PRUNE_BLOCK;
        positions[node] = to;
        for other in 0..n {
            if other == node {
                continue;
            }
            let dd = to.dist_sq(positions[other]);
            let g = params.received_power(dd.sqrt());
            d2[node * n + other] = dd;
            gains[node * n + other] = g;
            d2[other * n + node] = dd;
            gains[other * n + node] = g;
            // The other row's block bound only needs to stay a lower
            // bound: lowering it towards the new entry is O(1); the
            // (rare) case where the moved entry *was* the minimum and
            // grew just leaves the bound conservatively loose.
            let bm = &mut d2_bmin[other * nb + bnode];
            if dd < *bm {
                *bm = dd;
            }
        }
        // The moved node's own row changed wholesale — recompute its
        // block minima exactly.
        for (b, bm) in d2_bmin[node * nb..node * nb + nb].iter_mut().enumerate() {
            let lo = b * PRUNE_BLOCK;
            let hi = (lo + PRUNE_BLOCK).min(n);
            *bm = d2[node * n + lo..node * n + hi]
                .iter()
                .fold(f64::INFINITY, |m, &v| if v < m { v } else { m });
        }
    }
}

/// A contiguous range of the cached kernel's per-listener state, the
/// unit of work one thread processes. `base` is the global index of the
/// first listener in the slices.
struct ListenerState<'a> {
    base: usize,
    total: &'a mut [f64],
    err: &'a mut [f64],
    best_d2: &'a mut [f64],
    best_s: &'a mut [usize],
}

/// Splits the four per-listener state arrays into `eff` contiguous
/// [`ListenerState`] chunks (a single whole-range chunk when `eff <= 1`),
/// ready for [`chunked_scope`]. Shared by the cached and hybrid kernels'
/// sweeps.
fn listener_chunks<'a>(
    total: &'a mut [f64],
    err: &'a mut [f64],
    best_d2: &'a mut [f64],
    best_s: &'a mut [usize],
    n: usize,
    eff: usize,
) -> Vec<ListenerState<'a>> {
    if eff <= 1 || n == 0 {
        return vec![ListenerState {
            base: 0,
            total,
            err,
            best_d2,
            best_s,
        }];
    }
    let chunk = n.div_ceil(eff);
    total
        .chunks_mut(chunk)
        .zip(err.chunks_mut(chunk))
        .zip(best_d2.chunks_mut(chunk))
        .zip(best_s.chunks_mut(chunk))
        .enumerate()
        .map(|(k, (((total, err), best_d2), best_s))| ListenerState {
            base: k * chunk,
            total,
            err,
            best_d2,
            best_s,
        })
        .collect()
}

/// Folds sender `s`'s distance row into the nearest-sender selection
/// for listeners `[base, base + len)`, skipping the sender's *own*
/// listener slot. A node's zero self-distance would otherwise capture
/// its entry on every enter — an entry that is never read while the
/// node transmits (the decide loop skips `sending` listeners) but that
/// would orphan the node the moment it stops. Excluding self keeps a
/// departing transmitter's entry valid across the departure, which
/// turns the per-slot orphan rescan from "every leaver, every slot"
/// into the rare genuine case of a listener losing its nearest sender.
#[inline]
fn lex_min_skip_self(
    best_d2: &mut [f64],
    best_s: &mut [usize],
    drow: &[f64],
    s: usize,
    base: usize,
) {
    let len = best_d2.len();
    if s >= base && s < base + len {
        let k = s - base;
        simd::lex_min_row(&mut best_d2[..k], &mut best_s[..k], &drow[..k], s);
        simd::lex_min_row(
            &mut best_d2[k + 1..],
            &mut best_s[k + 1..],
            &drow[k + 1..],
            s,
        );
    } else {
        simd::lex_min_row(best_d2, best_s, drow, s);
    }
}

/// Rebuilds a listener range from scratch: totals summed sender-major in
/// ascending sender order (per listener, the identical operation sequence
/// [`ExactBackend`] performs, hence identical bits) and nearest senders
/// re-selected with the exact backend's first-minimum tie-break. Resets
/// the drift bound to cover only the inherent ordered-sum rounding.
fn refresh_range(ls: ListenerState<'_>, cache: &GainTable, senders: &[usize]) {
    let len = ls.total.len();
    ls.total.fill(0.0);
    ls.best_d2.fill(f64::INFINITY);
    ls.best_s.fill(NO_SENDER);
    for &s in senders {
        // One add per listener per sender, in ascending sender order:
        // the exact backend's summation order, hence identical bits.
        simd::add_assign(ls.total, cache.gain_row(s, ls.base, len));
        // Ascending sender order + strict < == the exact backend's
        // first-minimum tie-break, in select lanes instead of branches.
        lex_min_skip_self(
            ls.best_d2,
            ls.best_s,
            cache.d2_row(s, ls.base, len),
            s,
            ls.base,
        );
    }
    let kf = senders.len() as f64;
    for (e, t) in ls.err.iter_mut().zip(ls.total.iter()) {
        *e = (kf + 1.0) * f64::EPSILON * t.abs();
    }
}

/// The nearest-sender half of [`delta_range_batched`]. The selection
/// state is *exact* (never error-bounded): after the patch every
/// listener holds the lexicographic (distance, sender index) minimum
/// over the new sender set, the choice the exact backend's ascending
/// first-minimum scan makes.
///
/// Three phases, each pruned:
///
/// 1. **Mark** — listeners whose tracked nearest departed are flagged
///    with one bitmap test per listener (no per-listener search).
/// 2. **Rescan** — each orphan re-derives its nearest from scratch by
///    reading its *own* distance row (d² is exactly symmetric — dx² +
///    dy² rounds identically in both directions — so the row holds the
///    same bits as the column walk the naive rescan would do, without
///    one cold cache line per candidate). Candidate senders come one
///    `u64` bitmap word per [`PRUNE_BLOCK`]; a block whose distance
///    lower bound exceeds the best found so far is skipped whole. The
///    running comparison is the full (d², s) lexicographic order, so
///    the seeded out-of-index-order sweep (the orphan's own
///    neighborhood first, to tighten the prune bound early) still
///    lands on exactly the ascending scan's winner.
/// 3. **Arrivals** — per listener block, the loosest tracked entry
///    bounds what an arriving sender must beat: any arrival whose
///    block minimum *strictly* exceeds it cannot change a single
///    selection there (equality could still win the index tie-break,
///    hence `>` not `>=`) and is skipped without touching the row.
///    Surviving rows fold with the branchless lexicographic select.
///
/// Rescan runs before arrivals so orphan entries are finite again by
/// the time block maxima are taken (an ∞ entry would disable pruning
/// for its whole block); arrivals re-competing against already-correct
/// orphan entries is idempotent under the lexicographic fold.
fn patch_nearest_after_delta(
    ls: &mut ListenerState<'_>,
    cache: &GainTable,
    senders: &[usize],
    enters: &[usize],
    leaves: &[usize],
) {
    let len = ls.best_d2.len();
    let nb = cache.n.div_ceil(PRUNE_BLOCK);
    let mut orphaned: Vec<usize> = Vec::new();
    if !leaves.is_empty() {
        // One bit per node beats a binary search per listener: the scan
        // runs over every listener whether or not anything left.
        let mut leave_mask = vec![0u64; nb];
        for &s in leaves {
            leave_mask[s >> 6] |= 1 << (s & 63);
        }
        for (u, (bd, bs)) in ls.best_d2.iter_mut().zip(ls.best_s.iter_mut()).enumerate() {
            let b = *bs;
            if b != NO_SENDER && leave_mask[b >> 6] & (1 << (b & 63)) != 0 {
                *bd = f64::INFINITY;
                *bs = NO_SENDER;
                orphaned.push(ls.base + u);
            }
        }
    }
    if !orphaned.is_empty() {
        let mut sender_words = vec![0u64; nb];
        for &s in senders {
            sender_words[s >> 6] |= 1 << (s & 63);
        }
        for &gu in &orphaned {
            let drow = cache.d2_row(gu, 0, cache.n);
            let mut bd = f64::INFINITY;
            let mut bs = NO_SENDER;
            let scan_block = |b: usize, bd: &mut f64, bs: &mut usize| {
                let mut w = sender_words[b];
                while w != 0 {
                    let sc = (b << 6) | w.trailing_zeros() as usize;
                    w &= w - 1;
                    let d = drow[sc];
                    // The `d < ∞` guard keeps the orphan's own +∞
                    // diagonal (it may itself still be sending) from
                    // tying into the selection.
                    if d < *bd || (d == *bd && d < f64::INFINITY && sc < *bs) {
                        *bd = d;
                        *bs = sc;
                    }
                }
            };
            let b0 = gu / PRUNE_BLOCK;
            for b in b0.saturating_sub(1)..(b0 + 2).min(nb) {
                scan_block(b, &mut bd, &mut bs);
            }
            for b in 0..nb {
                if cache.d2_block_min(gu, b) > bd {
                    continue;
                }
                scan_block(b, &mut bd, &mut bs);
            }
            ls.best_d2[gu - ls.base] = bd;
            ls.best_s[gu - ls.base] = bs;
        }
    }
    if !enters.is_empty() {
        let bfirst = ls.base / PRUNE_BLOCK;
        let blast = (ls.base + len).div_ceil(PRUNE_BLOCK);
        for b in bfirst..blast {
            let lo = (b * PRUNE_BLOCK).max(ls.base);
            let hi = ((b + 1) * PRUNE_BLOCK).min(ls.base + len);
            let bd = &mut ls.best_d2[lo - ls.base..hi - ls.base];
            let bs = &mut ls.best_s[lo - ls.base..hi - ls.base];
            let bmax = bd.iter().fold(0.0f64, |m, &v| if v > m { v } else { m });
            for &s in enters {
                if cache.d2_block_min(s, b) > bmax {
                    continue;
                }
                simd::lex_min_row_idx(bd, bs, cache.d2_row(s, lo, hi - lo), s);
            }
        }
    }
}

/// Cache-block width of the fused delta sweep: 1024 listeners × two
/// f64 scratch lanes is 16 KiB of stack — L1-resident alongside the
/// gain rows being streamed, so past-L2 tables (n ≥ ~1500) reuse each
/// scratch line k times instead of refetching totals per sender.
const DELTA_BLOCK: usize = 1024;

/// Applies a transmitter-set delta to a listener range, the cached
/// kernel's one incremental path (per-slot churn and the mobility
/// repair's leave/re-enter both run through it). All arrivals and
/// departures are folded per listener block in one pass — two pure-add
/// accumulations (`pos` over enter rows, `neg` over leave rows, both
/// SIMD-friendly) finalized by a single `total += pos − neg` — instead
/// of k separate read-modify-write row sweeps.
///
/// Totals round differently from the exact ordered sum, which is fine:
/// decisions only ever depend on totals through the guarded
/// near-threshold machinery, and the drift bound grown here stays
/// conservative. Per block, accumulating
/// `pos` (ke adds) errs ≤ ke·ε·pos, `neg` ≤ kl·ε·neg, the
/// subtraction ≤ ε·(pos+neg) and the final add ≤ ε·|new total| —
/// all absorbed (with the (1+O(ε)) cross terms doubled away) by
/// `ε·((kf+2)·(pos+neg) + 2·|new total|)` with kf the full delta
/// count. The nearest-sender half runs [`patch_nearest_after_delta`].
fn delta_range_batched(
    ls: ListenerState<'_>,
    cache: &GainTable,
    senders: &[usize],
    enters: &[usize],
    leaves: &[usize],
) {
    let mut ls = ls;
    let len = ls.total.len();
    let kf = (enters.len() + leaves.len()) as f64;
    let mut pos_block = [0.0f64; DELTA_BLOCK];
    let mut neg_block = [0.0f64; DELTA_BLOCK];
    let mut start = 0usize;
    while start < len {
        let blk = (len - start).min(DELTA_BLOCK);
        let pos = &mut pos_block[..blk];
        let neg = &mut neg_block[..blk];
        pos.fill(0.0);
        neg.fill(0.0);
        for &s in leaves {
            simd::add_assign(neg, cache.gain_row(s, ls.base + start, blk));
        }
        for &s in enters {
            simd::add_assign(pos, cache.gain_row(s, ls.base + start, blk));
        }
        for ((t, e), (&p, &ng)) in ls.total[start..start + blk]
            .iter_mut()
            .zip(ls.err[start..start + blk].iter_mut())
            .zip(pos.iter().zip(neg.iter()))
        {
            let t_new = *t + (p - ng);
            *t = t_new;
            *e += f64::EPSILON * ((kf + 2.0) * (p + ng) + 2.0 * t_new.abs());
        }
        start += blk;
    }
    patch_nearest_after_delta(&mut ls, cache, senders, enters, leaves);
}

/// The per-run mutable half of the cached kernel: incremental
/// interference totals, drift bookkeeping, nearest-sender choices and
/// the previous transmitter set.
///
/// Everything expensive and deployment-derived lives in the immutable
/// [`GainTable`]; a `SlotState` is a handful of `O(n)` vectors that are
/// cheap to allocate and reset, which is what makes sharing one table
/// across many runs worthwhile — each run brings only its own
/// `SlotState`.
#[derive(Debug, Default)]
pub struct SlotState {
    /// Per-listener total received power over the current sender set.
    total: Vec<f64>,
    /// Per-listener conservative bound on |total − exact ordered sum|.
    err: Vec<f64>,
    /// Per-listener squared distance to the nearest current sender.
    best_d2: Vec<f64>,
    /// Per-listener nearest current sender ([`NO_SENDER`] when none).
    best_s: Vec<usize>,
    /// Whether each node transmitted in the previous `decide_slot`.
    sending: Vec<bool>,
    prev: Vec<usize>,
    enters: Vec<usize>,
    leaves: Vec<usize>,
    ops_since_refresh: u64,
}

impl SlotState {
    /// Resets the state for a fresh run over an `n`-node deployment.
    fn reset(&mut self, n: usize) {
        self.total.clear();
        self.total.resize(n, 0.0);
        self.err.clear();
        self.err.resize(n, 0.0);
        self.best_d2.clear();
        self.best_d2.resize(n, f64::INFINITY);
        self.best_s.clear();
        self.best_s.resize(n, NO_SENDER);
        self.sending.clear();
        self.sending.resize(n, false);
        self.prev.clear();
        self.enters.clear();
        self.leaves.clear();
        self.ops_since_refresh = 0;
    }

    /// Whether the state is sized for an `n`-node deployment (false on a
    /// freshly constructed backend whose `prepare` has not run yet).
    fn ready_for(&self, n: usize) -> bool {
        self.total.len() == n
    }
}

/// Cached-gain reception kernel driven by transmitter deltas (see module
/// docs).
///
/// [`prepare`](InterferenceBackend::prepare) builds the [`GainTable`]
/// (or adopts a matching shared one — see
/// [`CachedBackend::with_shared_table`]) and resets the per-run
/// [`SlotState`]; each
/// [`decide_slot`](InterferenceBackend::decide_slot) then diffs the
/// sender set against the previous slot and updates every listener's
/// total interference and nearest sender incrementally — O(|Δ| × n)
/// instead of the exact backend's O(n × senders). Receptions are
/// **bit-identical** to [`ExactBackend`]: near-threshold decisions (the
/// only ones float drift could flip) are detected by a conservative
/// guard band derived from a tracked per-listener drift bound and
/// resolved by replaying the exact backend's summation from the table,
/// and a full refresh every [`REFRESH_OPS`] delta updates keeps the
/// drift bound (and hence the guard band) tiny.
#[derive(Debug)]
pub struct CachedBackend {
    threads: usize,
    table: Option<Arc<GainTable>>,
    state: SlotState,
}

impl Default for CachedBackend {
    fn default() -> Self {
        CachedBackend::new()
    }
}

impl CachedBackend {
    /// A fresh serial cached kernel (no gain table yet; it is built by
    /// [`prepare`](InterferenceBackend::prepare) or lazily on first use).
    pub fn new() -> Self {
        CachedBackend::with_threads(1)
    }

    /// Like [`CachedBackend::new`] with the delta/refresh sweeps chunked
    /// across up to `threads` OS threads (subject to the
    /// [`effective_threads`] crossover; results are bit-identical at any
    /// thread count since every listener's update sequence is unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        CachedBackend {
            threads,
            table: None,
            state: SlotState::default(),
        }
    }

    /// A cached kernel around an already-built shared gain table: when
    /// the deployment later handed to
    /// [`prepare`](InterferenceBackend::prepare) matches the table,
    /// preparation only resets the per-run [`SlotState`] — O(n) instead
    /// of the O(n²) table build. A non-matching deployment rebuilds a
    /// private table exactly as [`CachedBackend::with_threads`] would,
    /// so adopting a table is never incorrect, only sometimes useless.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_shared_table(table: Arc<GainTable>, threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        CachedBackend {
            threads,
            table: Some(table),
            state: SlotState::default(),
        }
    }

    /// The configured thread count (before the crossover is applied).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The prepared gain table, if any.
    pub fn gain_table(&self) -> Option<&GainTable> {
        self.table.as_deref()
    }

    /// A shareable handle to the prepared gain table, if any — hand
    /// clones of this to other backends over the same deployment to
    /// amortize the O(n²) build.
    pub fn shared_table(&self) -> Option<Arc<GainTable>> {
        self.table.clone()
    }

    /// (Re)builds the table (unless the held one already matches) and
    /// resets all incremental state. Fails — without touching the held
    /// table — when the dense build would exceed [`max_table_bytes`].
    fn prepare_impl(&mut self, params: &SinrParams, positions: &[Point]) -> Result<(), PhysError> {
        if !self
            .table
            .as_ref()
            .is_some_and(|c| c.matches(params, positions))
        {
            self.table = Some(Arc::new(GainTable::try_build(
                params,
                positions,
                self.threads,
            )?));
        }
        self.state.reset(positions.len());
        Ok(())
    }

    /// Applies a position change to the prepared kernel state: the moved
    /// nodes' gain rows/columns are recomputed and every affected
    /// incremental quantity (per-listener totals, drift bounds, nearest
    /// senders) is repaired — O(movers × n) against the O(n²) rebuild a
    /// re-`prepare` would cost.
    ///
    /// The repair reuses the churn machinery: a moved node that is
    /// currently transmitting is treated as *leaving* at its old gains
    /// and *re-entering* at its new gains, both through
    /// [`delta_range_batched`] (which grows the tracked drift bound
    /// exactly as for sender churn; its nearest-sender patch relies on
    /// [`GainTable::move_node`] keeping the block minima lower bounds),
    /// and each moved node's own listening state is rebuilt from
    /// scratch (every distance to it changed). Bit-identity with
    /// [`ExactBackend`] is preserved by the same argument as for churn:
    /// totals stay within the tracked drift bound of the exact ordered
    /// sum, and near-threshold decisions replay the exact summation.
    ///
    /// If the gain table is shared with other backends, the first patch
    /// forks a private copy (`Arc::make_mut`): the O(n²) copy is paid
    /// once per moving run, every later move mutates the now-unique
    /// table in place, and no sharer ever observes the movement.
    fn update_positions_impl(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        moved: &[(usize, Point)],
    ) {
        if moved.is_empty() {
            return;
        }
        let n = positions.len();
        // A release assert, not a debug one: an unsorted `moved` list
        // would silently corrupt the incremental totals by a full gain
        // value — far outside the tracked drift bound, so the guarded
        // exact-replay fallback would never catch it. The O(movers)
        // check is noise next to the O(movers × n) repair.
        assert!(
            moved.windows(2).all(|w| w[0].0 < w[1].0),
            "moved nodes must be ascending and unique"
        );
        let Some(table) = self.table.as_ref() else {
            // Never prepared: nothing to repair, the first decide_slot
            // prepares lazily against whatever positions it sees.
            return;
        };
        if table.params != *params || table.n() != n || !self.state.ready_for(n) {
            // Parameter or size change (or an adopted shared table whose
            // slot state was never prepared): fall back to the lazy
            // rebuild.
            return;
        }
        if moved.len() * 4 >= n {
            // Surgery on a quarter of the matrix costs as much as the
            // (thread-chunked) rebuild; take the simple path. This also
            // resets the delta state, so the next decide_slot runs a
            // full refresh — still bit-identical, just not incremental.
            // The rebuild replaces an existing same-size table, so it is
            // deliberately uncapped: a table that already exists is
            // proof the size fits in memory.
            self.table = Some(Arc::new(GainTable::build(params, positions, self.threads)));
            self.state.reset(n);
            return;
        }

        // Moved nodes that are transmitting right now: their old gains
        // must leave every listener's total before the patch, their new
        // gains re-enter after it.
        let moved_senders: Vec<usize> = moved
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| self.state.sending[i])
            .collect();
        if !moved_senders.is_empty() {
            let remaining: Vec<usize> = self
                .state
                .prev
                .iter()
                .copied()
                .filter(|i| moved_senders.binary_search(i).is_err())
                .collect();
            // Departure at the old gains; orphaned listeners (their
            // nearest sender moved) rescan over the unmoved senders,
            // whose cached distances are still valid.
            let CachedBackend {
                threads,
                table,
                state,
            } = self;
            let Some(cache) = table.as_deref() else {
                return;
            };
            Self::sweep_with(cache, *threads, state, |ls, table| {
                delta_range_batched(ls, table, &remaining, &[], &moved_senders)
            });
        }

        // Copy-on-write: a shared table is forked here, a private one is
        // patched in place.
        let Some(arc) = self.table.as_mut() else {
            return;
        };
        let table = Arc::make_mut(arc);
        for &(i, p) in moved {
            table.move_node(i, p);
        }

        if !moved_senders.is_empty() {
            // Re-entry at the new gains; the enter path also lets each
            // moved sender re-compete for nearest-sender with the exact
            // backend's (distance, index) tie-break.
            let CachedBackend {
                threads,
                table,
                state,
            } = self;
            let Some(cache) = table.as_deref() else {
                return;
            };
            let senders = std::mem::take(&mut state.prev);
            Self::sweep_with(cache, *threads, state, |ls, table| {
                delta_range_batched(ls, table, &senders, &moved_senders, &[])
            });
            state.prev = senders;
        }

        // Every distance *to* a moved node changed, so its own listening
        // state cannot be patched incrementally: rebuild it exactly the
        // way refresh_range would (ordered sum over the sender set,
        // first-minimum nearest-sender scan, drift bound reset).
        let Some(table) = self.table.as_deref() else {
            return;
        };
        let state = &mut self.state;
        let kf = state.prev.len() as f64;
        for &(m, _) in moved {
            let mut total = 0.0;
            let mut bd = f64::INFINITY;
            let mut bs = NO_SENDER;
            for &s in &state.prev {
                total += table.gain(s, m);
                let d = table.dist_sq(s, m);
                if d < bd {
                    bd = d;
                    bs = s;
                }
            }
            state.total[m] = total;
            state.err[m] = (kf + 1.0) * f64::EPSILON * total.abs();
            state.best_d2[m] = bd;
            state.best_s[m] = bs;
        }

        // Each leave/enter pair contributes rounding drift like any churn
        // update; count it toward the periodic full refresh that keeps
        // the guard band tight.
        state.ops_since_refresh += (2 * moved_senders.len() + moved.len()) as u64;
    }

    /// Runs `op` over the per-listener state, chunked across threads when
    /// the deployment is past the crossover. Takes the prepared table
    /// explicitly: callers fetch it fallibly once (structured
    /// [`PhysError::BackendNotPrepared`] on the decide path, a benign
    /// early return on the repair path), so no "prepared above"
    /// assertion is left to poison the process.
    fn sweep_with(
        cache: &GainTable,
        threads: usize,
        state: &mut SlotState,
        op: impl Fn(ListenerState<'_>, &GainTable) + Sync,
    ) {
        let SlotState {
            total,
            err,
            best_d2,
            best_s,
            ..
        } = state;
        let n = total.len();
        let eff = effective_threads(threads, n);
        let tasks = listener_chunks(total, err, best_d2, best_s, n, eff);
        chunked_scope(tasks, |ls| op(ls, cache));
    }
}

impl InterferenceBackend for CachedBackend {
    fn name(&self) -> &'static str {
        if self.threads > 1 {
            "cached+par"
        } else {
            "cached"
        }
    }

    fn prepare(&mut self, params: &SinrParams, positions: &[Point]) -> Result<(), PhysError> {
        self.prepare_impl(params, positions)
    }

    fn update_positions(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        moved: &[(usize, Point)],
    ) {
        self.update_positions_impl(params, positions, moved);
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        // The infallible-signature edge: inside `decide_slot` there is
        // no error channel, so the one fallible step (an over-cap lazy
        // re-preparation) panics with the structured message. Callers
        // who want the error use `try_decide_slot`, as services do.
        if let Err(e) = self.try_decide_slot(params, positions, senders, out) {
            panic!("cached backend: {e}");
        }
    }

    fn try_decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) -> Result<(), PhysError> {
        check_invariants(positions, senders, out);
        out.fill(None);
        if !self
            .table
            .as_ref()
            .is_some_and(|c| c.matches(params, positions))
            || !self.state.ready_for(positions.len())
        {
            // Lazy (re)preparation: correct for one-shot wrappers and
            // deployment swaps, at the cost of an O(n²) rebuild — or
            // just the O(n) slot-state reset when a matching shared
            // table was adopted at construction. An over-cap deployment
            // surfaces here as the structured error.
            self.prepare_impl(params, positions)?;
        }
        let CachedBackend {
            threads,
            table,
            state,
        } = self;
        let Some(cache) = table.as_deref() else {
            return Err(PhysError::BackendNotPrepared { backend: "cached" });
        };

        // Diff the sorted sender sets into arrivals and departures.
        diff_sorted(&state.prev, senders, &mut state.enters, &mut state.leaves);

        let delta = state.enters.len() + state.leaves.len();
        state.ops_since_refresh += delta as u64;
        // Same rationale as the hybrid backend's interval: with fused
        // batched deltas a refresh is worth ~n/k delta slots, so at
        // large n the fixed REFRESH_OPS budget would spend more time
        // refreshing than applying deltas. The guarded replay keeps
        // decisions exact regardless of how long drift accumulates.
        let interval = REFRESH_OPS.max(4 * positions.len() as u64);
        if delta >= senders.len().max(1) || state.ops_since_refresh >= interval {
            // A delta as large as the set itself makes the rebuild the
            // cheaper path; the periodic refresh bounds float drift.
            state.ops_since_refresh = 0;
            Self::sweep_with(cache, *threads, state, |ls, cache| {
                refresh_range(ls, cache, senders)
            });
        } else if delta > 0 {
            let (enters, leaves) = (
                std::mem::take(&mut state.enters),
                std::mem::take(&mut state.leaves),
            );
            Self::sweep_with(cache, *threads, state, |ls, cache| {
                delta_range_batched(ls, cache, senders, &enters, &leaves)
            });
            state.enters = enters;
            state.leaves = leaves;
        }
        for &s in &state.leaves {
            state.sending[s] = false;
        }
        for &s in &state.enters {
            state.sending[s] = true;
        }
        state.prev.clear();
        state.prev.extend_from_slice(senders);
        if senders.is_empty() {
            return Ok(());
        }

        let SlotState {
            total,
            err,
            best_s,
            sending,
            ..
        } = state;
        let kf = senders.len() as f64;
        let beta = params.beta();
        let noise = params.noise();
        for (u, slot) in out.iter_mut().enumerate() {
            if sending[u] {
                continue;
            }
            let best = best_s[u];
            if best == NO_SENDER {
                continue;
            }
            let signal = cache.gain(best, u);
            let t = total[u];
            let rhs = beta * ((t - signal) + noise);
            let margin = signal - rhs;
            // |total − ordered exact sum| is bounded by the tracked
            // incremental drift plus the ordered sum's own rounding; the
            // guard doubles both and adds ulp slack for the comparison
            // arithmetic itself. Outside the band the decision provably
            // matches the exact backend's; inside, replay it.
            let slack = 2.0 * err[u] + (kf + 2.0) * f64::EPSILON * t.abs();
            let guard = 2.0 * beta * slack + 1e-13 * (signal.abs() + rhs.abs());
            let decodes = if margin.abs() <= guard {
                let mut exact_total = 0.0;
                for &s in senders {
                    exact_total += cache.gain(s, u);
                }
                total[u] = exact_total;
                err[u] = (kf + 1.0) * f64::EPSILON * exact_total.abs();
                params.decodes(signal, exact_total - signal)
            } else {
                margin > 0.0
            };
            if decodes {
                *slot = Some(best);
            }
        }
        Ok(())
    }
}

/// The shareable preparation artifacts of one deployment, carried from
/// an amortizing caller (the sweep planner, a bench harness) into
/// backend construction: the dense n×n [`GainTable`] for cached cells
/// and/or the sparse [`HybridTable`] for hybrid cells. Either member
/// may be absent; [`BackendSpec::build_with_tables`] consumes whichever
/// its model can use and ignores the rest, so one carrier serves a
/// mixed-backend sweep group.
#[derive(Debug, Clone, Default)]
pub struct SharedTables {
    dense: Option<Arc<GainTable>>,
    hybrid: Option<Arc<HybridTable>>,
}

impl SharedTables {
    /// An empty carrier (every build degrades to a private prepare).
    pub fn new() -> Self {
        SharedTables::default()
    }

    /// Adds a dense gain table for cached-model consumers.
    pub fn with_dense(mut self, table: Arc<GainTable>) -> Self {
        self.dense = Some(table);
        self
    }

    /// Adds a sparse hybrid table for hybrid-model consumers.
    pub fn with_hybrid(mut self, table: Arc<HybridTable>) -> Self {
        self.hybrid = Some(table);
        self
    }

    /// The dense member, if present.
    pub fn dense(&self) -> Option<&Arc<GainTable>> {
        self.dense.as_ref()
    }

    /// The sparse hybrid member, if present.
    pub fn hybrid(&self) -> Option<&Arc<HybridTable>> {
        self.hybrid.as_ref()
    }

    /// Whether the carrier holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.dense.is_none() && self.hybrid.is_none()
    }

    /// Combined resident bytes of the held tables
    /// ([`GainTable::bytes`] + [`HybridTable::bytes`]) — what a
    /// byte-budgeted cache charges for keeping this carrier alive.
    pub fn bytes(&self) -> usize {
        self.dense.as_deref().map_or(0, GainTable::bytes)
            + self.hybrid.as_deref().map_or(0, HybridTable::bytes)
    }

    /// A copy keeping only the members that actually match `params` and
    /// `positions` (the hybrid member must additionally have been built
    /// for `spec`'s cutoff). Callers that cannot guarantee provenance —
    /// the engine adopting caller-supplied tables — filter through this
    /// so a stale table degrades to a rebuild instead of wrong gains.
    pub fn matching(
        &self,
        spec: BackendSpec,
        params: &SinrParams,
        positions: &[Point],
    ) -> SharedTables {
        SharedTables {
            dense: self.dense.clone().filter(|t| t.matches(params, positions)),
            hybrid: match spec.model {
                InterferenceModel::Hybrid { cutoff } => self
                    .hybrid
                    .clone()
                    .filter(|t| t.matches(params, positions, cutoff)),
                _ => None,
            },
        }
    }
}

impl From<Arc<GainTable>> for SharedTables {
    fn from(table: Arc<GainTable>) -> Self {
        SharedTables::new().with_dense(table)
    }
}

/// How many spatial-hash cells span the hybrid near-field cutoff
/// radius.
///
/// Smaller cells tighten the far-field over-estimate (a cell's
/// lower-bound distance approaches its members' true distances) and
/// trim the near neighborhood's area overshoot, at the price of more
/// cells in the far sweeps. Three cells per cutoff keeps the near
/// neighborhood at ~60 cells while per-cell far aggregation stays
/// coarse enough that table loads, not `powf` calls, dominate.
const HYBRID_CELLS_PER_CUTOFF: f64 = 3.0;

/// One spatial-hash bucket of the hybrid kernel: its integer grid key
/// and member nodes (ascending). Slots are **append-only** — mobility
/// may occupy new keys, and emptied cells persist with no members — so
/// a slot index, once assigned, stays valid for the table's lifetime
/// and every far-field iteration can run in slot-index order
/// (deterministic, unlike `HashMap` iteration).
#[derive(Debug, Clone)]
struct CellSlot {
    key: (i64, i64),
    members: Vec<u32>,
}

/// One sparse near-field link: a neighboring node and the exact link
/// gain to it, computed with the same `dist_sq → sqrt →
/// received_power` arithmetic as [`GainTable`] so near-field sums
/// reproduce the dense kernel's bits. Distances are recomputed from
/// positions on demand (`Point::dist_sq` is bitwise symmetric), keeping
/// a link at 16 bytes.
#[derive(Debug, Clone, Copy)]
struct NearLink {
    node: u32,
    gain: f64,
}

/// Squared lower bound on the distance between any point of the cell at
/// key offset `(di, dj)` and any point of the origin cell: adjacent or
/// identical cells can touch (bound 0); beyond that each axis
/// contributes `(|Δ| − 1) · cell_size` of guaranteed separation.
#[inline]
fn box_dist_sq(di: i64, dj: i64, cell_size: f64) -> f64 {
    let dx = (di.abs() - 1).max(0) as f64 * cell_size;
    let dy = (dj.abs() - 1).max(0) as f64 * cell_size;
    dx * dx + dy * dy
}

/// The cell key of `p`, matching [`HashGrid`]'s bucketing exactly (the
/// build buckets through `HashGrid`, mobility re-buckets through this).
#[inline]
fn hybrid_key(p: Point, cell_size: f64) -> (i64, i64) {
    (
        (p.x / cell_size).floor() as i64,
        (p.y / cell_size).floor() as i64,
    )
}

/// Per-cell-pair far-field gains, indexed by absolute key offset.
///
/// A far cell's aggregate contribution to a listener is
/// `count · P/box^α` with `box` the cell-pair lower-bound distance,
/// which depends only on the absolute key offset `(|Δi|, |Δj|)` — so
/// all O(cells²) far pair gains collapse into one small offset-indexed
/// table and the far sweeps become multiply-adds instead of `powf`
/// storms. Near offsets store 0 (their value is never read).
#[derive(Debug, Clone, Default)]
struct PairGain {
    dj_max: i64,
    vals: Vec<f64>,
}

impl PairGain {
    fn build(
        params: &SinrParams,
        cell_size: f64,
        cutoff_sq: f64,
        di_max: i64,
        dj_max: i64,
    ) -> Self {
        let mut vals = vec![0.0; ((di_max + 1) * (dj_max + 1)) as usize];
        for di in 0..=di_max {
            for dj in 0..=dj_max {
                let b2 = box_dist_sq(di, dj, cell_size);
                if b2 > cutoff_sq {
                    // The near-field assumption puts every true pair
                    // distance at ≥ 1, so clamping the box bound to 1
                    // keeps it a valid lower bound while honoring
                    // `received_power`'s domain.
                    vals[(di * (dj_max + 1) + dj) as usize] =
                        params.received_power(b2.sqrt().max(1.0));
                }
            }
        }
        PairGain { dj_max, vals }
    }

    #[inline]
    fn get(&self, di: i64, dj: i64) -> f64 {
        self.vals[(di * (self.dj_max + 1) + dj) as usize]
    }
}

/// Collects node `u`'s sparse near row: exact links to every other
/// member of each cell whose pair box distance to `u`'s cell is within
/// the cutoff, sorted by node index (so row iteration visits senders in
/// the exact backend's ascending order).
#[allow(clippy::too_many_arguments)]
fn build_row(
    params: &SinrParams,
    positions: &[Point],
    cells: &[CellSlot],
    slot_of: &HashMap<(i64, i64), u32>,
    cell_size: f64,
    cutoff_sq: f64,
    reach: i64,
    u: usize,
    key: (i64, i64),
    row: &mut Vec<NearLink>,
) {
    row.clear();
    let pu = positions[u];
    for di in -reach..=reach {
        for dj in -reach..=reach {
            if box_dist_sq(di, dj, cell_size) > cutoff_sq {
                continue;
            }
            let Some(&slot) = slot_of.get(&(key.0 + di, key.1 + dj)) else {
                continue;
            };
            for &m in &cells[slot as usize].members {
                if m as usize == u {
                    continue;
                }
                let d2 = positions[m as usize].dist_sq(pu);
                let gain = params.received_power(d2.sqrt());
                row.push(NearLink { node: m, gain });
            }
        }
    }
    row.sort_unstable_by_key(|l| l.node);
}

/// Immutable sparse preparation of the hybrid kernel for one deployment
/// (the O(n·near_degree) analogue of the dense [`GainTable`]): exact
/// link gains for every **near** pair — pairs whose spatial-hash cells
/// are within the cutoff radius of each other — in per-node sorted
/// rows, plus the cell bucketing and the offset-indexed far pair gains.
///
/// Like `GainTable` it is deployment-derived and shareable: sweeps hand
/// every cell a clone of one `Arc<HybridTable>`, and mobility forks a
/// private copy on first write (`Arc::make_mut`). The build is
/// thread-count invariant — rows are computed per node independently —
/// so a shared table is bitwise identical to a private one.
#[derive(Debug, Clone)]
pub struct HybridTable {
    params: SinrParams,
    positions: Vec<Point>,
    /// The cutoff as specified (0.0 = auto), compared by `matches`.
    cutoff_spec: f64,
    /// The resolved near-field cutoff radius (> 0).
    cutoff: f64,
    cell_size: f64,
    /// Per-node slot index into `cells`.
    cell_of: Vec<u32>,
    /// Append-only cell slots, created in sorted-key order at build.
    cells: Vec<CellSlot>,
    /// Key → slot lookups only; never iterated (HashMap order is not
    /// deterministic).
    slot_of: HashMap<(i64, i64), u32>,
    /// Per-node sorted near links (symmetric: `v ∈ rows[u] ⇔ u ∈
    /// rows[v]`, with bitwise-equal gains).
    rows: Vec<Vec<NearLink>>,
    /// Bounding box of occupied keys, sized to grow `pair_gain`.
    key_lo: (i64, i64),
    key_hi: (i64, i64),
    pair_gain: PairGain,
}

impl HybridTable {
    /// Builds the sparse table: spatial-hash bucketing via [`HashGrid`]
    /// with cell size `cutoff / 3`, near rows thread-chunked across up
    /// to `threads` OS threads. A `cutoff_spec` of `0.0` resolves to
    /// the deployment's weak range `R` — every in-range link is then
    /// exact and only genuinely out-of-range interference is
    /// aggregated.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_spec` is negative or non-finite, or if any
    /// position is non-finite.
    pub fn build(
        params: &SinrParams,
        positions: &[Point],
        cutoff_spec: f64,
        threads: usize,
    ) -> Self {
        assert!(
            cutoff_spec.is_finite() && cutoff_spec >= 0.0,
            "hybrid cutoff must be finite and non-negative, got {cutoff_spec}"
        );
        let cutoff = if cutoff_spec > 0.0 {
            cutoff_spec
        } else {
            params.range()
        };
        let cell_size = cutoff / HYBRID_CELLS_PER_CUTOFF;
        let cutoff_sq = cutoff * cutoff;
        let n = positions.len();

        // Bucket through the shared spatial hash, then freeze the
        // buckets into slots in sorted-key order: slot numbering (and
        // with it every far-field iteration) is deterministic.
        let grid = HashGrid::build(positions, cell_size);
        let mut cells: Vec<CellSlot> = grid
            .cells()
            .map(|(key, members)| CellSlot {
                key,
                members: members.iter().map(|&m| m as u32).collect(),
            })
            .collect();
        cells.sort_unstable_by_key(|c| c.key);
        let mut slot_of = HashMap::with_capacity(cells.len());
        let mut cell_of = vec![0u32; n];
        let mut key_lo = (0i64, 0i64);
        let mut key_hi = (0i64, 0i64);
        for (slot, cell) in cells.iter_mut().enumerate() {
            cell.members.sort_unstable();
            slot_of.insert(cell.key, slot as u32);
            for &m in &cell.members {
                cell_of[m as usize] = slot as u32;
            }
            if slot == 0 {
                key_lo = cell.key;
                key_hi = cell.key;
            } else {
                key_lo = (key_lo.0.min(cell.key.0), key_lo.1.min(cell.key.1));
                key_hi = (key_hi.0.max(cell.key.0), key_hi.1.max(cell.key.1));
            }
        }
        let pair_gain = PairGain::build(
            params,
            cell_size,
            cutoff_sq,
            key_hi.0 - key_lo.0,
            key_hi.1 - key_lo.1,
        );

        let reach = hybrid_reach(cutoff, cell_size);
        let mut rows: Vec<Vec<NearLink>> = vec![Vec::new(); n];
        let eff = effective_threads(threads.max(1), n);
        let chunk = (if eff <= 1 { n } else { n.div_ceil(eff) }).max(1);
        let tasks: Vec<(usize, &mut [Vec<NearLink>])> = rows
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, r)| (k * chunk, r))
            .collect();
        let (cells_ref, slot_ref, cell_ref) = (&cells, &slot_of, &cell_of);
        chunked_scope(tasks, |(base, row_chunk)| {
            for (i, row) in row_chunk.iter_mut().enumerate() {
                let u = base + i;
                let key = cells_ref[cell_ref[u] as usize].key;
                build_row(
                    params, positions, cells_ref, slot_ref, cell_size, cutoff_sq, reach, u, key,
                    row,
                );
            }
        });

        HybridTable {
            params: *params,
            positions: positions.to_vec(),
            cutoff_spec,
            cutoff,
            cell_size,
            cell_of,
            cells,
            slot_of,
            rows,
            key_lo,
            key_hi,
            pair_gain,
        }
    }

    /// Whether this table was built for exactly this deployment and
    /// cutoff specification.
    pub fn matches(&self, params: &SinrParams, positions: &[Point], cutoff_spec: f64) -> bool {
        self.params == *params && self.cutoff_spec == cutoff_spec && self.positions == positions
    }

    /// Number of nodes the table was built for.
    pub fn n(&self) -> usize {
        self.positions.len()
    }

    /// The resolved near-field cutoff radius.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Total number of stored near links (both directions counted);
    /// sparse memory is ~16 bytes per link versus the dense table's
    /// fixed `16·n²`.
    pub fn near_links(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Resident size of the sparse table in bytes: the near-link rows
    /// (16 bytes per stored link), position copy, cell bucketing and
    /// the offset-indexed far pair gains. The same cache-accounting
    /// quantity as [`GainTable::bytes`], typically orders of magnitude
    /// smaller at equal n.
    pub fn bytes(&self) -> usize {
        self.near_links() * std::mem::size_of::<NearLink>()
            + self.positions.len() * std::mem::size_of::<Point>()
            + self.cell_of.len() * std::mem::size_of::<u32>()
            + self
                .cells
                .iter()
                .map(|c| std::mem::size_of::<CellSlot>() + c.members.len() * 4)
                .sum::<usize>()
            + self.slot_of.len() * (std::mem::size_of::<(i64, i64)>() + 4)
            + self.pair_gain.vals.len() * std::mem::size_of::<f64>()
    }

    /// The exact link gain between `u` and its near neighbor `v`.
    ///
    /// # Panics
    ///
    /// Panics when the pair is not near — callers only ask for links
    /// they discovered in a row scan.
    fn near_gain(&self, u: usize, v: usize) -> f64 {
        let row = &self.rows[u];
        let i = row
            .binary_search_by_key(&(v as u32), |l| l.node)
            .expect("near_gain queried for a non-near pair");
        row[i].gain
    }

    /// The far-field gain from source cell `src` to destination cell
    /// `dest`, or `None` when the pair is near (its members live in the
    /// sparse rows instead).
    #[inline]
    fn far_pair(&self, dest: u32, src: u32) -> Option<f64> {
        let kd = self.cells[dest as usize].key;
        let ks = self.cells[src as usize].key;
        let di = (kd.0 - ks.0).abs();
        let dj = (kd.1 - ks.1).abs();
        if box_dist_sq(di, dj, self.cell_size) > self.cutoff * self.cutoff {
            Some(self.pair_gain.get(di, dj))
        } else {
            None
        }
    }

    /// Grows the pair-gain table when `key` falls outside the occupied
    /// bounding box (mobility reaching fresh ground).
    fn grow_pair_gain(&mut self, key: (i64, i64)) {
        let lo = (self.key_lo.0.min(key.0), self.key_lo.1.min(key.1));
        let hi = (self.key_hi.0.max(key.0), self.key_hi.1.max(key.1));
        if lo == self.key_lo && hi == self.key_hi {
            return;
        }
        self.key_lo = lo;
        self.key_hi = hi;
        self.pair_gain = PairGain::build(
            &self.params,
            self.cell_size,
            self.cutoff * self.cutoff,
            hi.0 - lo.0,
            hi.1 - lo.1,
        );
    }

    /// Re-buckets one moved node: detaches it from its old cell and its
    /// old neighbors' rows, rebuilds its own row at the new position,
    /// mirrors the new links into the new neighbors' rows, and appends
    /// a fresh cell slot when the new key was unoccupied. Returns the
    /// node's new slot and whether that slot was appended.
    fn rebucket(&mut self, m: usize, to: Point) -> (u32, bool) {
        let mu = m as u32;
        let mut row = std::mem::take(&mut self.rows[m]);
        for link in &row {
            let nrow = &mut self.rows[link.node as usize];
            if let Ok(i) = nrow.binary_search_by_key(&mu, |l| l.node) {
                nrow.remove(i);
            }
        }
        let old = &mut self.cells[self.cell_of[m] as usize].members;
        if let Ok(i) = old.binary_search(&mu) {
            old.remove(i);
        }

        self.positions[m] = to;
        let key = hybrid_key(to, self.cell_size);
        let (slot, appended) = match self.slot_of.get(&key) {
            Some(&s) => (s, false),
            None => {
                let s = self.cells.len() as u32;
                self.cells.push(CellSlot {
                    key,
                    members: Vec::new(),
                });
                self.slot_of.insert(key, s);
                self.grow_pair_gain(key);
                (s, true)
            }
        };
        self.cell_of[m] = slot;
        let members = &mut self.cells[slot as usize].members;
        let at = members.binary_search(&mu).unwrap_err();
        members.insert(at, mu);

        let cutoff_sq = self.cutoff * self.cutoff;
        let reach = hybrid_reach(self.cutoff, self.cell_size);
        build_row(
            &self.params,
            &self.positions,
            &self.cells,
            &self.slot_of,
            self.cell_size,
            cutoff_sq,
            reach,
            m,
            key,
            &mut row,
        );
        for link in &row {
            let nrow = &mut self.rows[link.node as usize];
            if let Err(i) = nrow.binary_search_by_key(&mu, |l| l.node) {
                nrow.insert(
                    i,
                    NearLink {
                        node: mu,
                        gain: link.gain,
                    },
                );
            }
        }
        self.rows[m] = row;
        (slot, appended)
    }
}

/// Cell offsets out to `reach` cover every cell whose box distance can
/// be within the cutoff (the +1 absorbs the touching-cell slack in
/// [`box_dist_sq`]).
#[inline]
fn hybrid_reach(cutoff: f64, cell_size: f64) -> i64 {
    1 + (cutoff / cell_size).ceil() as i64
}

/// Rebuilds a listener range of the hybrid kernel from scratch: near
/// totals summed over each listener's sparse row in ascending node
/// order restricted to the current transmitters — per listener, the
/// exact backend's ordered sub-sum over the near senders, hence
/// identical bits for the near-field portion — and nearest **near**
/// senders re-selected with the exact backend's first-minimum
/// tie-break.
fn hybrid_refresh_range(ls: ListenerState<'_>, table: &HybridTable, sending: &[bool]) {
    for i in 0..ls.total.len() {
        let u = ls.base + i;
        let pu = table.positions[u];
        let mut total = 0.0;
        let mut terms = 0u32;
        let mut bd = f64::INFINITY;
        let mut bs = NO_SENDER;
        for link in &table.rows[u] {
            let v = link.node as usize;
            if !sending[v] {
                continue;
            }
            total += link.gain;
            terms += 1;
            let d = table.positions[v].dist_sq(pu);
            if d < bd {
                bd = d;
                bs = v;
            }
        }
        ls.total[i] = total;
        ls.err[i] = (f64::from(terms) + 1.0) * f64::EPSILON * total.abs();
        ls.best_d2[i] = bd;
        ls.best_s[i] = bs;
    }
}

/// Applies a transmitter-set delta to a listener range of the hybrid
/// kernel (the sparse analogue of [`delta_range_batched`]): departed near
/// senders' gains leave each row-adjacent listener's total, arrivals
/// enter, the nearest-near-sender choice is patched with the
/// (distance, index) tie-break, and listeners orphaned by a departure
/// rescan their own row against the **current** sending flags — which
/// the caller must have updated before this sweep runs.
fn hybrid_delta_range(
    ls: ListenerState<'_>,
    table: &HybridTable,
    sending: &[bool],
    enters: &[usize],
    leaves: &[usize],
) {
    let lo = ls.base as u32;
    let hi = (ls.base + ls.total.len()) as u32;
    for &s in leaves {
        let row = &table.rows[s];
        let start = row.partition_point(|l| l.node < lo);
        for link in &row[start..] {
            if link.node >= hi {
                break;
            }
            let i = link.node as usize - ls.base;
            ls.total[i] -= link.gain;
            ls.err[i] += f64::EPSILON * ls.total[i].abs();
        }
    }
    let mut orphaned: Vec<usize> = Vec::new();
    if !leaves.is_empty() {
        for (i, (bd, bs)) in ls.best_d2.iter_mut().zip(ls.best_s.iter_mut()).enumerate() {
            if *bs != NO_SENDER && leaves.binary_search(bs).is_ok() {
                *bd = f64::INFINITY;
                *bs = NO_SENDER;
                orphaned.push(ls.base + i);
            }
        }
    }
    for &s in enters {
        let ps = table.positions[s];
        let row = &table.rows[s];
        let start = row.partition_point(|l| l.node < lo);
        for link in &row[start..] {
            if link.node >= hi {
                break;
            }
            let i = link.node as usize - ls.base;
            ls.total[i] += link.gain;
            ls.err[i] += f64::EPSILON * ls.total[i].abs();
            let d = table.positions[link.node as usize].dist_sq(ps);
            if d < ls.best_d2[i] || (d == ls.best_d2[i] && s < ls.best_s[i]) {
                ls.best_d2[i] = d;
                ls.best_s[i] = s;
            }
        }
    }
    for &u in &orphaned {
        let pu = table.positions[u];
        let mut bd = f64::INFINITY;
        let mut bs = NO_SENDER;
        for link in &table.rows[u] {
            let v = link.node as usize;
            if !sending[v] {
                continue;
            }
            let d = table.positions[v].dist_sq(pu);
            if d < bd {
                bd = d;
                bs = v;
            }
        }
        ls.best_d2[u - ls.base] = bd;
        ls.best_s[u - ls.base] = bs;
    }
}

/// Collapses `(cell, ±1)` pairs into net per-cell deltas sorted by slot
/// index (the deterministic application order of the far-field folds),
/// dropping cells whose net change is zero.
fn compact_cell_deltas(cd: &mut Vec<(u32, i32)>) {
    cd.sort_unstable_by_key(|&(c, _)| c);
    let mut w = 0;
    for r in 0..cd.len() {
        if w > 0 && cd[w - 1].0 == cd[r].0 {
            cd[w - 1].1 += cd[r].1;
        } else {
            cd[w] = cd[r];
            w += 1;
        }
    }
    cd.truncate(w);
    cd.retain(|&(_, d)| d != 0);
}

/// The per-run mutable half of the hybrid kernel (the sparse analogue
/// of [`SlotState`]): incremental near-field totals and
/// nearest-near-sender choices per listener, plus per-cell transmitter
/// counts and aggregated far-field interference, all maintained from
/// transmitter enter/leave deltas.
#[derive(Debug, Default)]
pub struct HybridState {
    /// Per-listener near-field interference total (the far field lives
    /// in `far`, keyed by the listener's cell).
    near: Vec<f64>,
    /// Per-listener conservative bound on |near − exact ordered sum|.
    err: Vec<f64>,
    /// Per-listener squared distance to the nearest near sender.
    best_d2: Vec<f64>,
    /// Per-listener nearest near sender ([`NO_SENDER`] when none).
    best_s: Vec<usize>,
    /// Whether each node transmitted in the previous `decide_slot`.
    sending: Vec<bool>,
    prev: Vec<usize>,
    enters: Vec<usize>,
    leaves: Vec<usize>,
    /// Per-cell current transmitter count.
    cell_count: Vec<u32>,
    /// Per-cell aggregated far-field interference at any listener in
    /// the cell (destination-keyed).
    far: Vec<f64>,
    /// Per-cell conservative drift bound on `far`.
    far_err: Vec<f64>,
    /// Scratch: net `(cell, count delta)` pairs for the current update.
    cell_delta: Vec<(u32, i32)>,
    ops_since_refresh: u64,
}

impl HybridState {
    /// Resets the state for a fresh run over `n` nodes in `cells` cell
    /// slots.
    fn reset(&mut self, n: usize, cells: usize) {
        self.near.clear();
        self.near.resize(n, 0.0);
        self.err.clear();
        self.err.resize(n, 0.0);
        self.best_d2.clear();
        self.best_d2.resize(n, f64::INFINITY);
        self.best_s.clear();
        self.best_s.resize(n, NO_SENDER);
        self.sending.clear();
        self.sending.resize(n, false);
        self.prev.clear();
        self.enters.clear();
        self.leaves.clear();
        self.cell_count.clear();
        self.cell_count.resize(cells, 0);
        self.far.clear();
        self.far.resize(cells, 0.0);
        self.far_err.clear();
        self.far_err.resize(cells, 0.0);
        self.cell_delta.clear();
        self.ops_since_refresh = 0;
    }

    /// Whether the state is sized for this deployment and cell layout.
    fn ready_for(&self, n: usize, cells: usize) -> bool {
        self.near.len() == n && self.far.len() == cells
    }

    /// Applies the compacted `cell_delta` to the per-cell transmitter
    /// counts.
    fn apply_count_deltas(&mut self) {
        for &(c, d) in &self.cell_delta {
            let cnt = &mut self.cell_count[c as usize];
            *cnt = (i64::from(*cnt) + i64::from(d)) as u32;
        }
    }
}

/// Sparse near-field / aggregated far-field reception kernel for
/// deployments too large for the dense [`GainTable`] (see module docs).
///
/// Near pairs (within the spatial-hash cutoff radius) get the cached
/// kernel's treatment — exact gains in CSR-style sparse rows, driven
/// incrementally by transmitter deltas with a guarded deterministic
/// replay for near-threshold decisions. Far pairs are aggregated per
/// cell: each cell tracks how many of its members transmit, and every
/// listener adds `Σ_cells count · P/box^α` with `box` the cell-pair
/// lower-bound distance. Far distances are under-estimated, so
/// interference is over-estimated and the kernel is **conservative**
/// like [`GridFarFieldBackend`]: it never decodes a message
/// [`ExactBackend`] would reject, and a granted message always names
/// the exact backend's sender (verified by the
/// `tests/backend_equivalence.rs` proptests, including churn and
/// mobility). Results are bit-reproducible across thread counts and
/// shared-vs-private tables.
///
/// Per-slot cost is O(|Δ senders| × near listeners + Δcells × cells);
/// memory is O(n · near_degree + cells).
#[derive(Debug)]
pub struct HybridBackend {
    threads: usize,
    /// The cutoff as specified (0.0 = auto-resolve to the weak range).
    cutoff: f64,
    table: Option<Arc<HybridTable>>,
    state: HybridState,
}

impl HybridBackend {
    /// A fresh serial hybrid kernel; `cutoff` of 0.0 auto-selects the
    /// deployment's weak range `R` at preparation time.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is negative or non-finite.
    pub fn new(cutoff: f64) -> Self {
        HybridBackend::with_threads(cutoff, 1)
    }

    /// Like [`HybridBackend::new`] with sweeps chunked across up to
    /// `threads` OS threads (bit-identical results at any thread
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or `cutoff` is invalid.
    pub fn with_threads(cutoff: f64, threads: usize) -> Self {
        assert!(threads > 0, "threads must be nonzero");
        assert!(
            cutoff.is_finite() && cutoff >= 0.0,
            "hybrid cutoff must be finite and non-negative, got {cutoff}"
        );
        HybridBackend {
            threads,
            cutoff,
            table: None,
            state: HybridState::default(),
        }
    }

    /// A hybrid kernel around an already-built shared sparse table:
    /// matching deployments skip straight to the O(n) state reset,
    /// mismatching ones rebuild privately (adoption is never incorrect,
    /// only sometimes useless). The same copy-on-write discipline as
    /// [`CachedBackend::with_shared_table`] applies under mobility.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or `cutoff` is invalid.
    pub fn with_shared_table(cutoff: f64, table: Arc<HybridTable>, threads: usize) -> Self {
        let mut backend = HybridBackend::with_threads(cutoff, threads);
        backend.table = Some(table);
        backend
    }

    /// The configured thread count (before the crossover is applied).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The prepared sparse table, if any.
    pub fn hybrid_table(&self) -> Option<&HybridTable> {
        self.table.as_deref()
    }

    /// A shareable handle to the prepared sparse table, if any.
    pub fn shared_table(&self) -> Option<Arc<HybridTable>> {
        self.table.clone()
    }

    /// (Re)builds the sparse table (unless the held one matches) and
    /// resets all incremental state.
    fn prepare_impl(&mut self, params: &SinrParams, positions: &[Point]) {
        if !self
            .table
            .as_ref()
            .is_some_and(|t| t.matches(params, positions, self.cutoff))
        {
            self.table = Some(Arc::new(HybridTable::build(
                params,
                positions,
                self.cutoff,
                self.threads,
            )));
        }
        let cells = self.table.as_deref().map_or(0, |t| t.cells.len());
        self.state.reset(positions.len(), cells);
    }

    /// Runs `op` over the per-listener near-field state, chunked across
    /// threads past the crossover; `op` additionally sees the sparse
    /// table and the **current** sending flags. Like
    /// [`CachedBackend::sweep_with`], the table is an explicit argument
    /// fetched fallibly by the caller — no prepared-table assertion.
    fn sweep_with(
        table: &HybridTable,
        threads: usize,
        state: &mut HybridState,
        op: impl Fn(ListenerState<'_>, &HybridTable, &[bool]) + Sync,
    ) {
        let HybridState {
            near,
            err,
            best_d2,
            best_s,
            sending,
            ..
        } = state;
        let n = near.len();
        let eff = effective_threads(threads, n);
        let tasks = listener_chunks(near, err, best_d2, best_s, n, eff);
        let sending: &[bool] = sending;
        chunked_scope(tasks, |ls| op(ls, table, sending));
    }

    /// Folds the compacted `state.cell_delta` into every destination
    /// cell's far-field aggregate (thread-chunked over destinations;
    /// each destination applies the deltas in slot order, so results
    /// are thread-count invariant).
    fn apply_far_deltas(table: &HybridTable, threads: usize, state: &mut HybridState) {
        let HybridState {
            far,
            far_err,
            cell_delta,
            ..
        } = state;
        if cell_delta.is_empty() {
            return;
        }
        let cells = far.len();
        let eff = effective_threads(threads, cells);
        let chunk = (if eff <= 1 { cells } else { cells.div_ceil(eff) }).max(1);
        let deltas: &[(u32, i32)] = cell_delta;
        let tasks: Vec<(usize, &mut [f64], &mut [f64])> = far
            .chunks_mut(chunk)
            .zip(far_err.chunks_mut(chunk))
            .enumerate()
            .map(|(k, (f, e))| (k * chunk, f, e))
            .collect();
        chunked_scope(tasks, |(base, fs, es)| {
            for (i, (fv, ev)) in fs.iter_mut().zip(es.iter_mut()).enumerate() {
                let dest = (base + i) as u32;
                for &(src, d) in deltas {
                    if let Some(pg) = table.far_pair(dest, src) {
                        *fv += f64::from(d) * pg;
                        *ev += f64::EPSILON * fv.abs();
                    }
                }
            }
        });
    }

    /// Recomputes every destination cell's far-field aggregate from the
    /// current transmitter counts in slot order (thread-chunked over
    /// destinations) and resets the per-cell drift bounds.
    fn far_refresh(table: &HybridTable, threads: usize, state: &mut HybridState) {
        let HybridState {
            far,
            far_err,
            cell_count,
            ..
        } = state;
        let cells = far.len();
        let eff = effective_threads(threads, cells);
        let chunk = (if eff <= 1 { cells } else { cells.div_ceil(eff) }).max(1);
        let counts: &[u32] = cell_count;
        let tasks: Vec<(usize, &mut [f64], &mut [f64])> = far
            .chunks_mut(chunk)
            .zip(far_err.chunks_mut(chunk))
            .enumerate()
            .map(|(k, (f, e))| (k * chunk, f, e))
            .collect();
        chunked_scope(tasks, |(base, fs, es)| {
            for (i, (fv, ev)) in fs.iter_mut().zip(es.iter_mut()).enumerate() {
                let dest = (base + i) as u32;
                let mut sum = 0.0;
                let mut terms = 0u32;
                for (src, &cnt) in counts.iter().enumerate() {
                    if cnt == 0 {
                        continue;
                    }
                    if let Some(pg) = table.far_pair(dest, src as u32) {
                        sum += f64::from(cnt) * pg;
                        terms += 1;
                    }
                }
                *fv = sum;
                *ev = (f64::from(terms) + 1.0) * f64::EPSILON * sum.abs();
            }
        });
    }

    /// Applies a position change to the prepared kernel: movers are
    /// re-bucketed and only their sparse rows, cell memberships and the
    /// far-field cell sums are patched — O(movers × (near_degree +
    /// cells)) against the full rebuild a re-`prepare` would cost.
    ///
    /// Mirrors [`CachedBackend::update_positions_impl`]: a transmitting
    /// mover *leaves* at its old gains (old row, old cell) before the
    /// table is touched and *re-enters* at its new gains after, each
    /// mover's own listening state is rebuilt from its new row, and a
    /// shared table is forked copy-on-write on first patch. Moves that
    /// land in previously unoccupied cells append fresh slots (the
    /// far-field arrays grow with them).
    fn update_positions_impl(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        moved: &[(usize, Point)],
    ) {
        if moved.is_empty() {
            return;
        }
        let n = positions.len();
        // Release assert for the same reason as the cached kernel: an
        // unsorted list would corrupt totals far outside the tracked
        // drift bound.
        assert!(
            moved.windows(2).all(|w| w[0].0 < w[1].0),
            "moved nodes must be ascending and unique"
        );
        let Some(table) = self.table.as_ref() else {
            return;
        };
        if table.params != *params || table.n() != n || !self.state.ready_for(n, table.cells.len())
        {
            return;
        }
        if moved.len() * 4 >= n {
            // Mass moves: the rebuild beats per-mover surgery, and the
            // state reset makes the next decide_slot run a full refresh.
            self.table = Some(Arc::new(HybridTable::build(
                params,
                positions,
                self.cutoff,
                self.threads,
            )));
            let cells = self.table.as_deref().map_or(0, |t| t.cells.len());
            self.state.reset(n, cells);
            return;
        }

        // Phase 1: transmitting movers leave at their old gains — old
        // rows for the near field, old cells for the far field — with
        // their sending flags dropped so orphan rescans cannot
        // resurrect them at stale distances.
        let moved_senders: Vec<usize> = moved
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| self.state.sending[i])
            .collect();
        if !moved_senders.is_empty() {
            for &s in &moved_senders {
                self.state.sending[s] = false;
            }
            let HybridBackend {
                threads,
                table,
                state,
                ..
            } = self;
            let Some(cache) = table.as_deref() else {
                return;
            };
            Self::sweep_with(cache, *threads, state, |ls, table, sending| {
                hybrid_delta_range(ls, table, sending, &[], &moved_senders)
            });
            state.cell_delta.clear();
            for &s in &moved_senders {
                state.cell_delta.push((cache.cell_of[s], -1));
            }
            compact_cell_deltas(&mut state.cell_delta);
            state.apply_count_deltas();
            Self::apply_far_deltas(cache, *threads, state);
        }

        // Phase 2: re-bucket each mover (copy-on-write fork of a shared
        // table on the first patch). Movers are processed sequentially;
        // pairs of movers converge to their new-position gains once
        // both have re-bucketed.
        let Some(arc) = self.table.as_mut() else {
            return;
        };
        let table = Arc::make_mut(arc);
        let mut appended: Vec<u32> = Vec::new();
        for &(m, to) in moved {
            let (slot, was_new) = table.rebucket(m, to);
            if was_new {
                appended.push(slot);
                self.state.cell_count.push(0);
                self.state.far.push(0.0);
                self.state.far_err.push(0.0);
            }
        }

        // Phase 3: freshly appended cells compute their far field from
        // scratch (every other cell's aggregate is unaffected by new
        // empty destinations).
        let Some(table) = self.table.as_deref() else {
            return;
        };
        for &slot in &appended {
            let mut sum = 0.0;
            let mut terms = 0u32;
            for (src, &cnt) in self.state.cell_count.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                if let Some(pg) = table.far_pair(slot, src as u32) {
                    sum += f64::from(cnt) * pg;
                    terms += 1;
                }
            }
            self.state.far[slot as usize] = sum;
            self.state.far_err[slot as usize] = (f64::from(terms) + 1.0) * f64::EPSILON * sum.abs();
        }

        // Phase 4: transmitting movers re-enter at their new gains and
        // new cells, re-competing for nearest-near-sender with the
        // (distance, index) tie-break.
        if !moved_senders.is_empty() {
            for &s in &moved_senders {
                self.state.sending[s] = true;
            }
            let HybridBackend {
                threads,
                table,
                state,
                ..
            } = self;
            let Some(cache) = table.as_deref() else {
                return;
            };
            Self::sweep_with(cache, *threads, state, |ls, table, sending| {
                hybrid_delta_range(ls, table, sending, &moved_senders, &[])
            });
            state.cell_delta.clear();
            for &s in &moved_senders {
                state.cell_delta.push((cache.cell_of[s], 1));
            }
            compact_cell_deltas(&mut state.cell_delta);
            state.apply_count_deltas();
            Self::apply_far_deltas(cache, *threads, state);
        }

        // Phase 5: every distance *to* a mover changed, so its own
        // listening state is rebuilt from its new row the way a refresh
        // would.
        let Some(table) = self.table.as_deref() else {
            return;
        };
        let state = &mut self.state;
        for &(m, _) in moved {
            let pu = table.positions[m];
            let mut total = 0.0;
            let mut terms = 0u32;
            let mut bd = f64::INFINITY;
            let mut bs = NO_SENDER;
            for link in &table.rows[m] {
                let v = link.node as usize;
                if !state.sending[v] {
                    continue;
                }
                total += link.gain;
                terms += 1;
                let d = table.positions[v].dist_sq(pu);
                if d < bd {
                    bd = d;
                    bs = v;
                }
            }
            state.near[m] = total;
            state.err[m] = (f64::from(terms) + 1.0) * f64::EPSILON * total.abs();
            state.best_d2[m] = bd;
            state.best_s[m] = bs;
        }

        state.ops_since_refresh += (2 * moved_senders.len() + moved.len()) as u64;
    }
}

impl InterferenceBackend for HybridBackend {
    fn name(&self) -> &'static str {
        if self.threads > 1 {
            "hybrid+par"
        } else {
            "hybrid"
        }
    }

    fn prepare(&mut self, params: &SinrParams, positions: &[Point]) -> Result<(), PhysError> {
        self.prepare_impl(params, positions);
        Ok(())
    }

    fn update_positions(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        moved: &[(usize, Point)],
    ) {
        self.update_positions_impl(params, positions, moved);
    }

    fn decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) {
        if let Err(e) = self.try_decide_slot(params, positions, senders, out) {
            panic!("hybrid backend: {e}");
        }
    }

    fn try_decide_slot(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        senders: &[usize],
        out: &mut [Option<usize>],
    ) -> Result<(), PhysError> {
        check_invariants(positions, senders, out);
        out.fill(None);
        let prepared = match self.table.as_ref() {
            Some(t) => {
                t.matches(params, positions, self.cutoff)
                    && self.state.ready_for(positions.len(), t.cells.len())
            }
            None => false,
        };
        if !prepared {
            self.prepare_impl(params, positions);
        }
        if self.table.is_none() {
            return Err(PhysError::BackendNotPrepared { backend: "hybrid" });
        }

        diff_sorted(
            &self.state.prev,
            senders,
            &mut self.state.enters,
            &mut self.state.leaves,
        );
        let delta = self.state.enters.len() + self.state.leaves.len();
        self.state.ops_since_refresh += delta as u64;

        // Unlike the cached kernel, sending flags flip *before* the
        // sweeps: hybrid orphan rescans read rows against the current
        // flags instead of a sender list.
        for &s in &self.state.leaves {
            self.state.sending[s] = false;
        }
        for &s in &self.state.enters {
            self.state.sending[s] = true;
        }

        {
            let HybridBackend {
                threads,
                table,
                state,
                ..
            } = self;
            let Some(cache) = table.as_deref() else {
                return Err(PhysError::BackendNotPrepared { backend: "hybrid" });
            };

            // Per-cell transmitter-count deltas always apply; how they
            // reach the far aggregates depends on the branch below.
            state.cell_delta.clear();
            for &s in &state.leaves {
                state.cell_delta.push((cache.cell_of[s], -1));
            }
            for &s in &state.enters {
                state.cell_delta.push((cache.cell_of[s], 1));
            }
            compact_cell_deltas(&mut state.cell_delta);
            state.apply_count_deltas();

            // The refresh interval scales with n: at city scale the churn
            // delta alone exceeds REFRESH_OPS every slot, and the tracked
            // drift bounds (not the interval) carry correctness — a longer
            // interval only widens the guard band slightly.
            let interval = REFRESH_OPS.max(positions.len() as u64);
            if delta >= senders.len().max(1) || state.ops_since_refresh >= interval {
                state.ops_since_refresh = 0;
                Self::sweep_with(cache, *threads, state, |ls, table, sending| {
                    hybrid_refresh_range(ls, table, sending)
                });
                Self::far_refresh(cache, *threads, state);
            } else if delta > 0 {
                let (enters, leaves) = (
                    std::mem::take(&mut state.enters),
                    std::mem::take(&mut state.leaves),
                );
                Self::sweep_with(cache, *threads, state, |ls, table, sending| {
                    hybrid_delta_range(ls, table, sending, &enters, &leaves)
                });
                state.enters = enters;
                state.leaves = leaves;
                Self::apply_far_deltas(cache, *threads, state);
            }
            state.prev.clear();
            state.prev.extend_from_slice(senders);
        }
        if senders.is_empty() {
            return Ok(());
        }

        let HybridBackend { table, state, .. } = self;
        let Some(table) = table.as_deref() else {
            return Err(PhysError::BackendNotPrepared { backend: "hybrid" });
        };
        let HybridState {
            near,
            err,
            best_s,
            sending,
            cell_count,
            far,
            far_err,
            ..
        } = state;
        // Worst-case term count for the comparison-arithmetic slack:
        // every sender near plus every cell far.
        let kf = (senders.len() + table.cells.len()) as f64;
        let beta = params.beta();
        let noise = params.noise();
        for (u, slot) in out.iter_mut().enumerate() {
            if sending[u] {
                continue;
            }
            let best = best_s[u];
            if best == NO_SENDER {
                continue;
            }
            let cu = table.cell_of[u] as usize;
            let signal = table.near_gain(u, best);
            let t = near[u] + far[cu];
            let rhs = beta * ((t - signal) + noise);
            let margin = signal - rhs;
            // Same guard-band discipline as the cached kernel, with the
            // far field's own drift bound added: outside the band the
            // decision provably matches a drift-free hybrid evaluation;
            // inside, replay both halves from scratch. (The *model* is
            // conservative versus exact by construction — the band only
            // pins determinism of the hybrid evaluation itself.)
            let slack = 2.0 * (err[u] + far_err[cu]) + (kf + 2.0) * f64::EPSILON * t.abs();
            let guard = 2.0 * beta * slack + 1e-13 * (signal.abs() + rhs.abs());
            let decodes = if margin.abs() <= guard {
                let mut near_sum = 0.0;
                let mut terms = 0u32;
                for link in &table.rows[u] {
                    if sending[link.node as usize] {
                        near_sum += link.gain;
                        terms += 1;
                    }
                }
                let mut far_sum = 0.0;
                for (src, &cnt) in cell_count.iter().enumerate() {
                    if cnt == 0 {
                        continue;
                    }
                    if let Some(pg) = table.far_pair(cu as u32, src as u32) {
                        far_sum += f64::from(cnt) * pg;
                    }
                }
                near[u] = near_sum;
                err[u] = (f64::from(terms) + 1.0) * f64::EPSILON * near_sum.abs();
                params.decodes(signal, (near_sum + far_sum) - signal)
            } else {
                margin > 0.0
            };
            if decodes {
                *slot = Some(best);
            }
        }
        Ok(())
    }
}

/// Per-slot grid state shared (immutably) by all listener decisions.
struct GridSlot<'a> {
    grid: &'a HashGrid,
    cells: &'a [((i64, i64), Vec<usize>)],
    near_cutoff: f64,
}

/// One listener decision under the exact model.
fn decide_exact(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    sender_pts: &[Point],
    u: usize,
) -> Option<usize> {
    if is_sender(senders, u) {
        return None;
    }
    let pu = positions[u];
    let mut total = 0.0;
    let mut best_idx = 0usize;
    let mut best_d_sq = f64::INFINITY;
    for (k, &ps) in sender_pts.iter().enumerate() {
        let d_sq = ps.dist_sq(pu);
        total += params.received_power(d_sq.sqrt());
        if d_sq < best_d_sq {
            best_d_sq = d_sq;
            best_idx = k;
        }
    }
    let signal = params.received_power(best_d_sq.sqrt());
    params
        .decodes(signal, total - signal)
        .then(|| senders[best_idx])
}

/// One listener decision under the grid far-field model.
fn decide_grid(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    sender_pts: &[Point],
    ctx: &GridSlot<'_>,
    u: usize,
) -> Option<usize> {
    if is_sender(senders, u) {
        return None;
    }
    let pu = positions[u];
    let mut total = 0.0;
    let mut best_idx: Option<usize> = None;
    let mut best_d_sq = f64::INFINITY;
    for (cell, members) in ctx.cells {
        let lb = ctx.grid.cell_min_dist(*cell, pu);
        if lb <= ctx.near_cutoff {
            for &k in members {
                let d_sq = sender_pts[k].dist_sq(pu);
                total += params.received_power(d_sq.sqrt());
                if d_sq < best_d_sq {
                    best_d_sq = d_sq;
                    best_idx = Some(k);
                }
            }
        } else {
            // Conservative: every member treated as sitting at the cell's
            // nearest point to the listener.
            total += members.len() as f64 * params.received_power(lb);
        }
    }
    let best = best_idx?;
    let signal = params.received_power(best_d_sq.sqrt());
    params
        .decodes(signal, total - signal)
        .then(|| senders[best])
}

fn is_sender(senders: &[usize], i: usize) -> bool {
    senders.binary_search(&i).is_ok()
}

/// The raw SINR of transmitter `sender` at `listener` given the
/// transmitter set `senders` (exact model). Intended for diagnostics and
/// tests; the engine uses an [`InterferenceBackend`].
///
/// # Panics
///
/// Panics if `sender` is not an element of `senders` or equals `listener`.
pub fn sinr_at(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    listener: usize,
    sender: usize,
) -> f64 {
    assert!(senders.contains(&sender), "sender must be transmitting");
    assert_ne!(sender, listener, "a node does not receive from itself");
    let signal = params.received_power(positions[sender].dist(positions[listener]));
    let mut interference = 0.0;
    for &w in senders {
        if w != sender && w != listener {
            interference += params.received_power(positions[w].dist(positions[listener]));
        }
    }
    signal / (interference + params.noise())
}

/// Decides receptions for every node given the set of transmitters.
///
/// Returns one entry per node: `Some(sender)` if that node decodes a
/// transmission this slot, `None` otherwise. Transmitters themselves are
/// always `None` (half-duplex).
///
/// This is a convenience wrapper building a fresh backend per call; hot
/// loops should hold an [`InterferenceBackend`] instead so scratch
/// buffers carry over between slots.
///
/// `senders` must be sorted, deduplicated node indices into `positions`.
///
/// # Panics
///
/// Panics if `senders` is not sorted/deduplicated or contains an index out
/// of range — both are engine invariants, not user input.
pub fn decide_receptions(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    model: InterferenceModel,
) -> Vec<Option<usize>> {
    let mut out = vec![None; positions.len()];
    BackendSpec::from(model)
        .build()
        .decide_slot(params, positions, senders, &mut out);
    out
}

/// Like [`decide_receptions`] but splitting the per-listener work across
/// `threads` OS threads. The result is bit-identical to the serial
/// computation — listeners are independent — so parallelism is purely a
/// wall-clock lever for large simulations.
///
/// # Panics
///
/// Same input invariants as [`decide_receptions`]; additionally `threads`
/// must be nonzero.
pub fn decide_receptions_threaded(
    params: &SinrParams,
    positions: &[Point],
    senders: &[usize],
    model: InterferenceModel,
    threads: usize,
) -> Vec<Option<usize>> {
    let mut out = vec![None; positions.len()];
    BackendSpec::from(model)
        .with_threads(threads)
        .build()
        .decide_slot(params, positions, senders, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SinrParams {
        SinrParams::builder().range(16.0).build().unwrap()
    }

    #[test]
    fn single_sender_in_range_is_decoded() {
        let p = params();
        let pos = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let got = decide_receptions(&p, &pos, &[0], InterferenceModel::Exact);
        assert_eq!(got, vec![None, Some(0)]);
    }

    #[test]
    fn single_sender_out_of_range_is_not_decoded() {
        let p = params();
        let pos = vec![Point::new(0.0, 0.0), Point::new(17.0, 0.0)];
        let got = decide_receptions(&p, &pos, &[0], InterferenceModel::Exact);
        assert_eq!(got, vec![None, None]);
    }

    #[test]
    fn symmetric_senders_jam_each_other() {
        let p = params();
        // Listener exactly between two transmitters: equal signal, beta > 1
        // makes decoding impossible.
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(8.0, 0.0),
        ];
        let got = decide_receptions(&p, &pos, &[0, 2], InterferenceModel::Exact);
        assert_eq!(got[1], None);
    }

    #[test]
    fn transmitters_never_receive() {
        let p = params();
        let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let got = decide_receptions(&p, &pos, &[0, 1], InterferenceModel::Exact);
        assert_eq!(got, vec![None, None]);
    }

    #[test]
    fn nearest_sender_wins_when_dominant() {
        let p = params();
        let pos = vec![
            Point::new(0.0, 0.0),  // listener
            Point::new(1.5, 0.0),  // close sender
            Point::new(14.0, 0.0), // far sender
        ];
        let got = decide_receptions(&p, &pos, &[1, 2], InterferenceModel::Exact);
        assert_eq!(got[0], Some(1));
    }

    #[test]
    fn no_senders_means_silence() {
        let p = params();
        let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let got = decide_receptions(&p, &pos, &[], InterferenceModel::Exact);
        assert_eq!(got, vec![None, None]);
    }

    #[test]
    fn sinr_at_matches_decode_boundary() {
        let p = params();
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let s = sinr_at(&p, &pos, &[1, 2], 0, 1);
        let decoded = decide_receptions(&p, &pos, &[1, 2], InterferenceModel::Exact)[0];
        assert_eq!(decoded.is_some(), s >= p.beta());
    }

    #[test]
    fn grid_model_is_conservative() {
        // Receptions under the grid model must be a subset of exact ones.
        let p = params();
        let pos = sinr_geom::deploy::uniform(60, 80.0, 11).unwrap();
        let senders: Vec<usize> = (0..60).step_by(3).collect();
        let exact = decide_receptions(&p, &pos, &senders, InterferenceModel::Exact);
        let grid = decide_receptions(
            &p,
            &pos,
            &senders,
            InterferenceModel::GridFarField { cell_size: 8.0 },
        );
        for (e, g) in exact.iter().zip(grid.iter()) {
            if let Some(gs) = g {
                assert_eq!(
                    e.as_ref(),
                    Some(gs),
                    "grid granted a reception exact denies"
                );
            }
        }
    }

    #[test]
    fn grid_model_agrees_when_cells_are_large_enough() {
        // With a generous near cutoff (huge cell size forces everything
        // into the exact branch) grid and exact coincide.
        let p = params();
        let pos = sinr_geom::deploy::uniform(40, 60.0, 3).unwrap();
        let senders: Vec<usize> = (0..40).step_by(4).collect();
        let exact = decide_receptions(&p, &pos, &senders, InterferenceModel::Exact);
        let grid = decide_receptions(
            &p,
            &pos,
            &senders,
            InterferenceModel::GridFarField { cell_size: 100.0 },
        );
        assert_eq!(exact, grid);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_senders_panic() {
        let p = params();
        let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let _ = decide_receptions(&p, &pos, &[1, 0], InterferenceModel::Exact);
    }

    #[test]
    fn parallel_backend_matches_serial_at_every_thread_count() {
        let p = params();
        let pos = sinr_geom::deploy::uniform(50, 60.0, 21).unwrap();
        let senders: Vec<usize> = (0..50).step_by(2).collect();
        for model in [
            InterferenceModel::Exact,
            InterferenceModel::GridFarField { cell_size: 8.0 },
        ] {
            let serial = decide_receptions(&p, &pos, &senders, model);
            for threads in [2, 3, 7, 64] {
                let par = decide_receptions_threaded(&p, &pos, &senders, model, threads);
                assert_eq!(serial, par, "model {model:?}, threads {threads}");
            }
        }
    }

    #[test]
    fn backends_reuse_cleanly_across_slots() {
        // Feeding different sender sets through the same backend must
        // match fresh-backend results (scratch reuse is invisible).
        let p = params();
        let pos = sinr_geom::deploy::uniform(40, 50.0, 5).unwrap();
        let mut backend = BackendSpec::grid_far_field(8.0).build();
        let mut out = vec![None; pos.len()];
        for step in 0..5usize {
            let senders: Vec<usize> = (0..40).skip(step).step_by(3).collect();
            backend.decide_slot(&p, &pos, &senders, &mut out);
            let fresh = decide_receptions(
                &p,
                &pos,
                &senders,
                InterferenceModel::GridFarField { cell_size: 8.0 },
            );
            assert_eq!(out, fresh, "slot {step}");
        }
    }

    #[test]
    fn cached_matches_exact_across_churn() {
        // A persistent cached backend fed an evolving transmitter set
        // (arrivals, departures, a full swap, an empty slot) must equal
        // fresh exact computation bit for bit.
        let p = params();
        let pos = sinr_geom::deploy::uniform(60, 70.0, 9).unwrap();
        let mut cached = BackendSpec::cached().build();
        let mut exact = BackendSpec::exact().build();
        cached.prepare(&p, &pos).unwrap();
        let mut got = vec![None; pos.len()];
        let mut want = vec![None; pos.len()];
        let schedules: Vec<Vec<usize>> = vec![
            (0..60).step_by(2).collect(),
            (0..60).step_by(2).skip(3).collect(), // departures only
            (0..60).step_by(3).collect(),         // mixed churn
            (1..60).step_by(2).collect(),         // full swap
            Vec::new(),                           // silence
            (0..60).step_by(4).collect(),         // restart from empty
            vec![7],                              // lone sender
            (0..60).collect(),                    // everyone talks
        ];
        for (step, senders) in schedules.iter().enumerate() {
            cached.decide_slot(&p, &pos, senders, &mut got);
            exact.decide_slot(&p, &pos, senders, &mut want);
            assert_eq!(got, want, "slot {step}");
        }
    }

    #[test]
    fn cached_is_exact_on_symmetric_ties() {
        // Lattice symmetry produces exact SINR ties — the near-threshold
        // territory where the guarded fallback must engage.
        let p = params();
        let pos = sinr_geom::deploy::lattice(6, 6, 2.0).unwrap();
        let mut cached = BackendSpec::cached().build();
        cached.prepare(&p, &pos).unwrap();
        let mut got = vec![None; pos.len()];
        for step in 0..6usize {
            let senders: Vec<usize> = (0..36).skip(step % 3).step_by(2 + step % 2).collect();
            cached.decide_slot(&p, &pos, &senders, &mut got);
            let want = decide_receptions(&p, &pos, &senders, InterferenceModel::Exact);
            assert_eq!(got, want, "slot {step}");
        }
    }

    #[test]
    fn cached_reprepares_on_deployment_change() {
        // Feeding a different deployment through a live backend must not
        // reuse stale gains.
        let p = params();
        let mut cached = BackendSpec::cached().build();
        for seed in [3u64, 4, 5] {
            let pos = sinr_geom::deploy::uniform(30, 40.0, seed).unwrap();
            let senders: Vec<usize> = (0..30).step_by(3).collect();
            let mut got = vec![None; pos.len()];
            cached.decide_slot(&p, &pos, &senders, &mut got);
            let want = decide_receptions(&p, &pos, &senders, InterferenceModel::Exact);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn try_decide_slot_refuses_oversized_table_structurally() {
        // A deployment past the dense-table byte cap must surface as a
        // structured error from the fallible entry point — a long-lived
        // service rejects the request; the process is not poisoned.
        let p = params();
        let n = 12_100; // n²·16 ≈ 2.34 GB > default 2 GiB cap
        let pos = sinr_geom::deploy::lattice(110, 110, 2.0).unwrap();
        let mut cached = BackendSpec::cached().build();
        let senders = vec![0usize];
        let mut out = vec![None; pos.len()];
        let err = cached
            .try_decide_slot(&p, &pos, &senders, &mut out)
            .unwrap_err();
        assert!(
            matches!(err, PhysError::GainTableTooLarge { n: en, .. } if en == n),
            "want GainTableTooLarge for n={n}, got {err}"
        );
        // The fallible entry point succeeds on a sane size.
        let pos = sinr_geom::deploy::lattice(4, 4, 2.0).unwrap();
        let mut out = vec![None; pos.len()];
        cached
            .try_decide_slot(&p, &pos, &[0], &mut out)
            .expect("small deployment prepares fine");
        assert!(out.iter().any(Option::is_some));
    }

    #[test]
    fn table_byte_reporting_matches_layout() {
        let p = params();
        let pos = sinr_geom::deploy::uniform(24, 30.0, 7).unwrap();
        let dense = Arc::new(GainTable::build(&p, &pos, 1));
        // gains + d2 are both n×n f64, positions are n Points.
        // gains + d2 are n×n f64, the prune index adds n×⌈n/64⌉ f64.
        let expect =
            (2 * 24 * 24 + 24) * std::mem::size_of::<f64>() + 24 * std::mem::size_of::<Point>();
        assert_eq!(dense.bytes(), expect);

        let hybrid = Arc::new(HybridTable::build(&p, &pos, 8.0, 1));
        assert!(
            hybrid.bytes() >= hybrid.near_links() * std::mem::size_of::<NearLink>(),
            "hybrid bytes must cover at least the near rows"
        );
        assert!(hybrid.bytes() < dense.bytes() * 4, "sane upper bound");

        let both = SharedTables::new()
            .with_dense(Arc::clone(&dense))
            .with_hybrid(Arc::clone(&hybrid));
        assert_eq!(both.bytes(), dense.bytes() + hybrid.bytes());
        assert_eq!(SharedTables::new().bytes(), 0);
    }

    #[test]
    fn gain_table_entries_match_exact_arithmetic() {
        let p = params();
        let pos = sinr_geom::deploy::uniform(12, 20.0, 1).unwrap();
        let cache = GainTable::build(&p, &pos, 1);
        assert_eq!(cache.n(), 12);
        assert!(cache.matches(&p, &pos));
        for s in 0..12 {
            for u in 0..12 {
                if s == u {
                    assert_eq!(cache.gain(s, u), 0.0);
                    assert_eq!(cache.dist_sq(s, u), f64::INFINITY);
                } else {
                    let d_sq = pos[s].dist_sq(pos[u]);
                    assert_eq!(cache.dist_sq(s, u), d_sq);
                    assert_eq!(cache.gain(s, u), p.received_power(d_sq.sqrt()));
                }
            }
        }
    }

    #[test]
    fn crossover_keeps_small_deployments_serial() {
        // The injectable core pins every decision hw-independently.
        // Below the crossover, requested threads are ignored outright.
        assert_eq!(effective_threads_for(8, 64, 8), 1);
        assert_eq!(effective_threads_for(8, 256, 8), 1);
        assert_eq!(effective_threads_for(8, PAR_CROSSOVER_LISTENERS - 1, 8), 1);
        // The n ≥ 256 regression: a single-core host (a CI runner, a
        // container with one vCPU) must never oversubscribe — requested
        // parallelism collapses to serial instead of context-thrashing.
        assert_eq!(effective_threads_for(8, 1024, 1), 1);
        assert_eq!(effective_threads_for(8, 4096, 1), 1);
        // Past the crossover on a big machine: capped by cores and by
        // the per-thread work floor (1024 listeners / PAR_MIN_CHUNK=256
        // → at most 4 chunks worth spawning).
        assert_eq!(effective_threads_for(8, PAR_CROSSOVER_LISTENERS, 8), 2);
        assert_eq!(effective_threads_for(8, 1024, 8), 4);
        assert_eq!(effective_threads_for(8, 4096, 8), 8);
        assert_eq!(effective_threads_for(2, 4096, 8), 2);
        assert_eq!(effective_threads_for(1, 4096, 8), 1);
        // Never more threads than the work floor allows.
        assert_eq!(effective_threads_for(4096, 4096, 64), 16);

        // The public wrapper supplies the real core count.
        assert_eq!(effective_threads(8, 64), 1);
        let spec = BackendSpec::exact().with_threads(8);
        assert_eq!(spec.tuned(64).threads, 1);
        assert_eq!(spec.tuned(2048).threads, effective_threads(8, 2048));
        assert_eq!(spec.tuned(64).model, spec.model);
    }

    #[test]
    fn spec_parsing_round_trips() {
        for s in [
            "exact",
            "grid:8",
            "cached",
            "hybrid",
            "hybrid:16",
            "exact:par:4",
            "grid:2.5:par:8",
            "cached:par:4",
            "hybrid:par:4",
            "hybrid:2.5:par:8",
        ] {
            let spec = BackendSpec::parse(s).unwrap();
            let rendered = spec.to_string();
            assert_eq!(BackendSpec::parse(&rendered).unwrap(), spec, "{s}");
        }
        assert_eq!(
            BackendSpec::parse("grid:8").unwrap(),
            BackendSpec::grid_far_field(8.0)
        );
        assert_eq!(
            BackendSpec::parse("par:4").unwrap(),
            BackendSpec::exact().with_threads(4)
        );
        assert_eq!(BackendSpec::parse("cached").unwrap(), BackendSpec::cached());
        assert_eq!(
            BackendSpec::parse("hybrid").unwrap(),
            BackendSpec::hybrid(0.0)
        );
        assert_eq!(
            BackendSpec::parse("hybrid:16").unwrap(),
            BackendSpec::hybrid(16.0)
        );
        // The optional cutoff must not swallow a following component.
        assert_eq!(
            BackendSpec::parse("hybrid:par:4").unwrap(),
            BackendSpec::hybrid(0.0).with_threads(4)
        );
        assert!(BackendSpec::parse("grid").is_err());
        assert!(BackendSpec::parse("par:0").is_err());
        assert!(BackendSpec::parse("hybrid:-2").is_err());
        assert!(BackendSpec::parse("warp").is_err());
        // The removed `f32` component is refused by name wherever it
        // sits (and is never swallowed as a hybrid cutoff).
        for s in [
            "cached:f32",
            "hybrid:f32",
            "hybrid:16:f32",
            "cached:f32:par:4",
            "hybrid:2.5:f32:par:8",
            "exact:f32",
            "f32",
        ] {
            let e = BackendSpec::parse(s).unwrap_err();
            assert!(e.contains("\"f32\"") && e.contains("removed"), "{s}: {e}");
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(BackendSpec::exact().build().name(), "exact");
        assert_eq!(BackendSpec::grid_far_field(4.0).build().name(), "grid");
        assert_eq!(BackendSpec::cached().build().name(), "cached");
        assert_eq!(
            BackendSpec::cached().with_threads(2).build().name(),
            "cached+par"
        );
        assert_eq!(
            BackendSpec::exact().with_threads(2).build().name(),
            "exact+par"
        );
        assert_eq!(
            BackendSpec::grid_far_field(4.0)
                .with_threads(2)
                .build()
                .name(),
            "grid+par"
        );
        assert_eq!(BackendSpec::hybrid(8.0).build().name(), "hybrid");
        assert_eq!(
            BackendSpec::hybrid(8.0).with_threads(2).build().name(),
            "hybrid+par"
        );
    }

    #[test]
    #[should_panic(expected = "one entry per node")]
    fn mismatched_output_slice_panics() {
        let p = params();
        let pos = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let mut out = vec![None; 1];
        ExactBackend::new().decide_slot(&p, &pos, &[0], &mut out);
    }

    /// Asserts the cached backend's decisions equal fresh exact
    /// computation for the given positions/senders, returning both.
    fn assert_cached_matches_exact(
        p: &SinrParams,
        cached: &mut CachedBackend,
        pos: &[Point],
        senders: &[usize],
        label: &str,
    ) {
        let mut got = vec![None; pos.len()];
        cached.decide_slot(p, pos, senders, &mut got);
        let want = decide_receptions(p, pos, senders, InterferenceModel::Exact);
        assert_eq!(got, want, "{label}");
    }

    #[test]
    fn gain_table_move_node_matches_a_fresh_build() {
        let p = params();
        let mut pos = sinr_geom::deploy::uniform(14, 24.0, 2).unwrap();
        let mut cache = GainTable::build(&p, &pos, 1);
        pos[3] = Point::new(100.0, 5.25);
        pos[9] = Point::new(100.0, 12.5);
        cache.move_node(3, pos[3]);
        cache.move_node(9, pos[9]);
        let fresh = GainTable::build(&p, &pos, 1);
        assert!(cache.matches(&p, &pos));
        for s in 0..14 {
            for u in 0..14 {
                assert_eq!(cache.gain(s, u), fresh.gain(s, u), "gain {s}->{u}");
                assert_eq!(cache.dist_sq(s, u), fresh.dist_sq(s, u), "d2 {s}->{u}");
            }
        }
    }

    #[test]
    fn update_positions_repairs_instead_of_rebuilding() {
        // The repaired kernel must keep producing exact decisions across
        // moves of senders, listeners, and the current nearest sender.
        let p = params();
        let mut pos = sinr_geom::deploy::uniform(40, 50.0, 7).unwrap();
        let mut cached = CachedBackend::new();
        cached.prepare(&p, &pos).unwrap();
        let senders: Vec<usize> = (0..40).step_by(3).collect();
        assert_cached_matches_exact(&p, &mut cached, &pos, &senders, "before any move");
        for step in 0..30usize {
            // Rotate a mover through senders and listeners alike; the
            // parking row sits clear of the deployment and spaces its
            // spots two units apart, so near-field always holds.
            let m = (step * 7) % 40;
            let to = Point::new(70.0 + 2.0 * step as f64, 70.0);
            pos[m] = to;
            cached.update_positions(&p, &pos, &[(m, to)]);
            assert_cached_matches_exact(&p, &mut cached, &pos, &senders, &format!("move {step}"));
        }
    }

    #[test]
    fn update_positions_handles_moved_best_sender() {
        // Listener 0's nearest sender walks away until a different
        // sender becomes nearest — the orphan-rescan path.
        let p = params();
        let mut pos = vec![
            Point::new(0.0, 0.0),  // listener
            Point::new(2.0, 0.0),  // nearest sender, about to leave
            Point::new(6.0, 0.0),  // second sender
            Point::new(40.0, 0.0), // far sender
        ];
        let senders = vec![1, 2, 3];
        let mut cached = CachedBackend::new();
        cached.prepare(&p, &pos).unwrap();
        assert_cached_matches_exact(&p, &mut cached, &pos, &senders, "initial");
        for step in 1..=12 {
            // The walker drifts away on an offset row, staying a unit
            // clear of the in-line senders it passes.
            pos[1] = Point::new(2.0 + step as f64 * 1.5, 2.0);
            cached.update_positions(&p, &pos, &[(1, pos[1])]);
            assert_cached_matches_exact(&p, &mut cached, &pos, &senders, &format!("step {step}"));
        }
    }

    #[test]
    fn teleporting_across_the_threshold_never_leaves_a_stale_total() {
        // The adversarial drift-bound test: one interferer teleports back
        // and forth across the exact decode boundary of a near-threshold
        // link, every hop landing the decision inside the guarded
        // fallback band. Run long enough to cross several REFRESH_OPS
        // cycles and assert (a) decisions stay bit-identical to exact
        // and (b) the tracked drift bound really covers the distance to
        // the exact ordered sum — i.e. no stale total ever survives a
        // refresh cycle.
        let p = params();
        // Listener 0 decodes sender 1; interferer 2 hops between a spot
        // where the SINR is comfortably above beta and one where it is
        // just below.
        let near = Point::new(11.0, 0.0);
        let far = Point::new(26.0, 0.0);
        let mut pos = vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0), far];
        let senders = vec![1, 2];
        let mut cached = CachedBackend::new();
        cached.prepare(&p, &pos).unwrap();
        let total_ops = REFRESH_OPS * 3 + 17;
        for step in 0..total_ops {
            let to = if step % 2 == 0 { near } else { far };
            pos[2] = to;
            cached.update_positions(&p, &pos, &[(2, to)]);
            assert_cached_matches_exact(
                &p,
                &mut cached,
                &pos,
                &senders,
                &format!("teleport {step}"),
            );
            // Drift-bound bookkeeping: the maintained total must sit
            // within the tracked error of the exact ordered sum.
            let cache = cached.gain_table().unwrap();
            for u in 0..pos.len() {
                let exact: f64 = senders.iter().map(|&s| cache.gain(s, u)).sum();
                assert!(
                    (cached.state.total[u] - exact).abs()
                        <= cached.state.err[u] + f64::EPSILON * exact.abs(),
                    "stale total at listener {u} after {step} teleports: \
                     total {} vs exact {exact}, err bound {}",
                    cached.state.total[u],
                    cached.state.err[u]
                );
            }
        }
        // The periodic refresh must actually have fired along the way.
        assert!(
            cached.state.ops_since_refresh < total_ops,
            "refresh never ran"
        );
    }

    #[test]
    fn update_positions_mass_move_takes_the_rebuild_path() {
        // Moving >= n/4 nodes at once rebuilds the cache outright; the
        // decisions must still be exact.
        let p = params();
        let mut pos = sinr_geom::deploy::uniform(24, 30.0, 4).unwrap();
        let mut cached = CachedBackend::new();
        cached.prepare(&p, &pos).unwrap();
        let senders: Vec<usize> = (0..24).step_by(2).collect();
        assert_cached_matches_exact(&p, &mut cached, &pos, &senders, "before");
        let moved: Vec<(usize, Point)> = (0..12)
            .map(|i| {
                let to = Point::new(pos[i].x + 40.0, pos[i].y);
                pos[i] = to;
                (i, to)
            })
            .collect();
        cached.update_positions(&p, &pos, &moved);
        assert!(cached.gain_table().unwrap().matches(&p, &pos));
        assert_cached_matches_exact(&p, &mut cached, &pos, &senders, "after mass move");
    }

    #[test]
    fn update_positions_before_prepare_is_a_safe_noop() {
        let p = params();
        let pos = sinr_geom::deploy::line(6, 3.0).unwrap();
        let mut cached = CachedBackend::new();
        // No cache yet: the hook must not panic, and the first
        // decide_slot prepares lazily.
        cached.update_positions(&p, &pos, &[(0, pos[0])]);
        assert_cached_matches_exact(&p, &mut cached, &pos, &[0, 3], "lazy prepare");
    }

    #[test]
    fn update_positions_is_a_noop_for_stateless_backends() {
        // Exact/grid/parallel read positions fresh per slot; the hook
        // must not disturb them.
        let p = params();
        let mut pos = sinr_geom::deploy::uniform(20, 30.0, 6).unwrap();
        let senders: Vec<usize> = (0..20).step_by(2).collect();
        for spec in [
            BackendSpec::exact(),
            BackendSpec::grid_far_field(8.0),
            BackendSpec::exact().with_threads(2),
        ] {
            let mut backend = spec.build();
            backend.prepare(&p, &pos).unwrap();
            let mut out = vec![None; pos.len()];
            backend.decide_slot(&p, &pos, &senders, &mut out);
            pos[5] = Point::new(pos[5].x + 9.0, pos[5].y);
            backend.update_positions(&p, &pos, &[(5, pos[5])]);
            backend.decide_slot(&p, &pos, &senders, &mut out);
            let want = decide_receptions(&p, &pos, &senders, InterferenceModel::Exact);
            if spec.model == InterferenceModel::Exact {
                assert_eq!(out, want, "{spec}");
            }
        }
    }

    #[test]
    fn shared_table_is_adopted_without_a_rebuild() {
        let p = params();
        let pos = sinr_geom::deploy::uniform(20, 30.0, 3).unwrap();
        let table = Arc::new(GainTable::build(&p, &pos, 1));
        let mut backend = CachedBackend::with_shared_table(Arc::clone(&table), 1);
        backend.prepare(&p, &pos).unwrap();
        // prepare must keep the very same allocation, not clone or
        // rebuild it.
        assert!(Arc::ptr_eq(&backend.shared_table().unwrap(), &table));
        let senders: Vec<usize> = (0..20).step_by(2).collect();
        assert_cached_matches_exact(&p, &mut backend, &pos, &senders, "shared table");
        assert!(Arc::ptr_eq(&backend.shared_table().unwrap(), &table));
    }

    #[test]
    fn shared_table_works_without_an_explicit_prepare() {
        // The lazy path: a backend built around a matching table whose
        // prepare was never called must initialize its slot state on the
        // first decide_slot instead of reading empty vectors.
        let p = params();
        let pos = sinr_geom::deploy::uniform(16, 24.0, 9).unwrap();
        let table = Arc::new(GainTable::build(&p, &pos, 1));
        let mut backend = CachedBackend::with_shared_table(Arc::clone(&table), 1);
        let senders: Vec<usize> = (0..16).step_by(3).collect();
        assert_cached_matches_exact(&p, &mut backend, &pos, &senders, "lazy shared");
        assert!(Arc::ptr_eq(&backend.shared_table().unwrap(), &table));
    }

    #[test]
    fn mismatched_shared_table_is_rebuilt_not_trusted() {
        let p = params();
        let other = sinr_geom::deploy::uniform(12, 20.0, 1).unwrap();
        let pos = sinr_geom::deploy::uniform(12, 20.0, 2).unwrap();
        let table = Arc::new(GainTable::build(&p, &other, 1));
        let mut backend = CachedBackend::with_shared_table(Arc::clone(&table), 1);
        let senders: Vec<usize> = (0..12).step_by(2).collect();
        assert_cached_matches_exact(&p, &mut backend, &pos, &senders, "mismatched table");
        assert!(
            !Arc::ptr_eq(&backend.shared_table().unwrap(), &table),
            "a non-matching table must be replaced"
        );
        assert!(backend.gain_table().unwrap().matches(&p, &pos));
    }

    #[test]
    fn movement_forks_a_shared_table_copy_on_write() {
        // Two backends share one table; one of them moves a node. The
        // mover must fork a private copy (and stay exact against the
        // moved geometry), the other must keep the original allocation
        // (and stay exact against the unmoved geometry).
        let p = params();
        let home = sinr_geom::deploy::uniform(24, 32.0, 6).unwrap();
        let table = Arc::new(GainTable::build(&p, &home, 1));
        let mut mover = CachedBackend::with_shared_table(Arc::clone(&table), 1);
        let mut bystander = CachedBackend::with_shared_table(Arc::clone(&table), 1);
        mover.prepare(&p, &home).unwrap();
        bystander.prepare(&p, &home).unwrap();
        let senders: Vec<usize> = (0..24).step_by(2).collect();
        assert_cached_matches_exact(&p, &mut mover, &home, &senders, "mover before");
        assert_cached_matches_exact(&p, &mut bystander, &home, &senders, "bystander before");

        let mut moved_pos = home.clone();
        moved_pos[5] = Point::new(80.0, 80.0);
        mover.update_positions(&p, &moved_pos, &[(5, moved_pos[5])]);
        assert!(
            !Arc::ptr_eq(&mover.shared_table().unwrap(), &table),
            "repair on a shared table must fork"
        );
        assert!(
            Arc::ptr_eq(&bystander.shared_table().unwrap(), &table),
            "the bystander's table must be untouched"
        );
        assert_cached_matches_exact(&p, &mut mover, &moved_pos, &senders, "mover after");
        assert_cached_matches_exact(&p, &mut bystander, &home, &senders, "bystander after");
        // And the original table still holds the unmoved geometry.
        assert!(table.matches(&p, &home));
    }

    #[test]
    fn build_with_table_routes_only_the_cached_model() {
        let p = params();
        let pos = sinr_geom::deploy::uniform(10, 16.0, 4).unwrap();
        let table = Arc::new(GainTable::build(&p, &pos, 1));
        assert_eq!(
            BackendSpec::cached().build_with_table(Some(&table)).name(),
            "cached"
        );
        assert_eq!(
            BackendSpec::exact().build_with_table(Some(&table)).name(),
            "exact"
        );
        assert_eq!(
            BackendSpec::cached().build_with_table(None).name(),
            "cached"
        );
        // The adopted table really is shared, not copied.
        let mut backend = BackendSpec::cached()
            .with_threads(2)
            .build_with_table(Some(&table));
        backend.prepare(&p, &pos).unwrap();
        let senders: Vec<usize> = (0..10).step_by(2).collect();
        let mut got = vec![None; pos.len()];
        backend.decide_slot(&p, &pos, &senders, &mut got);
        let want = decide_receptions(&p, &pos, &senders, InterferenceModel::Exact);
        assert_eq!(got, want);
    }

    #[test]
    fn update_positions_composes_with_sender_churn() {
        // Movement and churn interleaved — the combination the mobility
        // engine actually produces.
        let p = params();
        let mut pos = sinr_geom::deploy::uniform(36, 44.0, 13).unwrap();
        let mut cached = CachedBackend::new();
        cached.prepare(&p, &pos).unwrap();
        for step in 0..25usize {
            let m = (step * 5) % 36;
            let to = Point::new(2.0 * step as f64, 120.0);
            pos[m] = to;
            cached.update_positions(&p, &pos, &[(m, to)]);
            let senders: Vec<usize> = (0..36).skip(step % 3).step_by(2 + step % 2).collect();
            assert_cached_matches_exact(&p, &mut cached, &pos, &senders, &format!("slot {step}"));
        }
    }

    /// Asserts the hybrid backend's decisions are conservative against
    /// fresh exact computation: every grant must be a grant exact makes
    /// of the same sender (denials are free). Returns the grant count so
    /// callers can assert the test exercised something.
    fn assert_hybrid_conservative(
        p: &SinrParams,
        hybrid: &mut HybridBackend,
        pos: &[Point],
        senders: &[usize],
        label: &str,
    ) -> usize {
        let mut got = vec![None; pos.len()];
        hybrid.decide_slot(p, pos, senders, &mut got);
        let want = decide_receptions(p, pos, senders, InterferenceModel::Exact);
        let mut grants = 0;
        for (u, (h, e)) in got.iter().zip(&want).enumerate() {
            if let Some(s) = h {
                grants += 1;
                assert_eq!(
                    Some(*s),
                    *e,
                    "{label}: hybrid granted {s} to listener {u}, exact says {e:?}"
                );
            }
        }
        grants
    }

    #[test]
    fn hybrid_is_conservative_across_churn() {
        // A deployment several cutoffs wide, so the far field is
        // genuinely exercised, driven through churny sender sets (delta
        // and refresh paths both hit).
        let p = params();
        let pos = sinr_geom::deploy::uniform(60, 48.0, 7).unwrap();
        let mut hybrid = HybridBackend::new(8.0);
        let mut total_grants = 0;
        for step in 0..24usize {
            let senders: Vec<usize> = (0..60).skip(step % 4).step_by(2 + step % 3).collect();
            total_grants += assert_hybrid_conservative(
                &p,
                &mut hybrid,
                &pos,
                &senders,
                &format!("slot {step}"),
            );
        }
        assert!(total_grants > 0, "the workload must decode something");
    }

    #[test]
    fn hybrid_with_generous_cutoff_matches_exact() {
        // A cutoff wider than the deployment's diameter makes every
        // pair near: the sparse rows then hold the full exact gains in
        // ascending order, the far field is empty, and decisions are
        // bit-identical to the exact backend.
        let p = params();
        let pos = sinr_geom::deploy::uniform(40, 20.0, 11).unwrap();
        let mut hybrid = HybridBackend::new(64.0);
        for step in 0..10usize {
            let senders: Vec<usize> = (step % 3..40).step_by(2).collect();
            let mut got = vec![None; pos.len()];
            hybrid.decide_slot(&p, &pos, &senders, &mut got);
            let want = decide_receptions(&p, &pos, &senders, InterferenceModel::Exact);
            assert_eq!(got, want, "slot {step}");
        }
    }

    #[test]
    fn hybrid_is_identical_across_thread_counts() {
        // Past the parallel crossover so the chunked sweeps really
        // split; decisions must not depend on the thread count.
        let p = params();
        let pos = sinr_geom::deploy::uniform(600, 96.0, 3).unwrap();
        let mut serial = HybridBackend::new(8.0);
        let mut par = HybridBackend::with_threads(8.0, 4);
        for step in 0..6usize {
            let senders: Vec<usize> = (step % 2..600).step_by(3 + step % 2).collect();
            let mut a = vec![None; pos.len()];
            let mut b = vec![None; pos.len()];
            serial.decide_slot(&p, &pos, &senders, &mut a);
            par.decide_slot(&p, &pos, &senders, &mut b);
            assert_eq!(a, b, "slot {step}");
        }
    }

    #[test]
    fn hybrid_mobility_repair_matches_a_fresh_build() {
        // The incremental re-bucketing must converge to the same table
        // (hence the same decisions) a from-scratch build would produce,
        // and stay conservative against exact throughout.
        let p = params();
        let mut pos = sinr_geom::deploy::uniform(48, 40.0, 19).unwrap();
        let mut repaired = HybridBackend::new(8.0);
        let senders: Vec<usize> = (0..48).step_by(3).collect();
        let mut warmup = vec![None; pos.len()];
        repaired.decide_slot(&p, &pos, &senders, &mut warmup);
        for step in 0..12usize {
            let m = (step * 7) % 48;
            // Long hops: movers cross cells and reach fresh ground
            // (appended slots) as well as previously occupied cells.
            let to = Point::new(
                (step as f64 * 9.0) % 55.0,
                if step % 2 == 0 {
                    60.0 + step as f64
                } else {
                    3.0
                },
            );
            pos[m] = to;
            repaired.update_positions(&p, &pos, &[(m, to)]);
            let senders: Vec<usize> = (0..48).skip(step % 2).step_by(3).collect();
            let mut got = vec![None; pos.len()];
            repaired.decide_slot(&p, &pos, &senders, &mut got);
            let mut fresh = HybridBackend::new(8.0);
            let mut want = vec![None; pos.len()];
            fresh.decide_slot(&p, &pos, &senders, &mut want);
            assert_eq!(got, want, "step {step}: repair diverged from rebuild");
            assert_hybrid_conservative(&p, &mut repaired, &pos, &senders, &format!("step {step}"));
        }
    }

    #[test]
    fn hybrid_mass_move_takes_the_rebuild_path() {
        let p = params();
        let mut pos = sinr_geom::deploy::uniform(16, 20.0, 23).unwrap();
        let mut hybrid = HybridBackend::new(8.0);
        hybrid.prepare(&p, &pos).unwrap();
        let moved: Vec<(usize, Point)> = (0..8)
            .map(|i| (i, Point::new(30.0 + 2.5 * i as f64, 30.0)))
            .collect();
        for &(i, to) in &moved {
            pos[i] = to;
        }
        hybrid.update_positions(&p, &pos, &moved);
        assert!(
            hybrid.hybrid_table().unwrap().matches(&p, &pos, 8.0),
            "mass move must rebuild against the new positions"
        );
        let senders: Vec<usize> = (0..16).step_by(2).collect();
        assert_hybrid_conservative(&p, &mut hybrid, &pos, &senders, "after mass move");
    }

    #[test]
    fn hybrid_shared_table_is_adopted_and_forked_copy_on_write() {
        let p = params();
        let home = sinr_geom::deploy::uniform(24, 24.0, 31).unwrap();
        let table = Arc::new(HybridTable::build(&p, &home, 8.0, 1));
        let mut mover = HybridBackend::with_shared_table(8.0, Arc::clone(&table), 1);
        let mut bystander = HybridBackend::with_shared_table(8.0, Arc::clone(&table), 1);
        mover.prepare(&p, &home).unwrap();
        bystander.prepare(&p, &home).unwrap();
        // Adoption is by reference, not copy.
        assert!(Arc::ptr_eq(&mover.shared_table().unwrap(), &table));

        let mut moved_pos = home.clone();
        moved_pos[5] = Point::new(50.0, 50.0);
        mover.update_positions(&p, &moved_pos, &[(5, moved_pos[5])]);
        assert!(
            !Arc::ptr_eq(&mover.shared_table().unwrap(), &table),
            "movement must fork the shared table"
        );
        assert!(
            Arc::ptr_eq(&bystander.shared_table().unwrap(), &table),
            "the bystander's table must be untouched"
        );
        let senders: Vec<usize> = (0..24).step_by(2).collect();
        assert_hybrid_conservative(&p, &mut mover, &moved_pos, &senders, "mover after");
        assert_hybrid_conservative(&p, &mut bystander, &home, &senders, "bystander after");
        assert!(table.matches(&p, &home, 8.0));
    }

    #[test]
    fn gain_table_cap_refuses_with_a_structured_error() {
        let p = params();
        let pos = sinr_geom::deploy::uniform(12, 16.0, 2).unwrap();
        // 12 nodes need 2304 bytes; a 1 KB cap must refuse without
        // allocating.
        let err = GainTable::try_build_with_cap(&p, &pos, 1, 1024).unwrap_err();
        match err {
            PhysError::GainTableTooLarge { n, bytes, cap } => {
                assert_eq!(n, 12);
                assert_eq!(bytes, 12 * 12 * 16);
                assert_eq!(cap, 1024);
            }
            other => panic!("expected GainTableTooLarge, got {other}"),
        }
        assert!(
            err.to_string().contains("hybrid"),
            "the refusal must point at the sparse escape hatch: {err}"
        );
        // Under the cap the build succeeds and matches the plain path.
        let ok = GainTable::try_build_with_cap(&p, &pos, 1, 1 << 20).unwrap();
        assert!(ok.matches(&p, &pos));
    }

    #[test]
    fn dense_table_bytes_saturates() {
        assert_eq!(dense_table_bytes(1024), 16 * 1024 * 1024);
        assert_eq!(dense_table_bytes(usize::MAX), u64::MAX);
    }

    #[test]
    fn tuned_falls_back_to_hybrid_over_the_memory_cap() {
        // n=1024 needs 16 MB — fine; n=100_000 needs 160 GB — over any
        // sane cap, so tuned() must swap in the sparse kernel. (Uses the
        // default cap; the env override is validated in the bench
        // harness, not here, to keep tests env-independent.)
        if std::env::var("SINR_MAX_TABLE_BYTES").is_ok() {
            return;
        }
        let small = BackendSpec::cached().tuned(1024);
        assert_eq!(small.model, InterferenceModel::Cached);
        let big = BackendSpec::cached().with_threads(8).tuned(100_000);
        assert_eq!(big.model, InterferenceModel::Hybrid { cutoff: 0.0 });
        assert_eq!(big.threads, effective_threads(8, 100_000));
        // The resolved thread count is hardware-capped, so the name is
        // pinned relative to it rather than absolutely.
        let expected = if big.threads > 1 {
            "hybrid+par"
        } else {
            "hybrid"
        };
        assert_eq!(big.build().name(), expected);
        // Non-cached models never switch.
        let exact = BackendSpec::exact().tuned(100_000);
        assert_eq!(exact.model, InterferenceModel::Exact);
    }

    #[test]
    fn build_with_tables_routes_by_model() {
        let p = params();
        let pos = sinr_geom::deploy::uniform(10, 16.0, 4).unwrap();
        let dense = Arc::new(GainTable::build(&p, &pos, 1));
        let sparse = Arc::new(HybridTable::build(&p, &pos, 8.0, 1));
        let tables = SharedTables::new()
            .with_dense(Arc::clone(&dense))
            .with_hybrid(Arc::clone(&sparse));
        assert_eq!(
            BackendSpec::cached()
                .build_with_tables(Some(&tables))
                .name(),
            "cached"
        );
        assert_eq!(
            BackendSpec::hybrid(8.0)
                .build_with_tables(Some(&tables))
                .name(),
            "hybrid"
        );
        assert_eq!(
            BackendSpec::exact().build_with_tables(Some(&tables)).name(),
            "exact"
        );
        assert_eq!(
            BackendSpec::hybrid(8.0).build_with_tables(None).name(),
            "hybrid"
        );
        // The matching() filter drops a mismatched member instead of
        // letting a backend adopt stale gains.
        let other = sinr_geom::deploy::uniform(10, 16.0, 5).unwrap();
        let kept = tables.matching(BackendSpec::hybrid(8.0), &p, &pos);
        assert!(kept.dense().is_some() && kept.hybrid().is_some());
        let dropped = tables.matching(BackendSpec::hybrid(8.0), &p, &other);
        assert!(dropped.is_empty());
        // A hybrid table built for one cutoff must not serve another.
        let wrong_cutoff = tables.matching(BackendSpec::hybrid(4.0), &p, &pos);
        assert!(wrong_cutoff.hybrid().is_none());
    }
}
