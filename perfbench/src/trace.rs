//! Spans recorded around each call the benchmark makes into a layer of
//! the workspace, and the wall-clock accounting derived from them.
//!
//! The program itself is not instrumented: a span covers one public
//! call (`ScenarioSpec::parse`, `PreparedDeployment::prepare`, …) as
//! seen from the benchmark. Spans are kept in memory and written out
//! when the run ends. With tracing off, [`Tracer::span`] still times
//! the call (the end-to-end metrics need the durations) but records
//! nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use sinr_scenario::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `phys.prepare`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for a root).
    pub parent: Option<usize>,
    /// Operation, cell or request id the span belongs to.
    pub id: u64,
}

/// Handle of an open span, passed to children as their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a root span.
    pub const ROOT: SpanId = SpanId(None);
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update is a single push or field store, so the data is
        // valid even if a panicking thread held the lock.
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` inside a span named `name` and returns its value with
    /// the elapsed seconds (measured whether or not tracing is on).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let me = if self.on {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent: parent.0,
                id,
            });
            SpanId(Some(spans.len() - 1))
        } else {
            SpanId::ROOT
        };
        let out = f(me);
        let end = Instant::now();
        if let Some(i) = me.0 {
            self.lock()[i].end_ns = self.ns(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a span whose bounds were observed elsewhere (a served
    /// request's queue wait, read off its response timestamps).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::ROOT;
        }
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end.max(start)),
            parent: parent.0,
            id,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Where the wall time of a set of root spans went.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    /// Summed duration of the included root spans, ns.
    pub wall_ns: f64,
    /// Self time per span name (roots excluded), ns.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// `wall_ns` minus the summed self times: time inside a root that
    /// no layer span covers (the benchmark's own glue).
    pub unattributed_ns: f64,
}

/// Accounts the subtrees of the roots `include` selects.
///
/// A span's self time is the part of its interval its child spans do
/// not cover. When spans of parallel threads overlap, each instant is
/// split evenly between the innermost spans open at that instant, so
/// the self times plus the unattributed remainder always add up to the
/// wall time of the roots (provided the roots do not overlap).
///
/// # Panics
///
/// Panics if a span's parent index does not precede it (the recorder
/// always pushes parents first).
pub fn account(spans: &[Span], include: impl Fn(&Span) -> bool) -> Accounting {
    let n = spans.len();
    let mut root = vec![0usize; n];
    for (i, s) in spans.iter().enumerate() {
        root[i] = match s.parent {
            None => i,
            Some(p) => {
                assert!(p < i, "span parents precede their children");
                root[p]
            }
        };
    }
    let kept: Vec<bool> = (0..n).map(|i| include(&spans[root[i]])).collect();

    // (time, opens?, span); closes sort before opens at the same time.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * n);
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| kept[*i]) {
        events.push((s.start_ns, true, i));
        events.push((s.end_ns, false, i));
    }
    events.sort_unstable();

    let mut open_kids = vec![0usize; n];
    let mut active: Vec<usize> = Vec::new();
    let mut self_by_span = vec![0f64; n];
    let mut k = 0;
    while k < events.len() {
        let t = events[k].0;
        while k < events.len() && events[k].0 == t {
            let (_, opens, i) = events[k];
            let parent = spans[i].parent;
            if opens {
                active.push(i);
                if let Some(p) = parent {
                    open_kids[p] += 1;
                }
            } else {
                if let Some(pos) = active.iter().position(|&a| a == i) {
                    active.swap_remove(pos);
                }
                if let Some(p) = parent {
                    open_kids[p] = open_kids[p].saturating_sub(1);
                }
            }
            k += 1;
        }
        let Some(&(next, _, _)) = events.get(k) else {
            break;
        };
        let leaves: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| open_kids[i] == 0)
            .collect();
        if !leaves.is_empty() {
            let share = (next - t) as f64 / leaves.len() as f64;
            for i in leaves {
                self_by_span[i] += share;
            }
        }
    }

    let mut wall_ns = 0.0;
    let mut self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| kept[*i]) {
        if s.parent.is_none() {
            wall_ns += (s.end_ns - s.start_ns) as f64;
        } else {
            *self_ns.entry(s.name).or_default() += self_by_span[i];
        }
    }
    let attributed: f64 = self_ns.values().sum();
    Accounting {
        wall_ns,
        self_ns,
        unattributed_ns: wall_ns - attributed,
    }
}

/// The spans as a JSON array (times in µs since the tracer's origin).
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                    ("parent".into(), Json::opt_int(s.parent.map(|p| p as u64))),
                    ("id".into(), Json::int(s.id)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        let acc = account(&spans, |_| true);
        assert_eq!(acc.wall_ns, 100.0);
        assert_eq!(acc.self_ns["a"], 20.0);
        assert_eq!(acc.self_ns["b"], 10.0);
        assert_eq!(acc.self_ns["c"], 40.0);
        assert_eq!(acc.unattributed_ns, 30.0);
    }

    #[test]
    fn same_name_spans_accumulate_and_sum_to_wall() {
        let spans = [
            span("op", 0, 50, None),
            span("x", 0, 20, Some(0)),
            span("op", 60, 100, None),
            span("x", 70, 100, Some(2)),
        ];
        let acc = account(&spans, |_| true);
        assert_eq!(acc.wall_ns, 90.0);
        assert_eq!(acc.self_ns["x"], 50.0);
        assert_eq!(acc.unattributed_ns, 40.0);
    }

    #[test]
    fn parallel_children_split_overlap_evenly() {
        // Two worker-thread children of one root overlap on [20, 60).
        let spans = [
            span("sweep", 0, 100, None),
            span("cell", 0, 60, Some(0)),
            span("cell", 20, 80, Some(0)),
        ];
        let acc = account(&spans, |_| true);
        assert_eq!(acc.self_ns["cell"], 80.0);
        assert_eq!(acc.unattributed_ns, 20.0);
        let total: f64 = acc.self_ns.values().sum::<f64>() + acc.unattributed_ns;
        assert_eq!(total, acc.wall_ns);
    }

    #[test]
    fn excluded_roots_and_their_subtrees_are_ignored() {
        let spans = [
            span("op", 0, 10, None),
            span("probe", 10, 30, None),
            span("phys.prepare", 12, 28, Some(1)),
        ];
        let acc = account(&spans, |s| s.name == "op");
        assert_eq!(acc.wall_ns, 10.0);
        assert!(acc.self_ns.is_empty());
        assert_eq!(acc.unattributed_ns, 10.0);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.span("x", SpanId::ROOT, 0, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let t = Tracer::new(true);
        t.span("op", SpanId::ROOT, 1, |op| {
            t.span("child", op, 1, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
