//! The four workloads, their generated inputs, and the measurement
//! loop and per-layer derivations they share.

pub mod mac;
pub mod pin;
pub mod serve;
pub mod sweep;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::kernel;
use crate::path::{self, PathOut, PathTimes};
use crate::pins;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// The benchmark's workloads (those `BENCHMARK.json` lists), in the
/// order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["mac-cached-n1024", "sweep-setup-n1024", "serve-mixed-open"];

/// Workloads that run only when named: too few operations fit in a run
/// for their medians to be steady on a shared host (see README.md).
pub const EXTRA: [&str; 1] = ["mac-hybrid-n4096"];

/// Input variants: `--seed` selects variant `seed % VARIANTS`, whose
/// deployments and run seeds are fixed and whose reference digests are
/// pinned.
pub const VARIANTS: u64 = 16;

/// Repetitions behind a set-up median when a run's own operations do
/// not provide that many.
pub const SETUP_REPS: usize = 9;

/// Paper-MAC spec text (`workload=repeat:stride:2`, `sinr=range:16`),
/// as the mac workloads, the sweep and the served requests use it.
pub fn mac_spec(
    name: &str,
    deploy: &str,
    backend: &str,
    slots: u64,
    seed: u64,
    measure: &str,
) -> String {
    format!(
        "name={name}\ndeploy={deploy}\nsinr=range:16\nbackend={backend}\nmac=sinr\n\
         workload=repeat:stride:2\nstop=slots:{slots}\nseed={seed}\nmeasure={measure}\n"
    )
}

/// How a workload is run.
pub struct Cx {
    /// Workload name.
    pub name: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// `seed % VARIANTS`.
    pub variant: u64,
    /// How long the operation loop runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations (runs, cells, requests, replayed slots).
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Human-readable findings, printed before the result line.
    pub notes: Vec<String>,
    /// Set-up time samples, seconds.
    pub setup_s: Vec<f64>,
    /// Whole-operation wall time samples, seconds.
    pub wall_s: Vec<f64>,
    /// Simulated slots per host second.
    pub slots_per_s: f64,
    /// Completed cells per second.
    pub cells_per_s: f64,
    /// Latency samples, ms (operations, or served requests).
    pub latency_ms: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Traced and untraced operation walls, seconds (traced runs only).
    pub traced_walls: Vec<f64>,
    pub untraced_walls: Vec<f64>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// Operation walls of one run, seconds.
pub struct Walls {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

/// Runs `op` for about `cx.seconds`, at least once (twice when
/// traced). In a traced run the operations alternate untraced and
/// traced, so the two can be compared for the tracing overhead. With
/// `warmup`, one extra operation runs first with `timed = false`: it
/// is checked but its times are not kept (caches, page faults and the
/// allocator settle in it). `op` gets its index, the tracer to use and
/// `timed`, and returns its wall time.
pub fn op_loop(
    cx: &Cx,
    on: &Tracer,
    warmup: bool,
    mut op: impl FnMut(u64, &Tracer, bool) -> f64,
) -> Walls {
    let off = Tracer::new(false);
    if warmup {
        op(0, &off, false);
    }
    let first = u64::from(warmup);
    let min_ops = if cx.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut w = Walls {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let mut k = 0;
    let mut last = 0.0;
    // Stop once another operation would overrun the budget by more
    // than half its length, so long operations do not stretch the run.
    while k < min_ops || start.elapsed().as_secs_f64() + last / 2.0 < cx.seconds {
        let traced = cx.trace && k % 2 == 1;
        let wall = op(first + k, if traced { on } else { &off }, true);
        last = wall;
        if traced {
            w.traced.push(wall);
        } else {
            w.untraced.push(wall);
        }
        k += 1;
    }
    w
}

/// `VmHWM` of this process, MB (`NaN` where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Kernel replay settings for a workload's representative run.
pub struct ReplayPlan {
    /// Slots shadowed and replayed (capped at the run's horizon).
    pub slots: u64,
    /// Every how many replayed slots one is checked against exact.
    pub check_every: usize,
}

/// Fills the layer metrics of the scenario path: realize, prepare,
/// diameter, build/run, report/render/parse, and the kernel replay.
/// `times` are the traced path samples, `last` one of those paths.
pub fn path_layers(
    cx: &Cx,
    tr: &Tracer,
    out: &mut Outcome,
    times: &[PathTimes],
    last: &PathOut,
    replay: &ReplayPlan,
) {
    let med = |f: fn(&PathTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let (realize_s, _) = tr.span("probe", SpanId::ROOT, 0, |p| {
        path::realize(tr, p, 0, &last.spec)
    });
    let realize_s = match realize_s {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("realize probe: {e}"));
            f64::NAN
        }
    };
    let horizon = last.run.outcome.horizon;
    let run_s = med(|t| t.run);
    let l = &mut out.layers;
    l.insert("geom.realize_ms", realize_s * 1e3);
    l.insert("phys.prepare_ms", (med(|t| t.prepare) - realize_s) * 1e3);
    l.insert("phys.table_bytes", last.prepared.resident_bytes() as f64);
    l.insert("graphs.diameter_ms", med(|t| t.diameter) * 1e3);
    l.insert("mac.build_ms", med(|t| t.build) * 1e3);
    l.insert("mac.run_ms", run_s * 1e3);
    l.insert("measure.report_ms", med(|t| t.report) * 1e3);
    l.insert("scenario.render_us", med(|t| t.render) * 1e6);
    l.insert("scenario.parse_us", med(|t| t.parse) * 1e6);

    let slots = replay.slots.min(horizon);
    let (kernel, _) = tr.span("probe", SpanId::ROOT, 1, |p| {
        let shadow = tr.span("absmac.shadow", p, 1, |_| {
            kernel::shadow(&last.run, &last.prepared, slots)
        });
        let shadow = shadow.0?;
        let replayed = tr.span("phys.replay", p, 1, |_| {
            kernel::replay(
                &last.run,
                &last.prepared,
                &shadow.tx,
                cx.seed ^ 0x5EED,
                replay.check_every,
            )
        });
        Ok::<_, String>((shadow, replayed.0?))
    });
    let (shadow, replayed) = match kernel {
        Ok(k) => k,
        Err(e) => {
            out.check(false, || format!("kernel replay: {e}"));
            return;
        }
    };
    if shadow.faithful == Some(false) {
        out.notes.push(
            "warning: the shadow MAC run diverged from the scenario run; \
             transmissions per slot are approximate"
                .into(),
        );
    }
    for _ in 0..replayed.checked - replayed.mismatched {
        out.check(true, String::new);
    }
    for _ in 0..replayed.mismatched {
        out.check(false, || {
            format!(
                "kernel replay: {} broke its contract with exact",
                last.run.ctx.backend
            )
        });
    }
    let tx_mean = shadow.tx.iter().sum::<usize>() as f64 / shadow.tx.len().max(1) as f64;
    let decide_mean =
        replayed.decide_us.iter().sum::<f64>() / replayed.decide_us.len().max(1) as f64;
    let kernel_us = decide_mean * horizon as f64;
    let l = &mut out.layers;
    l.insert("phys.decide_slot_us", median(&replayed.decide_us));
    l.insert("phys.transmissions_per_slot", tx_mean);
    l.insert("phys.kernel_share", kernel_us / (run_s * 1e6));
    l.insert(
        "mac.outside_kernel_us_per_slot",
        (run_s * 1e6 - kernel_us) / horizon as f64,
    );
    let events = if last.run.outcome.trace.is_empty() {
        shadow.events
    } else {
        last.run.outcome.trace.len()
    };
    l.insert("absmac.trace_events", events as f64);
}

/// Runs the full path of a representative cell `reps` times under a
/// `probe` root (for workloads whose operations do not expose the
/// scenario layers), checks its digest against `pin`, and fills the
/// path layer metrics.
pub fn probe_path(
    cx: &Cx,
    tr: &Tracer,
    out: &mut Outcome,
    text: &str,
    pin: &str,
    reps: usize,
    replay: &ReplayPlan,
) {
    let mut times = Vec::new();
    let mut last = None;
    for r in 0..reps {
        let (res, _) = tr.span("probe", SpanId::ROOT, 2 + r as u64, |p| {
            path::full_path(tr, p, 2 + r as u64, text)
        });
        match res {
            Ok(p) => {
                let d = pins::report_digest(&p.report, "cached", "cached");
                out.check(pins::matches(cx.name, cx.variant, pin, d), || {
                    format!("probe cell {pin}: report digest differs from the exact pin")
                });
                times.push(p.times);
                last = Some(p);
            }
            Err(e) => out.check(false, || format!("probe cell {pin}: {e}")),
        }
    }
    if let Some(last) = last {
        path_layers(cx, tr, out, &times, &last, replay);
    }
}

/// The per-layer metrics of layers a workload does not exercise (`0`:
/// no work was done there).
pub const SWEEP_LAYERS: [&str; 5] = [
    "sweep.plan_ms",
    "sweep.groups",
    "sweep.shared_cells",
    "sweep.sink_ms",
    "sweep.peak_resident_runs",
];

/// See [`SWEEP_LAYERS`].
pub const SERVE_LAYERS: [&str; 5] = [
    "serve.admit_wait_ms_p50",
    "serve.exec_ms_p50",
    "serve.cache_hit_rate",
    "serve.cache_misses",
    "serve.gen_lag_ms_max",
];

/// Records `0` for every metric in `names` not yet set.
pub fn idle_layers(out: &mut Outcome, names: &[&'static str]) {
    for name in names {
        out.layers.entry(name).or_insert(0.0);
    }
}
