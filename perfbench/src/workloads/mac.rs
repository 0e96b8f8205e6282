//! `mac-cached-n1024` and `mac-hybrid-n4096`: one paper-MAC scenario,
//! spec text to report bytes, repeated for the run's duration.

use sinr_scenario::{PreparedDeployment, ScenarioSpec};

use super::{idle_layers, mac_spec, op_loop, path_layers, Cx, Outcome, ReplayPlan};
use super::{SERVE_LAYERS, SETUP_REPS, SWEEP_LAYERS};
use crate::path::{full_path, PathOut};
use crate::pins;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Horizon of the hybrid workload: a few hundred slots, enough for
/// the near/far kernel to dominate the loop.
pub const HYBRID_SLOTS: u64 = 300;

/// The workload's spec text and backend for input `variant`.
pub fn spec(name: &str, variant: u64, backend_override: Option<&str>) -> (String, &'static str) {
    let (n, side, backend, slots) = match name {
        "mac-cached-n1024" => (1024, 220, "cached", 3000),
        _ => (4096, 440, "hybrid", HYBRID_SLOTS),
    };
    let b = backend_override.unwrap_or(backend);
    let deploy = format!("uniform:{n}:{side}:{}", variant + 1);
    let text = mac_spec(name, &deploy, b, slots, variant, "trace");
    (text, backend)
}

/// Runs the workload.
pub fn run(cx: &Cx, tr: &Tracer) -> Outcome {
    let (text, backend) = spec(cx.name, cx.variant, None);
    // The hybrid kernel is an approximation that may legitimately
    // change; its reports are checked for determinism across repeats
    // instead of against the exact pin.
    let pinned = backend == "cached";
    let mut out = Outcome::default();
    let mut first: Option<Option<u64>> = None;
    let mut traced_times = Vec::new();
    let mut last: Option<PathOut> = None;
    let mut rates = Vec::new();
    let walls = op_loop(cx, tr, pinned, |i, tr, timed| {
        let (res, wall) = tr.span("op", SpanId::ROOT, i, |op| full_path(tr, op, i, &text));
        match res {
            Ok(p) => {
                let d = pins::report_digest(&p.report, backend, backend);
                if pinned {
                    out.check(pins::matches(cx.name, cx.variant, "run", d), || {
                        format!("op {i}: report digest differs from the exact pin")
                    });
                } else {
                    let want = *first.get_or_insert(d);
                    out.check(d.is_some() && d == want, || {
                        format!("op {i}: report is not deterministic across repeats")
                    });
                }
                if !timed {
                    return wall;
                }
                out.setup_s.push(p.times.setup());
                out.wall_s.push(p.times.wall);
                out.latency_ms.push(p.times.wall * 1e3);
                rates.push(p.run.outcome.horizon as f64 / p.times.run);
                if tr.is_on() {
                    traced_times.push(p.times);
                    last = Some(p);
                }
            }
            Err(e) => out.check(false, || format!("op {i}: {e}")),
        }
        wall
    });
    out.untraced_walls = walls.untraced;
    out.traced_walls = walls.traced;
    out.slots_per_s = median(&rates);
    out.cells_per_s = 1.0 / median(&out.wall_s);

    if cx.trace {
        if let Some(last) = &last {
            let replay = ReplayPlan {
                slots: if pinned { 3000 } else { 40 },
                check_every: if pinned { 100 } else { 8 },
            };
            path_layers(cx, tr, &mut out, &traced_times, last, &replay);
        }
        idle_layers(&mut out, &SWEEP_LAYERS);
        idle_layers(&mut out, &SERVE_LAYERS);
    } else {
        // Long operations give few set-up samples; top them up.
        while out.setup_s.len() < SETUP_REPS {
            match setup_once(&text) {
                Ok(s) => out.setup_s.push(s),
                Err(e) => {
                    out.check(false, || format!("set-up: {e}"));
                    break;
                }
            }
        }
    }
    out
}

/// Spec text to a runnable scenario, once, in seconds.
fn setup_once(text: &str) -> Result<f64, String> {
    let t = std::time::Instant::now();
    let spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
    let prepared = PreparedDeployment::prepare(&spec).map_err(|e| e.to_string())?;
    let runnable = spec
        .build_with_prepared(&prepared)
        .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(runnable));
    Ok(secs)
}
