//! `sweep-setup-n1024`: a 128-cell sweep of tiny cells, where
//! realization, preparation, building, the diameter and the executor
//! dominate.

use std::collections::BTreeSet;
use std::sync::Mutex;

use sinr_scenario::{report_for, Axis, PreparedDeployment, ScenarioSet, ScenarioSpec, Shard};

use super::{idle_layers, mac_spec, op_loop, probe_path, Cx, Outcome, ReplayPlan};
use super::{SERVE_LAYERS, SETUP_REPS};
use crate::pins;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Deployments × `mac.t_mult` values × run seeds.
const DEPLOYS: u64 = 8;
const RUN_SEEDS: u64 = 8;
const T_MULTS: [&str; 2] = ["1", "2"];
/// Slots per cell.
const SLOTS: u64 = 20;
/// Executor threads. One: on a two-CPU shared host, two threads spread
/// the sweep's wall time three times wider between runs (the second
/// thread contends with everything else the host runs).
const THREADS: usize = 1;

/// The base spec and axes of input `variant`, with every cell on
/// `backend`.
pub fn grid(variant: u64, backend: &str) -> (String, Vec<Axis>) {
    let d0 = DEPLOYS * variant + 1;
    let deploy = format!("uniform:1024:220:{d0}");
    let base = mac_spec("sweep-setup-n1024", &deploy, backend, SLOTS, 0, "none");
    let axes = vec![
        Axis {
            key: "deploy".into(),
            values: (0..DEPLOYS)
                .map(|j| format!("uniform:1024:220:{}", d0 + j))
                .collect(),
        },
        Axis {
            key: "mac.t_mult".into(),
            values: T_MULTS.iter().map(|s| s.to_string()).collect(),
        },
        Axis {
            key: "seed".into(),
            values: (0..RUN_SEEDS)
                .map(|j| (RUN_SEEDS * variant + j).to_string())
                .collect(),
        },
    ];
    (base, axes)
}

/// Parses the base spec and attaches the axes (shared preparation on).
pub fn set(base: &str, axes: &[Axis]) -> Result<ScenarioSet, String> {
    let mut set = ScenarioSet::new(ScenarioSpec::parse(base).map_err(|e| e.to_string())?);
    set.axes = axes.to_vec();
    Ok(set)
}

/// Runs the workload.
pub fn run(cx: &Cx, tr: &Tracer) -> Outcome {
    let (base, axes) = grid(cx.variant, "cached");
    let cells = (DEPLOYS * RUN_SEEDS) as usize * T_MULTS.len();
    let mut out = Outcome::default();

    let mut plan_ms = Vec::new();
    let mut sink_ms = Vec::new();
    let (mut groups, mut shared, mut peak_runs) = (0.0, 0.0, Vec::new());
    let walls = op_loop(cx, tr, true, |i, tr, timed| {
        let digests: Vec<Mutex<Option<u64>>> = (0..cells).map(|_| Mutex::new(None)).collect();
        let sink_total = Mutex::new(0.0);
        let (res, wall) = tr.span("op", SpanId::ROOT, i, |op| {
            let (set, _) = tr.span("scenario.parse", op, i, |_| set(&base, &axes));
            let set = set?;
            let (plan, plan_s) = tr.span("sweep.plan", op, i, |_| set.execution_plan());
            let plan = plan.map_err(|e| e.to_string())?;
            let (summary, _) = tr.span("sweep.execute", op, i, |ex| {
                let sink = |cell: usize, run: sinr_scenario::ScenarioRun| {
                    let (_, secs) = tr.span("sweep.sink", ex, cell as u64, |sk| {
                        tr.span("graphs.diameter", sk, cell as u64, |_| {
                            run.ctx.graphs.strong.diameter()
                        });
                        let (report, _) =
                            tr.span("measure.report", sk, cell as u64, |_| report_for(&run));
                        let (bytes, _) =
                            tr.span("scenario.render", sk, cell as u64, |_| report.to_json());
                        *lock(&digests[cell]) = pins::report_digest(&bytes, "cached", "cached");
                    });
                    *lock(&sink_total) += secs;
                    Ok(())
                };
                set.run_sharded(&plan, THREADS, Shard::full(), &BTreeSet::new(), &sink)
            });
            Ok::<_, String>((plan, plan_s, summary.map_err(|e| e.to_string())))
        });
        match res {
            Ok((plan, plan_s, summary)) => {
                if let Err(e) = &summary {
                    out.notes.push(format!("op {i}: sweep error: {e}"));
                }
                for (cell, d) in digests.iter().enumerate() {
                    let d = *lock(d);
                    out.check(pins::matches(cx.name, cx.variant, &format!("c{cell}"), d), || {
                        format!("op {i} cell {cell}: missing report or digest differs from the exact pin")
                    });
                }
                if !timed {
                    return wall;
                }
                out.wall_s.push(wall);
                out.latency_ms.push(wall * 1e3);
                if !cx.trace {
                    // One set-up after each sweep, so its samples span
                    // the run like the sweeps' own.
                    setup_sample(&base, &axes, &mut out);
                }
                if tr.is_on() {
                    plan_ms.push(plan_s * 1e3);
                    sink_ms.push(*lock(&sink_total) * 1e3);
                    let peak = summary
                        .as_ref()
                        .map_or(f64::NAN, |s| s.peak_resident_runs as f64);
                    groups = plan.group_count() as f64;
                    shared = plan.shared_cell_count() as f64;
                    peak_runs.push(peak);
                }
            }
            Err(e) => out.check(false, || format!("op {i}: {e}")),
        }
        wall
    });
    out.untraced_walls = walls.untraced;
    out.traced_walls = walls.traced;
    while !cx.trace && out.setup_s.len() < SETUP_REPS {
        if !setup_sample(&base, &axes, &mut out) {
            break;
        }
    }
    let wall = median(&out.wall_s);
    out.cells_per_s = cells as f64 / wall;
    out.slots_per_s = (cells as u64 * SLOTS) as f64 / wall;

    if cx.trace {
        let l = &mut out.layers;
        l.insert("sweep.plan_ms", median(&plan_ms));
        l.insert("sweep.sink_ms", median(&sink_ms));
        l.insert("sweep.groups", groups);
        l.insert("sweep.shared_cells", shared);
        l.insert("sweep.peak_resident_runs", median(&peak_runs));
        // The scenario layers, on the sweep's first cell run alone.
        match set(&base, &axes).and_then(|s| s.cells().map_err(|e| e.to_string())) {
            Ok(specs) => {
                let replay = ReplayPlan {
                    slots: SLOTS,
                    check_every: 2,
                };
                probe_path(cx, tr, &mut out, &specs[0].to_string(), "c0", 3, &replay);
            }
            Err(e) => out.check(false, || format!("probe: {e}")),
        }
        idle_layers(&mut out, &SERVE_LAYERS);
    }
    out
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every update is one store, valid even after a panic elsewhere.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Adds one [`setup_once`] sample to `out`; `false` if it failed.
fn setup_sample(base: &str, axes: &[Axis], out: &mut Outcome) -> bool {
    match setup_once(base, axes) {
        Ok(s) => {
            out.setup_s.push(s);
            true
        }
        Err(e) => {
            out.check(false, || format!("set-up: {e}"));
            false
        }
    }
}

/// Planning plus the first group's preparation, once, in seconds.
fn setup_once(base: &str, axes: &[Axis]) -> Result<f64, String> {
    let t = std::time::Instant::now();
    let plan = set(base, axes)?
        .execution_plan()
        .map_err(|e| e.to_string())?;
    let prepared = PreparedDeployment::prepare(&plan.cells[0]).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(prepared));
    Ok(secs)
}
