//! The whole path of one scenario, spec text to report bytes, with a
//! span around each public call it makes.

use std::time::Instant;

use sinr_scenario::{report_for, PreparedDeployment, ScenarioRun, ScenarioSpec};

use crate::trace::{SpanId, Tracer};

/// Seconds spent in each call of [`full_path`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PathTimes {
    pub parse: f64,
    pub prepare: f64,
    pub build: f64,
    pub run: f64,
    pub diameter: f64,
    pub report: f64,
    pub render: f64,
    /// Spec text to report bytes.
    pub wall: f64,
}

impl PathTimes {
    /// Spec text to a runnable scenario.
    pub fn setup(&self) -> f64 {
        self.parse + self.prepare + self.build
    }
}

/// What [`full_path`] produced.
pub struct PathOut {
    pub spec: ScenarioSpec,
    pub prepared: PreparedDeployment,
    pub run: ScenarioRun,
    pub report: String,
    pub times: PathTimes,
}

/// Parses `text`, prepares its deployment, builds and runs it, then
/// renders its report. The strong graph's diameter is computed (and
/// memoized) before `report_for`, so `measure.report` times the report
/// alone.
///
/// # Errors
///
/// The first scenario error, rendered.
pub fn full_path(tr: &Tracer, parent: SpanId, id: u64, text: &str) -> Result<PathOut, String> {
    let start = Instant::now();
    let (spec, parse) = tr.span("scenario.parse", parent, id, |_| ScenarioSpec::parse(text));
    let spec = spec.map_err(|e| format!("parse: {e}"))?;
    let (prepared, prepare) = tr.span("phys.prepare", parent, id, |_| {
        PreparedDeployment::prepare(&spec)
    });
    let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
    let (runnable, build) = tr.span("mac.build", parent, id, |_| {
        spec.build_with_prepared(&prepared)
    });
    let runnable = runnable.map_err(|e| format!("build: {e}"))?;
    let (run, run_s) = tr.span("mac.run", parent, id, |_| runnable.run());
    let run = run.map_err(|e| format!("run: {e}"))?;
    let (_, diameter) = tr.span("graphs.diameter", parent, id, |_| {
        run.ctx.graphs.strong.diameter()
    });
    let (report, report_s) = tr.span("measure.report", parent, id, |_| report_for(&run));
    let (bytes, render) = tr.span("scenario.render", parent, id, |_| report.to_json());
    let wall = start.elapsed().as_secs_f64();
    Ok(PathOut {
        spec,
        prepared,
        run,
        report: bytes,
        times: PathTimes {
            parse,
            prepare,
            build,
            run: run_s,
            diameter,
            report: report_s,
            render,
            wall,
        },
    })
}

/// Times `DeploymentSpec::realize` on its own: the geometry and graph
/// induction half of `PreparedDeployment::prepare`.
///
/// # Errors
///
/// Invalid SINR parameters or an infeasible deployment, rendered.
pub fn realize(tr: &Tracer, parent: SpanId, id: u64, spec: &ScenarioSpec) -> Result<f64, String> {
    let sinr = spec.sinr.to_params().map_err(|e| e.to_string())?;
    let (out, secs) = tr.span("geom.realize", parent, id, |_| spec.deploy.realize(&sinr));
    out.map_err(|e| e.to_string())?;
    Ok(secs)
}
