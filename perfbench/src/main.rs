//! End-to-end and per-layer benchmark of the SINR local-broadcast
//! workspace. See `perfbench/README.md` for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mac-cached-n1024 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod kernel;
mod openloop;
mod path;
mod pins;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use sinr_scenario::Json;

use stats::{median, percentile, tail_is_supported, tail_percentile};
use trace::{account, spans_json, Tracer};
use workloads::{Cx, Outcome, EXTRA, NAMES, VARIANTS};

const USAGE: &str = "usage: perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n\
                     \x20      perfbench --pin        (regenerate perfbench/pins.txt with backend=exact)\n\
                     \x20      perfbench --calibrate  (measure serve-mixed-open capacity)";

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slots_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit.
const PER_LAYER: [(&str, &str); 27] = [
    ("geom.realize_ms", "ms"),
    ("graphs.diameter_ms", "ms"),
    ("phys.prepare_ms", "ms"),
    ("phys.table_bytes", "bytes"),
    ("phys.decide_slot_us", "us"),
    ("phys.kernel_share", "ratio"),
    ("phys.transmissions_per_slot", "count"),
    ("mac.build_ms", "ms"),
    ("mac.run_ms", "ms"),
    ("mac.outside_kernel_us_per_slot", "us"),
    ("absmac.trace_events", "count"),
    ("measure.report_ms", "ms"),
    ("scenario.render_us", "us"),
    ("scenario.parse_us", "us"),
    ("sweep.plan_ms", "ms"),
    ("sweep.groups", "count"),
    ("sweep.shared_cells", "count"),
    ("sweep.sink_ms", "ms"),
    ("sweep.peak_resident_runs", "count"),
    ("serve.admit_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.gen_lag_ms_max", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.self_sum_ms", "ms"),
];

/// Environment overrides that change which kernel runs or how.
const OVERRIDES: [&str; 3] = ["SINR_BACKEND", "SINR_NO_SIMD", "SINR_MAX_TABLE_BYTES"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        pin: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--pin" => a.pin = true,
            "--calibrate" => a.calibrate = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_none() && !a.pin {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the override changes the kernel under test",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.pin {
        return match workloads::pin::write("perfbench/pins.txt") {
            Ok(n) => {
                println!("wrote {n} pins to perfbench/pins.txt");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench --pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let requested = args.workload.as_deref().unwrap_or_default();
    let names: Vec<&'static str> = if requested == "all" {
        NAMES.to_vec()
    } else {
        match NAMES.iter().chain(&EXTRA).find(|n| **n == requested) {
            Some(n) => vec![*n],
            None => {
                eprintln!(
                    "perfbench: unknown workload {requested}; one of {NAMES:?}, {EXTRA:?} or all"
                );
                return ExitCode::from(2);
            }
        }
    };
    let cx = |name, trace| Cx {
        name,
        seed: args.seed,
        variant: args.seed % VARIANTS,
        seconds: args.seconds,
        trace,
    };
    if args.calibrate {
        for name in names.iter().filter(|n| **n == "serve-mixed-open") {
            let cap = workloads::serve::capacity(&cx(name, false));
            println!(
                "{name}: capacity {cap:.1} requests/s; offered rate {} = {:.0}% of it",
                workloads::serve::RATE,
                100.0 * workloads::serve::RATE / cap
            );
        }
        return ExitCode::SUCCESS;
    }

    let fp = fingerprint(args.seed);
    println!("# fingerprint {fp}");
    let mut passes = Vec::new();
    for &name in &names {
        if requested == "all" {
            // One command, both runs: untraced for end-to-end, traced
            // for the layers.
            passes.push(cx(name, false));
            passes.push(cx(name, true));
        } else {
            passes.push(cx(name, args.trace));
        }
    }
    let mut all = Verdict {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for c in &passes {
        let tracer = Tracer::new(c.trace);
        let outcome = match c.name {
            "mac-cached-n1024" | "mac-hybrid-n4096" => workloads::mac::run(c, &tracer),
            "sweep-setup-n1024" => workloads::sweep::run(c, &tracer),
            _ => workloads::serve::run(c, &tracer),
        };
        let v = result(c, &outcome, &tracer, &fp);
        println!("{}", v.json());
        all.correct &= v.correct;
        all.attempted += v.attempted;
        all.failed += v.failed;
        let pass = if c.trace { "trace" } else { "e2e" };
        for (k, m) in v.metrics {
            all.metrics.push((format!("{}/{pass}/{k}", c.name), m));
        }
    }
    if passes.len() > 1 {
        println!("{}", all.json());
    }
    ExitCode::SUCCESS
}

/// The result line of a run.
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Json)>,
}

impl Verdict {
    fn json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::int(self.attempted.max(1))),
            ("failed".into(), Json::int(self.failed)),
            ("metrics".into(), Json::Obj(self.metrics.clone())),
        ])
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::str(unit)),
    ])
}

/// Prints a workload's metrics by name and unit and returns its result;
/// a traced run also writes its spans.
fn result(cx: &Cx, out: &Outcome, tr: &Tracer, fp: &Json) -> Verdict {
    println!(
        "# workload {} seed {} (input variant {}) {}",
        cx.name,
        cx.seed,
        cx.variant,
        if cx.trace { "traced" } else { "untraced" }
    );
    for note in &out.notes {
        println!("# {note}");
    }
    let mut measured: Vec<(&str, f64, &str)> = Vec::new();
    if cx.trace {
        let mut layers = out.layers.clone();
        let spans = tr.spans();
        let acc = account(&spans, |s| s.name == "op");
        let ops = out.traced_walls.len().max(1) as f64;
        layers.insert(
            "trace.overhead_ms",
            (median(&out.traced_walls) - median(&out.untraced_walls)) * 1e3,
        );
        layers.insert("trace.unattributed_ms", acc.unattributed_ns / ops / 1e6);
        let self_sum: f64 = acc.self_ns.values().sum();
        layers.insert("trace.self_sum_ms", self_sum / ops / 1e6);
        println!(
            "# self time per traced operation ({} traced, {} untraced operations):",
            out.traced_walls.len(),
            out.untraced_walls.len()
        );
        for (name, ns) in &acc.self_ns {
            println!("#   {name:<20} {:>12.3} ms", ns / ops / 1e6);
        }
        println!(
            "#   {:<20} {:>12.3} ms\n#   {:<20} {:>12.3} ms (self times + unattributed)",
            "unattributed",
            acc.unattributed_ns / ops / 1e6,
            "traced wall",
            acc.wall_ns / ops / 1e6
        );
        println!(
            "# tracing overhead: traced op median {:.3} ms - untraced op median {:.3} ms",
            median(&out.traced_walls) * 1e3,
            median(&out.untraced_walls) * 1e3
        );
        for (name, unit) in PER_LAYER {
            measured.push((name, layers.get(name).copied().unwrap_or(f64::NAN), unit));
        }
        match write_spans(cx, fp, &spans, &acc) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => println!("# could not write spans: {e}"),
        }
    } else {
        let n = out.latency_ms.len();
        let q = tail_percentile(n);
        let values = [
            median(&out.setup_s),
            median(&out.wall_s),
            out.slots_per_s,
            out.cells_per_s,
            median(&out.latency_ms),
            percentile(&out.latency_ms, q),
            workloads::peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            measured.push((name, v, unit));
        }
        let ms: Vec<String> = out
            .wall_s
            .iter()
            .map(|w| format!("{:.1}", w * 1e3))
            .collect();
        println!("# wall samples, ms: {}", ms.join(" "));
        println!(
            "# samples: setup {}, wall {}, latency {n}; req_p95_ms is p{q:.1} of {n} samples{}",
            out.setup_s.len(),
            out.wall_s.len(),
            if tail_is_supported(n) {
                ""
            } else {
                " (fewer than 10 beyond it: the median)"
            }
        );
    }
    for (name, v, unit) in &measured {
        println!("# {name} = {v} {unit}");
    }
    let all_finite = measured.iter().all(|(_, v, _)| v.is_finite());
    if !all_finite {
        println!("# a metric could not be measured");
    }
    let correct = out.failed == 0 && out.attempted > 0 && all_finite;
    println!(
        "# correct {correct}: {} of {} checked operations failed",
        out.failed, out.attempted
    );
    Verdict {
        correct,
        attempted: out.attempted,
        failed: out.failed,
        metrics: measured
            .into_iter()
            .map(|(name, v, unit)| (name.to_string(), metric(v, unit)))
            .collect(),
    }
}

/// The machine and inputs a result belongs to.
fn fingerprint(seed: u64) -> Json {
    let run = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Never let git walk up out of the checkout into an unrelated repo.
    let here = std::env::current_dir().unwrap_or_default();
    let ceiling = here.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    let commit = run(Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling));
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::int(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64),
        ),
        (
            "rustc".into(),
            Json::str(run(Command::new("rustc").arg("--version"))),
        ),
        ("cpu".into(), Json::str(cpu)),
        ("commit".into(), Json::str(commit)),
        ("seed".into(), Json::int(seed)),
        ("variant".into(), Json::int(seed % VARIANTS)),
    ])
}

/// Writes a traced run's spans and accounting under `.bench_out/`.
fn write_spans(
    cx: &Cx,
    fp: &Json,
    spans: &[trace::Span],
    acc: &trace::Accounting,
) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{}-seed{}.trace.json", cx.name, cx.seed);
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(cx.name)),
        ("fingerprint".into(), fp.clone()),
        ("wall_ms".into(), Json::Num(acc.wall_ns / 1e6)),
        (
            "self_ms".into(),
            Json::Obj(
                acc.self_ns
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v / 1e6)))
                    .collect(),
            ),
        ),
        (
            "unattributed_ms".into(),
            Json::Num(acc.unattributed_ns / 1e6),
        ),
        ("spans".into(), spans_json(spans)),
    ]);
    std::fs::write(&path, doc.to_string())?;
    Ok(path)
}
