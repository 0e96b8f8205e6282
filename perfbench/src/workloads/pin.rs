//! Regenerates `pins.txt`: every pinned workload's reports, computed
//! with `backend=exact` for every input variant.

use sinr_scenario::{report_for, ScenarioSpec};

use super::{mac, serve, sweep, VARIANTS};
use crate::pins::{line, report_digest};

fn exact_digest(text: &str) -> Result<u64, String> {
    let spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
    let run = spec.run().map_err(|e| format!("{}: {e}", spec.name))?;
    report_digest(&report_for(&run).to_json(), "exact", "exact")
        .ok_or_else(|| format!("{}: realized backend is not exact", spec.name))
}

fn variant_pins(v: u64) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let name = "mac-cached-n1024";
    let (text, _) = mac::spec(name, v, Some("exact"));
    lines.push(line(name, v, "run", exact_digest(&text)?));

    let name = "sweep-setup-n1024";
    let (base, axes) = sweep::grid(v, "exact");
    let runs = sweep::set(&base, &axes)?
        .run(1)
        .map_err(|e| format!("{name} variant {v}: {e}"))?;
    for (i, run) in runs.iter().enumerate() {
        let d = report_digest(&report_for(run).to_json(), "exact", "exact")
            .ok_or_else(|| format!("{name} cell {i}: realized backend is not exact"))?;
        lines.push(line(name, v, &format!("c{i}"), d));
    }

    let name = "serve-mixed-open";
    for d in 0..serve::DEPLOYS {
        for r in 0..serve::RUN_SEEDS {
            let text = serve::spec(v, d, r, "exact");
            lines.push(line(name, v, &format!("d{d}r{r}"), exact_digest(&text)?));
        }
    }
    Ok(lines)
}

/// Computes every pin and writes them to `path`; returns the count.
///
/// # Errors
///
/// A reference run's error, or the write's.
pub fn write(path: &str) -> Result<usize, String> {
    let threads = sinr_scenario::pool_threads(None, Some(VARIANTS as usize)) as u64;
    let mut per_variant: Vec<(u64, Result<Vec<String>, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..VARIANTS)
                        .step_by(threads as usize)
                        .map(|v| (v, variant_pins(v)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("pin worker panicked"))
            .collect()
    });
    per_variant.sort_by_key(|(v, _)| *v);
    let mut text = String::from(
        "# Report digests of the pinned workloads, computed with backend=exact.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --pin\n\
         # workload variant cell fnv1a64\n",
    );
    let mut count = 0;
    for (_, lines) in per_variant {
        for l in lines? {
            text.push_str(&l);
            text.push('\n');
            count += 1;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(count)
}
