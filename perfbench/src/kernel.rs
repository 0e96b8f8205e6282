//! The reception kernel measured on its own: a shadow MAC run counts
//! transmissions per slot, then the workload's own backend replays a
//! seeded sender schedule with those counts through
//! `BackendSpec::build_with_tables` → `prepare` → `decide_slot`, and a
//! sample of the replayed slots is checked against the exact backend.

use std::time::Instant;

use absmac::Runner;
use sinr_mac::SinrAbsMac;
use sinr_phys::{BackendSpec, InterferenceModel};
use sinr_scenario::clients::{Gated, Repeater};
use sinr_scenario::{splitmix64, PreparedDeployment, ScenarioRun, WorkClient, WorkloadSpec};

/// Transmissions per slot of the workload's MAC, from a shadow run.
pub struct Shadow {
    /// Transmissions in each of the shadowed slots.
    pub tx: Vec<usize>,
    /// Trace events the absMAC layer produced over those slots.
    pub events: usize,
    /// Whether the shadow's trace equals the scenario run's trace over
    /// the shadowed slots (`None` when the run recorded no trace).
    pub faithful: Option<bool>,
}

/// Re-runs the first `slots` slots of `run`'s paper-MAC execution
/// outside the scenario runner (same parameters, seed, backend and
/// shared tables), reading the engine's transmission counter after
/// each step.
///
/// # Errors
///
/// A MAC other than the paper's, a workload other than `repeat`, or a
/// construction or step error.
pub fn shadow(
    run: &ScenarioRun,
    prepared: &PreparedDeployment,
    slots: u64,
) -> Result<Shadow, String> {
    let ctx = &run.ctx;
    let params = ctx
        .mac_params
        .clone()
        .ok_or("the kernel replay shadows mac=sinr only")?;
    let WorkloadSpec::Repeat(sources) = &ctx.spec.workload else {
        return Err("the kernel replay shadows workload=repeat only".into());
    };
    let n = ctx.positions.len();
    let mac = SinrAbsMac::<u64>::with_prepared(
        ctx.sinr,
        &ctx.positions,
        params,
        ctx.seed,
        ctx.backend,
        Some(prepared.tables()),
    )
    .map_err(|e| e.to_string())?;
    let clients: Vec<Gated<WorkClient>> =
        Repeater::network(n, |i| sources.is_source(i, n).then_some(i as u64))
            .into_iter()
            .map(|r| Gated::transparent(WorkClient::Repeat(r)))
            .collect();
    let mut runner =
        Runner::with_trace_capacity(mac, clients, usize::MAX).map_err(|e| e.to_string())?;
    let mut tx = Vec::with_capacity(slots as usize);
    let mut before = 0u64;
    for _ in 0..slots {
        runner.step().map_err(|e| e.to_string())?;
        let total = runner.mac().phys_stats().transmissions;
        tx.push((total - before) as usize);
        before = total;
    }
    // Compare whole slots only: events stamped with the last shadowed
    // slot may be split across the step boundary.
    let cut = slots.saturating_sub(1);
    let ours: Vec<_> = runner.trace().iter().filter(|e| e.t < cut).collect();
    let theirs: Vec<_> = run.outcome.trace.iter().filter(|e| e.t < cut).collect();
    let faithful = (!run.outcome.trace.is_empty()).then(|| ours == theirs);
    Ok(Shadow {
        tx,
        events: runner.trace().len(),
        faithful,
    })
}

/// What a replay measured and checked.
pub struct Replay {
    /// Per-slot `decide_slot` time, µs.
    pub decide_us: Vec<f64>,
    /// Slots compared with the exact backend.
    pub checked: usize,
    /// Compared slots that broke the backend's contract with exact.
    pub mismatched: usize,
}

/// Replays `counts.len()` slots on `run`'s effective backend with
/// seeded random senders, `counts[s]` of them in slot `s`, and checks
/// every `check_every`-th slot against the exact backend: `exact` and
/// `cached` must decide identically; `grid` and `hybrid` must never
/// grant a reception exact denies, and must name the same sender when
/// both decode.
///
/// # Errors
///
/// The backend's `prepare` error.
pub fn replay(
    run: &ScenarioRun,
    prepared: &PreparedDeployment,
    counts: &[usize],
    seed: u64,
    check_every: usize,
) -> Result<Replay, String> {
    let ctx = &run.ctx;
    let (sinr, pos) = (&ctx.sinr, &ctx.positions[..]);
    let n = pos.len();
    let mut backend = ctx.backend.build_with_tables(Some(prepared.tables()));
    backend.prepare(sinr, pos).map_err(|e| e.to_string())?;
    let mut exact = BackendSpec::exact().build();
    let identical = matches!(
        ctx.backend.model,
        InterferenceModel::Exact | InterferenceModel::Cached
    );
    let mut got = vec![None; n];
    let mut want = vec![None; n];
    let mut rng = seed;
    let mut out = Replay {
        decide_us: Vec::with_capacity(counts.len()),
        checked: 0,
        mismatched: 0,
    };
    for (slot, &k) in counts.iter().enumerate() {
        let senders = sample_senders(&mut rng, n, k);
        let t = Instant::now();
        backend.decide_slot(sinr, pos, &senders, &mut got);
        out.decide_us.push(t.elapsed().as_secs_f64() * 1e6);
        if slot % check_every.max(1) == 0 {
            exact.decide_slot(sinr, pos, &senders, &mut want);
            out.checked += 1;
            let ok = if identical {
                got == want
            } else {
                got.iter().zip(&want).all(|(g, w)| g.is_none() || g == w)
            };
            if !ok {
                out.mismatched += 1;
            }
        }
    }
    Ok(out)
}

/// `k` distinct nodes out of `n`, sorted, from a splitmix64 stream.
pub fn sample_senders(rng: &mut u64, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        *rng = splitmix64(*rng);
        let j = i + (*rng % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn senders_are_distinct_sorted_and_seeded() {
        let mut a = 7;
        let mut b = 7;
        let s = sample_senders(&mut a, 100, 30);
        assert_eq!(s, sample_senders(&mut b, 100, 30));
        assert_eq!(s.len(), 30);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&x| x < 100));
        assert_eq!(sample_senders(&mut a, 5, 9).len(), 5);
    }
}
