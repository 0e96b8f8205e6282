//! `serve-mixed-open`: the in-process scenario service under an
//! open-loop request stream at one fixed rate, over four n = 512
//! deployments — two warmed during set-up, two cold (each costs one
//! cache miss) — plus two replay probes per session.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sinr_scenario::Json;
use sinr_serve::json::{self, Value};
use sinr_serve::{ServeConfig, Service};

use super::{idle_layers, mac_spec, op_loop, probe_path, Cx, Outcome, ReplayPlan};
use super::{SETUP_REPS, SWEEP_LAYERS};
use crate::openloop::{lateness, ChannelReader, StampedWriter, Timing};
use crate::pins;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Deployments × run seeds the requests draw from.
pub const DEPLOYS: u64 = 4;
pub const RUN_SEEDS: u64 = 4;
/// Deployments whose tables are warmed during set-up.
const WARM: [u64; 2] = [0, 1];
/// Slots per served run: long enough (about 100 ms) that the shared
/// host's short stalls average out inside a request. With 200-slot
/// requests at 40 per second the p95 varied 1.4–3x of the p50 between
/// runs; at 1000 slots it stays within about 1.3x.
const SLOTS: u64 = 1000;
/// Fewest run requests in a session (enough for the replay probes).
const MIN_REQUESTS: usize = 90;
/// How many requests back a replay probe targets.
const REPLAY_LAG: usize = 20;
/// The offered load, requests per second, frozen at about half the
/// capacity `--calibrate` measured on this mix (see README.md).
pub const RATE: f64 = 8.0;

/// The spec of deployment `d`, run seed `r`, for input `variant`.
pub fn spec(variant: u64, d: u64, r: u64, backend: &str) -> String {
    let name = format!("serve-d{d}-r{r}");
    let deploy = format!("uniform:512:156:{}", DEPLOYS * variant + 1 + d);
    mac_spec(&name, &deploy, backend, SLOTS, r, "trace")
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Run { id: u64, d: u64, r: u64 },
    Replay { target: u64 },
}

/// A session's `requests` run requests in send order, drawn from
/// `seed`, with replay probes at one and two thirds.
fn schedule(seed: u64, requests: usize) -> Vec<Entry> {
    let mut rng = seed ^ 0x0005_E7E0;
    let mut out = Vec::with_capacity(requests + 2);
    for k in 0..requests {
        for p in [requests / 3, 2 * requests / 3] {
            if k == p {
                out.push(Entry::Replay {
                    target: (p - REPLAY_LAG) as u64 + 1,
                });
            }
        }
        rng = sinr_scenario::splitmix64(rng);
        let (d, r) = (rng % DEPLOYS, (rng >> 32) % RUN_SEEDS);
        out.push(Entry::Run {
            id: k as u64 + 1,
            d,
            r,
        });
    }
    out
}

fn run_line(id: u64, text: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::int(id)),
        ("run".into(), Json::str(text)),
    ])
    .to_string()
}

/// One response record, as far as the benchmark reads it.
enum Record {
    Accepted(u64),
    Report { id: u64, digest: Option<u64> },
    Done(u64),
    Replay { id: u64, identical: bool },
    Error(Option<u64>, String),
    Other,
}

fn parse_record(line: &str) -> Record {
    // Report records end with the raw report object; slice it out
    // rather than re-rendering it.
    if let Some(at) = line.find(",\"report\":") {
        let id = line
            .strip_prefix("{\"id\":")
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok());
        let report = &line[at + 10..line.len().saturating_sub(1)];
        return match id {
            Some(id) => Record::Report {
                id,
                digest: pins::report_digest(report, "cached", "cached"),
            },
            None => Record::Error(None, "report record without an id".into()),
        };
    }
    let Ok(v) = json::parse(line) else {
        return Record::Error(None, format!("unparseable record: {line}"));
    };
    let id = v.get("id").and_then(Value::as_u64);
    match (v.get("event").and_then(Value::as_str), id) {
        (Some("accepted"), Some(id)) => Record::Accepted(id),
        (Some("done"), Some(id)) => Record::Done(id),
        (Some("replay"), Some(id)) => Record::Replay {
            id,
            identical: v.get("identical").and_then(Value::as_bool) == Some(true),
        },
        (Some("error" | "cancelled"), _) => Record::Error(id, line.to_string()),
        _ => Record::Other,
    }
}

#[derive(Default)]
struct Req {
    accepted: Option<Instant>,
    done: Option<Instant>,
    digest: Option<Option<u64>>,
    replay_done: Option<(Instant, bool)>,
    error: Option<String>,
}

/// Folds a session's response lines into per-request records.
fn collect(lines: &[(Instant, String)]) -> (HashMap<u64, Req>, Vec<String>) {
    let mut reqs: HashMap<u64, Req> = HashMap::new();
    let mut stray = Vec::new();
    for (ts, line) in lines {
        match parse_record(line) {
            Record::Accepted(id) => {
                // A second `accepted` for an id is its replay's.
                reqs.entry(id).or_default().accepted.get_or_insert(*ts);
            }
            Record::Report { id, digest } => reqs.entry(id).or_default().digest = Some(digest),
            Record::Done(id) => reqs.entry(id).or_default().done = Some(*ts),
            Record::Replay { id, identical } => {
                reqs.entry(id).or_default().replay_done = Some((*ts, identical));
            }
            Record::Error(Some(id), msg) => reqs.entry(id).or_default().error = Some(msg),
            Record::Error(None, msg) => stray.push(msg),
            Record::Other => {}
        }
    }
    (reqs, stray)
}

/// Set-up: a fresh service whose table cache is warmed for the
/// [`WARM`] deployments by one closed-loop connection.
fn setup(cx: &Cx, out: &mut Outcome) -> (Service, f64) {
    let t = Instant::now();
    let service = Service::new(ServeConfig::default());
    let input: String = WARM
        .iter()
        .map(|&d| run_line(1_000_000 + d, &spec(cx.variant, d, 0, "cached")) + "\n")
        .collect();
    let mut bytes = Vec::new();
    let served = service.serve_connection(Cursor::new(input), &mut bytes);
    let secs = t.elapsed().as_secs_f64();
    if let Err(e) = served {
        out.check(false, || format!("warm-up connection: {e}"));
    }
    let lines: Vec<(Instant, String)> = String::from_utf8_lossy(&bytes)
        .lines()
        .map(|l| (t, l.to_string()))
        .collect();
    let (reqs, _) = collect(&lines);
    for &d in &WARM {
        let digest = reqs.get(&(1_000_000 + d)).and_then(|r| r.digest).flatten();
        out.check(
            pins::matches(cx.name, cx.variant, &format!("d{d}r0"), digest),
            || format!("warm-up d{d}: report digest differs from the exact pin"),
        );
    }
    (service, secs)
}

/// What one open-loop session measured.
struct Session {
    timings: Vec<Timing>,
    wall: f64,
    cells: usize,
    hits: u64,
    misses: u64,
}

/// Drives one open-loop session at `rate` and checks every response.
fn session(
    cx: &Cx,
    tr: &Tracer,
    i: u64,
    service: &Service,
    sched: &[Entry],
    rate: f64,
    out: &mut Outcome,
) -> (Session, f64) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let before = service.cache_stats();
    let writer = StampedWriter::default();
    let mut sent = Vec::with_capacity(sched.len());
    let mut origin = Instant::now();
    let mut op = SpanId::ROOT;
    let (served, op_wall) = tr.span("op", SpanId::ROOT, i, |me| {
        op = me;
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::scope(|s| {
            let w = writer.clone();
            let server = s.spawn(move || service.serve_connection(ChannelReader::new(rx), w));
            origin = Instant::now() + Duration::from_millis(2);
            for (k, e) in sched.iter().enumerate() {
                let due = origin + interval * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sent.push(Instant::now());
                let line = match *e {
                    Entry::Run { id, d, r } => run_line(id, &spec(cx.variant, d, r, "cached")),
                    Entry::Replay { target } => format!("{{\"replay\":{target}}}"),
                };
                // The server only hangs up after this loop closes the
                // channel, so the send cannot fail.
                let _ = tx.send(line);
            }
            drop(tx);
            server.join()
        })
    });
    match served {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => out.check(false, || format!("session {i}: connection error: {e}")),
        Err(_) => out.check(false, || format!("session {i}: service thread panicked")),
    }
    let after = service.cache_stats();
    let lines = writer.take();
    let (reqs, stray) = collect(&lines);
    for msg in stray {
        out.check(false, || format!("session {i}: {msg}"));
    }

    let secs = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let due_at = |k: usize| origin + interval * k as u32;
    let empty = Req::default();
    let mut timings = Vec::with_capacity(sched.len());
    let mut last_done = origin;
    let mut cells = 0;
    for (k, e) in sched.iter().enumerate() {
        match *e {
            Entry::Run { id, d, r } => {
                let req = reqs.get(&id).unwrap_or(&empty);
                let ok = req.error.is_none()
                    && req.done.is_some()
                    && pins::matches(
                        cx.name,
                        cx.variant,
                        &format!("d{d}r{r}"),
                        req.digest.flatten(),
                    );
                out.check(ok, || match &req.error {
                    Some(msg) => format!("session {i} request {id}: {msg}"),
                    None => format!("session {i} request {id}: no done record or digest differs from the exact pin"),
                });
                if let Some(done) = req.done {
                    cells += 1;
                    last_done = last_done.max(done);
                }
                timings.push(Timing {
                    due: secs(due_at(k)),
                    sent: secs(sent[k]),
                    accepted: req.accepted.map(secs),
                    done: req.done.map(secs),
                });
                if let (Some(acc), Some(done)) = (req.accepted, req.done) {
                    tr.record("serve.admit", op, id, due_at(k), acc);
                    tr.record("serve.exec", op, id, acc, done);
                }
            }
            Entry::Replay { target } => {
                let req = reqs.get(&target).unwrap_or(&empty);
                let identical = req.replay_done.is_some_and(|(_, same)| same);
                out.check(identical, || {
                    format!("session {i} replay of {target}: missing or not byte-identical")
                });
                if let Some((done, _)) = req.replay_done {
                    last_done = last_done.max(done);
                    tr.record("serve.replay", op, target, due_at(k), done);
                }
            }
        }
    }
    let s = Session {
        timings,
        wall: secs(last_done),
        cells,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    };
    (s, op_wall)
}

/// Runs the workload.
pub fn run(cx: &Cx, tr: &Tracer) -> Outcome {
    // One session fills the run (two halves when traced, to compare
    // traced with untraced): a fresh connection's first requests are
    // slow, and in short sessions they set the p95.
    let session_s = cx.seconds / if cx.trace { 2.0 } else { 1.0 };
    let sched = schedule(cx.seed, ((RATE * session_s) as usize).max(MIN_REQUESTS));
    let mut out = Outcome::default();
    let mut traced = Vec::new();
    let mut rates = (Vec::new(), Vec::new());
    let walls = op_loop(cx, tr, false, |i, tr, timed| {
        let (service, setup_s) = setup(cx, &mut out);
        let (s, op_wall) = session(cx, tr, i, &service, &sched, RATE, &mut out);
        if !timed {
            return op_wall;
        }
        out.setup_s.push(setup_s);
        out.wall_s.push(s.wall);
        rates.0.push(s.cells as f64 / s.wall);
        rates.1.push((s.cells as u64 * SLOTS) as f64 / s.wall);
        let l = lateness(&s.timings);
        if l.missing > 0 {
            out.notes.push(format!(
                "session {i}: {} requests never completed",
                l.missing
            ));
        }
        out.latency_ms.extend(l.latency.iter().map(|s| s * 1e3));
        if tr.is_on() {
            traced.push(s);
        }
        op_wall
    });
    out.untraced_walls = walls.untraced;
    out.traced_walls = walls.traced;
    out.cells_per_s = median(&rates.0);
    out.slots_per_s = median(&rates.1);
    if !cx.trace {
        // One set-up per session gives few samples; top them up.
        while out.setup_s.len() < SETUP_REPS {
            let (_, secs) = setup(cx, &mut out);
            out.setup_s.push(secs);
        }
    }

    if cx.trace {
        let t: Vec<Timing> = traced.iter().flat_map(|s| s.timings.clone()).collect();
        let lt = lateness(&t);
        let (hits, misses) = traced
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        let ms = |xs: &[f64]| xs.iter().map(|s| s * 1e3).collect::<Vec<_>>();
        let layers = &mut out.layers;
        layers.insert("serve.admit_wait_ms_p50", median(&ms(&lt.admit_wait)));
        layers.insert("serve.exec_ms_p50", median(&ms(&lt.exec)));
        layers.insert("serve.gen_lag_ms_max", lt.gen_lag_max * 1e3);
        layers.insert(
            "serve.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.insert(
            "serve.cache_misses",
            misses as f64 / traced.len().max(1) as f64,
        );
        let replay = ReplayPlan {
            slots: SLOTS,
            check_every: 10,
        };
        probe_path(
            cx,
            tr,
            &mut out,
            &spec(cx.variant, 0, 0, "cached"),
            "d0r0",
            3,
            &replay,
        );
        idle_layers(&mut out, &SWEEP_LAYERS);
    }
    out
}

/// Offers the whole schedule at once and reports the sustained
/// throughput, requests per second: the capacity [`RATE`] was set
/// against.
pub fn capacity(cx: &Cx) -> f64 {
    let sched = schedule(cx.seed, 200);
    let mut out = Outcome::default();
    let (service, _) = setup(cx, &mut out);
    let (s, _) = session(cx, &Tracer::new(false), 0, &service, &sched, 1e6, &mut out);
    s.cells as f64 / s.wall
}
