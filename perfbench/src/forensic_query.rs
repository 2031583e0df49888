//! `forensic_query`: a seeded mix of forensic queries against a capture
//! shaped like the `secmlr_capture` one.
//!
//! Set-up writes the capture (the `secmlr_capture` scenario, pipeline
//! and size: one healthy round before the kill).
//! Each query opens its own `CaptureReader`, as one `wmsn-trace` call
//! does. The timed phase repeats passes over the mix.

use crate::host::peak_rss_mb;
use crate::metrics::{ratio, Outcome};
use crate::secmlr_capture as capture;
use crate::spans::{maybe, Tracer};
use crate::stats::{median, percentile, reportable, samples_needed};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek};
use std::path::Path;
use std::time::Instant;
use wmsn_health::{
    alerts_in_window, explain_alert, replay_window, HealthAlert, HealthConfig, WindowReplayStats,
};
use wmsn_trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, CaptureReader,
    Replay, ScanFilter, TraceEvent,
};
use wmsn_util::SplitMix64;

/// Workload size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// The scenario that writes the capture.
    pub capture: capture::Config,
    /// Set-ups per run (the capture is written this many times).
    pub setups: usize,
}

impl Config {
    /// The benchmark configuration.
    pub const FULL: Config = Config {
        capture: capture::Config::FULL,
        setups: 3,
    };
}

/// Aggregation windows a `replay_window` query spans, and the span an
/// `explain` replays (the CLI default).
const SPAN_WINDOWS: u64 = 4;

/// One forensic query.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// `replay_window` over `[lo, hi]`, answered by the alerts inside.
    Window {
        /// Window start, µs.
        lo: u64,
        /// Window end, µs.
        hi: u64,
    },
    /// `explain_alert` on an embedded alert.
    Explain(HealthAlert),
    /// `capture_path_of` one delivered message.
    Path {
        /// Originating node.
        origin: u64,
        /// Message id.
        msg_id: u64,
    },
    /// `capture_drops_of_seq` of one dropped frame.
    Drops(u64),
    /// `capture_energy_of` one node.
    Energy(u64),
    /// `capture_counts`.
    Counts,
}

/// Query kinds, in report order, with how many of each one pass holds.
pub const PASS: [(&str, usize); 6] = [
    ("window", 8),
    ("explain", 3),
    ("path", 3),
    ("drops", 2),
    ("energy", 2),
    ("counts", 2),
];

impl Query {
    /// The kind's name in `PASS`.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Window { .. } => "window",
            Query::Explain(_) => "explain",
            Query::Path { .. } => "path",
            Query::Drops(_) => "drops",
            Query::Energy(_) => "energy",
            Query::Counts => "counts",
        }
    }
}

/// What a capture offers to query: its time span and the subjects that
/// occur in it, each sorted.
#[derive(Clone, Debug, Default)]
pub struct Pool {
    /// First frame time, µs.
    pub t0: u64,
    /// Last frame time, µs.
    pub t1: u64,
    /// Embedded alerts.
    pub alerts: Vec<HealthAlert>,
    /// Delivered `(origin, msg_id)` pairs.
    pub messages: Vec<(u64, u64)>,
    /// Sequence numbers of dropped frames.
    pub drop_seqs: Vec<u64>,
    /// Nodes with energy frames.
    pub nodes: Vec<u64>,
}

/// Read the query pool out of a capture (untimed input generation).
pub fn pool(path: &Path) -> Result<Pool, String> {
    let mut r = CaptureReader::open(path)?;
    let alerts = r
        .alerts_jsonl()
        .lines()
        .map(HealthAlert::from_json_line)
        .collect::<Result<Vec<_>, _>>()?;
    let (mut messages, mut drop_seqs, mut nodes) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    r.scan(&ScanFilter::all(), |ev, _, _| match *ev {
        TraceEvent::Deliver { origin, msg_id, .. } => {
            messages.insert((origin.0 as u64, msg_id));
        }
        TraceEvent::Drop { seq, .. } => {
            drop_seqs.insert(seq);
        }
        TraceEvent::Energy { node, .. } => {
            nodes.insert(node.0 as u64);
        }
        _ => {}
    })?;
    let segs = r.segments();
    Ok(Pool {
        t0: segs.first().map_or(0, |m| m.at_min),
        t1: segs.last().map_or(0, |m| m.at_max),
        alerts,
        messages: messages.into_iter().collect(),
        drop_seqs: drop_seqs.into_iter().collect(),
        nodes: nodes.into_iter().collect(),
    })
}

/// One pass of the seeded query mix. Windows are stratified: the j-th
/// starts uniformly inside the j-th equal slice of the capture's span.
/// A kind whose pool is empty is replaced by a window query.
pub fn mix(seed: u64, pool: &Pool) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed).split(0xF0_2E_45);
    let width = SPAN_WINDOWS * HealthConfig::default().window_us;
    let windows = PASS[0].1 as u64;
    let stratum = (pool.t1.saturating_sub(pool.t0) / windows).max(1);
    let mut out: Vec<Query> = (0..windows)
        .map(|j| {
            let lo = pool.t0 + j * stratum + rng.next_below(stratum);
            Query::Window { lo, hi: lo + width }
        })
        .collect();
    for &(kind, count) in &PASS[1..] {
        for _ in 0..count {
            let pick = |rng: &mut SplitMix64, len: usize| (len > 0).then(|| rng.next_index(len));
            let q = match kind {
                "explain" => {
                    pick(&mut rng, pool.alerts.len()).map(|i| Query::Explain(pool.alerts[i]))
                }
                "path" => pick(&mut rng, pool.messages.len()).map(|i| {
                    let (origin, msg_id) = pool.messages[i];
                    Query::Path { origin, msg_id }
                }),
                "drops" => {
                    pick(&mut rng, pool.drop_seqs.len()).map(|i| Query::Drops(pool.drop_seqs[i]))
                }
                "energy" => pick(&mut rng, pool.nodes.len()).map(|i| Query::Energy(pool.nodes[i])),
                _ => Some(Query::Counts),
            };
            out.push(q.unwrap_or_else(|| {
                let lo = pool.t0 + rng.next_below(stratum * windows);
                Query::Window { lo, hi: lo + width }
            }));
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Answer `q` on an open reader; `full_scan` selects the genesis-replay
/// baseline for the replay-based kinds.
fn answer<R: Read + Seek>(
    q: &Query,
    r: &mut CaptureReader<R>,
    full_scan: bool,
) -> Result<(String, Option<WindowReplayStats>), String> {
    let cfg = HealthConfig::default();
    Ok(match *q {
        Query::Window { lo, hi } => {
            let (m, st) = replay_window(r, lo, hi, cfg, full_scan)?;
            (format!("{:?}", alerts_in_window(&m, lo, hi)), Some(st))
        }
        Query::Explain(alert) => {
            let (f, st) = explain_alert(r, alert, SPAN_WINDOWS, cfg, full_scan)?;
            (f.report(), Some(st))
        }
        Query::Path { origin, msg_id } => {
            (format!("{:?}", capture_path_of(r, origin, msg_id)?), None)
        }
        Query::Drops(seq) => (format!("{:?}", capture_drops_of_seq(r, seq)?), None),
        Query::Energy(node) => (format!("{:?}", capture_energy_of(r, node)?), None),
        Query::Counts => (format!("{:?}", capture_counts(r)), None),
    })
}

/// The twin of `q`: genesis replay for the replay-based kinds, the
/// in-memory `Replay` engine over every frame for the others.
fn twin<R: Read + Seek>(
    q: &Query,
    r: &mut CaptureReader<R>,
    all: &Replay,
) -> Result<String, String> {
    Ok(match *q {
        Query::Window { .. } | Query::Explain(_) => answer(q, r, true)?.0,
        Query::Path { origin, msg_id } => format!("{:?}", all.path_of(origin, msg_id)),
        Query::Drops(seq) => format!("{:?}", all.drops_of_seq(seq)),
        Query::Energy(node) => format!("{:?}", all.energy_of(node)),
        Query::Counts => format!("{:?}", all.counts()),
    })
}

/// Open a reader on `path` and answer `q`, in spans when traced.
fn ask(
    q: &Query,
    path: &Path,
    tr: Option<&Tracer>,
) -> Result<(String, Option<WindowReplayStats>), String> {
    let mut r = maybe(tr, "capture.open", || CaptureReader::open(path))?;
    answer(q, &mut r, false)
}

fn span_name(kind: &str) -> &'static str {
    match kind {
        "window" => "query.window",
        "explain" => "query.explain",
        "path" => "query.path",
        "drops" => "query.drops",
        "energy" => "query.energy",
        _ => "query.counts",
    }
}

/// Per-query timings and replay statistics of a run's passes.
#[derive(Default)]
struct Passes {
    pass_s: Vec<f64>,
    latency_ms: Vec<f64>,
    stats: Vec<WindowReplayStats>,
}

/// Repeat passes over `mix` until `seconds` of queries have been timed
/// (at least one pass). Answers of the first pass are returned; later
/// passes must repeat them.
fn run_passes(
    o: &mut Outcome,
    mix: &[Query],
    path: &Path,
    seconds: f64,
    tr: Option<&Tracer>,
) -> (Passes, Vec<Option<String>>) {
    let mut p = Passes::default();
    let mut first: Vec<Option<String>> = Vec::new();
    while p.pass_s.is_empty() || p.pass_s.iter().sum::<f64>() < seconds {
        let mut pass = 0.0;
        for (i, q) in mix.iter().enumerate() {
            let t = Instant::now();
            let res = maybe(tr, span_name(q.kind()), || ask(q, path, tr));
            let dt = t.elapsed().as_secs_f64();
            pass += dt;
            p.latency_ms.push(dt * 1e3);
            o.attempted += 1;
            match res {
                Err(e) => {
                    o.check(
                        &format!("query {i} ({})", q.kind()),
                        Err::<(), _>(e),
                        Ok(()),
                    );
                    if p.pass_s.is_empty() {
                        first.push(None);
                    }
                }
                Ok((a, st)) => {
                    p.stats.extend(st);
                    if p.pass_s.is_empty() {
                        first.push(Some(a));
                    } else if let Some(want) = &first[i] {
                        o.check(&format!("query {i} ({}) vs pass 0", q.kind()), &a, want);
                    }
                }
            }
        }
        p.pass_s.push(pass);
    }
    (p, first)
}

/// Compare each first-pass answer against its full-scan twin.
fn verify(
    o: &mut Outcome,
    mix: &[Query],
    answers: &[Option<String>],
    path: &Path,
) -> Result<(), String> {
    let mut r = CaptureReader::open(path)?;
    let mut events = Vec::new();
    r.scan(&ScanFilter::all(), |ev, _, _| events.push(*ev))?;
    let all = Replay::from_events(&events);
    drop(events);
    for (i, (q, a)) in mix.iter().zip(answers).enumerate() {
        if let Some(a) = a {
            let want = twin(q, &mut r, &all)?;
            o.check(
                &format!("query {i} ({}) vs its full-scan twin", q.kind()),
                a,
                &want,
            );
        }
    }
    Ok(())
}

/// Write the capture `cfg.setups` times (timed as set-up) and check the
/// last one against the ring's count.
fn write_capture(
    o: &mut Outcome,
    cfg: &Config,
    seed: u64,
    path: &Path,
) -> Result<Vec<f64>, String> {
    let mut setup_s = Vec::new();
    for _ in 0..cfg.setups.max(1) {
        let t = Instant::now();
        let d = capture::setup(&cfg.capture, seed, path, false, None)?;
        let w = capture::drive(d, &cfg.capture, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let r = CaptureReader::open(path)?;
        o.check(
            "capture frames vs ring frames_written",
            r.frames(),
            w.ring.frames_written,
        );
    }
    Ok(setup_s)
}

/// Untraced run.
pub fn run(cfg: &Config, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let path = dir.join("forensic.wcap");
    let setup_s = write_capture(&mut o, cfg, seed, &path)?;
    let mix = mix(seed, &pool(&path)?);
    let (p, answers) = run_passes(&mut o, &mix, &path, seconds, None);
    let rss = peak_rss_mb();
    verify(&mut o, &mix, &answers, &path)?;
    let qps: Vec<f64> = p.pass_s.iter().map(|s| mix.len() as f64 / s).collect();
    o.set("setup_s", median(&setup_s), setup_s.len());
    o.set("run_s", median(&p.pass_s), p.pass_s.len());
    o.set("ops_per_s", median(&qps), qps.len());
    o.set("peak_rss_mb", rss, 1);
    let n = p.latency_ms.len();
    o.put("query_p50_ms", median(&p.latency_ms), "ms", n);
    o.put(
        "query_p90_ms",
        percentile(&p.latency_ms, 90.0).unwrap_or(0.0),
        "ms",
        n,
    );
    if !reportable(&p.latency_ms, 90.0) {
        eprintln!(
            "note: query_p90_ms rests on {n} samples; a p90 with 10 above it needs {}",
            samples_needed(90)
        );
    }
    Ok(o)
}

/// Traced run: a traced capture write, one untraced pass (the overhead
/// base), then traced passes for `seconds`.
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tr: &Tracer,
) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let path = dir.join("forensic.wcap");
    let d = tr.span("setup", || {
        capture::setup(&cfg.capture, seed, &path, true, Some(tr))
    })?;
    let w = tr.span("setup", || capture::drive(d, &cfg.capture, Some(tr)))?;
    capture::layer_metrics(&mut o, &w, &path, tr)?;
    let mix = mix(seed, &pool(&path)?);
    let (plain, _) = run_passes(&mut o, &mix, &path, 0.0, None);
    let (p, answers) = run_passes(&mut o, &mix, &path, seconds, Some(tr));
    verify(&mut o, &mix, &answers, &path)?;

    let opens: Vec<f64> = tr
        .durations_s("capture.open")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let n = p.stats.len().max(1) as f64;
    let read: u64 = p.stats.iter().map(|s| s.segments_read).sum();
    let total: u64 = p.stats.iter().map(|s| s.segments_total).sum();
    let decoded: u64 = p.stats.iter().map(|s| s.frames_decoded).sum();
    o.set("capture.open_ms", median(&opens), opens.len());
    let k = p.stats.len();
    o.put(
        "forensics.segments_read_per_query",
        read as f64 / n,
        "count",
        k,
    );
    o.put(
        "forensics.frames_decoded_per_query",
        decoded as f64 / n,
        "count",
        k,
    );
    o.put(
        "forensics.skip_ratio",
        1.0 - ratio(read as f64, total as f64),
        "ratio",
        k,
    );
    let by_kind: BTreeMap<&str, Vec<f64>> = PASS
        .iter()
        .map(|(k, _)| {
            let ms: Vec<f64> = tr
                .durations_s(span_name(k))
                .iter()
                .map(|s| s * 1e3)
                .collect();
            (*k, ms)
        })
        .collect();
    for (name, kind) in [
        ("query.window_p50_ms", "window"),
        ("query.explain_p50_ms", "explain"),
        ("query.path_p50_ms", "path"),
        ("query.drops_p50_ms", "drops"),
        ("query.energy_p50_ms", "energy"),
        ("query.counts_p50_ms", "counts"),
    ] {
        o.put(name, median(&by_kind[kind]), "ms", by_kind[kind].len());
    }
    o.set(
        "bench.trace_overhead",
        median(&p.pass_s) / median(&plain.pass_s) - 1.0,
        p.pass_s.len(),
    );
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Config = Config {
        capture: capture::Config { n: 60, rounds: 1 },
        setups: 1,
    };

    fn pool_of_size(n: u64) -> Pool {
        Pool {
            t0: 1_000,
            t1: 9_000_000,
            alerts: Vec::new(),
            messages: (0..n).map(|i| (i, i + 1)).collect(),
            drop_seqs: (0..n).collect(),
            nodes: (0..n).collect(),
        }
    }

    #[test]
    fn the_query_mix_is_seeded() {
        let pool = pool_of_size(50);
        assert_eq!(mix(7, &pool), mix(7, &pool));
        assert_ne!(mix(7, &pool), mix(8, &pool));
        let m = mix(7, &pool);
        assert_eq!(m.len(), PASS.iter().map(|(_, c)| c).sum::<usize>());
        // No alerts in the pool: explain slots become windows.
        let windows = m.iter().filter(|q| q.kind() == "window").count();
        assert_eq!(windows, PASS[0].1 + PASS[1].1);
        for q in &m {
            if let Query::Window { lo, hi } = *q {
                assert!(lo >= pool.t0 && lo <= pool.t1 && hi > lo);
            }
        }
    }

    /// Every query kind but `explain` matches its full-scan twin. An
    /// `explain` of an alert stamped before `SPAN_WINDOWS` windows have
    /// passed resumes from a checkpoint inside the window its report
    /// starts at, so its evidence counts miss that window's earlier
    /// frames: a defect of `explain_alert` at this commit, left to fail
    /// the run's checks until it is fixed.
    #[test]
    fn tiny_forensic_query_completes_and_only_early_explains_disagree() {
        let dir = crate::host::ScratchDir::create("test-forensic", 64).expect("scratch dir");
        let o = run(&TINY, 3, 0.0, dir.path()).expect("run");
        let mix = mix(3, &pool(&dir.path().join("forensic.wcap")).unwrap());
        assert_eq!(o.attempted, mix.len() as u64);
        let early = SPAN_WINDOWS * HealthConfig::default().window_us;
        for m in &o.mismatches {
            let i: usize = m["query ".len()..]
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(m.contains("vs its full-scan twin"), "{m}");
            assert!(matches!(mix[i], Query::Explain(a) if a.t < early), "{m}");
        }
        let t = Tracer::new("test".into());
        let o = run_traced(&TINY, 3, 0.0, dir.path(), &t).expect("traced run");
        assert!(
            o.mismatches.iter().all(|m| m.contains("(explain)")),
            "{:?}",
            o.mismatches
        );
        assert!(o.get("capture.open_ms").unwrap() > 0.0);
    }
}
