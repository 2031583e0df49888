//! `secmlr_capture`: SecMLR on the 100 m × 100 m field, recorded
//! through the ring into a checkpointing `.wcap` capture, then a
//! gateway kill and a failure round.
//!
//! The trace goes through a `RingSink` into a `ForensicCaptureSink`
//! (detector bank plus capture writer, a checkpoint at every segment).
//! Each timed iteration builds a fresh world and pipeline (set-up),
//! then runs the rounds, the kill round and the capture finalize (run).

use crate::host::{peak_rss_mb, reset_peak_rss};
use crate::metrics::{ratio, Outcome};
use crate::spans::{maybe, Tracer};
use crate::stats::median;
use std::any::Any;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wmsn_core::builder::build_secmlr;
use wmsn_core::drivers::SecMlrDriver;
use wmsn_core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn_crypto::Key128;
use wmsn_health::{restore, snapshot, ForensicCaptureSink, HealthConfig, HealthMonitor};
use wmsn_sim::Metrics;
use wmsn_trace::{
    decode_frame, encode_frame, CaptureConfig, CaptureReader, CaptureStats, RingConfig, RingSink,
    RingStats, ScanFilter, TraceEvent, TraceSink,
};
use wmsn_util::SplitMix64;

/// Workload size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Sensors on the fixed 100 m × 100 m field.
    pub n: usize,
    /// Healthy rounds before the gateway kill.
    pub rounds: u32,
}

impl Config {
    /// The benchmark configuration: one healthy round and the kill
    /// round at n=100, a capture of 51-55 MB. The capture grows about
    /// as n³ on this fixed field (n=200 with three healthy rounds
    /// writes 1.1 GB), and a single file that large exceeds the
    /// file-size limit of some hosts, where the kernel kills the run.
    pub const FULL: Config = Config { n: 100, rounds: 1 };
}

/// Seeded fields a run cycles through: iteration `i` builds the field
/// of `scenario_seed(seed, i % SCENARIOS)`. The deployment sets the
/// work (events, frames, checkpoint sizes), so a run's medians and
/// peak memory cover sixteen fields rather than the one `--seed` draws.
pub const SCENARIOS: usize = 16;

/// Field seed of scenario `k` of a run: `seed` itself for `k = 0`, the
/// `k`-th draw of a SplitMix64 stream on `seed` otherwise.
pub fn scenario_seed(seed: u64, k: usize) -> u64 {
    let mut rng = SplitMix64::new(seed);
    (0..k).fold(seed, |_, _| rng.next_u64_raw())
}

/// Upper estimate of the capture size, MB: about 32·n³/10⁶ MB per round
/// including the kill round (64 MB for the full configuration).
pub fn capture_budget_mb(cfg: &Config) -> u64 {
    let n = cfg.n as u64;
    ((cfg.rounds as u64 + 1) * 32 * n * n * n).div_ceil(1_000_000)
}

/// The timing wrappers time every `SAMPLE_EVERY`-th call. The stride is
/// odd, so sampled calls fall on every residue of the power-of-two ring
/// chunk (512 frames) and capture segment (8192 frames) and see chunk
/// pushes, segment seals and checkpoints at their true rate.
const SAMPLE_EVERY: u64 = 15;

/// Sampled call timings: summed ns of the sampled calls, and their count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Summed ns of the sampled calls.
    pub ns: u64,
    /// Sampled calls.
    pub calls: u64,
}

impl Sample {
    /// Mean ns per sampled call, less `overhead_ns` of timer cost.
    pub fn per_call_ns(self, overhead_ns: f64) -> f64 {
        (ratio(self.ns as f64, self.calls as f64) - overhead_ns).max(0.0)
    }
}

/// Bench-owned wrapper that times every `SAMPLE_EVERY`-th call into the
/// sink it wraps: in front of the ring for the sim thread's hook cost,
/// behind it for the drain thread's time in the forensic sink.
struct Sampled<S> {
    inner: S,
    calls: u64,
    sample: Sample,
}

impl<S> Sampled<S> {
    fn new(inner: S) -> Self {
        Sampled {
            inner,
            calls: 0,
            sample: Sample::default(),
        }
    }
}

impl<S: TraceSink + 'static> TraceSink for Sampled<S> {
    fn record(&mut self, ev: &TraceEvent) {
        self.record_keyed(ev, ev.t(), 0);
    }
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        self.calls += 1;
        if self.calls.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            self.inner.record_keyed(ev, at, key);
            self.sample.ns += t.elapsed().as_nanos() as u64;
            self.sample.calls += 1;
        } else {
            self.inner.record_keyed(ev, at, key);
        }
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build the SecMLR world and install the capture pipeline writing to
/// `path`. With `timed`, the bench-owned timing wrappers sit in front
/// of and behind the ring.
pub fn setup(
    cfg: &Config,
    seed: u64,
    path: &Path,
    timed: bool,
    tr: Option<&Tracer>,
) -> Result<SecMlrDriver, String> {
    let mut d = maybe(tr, "topology.build", || {
        let field = FieldParams {
            battery_j: f64::INFINITY,
            ..FieldParams::default_uniform(cfg.n, seed)
        };
        SecMlrDriver::new(build_secmlr(
            &field,
            &GatewayParams::rotating(3, 3, 3),
            TrafficParams::default(),
        ))
    });
    let sink =
        ForensicCaptureSink::create(path, CaptureConfig::default(), HealthConfig::default(), 1)
            .map_err(|e| format!("create capture {}: {e}", path.display()))?;
    if timed {
        let ring = RingSink::new(RingConfig::default(), vec![Box::new(Sampled::new(sink))]);
        d.scenario
            .world
            .set_trace_sink(Box::new(Sampled::new(ring)));
    } else {
        let ring = RingSink::new(RingConfig::default(), vec![Box::new(sink)]);
        d.scenario.world.set_trace_sink(Box::new(ring));
    }
    Ok(d)
}

/// What driving one scenario produced.
pub struct Written {
    /// Events the kernel processed.
    pub events: u64,
    /// The finalized capture.
    pub capture: CaptureStats,
    /// Ring telemetry.
    pub ring: RingStats,
    /// Alerts the co-hosted monitor raised.
    pub alerts: usize,
    /// Messages originated in the healthy rounds.
    pub originated: u64,
    /// Messages delivered in the healthy rounds.
    pub delivered: u64,
    /// The world's final metrics.
    pub metrics: Metrics,
    /// Event-queue high-water mark.
    pub peak_queue_depth: usize,
    /// Sampled sim-thread calls into the ring (timed pipelines).
    pub hook: Option<Sample>,
    /// Sampled drain-thread calls into the forensic sink (timed
    /// pipelines).
    pub drain: Option<Sample>,
}

/// Run the healthy rounds, kill gateway 0, run the failure round, and
/// finalize the capture.
pub fn drive(mut d: SecMlrDriver, cfg: &Config, tr: Option<&Tracer>) -> Result<Written, String> {
    let (mut originated, mut delivered) = (0, 0);
    for _ in 0..cfg.rounds {
        let r = maybe(tr, "sim.round", || d.run_round());
        originated += r.originated;
        delivered += r.delivered;
    }
    let victim = d.scenario.gateways[0];
    d.scenario.world.kill(victim);
    maybe(tr, "sim.round", || d.run_round());
    // Taking the sink flushes it: for the ring that is the barrier.
    let mut sink = maybe(tr, "ring.barrier", || d.scenario.world.take_trace_sink())
        .ok_or("no trace sink installed")?;
    let mut hook = None;
    let ring: &mut RingSink = match sink.as_any_mut().downcast_mut::<Sampled<RingSink>>() {
        Some(h) => {
            hook = Some(h.sample);
            &mut h.inner
        }
        None => sink
            .as_any_mut()
            .downcast_mut::<RingSink>()
            .ok_or("the installed sink is not the ring")?,
    };
    let stats = ring.stats();
    let finalize = |f: &mut ForensicCaptureSink| {
        f.set_frames_dropped(stats.frames_dropped);
        (f.finalize(), f.monitor().alerts().len())
    };
    let (capture, alerts, drain) = maybe(tr, "capture.finalize", || {
        match ring.with_sink_mut::<ForensicCaptureSink, _>(finalize) {
            Some((c, a)) => (c, a, None),
            None => ring
                .with_sink_mut::<Sampled<ForensicCaptureSink>, _>(|t| {
                    let (c, a) = finalize(&mut t.inner);
                    (c, a, Some(t.sample))
                })
                .unwrap_or((None, 0, None)),
        }
    });
    let capture = capture.ok_or("capture write failed")?;
    // Dropping the ring closes it and joins the drain thread.
    maybe(tr, "ring.close", || drop(sink));
    Ok(Written {
        events: d.scenario.world.events_processed(),
        peak_queue_depth: d.scenario.world.peak_queue_depth(),
        capture,
        ring: stats,
        alerts,
        originated,
        delivered,
        metrics: d.scenario.world.metrics().clone(),
        hook,
        drain,
    })
}

/// The capture's alert stream replayed from its first frame by a fresh
/// detector bank, the bank, and its sampled `observe` calls.
pub fn replay_alerts(path: &Path) -> Result<(String, HealthMonitor, Sample), String> {
    let mut r = CaptureReader::open(path)?;
    let mut m = HealthMonitor::with_config(HealthConfig::default());
    let (mut n, mut sample) = (0u64, Sample::default());
    r.scan(&ScanFilter::all(), |ev, _, _| {
        n += 1;
        if n.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            m.observe(ev);
            sample.ns += t.elapsed().as_nanos() as u64;
            sample.calls += 1;
        } else {
            m.observe(ev);
        }
    })?;
    m.finalize();
    Ok((m.alerts_jsonl(), m, sample))
}

/// Cost of one `Instant::now` + `elapsed` pair, ns (median of batches).
pub fn instant_overhead_ns() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let mut acc = 0u128;
        for _ in 0..10_000 {
            acc += black_box(Instant::now()).elapsed().as_nanos();
        }
        black_box(acc);
        batches.push(t.elapsed().as_nanos() as f64 / 10_000.0 / 2.0);
    }
    median(&batches)
}

/// Median ns per call of `f` over `reps` batches of `iters` calls.
pub fn time_ns(reps: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        v.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&v)
}

/// Frame codec costs on `frames` taken from a capture: (encode ns,
/// decode ns) per frame.
pub fn codec_ns(frames: &[(TraceEvent, u64, u64)]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let bytes: Vec<_> = frames
        .iter()
        .map(|(ev, at, key)| encode_frame(ev, *at, *key))
        .collect();
    let enc = time_ns(5, frames.len(), |i| {
        let (ev, at, key) = &frames[i];
        black_box(encode_frame(black_box(ev), *at, *key));
    });
    let dec = time_ns(5, bytes.len(), |i| {
        black_box(decode_frame(black_box(&bytes[i])).ok());
    });
    (enc, dec)
}

/// Frames of up to `k` segments spread evenly over the capture.
pub fn sample_frames(path: &Path, k: usize) -> Result<Vec<(TraceEvent, u64, u64)>, String> {
    let mut r = CaptureReader::open(path)?;
    let n = r.segments().len();
    let mut out = Vec::new();
    for j in 0..k.min(n) {
        let seg = j * n / k.min(n);
        r.scan_range(seg..seg + 1, &ScanFilter::all(), |ev, at, key| {
            out.push((*ev, at, key))
        })?;
    }
    Ok(out)
}

/// Untimed output checks of one written capture. The first capture of
/// a scenario is checked against a full replay from its start; later
/// ones (the same seeded scenario) must match the first.
fn check_capture(
    o: &mut Outcome,
    i: usize,
    path: &Path,
    w: &Written,
    first: &mut Option<(u64, u64, String)>,
) {
    let r = match CaptureReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            o.check(
                &format!("iteration {i}: capture reopens"),
                Err::<(), _>(e),
                Ok(()),
            );
            return;
        }
    };
    o.check(
        &format!("iteration {i}: capture frames vs ring frames_written"),
        r.frames(),
        w.ring.frames_written,
    );
    o.check(
        &format!("iteration {i}: frames dropped"),
        r.frames_dropped(),
        0,
    );
    let embedded = r.alerts_jsonl().to_string();
    let reference = first
        .get_or_insert_with(|| {
            let replayed = replay_alerts(path).map_or_else(|e| e, |(a, _, _)| a);
            (r.frames(), r.bytes(), replayed)
        })
        .clone();
    o.check(
        &format!("iteration {i}: capture frames and bytes vs the scenario's first"),
        (r.frames(), r.bytes()),
        (reference.0, reference.1),
    );
    o.check(
        &format!("iteration {i}: embedded alerts vs a replay from the start"),
        embedded,
        reference.2,
    );
}

fn count_ops(o: &mut Outcome, w: &Written) {
    o.attempted += w.originated + w.ring.frames_written + w.ring.frames_dropped;
    o.failed += w.originated.saturating_sub(w.delivered) + w.ring.frames_dropped;
}

/// Untraced run: iterations of set-up + drive, cycling through the
/// run's scenarios, until `seconds` of driving have been timed.
/// Captures go to `dir` and are removed after each iteration.
/// `peak_rss_mb` is the median of the iterations' peaks: the ring's
/// backlog, and with it the peak, follows how the drain thread is
/// scheduled, so the process-wide peak is an extreme of host noise.
pub fn run(cfg: &Config, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let path = dir.join("secmlr.wcap");
    let (mut setup_s, mut run_s, mut rate, mut fps) = (vec![], vec![], vec![], vec![]);
    let (mut capture_mb, mut alerts, mut rss) = (vec![], vec![], vec![]);
    let mut first = vec![None; SCENARIOS];
    while run_s.is_empty() || run_s.iter().sum::<f64>() < seconds {
        let k = run_s.len() % SCENARIOS;
        reset_peak_rss();
        let t = Instant::now();
        let d = setup(cfg, scenario_seed(seed, k), &path, false, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let w = drive(d, cfg, None)?;
        let dt = t.elapsed().as_secs_f64();
        rss.push(peak_rss_mb());
        eprintln!(
            "iteration {}: setup {:.4} s, run {dt:.4} s, peak {:.1} MB",
            run_s.len(),
            setup_s[run_s.len()],
            rss[run_s.len()]
        );
        run_s.push(dt);
        rate.push(w.events as f64 / dt);
        fps.push(w.capture.frames as f64 / dt);
        capture_mb.push(w.capture.bytes as f64 / 1e6);
        alerts.push(w.alerts as f64);
        count_ops(&mut o, &w);
        check_capture(&mut o, run_s.len() - 1, &path, &w, &mut first[k]);
        let _ = std::fs::remove_file(&path);
    }
    o.set("setup_s", median(&setup_s), setup_s.len());
    o.set("run_s", median(&run_s), run_s.len());
    o.set("ops_per_s", median(&rate), rate.len());
    o.set("peak_rss_mb", median(&rss), rss.len());
    o.put("events_per_s", median(&rate), "1/s", rate.len());
    o.put("frames_per_s", median(&fps), "1/s", fps.len());
    o.put("capture_mb", median(&capture_mb), "MB", capture_mb.len());
    o.put("alerts", median(&alerts), "count", alerts.len());
    Ok(o)
}

/// Set the per-layer metrics of one traced drive: the simulation and
/// write side from its counters and spans, and the capture's read side
/// (open, frame codec, checkpoint restore, replay) timed on the file.
pub fn layer_metrics(o: &mut Outcome, w: &Written, path: &Path, tr: &Tracer) -> Result<(), String> {
    let mut opens = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        black_box(CaptureReader::open(path)?);
        opens.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let r = CaptureReader::open(path)?;
    let checkpoint_bytes: usize = r.checkpoints().iter().map(|(_, b)| b.len()).sum();
    let blob = r
        .checkpoints()
        .last()
        .map(|(_, b)| b.clone())
        .unwrap_or_default();
    drop(r);
    let restore_ms = if blob.is_empty() {
        0.0
    } else {
        time_ns(5, 3, |_| {
            black_box(restore(black_box(&blob)).ok());
        }) * 1e-6
    };
    let (alerts, monitor, observe) = replay_alerts(path)?;
    let frames = sample_frames(path, 8)?;
    let (enc, dec) = codec_ns(&frames);
    let mut snaps = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(snapshot(&monitor));
        snaps.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let overhead = instant_overhead_ns();
    let m = &w.metrics;
    let tx = m.total_sent() as f64;
    let sim_run = tr.self_s("sim.round");
    o.check(
        "traced capture: embedded alerts vs a replay from the start",
        CaptureReader::open(path)?.alerts_jsonl().to_string(),
        alerts,
    );
    o.set(
        "topology.build_s",
        median(&tr.durations_s("topology.build")),
        tr.durations_s("topology.build").len(),
    );
    o.set("sim.run_s", sim_run, tr.durations_s("sim.round").len());
    o.set("sim.events", w.events as f64, 1);
    o.set("sim.ns_per_event", ratio(sim_run * 1e9, w.events as f64), 1);
    o.set("sim.peak_queue_depth", w.peak_queue_depth as f64, 1);
    o.set("sim.tx_frames", tx, 1);
    o.set("sim.rx_frames", m.received as f64, 1);
    o.set("sim.fanout", ratio(m.received as f64, tx), 1);
    o.set("routing.control_frames", m.sent_control as f64, 1);
    o.set("routing.data_frames", m.sent_data as f64, 1);
    o.set(
        "routing.control_per_delivery",
        ratio(m.sent_control as f64, w.delivered as f64),
        1,
    );
    o.set("secure.security_frames", m.sent_security as f64, 1);
    o.set("secure.security_bytes", m.sent_bytes_security as f64, 1);
    o.set("trace.frames", w.ring.frames_written as f64, 1);
    o.set("trace.frames_dropped", w.ring.frames_dropped as f64, 1);
    let hook = w.hook.unwrap_or_default();
    o.set(
        "trace.hook_ns_per_frame",
        hook.per_call_ns(overhead),
        hook.calls as usize,
    );
    o.set("ring.blocked_s", w.ring.blocked_us as f64 * 1e-6, 1);
    o.set(
        "ring.peak_fill",
        ratio(w.ring.peak_chunks as f64, w.ring.capacity_chunks as f64),
        1,
    );
    let drain = w.drain.unwrap_or_default();
    o.set(
        "drain.busy_s",
        drain.per_call_ns(overhead) * w.ring.frames_written as f64 * 1e-9,
        drain.calls as usize,
    );
    o.set("capture.encode_ns_per_frame", enc, frames.len());
    o.set(
        "health.observe_ns_per_frame",
        observe.per_call_ns(overhead),
        observe.calls as usize,
    );
    o.set("health.snapshot_ms", median(&snaps), snaps.len());
    o.set("capture.segments", w.capture.segments as f64, 1);
    o.set("capture.open_ms", median(&opens), opens.len());
    o.set("capture.decode_ns_per_frame", dec, frames.len());
    o.set("health.restore_ms", restore_ms, 5);
    o.set("capture.checkpoint_bytes", checkpoint_bytes as f64, 1);
    o.set("health.alerts", w.alerts as f64, 1);
    Ok(())
}

/// CMAC cost per call on the run's mean security-frame size, and CTR
/// cost per byte on its mean data-frame size.
fn crypto_metrics(o: &mut Outcome, m: &Metrics) {
    let key = Key128([7; 16]);
    let sec = ratio(m.sent_bytes_security as f64, m.sent_security as f64).round() as usize;
    let data = ratio(m.sent_bytes_data as f64, m.sent_data as f64).round() as usize;
    let mut buf = vec![0x5Au8; sec.max(data).max(1)];
    let cmac = time_ns(5, 20_000, |_| {
        black_box(wmsn_crypto::mac::cmac(&key, black_box(&buf[..sec])));
    });
    let ctr = time_ns(5, 20_000, |i| {
        wmsn_crypto::ctr::xcrypt_in_place(&key, i as u64, black_box(&mut buf[..data]));
    });
    o.set("crypto.cmac_ns", cmac, 5);
    o.set("crypto.ctr_ns_per_byte", ratio(ctr, data as f64), 5);
}

/// Traced run. Pairs of one untraced iteration and one iteration with
/// the timing wrappers around the ring, both on the same scenario,
/// cycle through the run's scenarios until `seconds` of driving have
/// been timed; the tracing overhead is the wrapped median over the
/// untraced median, minus 1. A last wrapped iteration on scenario 0
/// (the `--seed` field) records spans and gives the per-layer metrics.
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tr: &Tracer,
) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let path = dir.join("secmlr.wcap");
    let mut first = vec![None; SCENARIOS];
    let (mut plain_s, mut wrapped_s) = (vec![], vec![]);
    let mut iteration = 0;
    let mut timed = |o: &mut Outcome, k: usize, wrapped: bool| -> Result<f64, String> {
        let d = setup(cfg, scenario_seed(seed, k), &path, wrapped, None)?;
        let t = Instant::now();
        let w = drive(d, cfg, None)?;
        let dt = t.elapsed().as_secs_f64();
        count_ops(o, &w);
        check_capture(o, iteration, &path, &w, &mut first[k]);
        iteration += 1;
        let _ = std::fs::remove_file(&path);
        Ok(dt)
    };
    while plain_s.is_empty() || plain_s.iter().chain(&wrapped_s).sum::<f64>() < seconds {
        let k = plain_s.len() % SCENARIOS;
        plain_s.push(timed(&mut o, k, false)?);
        wrapped_s.push(timed(&mut o, k, true)?);
    }

    let d = tr.span("setup", || setup(cfg, seed, &path, true, Some(tr)))?;
    let w = tr.span("run", || drive(d, cfg, Some(tr)))?;
    count_ops(&mut o, &w);
    check_capture(&mut o, iteration, &path, &w, &mut first[0]);
    layer_metrics(&mut o, &w, &path, tr)?;
    crypto_metrics(&mut o, &w.metrics);
    let _ = std::fs::remove_file(&path);
    o.set(
        "bench.trace_overhead",
        median(&wrapped_s) / median(&plain_s) - 1.0,
        wrapped_s.len(),
    );
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Config = Config { n: 40, rounds: 1 };

    #[test]
    fn tiny_secmlr_capture_passes_its_checks() {
        let dir = crate::host::ScratchDir::create("test-secmlr", 64).expect("scratch dir");
        let o = run(&TINY, 3, 0.0, dir.path()).expect("run");
        assert!(o.correct(), "{:?}", o.mismatches);
        assert!(o.get("ops_per_s").unwrap() > 0.0);
        let t = Tracer::new("test".into());
        let o = run_traced(&TINY, 3, 0.0, dir.path(), &t).expect("traced run");
        assert!(o.correct(), "{:?}", o.mismatches);
        assert!(o.get("trace.frames").unwrap() > 0.0);
        assert!(o.get("capture.checkpoint_bytes").unwrap() > 0.0);
    }
}
