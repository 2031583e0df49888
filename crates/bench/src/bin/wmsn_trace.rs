//! `wmsn-trace` — record and interrogate simulator trace files.
//!
//! Trace-driven debugging for the WMSN simulator: record a small
//! experiment with a file sink installed, then replay the capture to
//! answer "show the path of msg N", "why was packet X dropped", and
//! "what is node K's energy timeline".
//!
//! ```text
//! wmsn-trace record  <out> [seed] [rounds] [--seg]  # run E1 (SPR, 40 sensors) traced
//! wmsn-trace summary <trace>                        # event counts; exits 1 on parse errors
//! wmsn-trace path    <trace> <origin> <msg_id>
//! wmsn-trace drop    <trace> <seq>
//! wmsn-trace energy  <trace> <node>
//! wmsn-trace health  <trace>                        # run the health monitor offline
//! wmsn-trace health  <capture> --window <lo..hi> [--full-scan]  # windowed detector replay
//! wmsn-trace explain <capture> <alert#|json> [--span W] [--full-scan]  # alert provenance
//! wmsn-trace compact <in> <out> [--keep-last N] [--keep-alert-windows W]
//! wmsn-trace record-e18 <out> [seed]                # checkpointed gateway-death capture
//! wmsn-trace alerts  <trace>                        # just the alert JSONL stream
//! wmsn-trace top     <trace> [k]                    # k busiest nodes by tx (default 10)
//! wmsn-trace index   <capture>                      # segment directory of a segmented capture
//! wmsn-trace pack    <in> <out> [segment_frames]    # jsonl → segmented capture
//! wmsn-trace convert <in> <out>                     # segmented capture → jsonl
//! ```
//!
//! `health --window` and `explain` resume the detector bank from the
//! nearest embedded checkpoint (segmented captures recorded through
//! `wmsn_health::ForensicCaptureSink`, e.g. by `record-e18`) and replay
//! only the segments the window touches. Their stdout is byte-identical
//! to a `--full-scan` genesis replay — CI `cmp`-gates both — while the
//! replay statistics (checkpoint used, segments read) go to stderr.
//! `compact` applies a retention policy: old segments outside the kept
//! window collapse to their directory summaries (index-exact, but
//! frame reads into them fail loudly) with checkpoints re-embedded so
//! windowed queries over retained ranges keep working.
//!
//! Every query accepts **either of the two formats**: the input is
//! sniffed by its first bytes (segmented `.wcap` captures open with the
//! `WMSNTRS` magic, JSONL with `{`). JSONL replays through the
//! in-memory [`Replay`]; segmented captures answer through the
//! streaming scan layer in
//! `wmsn_trace::capture` — segment-at-a-time decode with index-driven
//! segment skipping, so a query over a multi-gigabyte capture holds one
//! segment in memory. Both paths print identical records byte for byte
//! (pinned in CI by the streaming-vs-in-memory parity step).
//!
//! A segmented capture whose trailer records `frames_dropped > 0` was
//! recorded through a ring under `DropNewest` backpressure — the file
//! is a *sample* of the trace stream, not a transcript — so every
//! command that opens one prints a `capture_dropped_frames` warning on
//! stderr first.
//!
//! `health`/`alerts`/`top` stream the recorded trace through the same
//! `wmsn_health::HealthMonitor` the simulator installs online, so an
//! offline fingerprint matches the live one byte for byte.
//!
//! All output is structured records (one flat JSON object per line).
//! Malformed traces and missing messages exit non-zero through one
//! helper (`die_load`) that always reports the path plus the JSONL line
//! or byte offset of the failure — which is what the CI step relies on.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use wmsn_core::builder::build_spr;
use wmsn_core::drivers::SprDriver;
use wmsn_core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn_health::{
    alerts_in_window, compact_capture, explain_alert, replay_window, CompactionPolicy, HealthAlert,
    HealthConfig, HealthMonitor, WindowReplayStats,
};
use wmsn_trace::replay::MessagePath;
use wmsn_trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, is_segmented_capture,
    log_error, log_record, tag_name, CaptureConfig, CaptureReader, CaptureSink, JsonlSink, Replay,
    ScanFilter, TraceEvent, TraceSink, DEFAULT_SEGMENT_FRAMES, TAG_COUNT,
};
use wmsn_util::json::Json;

fn usage() -> ! {
    println!(
        "usage: wmsn-trace record  <out> [seed] [rounds] [--seg]\n\
         \x20      wmsn-trace summary <trace>\n\
         \x20      wmsn-trace path    <trace> <origin> <msg_id>\n\
         \x20      wmsn-trace drop    <trace> <seq>\n\
         \x20      wmsn-trace energy  <trace> <node>\n\
         \x20      wmsn-trace health  <trace>\n\
         \x20      wmsn-trace health  <capture> --window <lo..hi> [--full-scan]\n\
         \x20      wmsn-trace explain <capture> <alert#|json-line> [--span W] [--full-scan]\n\
         \x20      wmsn-trace compact <in> <out> [--keep-last N] [--keep-alert-windows W]\n\
         \x20      wmsn-trace record-e18 <out> [seed]\n\
         \x20      wmsn-trace alerts  <trace>\n\
         \x20      wmsn-trace top     <trace> [k]\n\
         \x20      wmsn-trace index   <capture>\n\
         \x20      wmsn-trace pack    <in> <out> [segment_frames]\n\
         \x20      wmsn-trace convert <in> <out>\n\
         (<trace> may be JSONL or a segmented .wcap capture; the\n\
         \x20format is sniffed; pack writes a .wcap, convert reads one)"
    );
    std::process::exit(2);
}

/// The one load/IO-error exit path: every failure to open, read, parse
/// or write a trace reports the same record shape — path, the JSONL
/// `line` or byte `offset` of the failure when known, and the error —
/// then exits 1.
fn die_load(path: &str, line: Option<u64>, offset: Option<u64>, error: String) -> ! {
    let mut fields = vec![("path", Json::from(path.to_string()))];
    if let Some(l) = line {
        fields.push(("line", Json::from(l)));
    }
    if let Some(o) = offset {
        fields.push(("offset", Json::from(o)));
    }
    fields.push(("error", Json::from(error)));
    log_error("trace_load_error", fields);
    std::process::exit(1);
}

/// Trace file formats the CLI understands, sniffed from the first
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Jsonl,
    Segmented,
}

fn sniff(path: &str) -> Format {
    let mut head = [0u8; 8];
    let Ok(mut f) = File::open(path) else {
        return Format::Jsonl; // let the real open report the error
    };
    let n = f.read(&mut head).unwrap_or(0);
    if is_segmented_capture(&head[..n]) {
        Format::Segmented
    } else {
        Format::Jsonl
    }
}

/// Open a segmented capture, validating footer and directory. If the
/// trailer records ring drops, warn on stderr before any query output:
/// the capture is a partial sample and must never be silently trusted.
fn open_capture(path: &str) -> CaptureReader<BufReader<File>> {
    let r = CaptureReader::open(path).unwrap_or_else(|e| die_load(path, None, None, e));
    if r.frames_dropped() > 0 {
        log_error(
            "capture_dropped_frames",
            vec![
                ("path", Json::from(path.to_string())),
                ("frames_dropped", Json::from(r.frames_dropped())),
                ("frames", Json::from(r.frames())),
                (
                    "warning",
                    Json::from(
                        "capture was recorded with ring backpressure drops; \
                         query answers reflect a partial trace",
                    ),
                ),
            ],
        );
    }
    r
}

/// Stream the events of a JSONL trace, reporting the 1-based line
/// number of any malformed line.
fn for_each_jsonl_event(path: &str, mut f: impl FnMut(TraceEvent)) {
    let file = File::open(path).unwrap_or_else(|e| die_load(path, None, None, e.to_string()));
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line =
            line.unwrap_or_else(|e| die_load(path, Some(lineno as u64 + 1), None, e.to_string()));
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::from_json_line(&line)
            .unwrap_or_else(|e| die_load(path, Some(lineno as u64 + 1), None, e));
        f(ev);
    }
}

fn parse_u64(s: &str, what: &'static str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        log_error(
            "trace_error",
            vec![
                ("expected", Json::from(what)),
                ("got", Json::from(s.to_string())),
            ],
        );
        std::process::exit(2);
    })
}

/// Load a JSONL trace fully into the in-memory replay engine.
/// Segmented captures never come through here — their queries stream
/// (see the module docs).
fn load(path: &str) -> Replay {
    let mut events = Vec::new();
    for_each_jsonl_event(path, |ev| events.push(ev));
    Replay::from_events(&events)
}

/// Run the E1 kernel (SPR over 40 uniformly deployed sensors, three
/// gateways) with a file sink installed, for `rounds` rounds. `format`
/// selects JSONL or the segmented capture sink.
fn record(out: &str, seed: u64, rounds: u32, format: Format) {
    let field = FieldParams::default_uniform(40, seed);
    let scen = build_spr(
        &field,
        &GatewayParams::default_three(),
        TrafficParams::default(),
    );
    let mut driver = SprDriver::new(scen);
    let sink: Box<dyn TraceSink> = match format {
        Format::Jsonl => {
            let file =
                File::create(out).unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
            Box::new(JsonlSink::new(BufWriter::new(file)))
        }
        Format::Segmented => Box::new(
            CaptureSink::create(out, CaptureConfig::default())
                .unwrap_or_else(|e| die_load(out, None, None, e.to_string())),
        ),
    };
    driver.scenario.world.set_trace_sink(sink);
    for _ in 0..rounds {
        driver.run_round();
    }
    let mut sink = driver
        .scenario
        .world
        .take_trace_sink()
        .expect("sink was installed");
    let lines = match format {
        Format::Jsonl => sink
            .as_any()
            .downcast_ref::<JsonlSink<BufWriter<File>>>()
            .map(JsonlSink::lines_written)
            .unwrap_or(0),
        Format::Segmented => {
            let cap = sink
                .as_any_mut()
                .downcast_mut::<CaptureSink>()
                .and_then(CaptureSink::finalize)
                .unwrap_or_else(|| die_load(out, None, None, "capture write failed".into()));
            cap.frames
        }
    };
    let m = driver.scenario.world.metrics();
    log_record(
        "trace_written",
        vec![
            ("path", Json::from(out.to_string())),
            (
                "format",
                Json::from(match format {
                    Format::Jsonl => "jsonl",
                    Format::Segmented => "segmented",
                }),
            ),
            ("seed", Json::from(seed)),
            ("rounds", Json::from(u64::from(rounds))),
            ("lines", Json::from(lines)),
            ("originated", Json::from(m.originated)),
            ("delivered", Json::from(m.unique_deliveries())),
        ],
    );
}

/// Pack a JSONL trace into a segmented capture. JSONL carries no causal
/// keys, so events are stamped `at = t, key = 0`.
fn pack(input: &str, out: &str, segment_frames: usize) {
    if sniff(input) == Format::Segmented {
        die_load(
            input,
            None,
            None,
            "input is already a segmented capture".into(),
        );
    }
    let file = File::create(out).unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
    let mut w =
        wmsn_trace::CaptureWriter::new(BufWriter::new(file), CaptureConfig { segment_frames })
            .unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
    for_each_jsonl_event(input, |ev| {
        w.push(&ev, ev.t(), 0)
            .unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
    });
    let (_, stats) = w
        .finish()
        .unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
    log_record(
        "trace_packed",
        vec![
            ("input", Json::from(input.to_string())),
            ("output", Json::from(out.to_string())),
            ("frames", Json::from(stats.frames)),
            ("segments", Json::from(stats.segments)),
            ("segment_frames", Json::from(segment_frames)),
            ("bytes", Json::from(stats.bytes)),
        ],
    );
}

/// Print the segment directory of a segmented capture: one record per
/// segment with its byte offset, frame count, `at` range and per-kind
/// counts — the index the streaming queries prune with.
fn index(path: &str) {
    let r = open_capture(path);
    log_record(
        "capture_index",
        vec![
            ("path", Json::from(path.to_string())),
            ("frames", Json::from(r.frames())),
            ("segments", Json::from(r.segments().len())),
            ("bytes", Json::from(r.bytes())),
            ("frames_dropped", Json::from(r.frames_dropped())),
        ],
    );
    for (i, seg) in r.segments().iter().enumerate() {
        let mut kinds = Vec::new();
        for t in 1..=TAG_COUNT as u8 {
            let n = seg.count_of_tag(t);
            if n > 0 {
                kinds.push((tag_name(t).expect("tag in range"), Json::from(n)));
            }
        }
        log_record(
            "capture_segment",
            vec![
                ("segment", Json::from(i)),
                ("offset", Json::from(seg.offset)),
                ("frames", Json::from(u64::from(seg.frames))),
                ("at_min", Json::from(seg.at_min)),
                ("at_max", Json::from(seg.at_max)),
                ("counts", Json::obj(kinds)),
            ],
        );
    }
}

/// Render a segmented capture as JSONL: each decoded frame goes
/// through `TraceEvent::to_json`, producing bytes identical to a live
/// `JsonlSink` over the same events.
fn convert(input: &str, out: &str) {
    if sniff(input) != Format::Segmented {
        die_load(
            input,
            None,
            None,
            "convert reads a segmented capture (pack writes one from JSONL)".into(),
        );
    }
    let mut r = open_capture(input);
    let file = File::create(out).unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
    let mut w = BufWriter::new(file);
    let mut events = 0u64;
    r.scan(&ScanFilter::all(), |ev, _, _| {
        writeln!(w, "{}", ev.to_json())
            .unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
        events += 1;
    })
    .unwrap_or_else(|e| die_load(input, None, None, e));
    w.flush()
        .unwrap_or_else(|e| die_load(out, None, None, e.to_string()));
    log_record(
        "trace_converted",
        vec![
            ("input", Json::from(input.to_string())),
            ("output", Json::from(out.to_string())),
            ("events", Json::from(events)),
        ],
    );
}

// Query printing is shared between the in-memory `Replay` path and the
// streaming capture path so the two are byte-identical by construction
// (and verified byte-for-byte by the CI parity step).

fn print_summary(path: &str, events: u64, counts: BTreeMap<String, u64>) {
    log_record(
        "trace_summary",
        vec![
            ("path", Json::from(path.to_string())),
            ("events", Json::from(events)),
        ],
    );
    for (ev, n) in counts {
        log_record(
            "trace_count",
            vec![("ev", Json::from(ev)), ("count", Json::from(n))],
        );
    }
}

fn summary(path: &str) {
    match sniff(path) {
        Format::Segmented => {
            let r = open_capture(path);
            print_summary(path, r.frames(), capture_counts(&r));
        }
        _ => {
            let r = load(path);
            print_summary(path, r.len() as u64, r.counts());
        }
    }
}

fn print_path(origin: u64, msg_id: u64, found: Option<MessagePath>) {
    let Some(p) = found else {
        log_error(
            "trace_error",
            vec![
                ("message", Json::from("message not found in trace")),
                ("origin", Json::from(origin)),
                ("msg_id", Json::from(msg_id)),
            ],
        );
        std::process::exit(1);
    };
    for hop in &p.hops {
        log_record(
            "path_hop",
            vec![
                ("t", Json::from(hop.t)),
                ("node", Json::from(hop.node)),
                ("next", hop.next.map(Json::from).unwrap_or(Json::Null)),
                ("hops", Json::from(hop.hops)),
            ],
        );
    }
    match p.delivered {
        Some((t, dst, hops, latency_us)) => log_record(
            "path_delivered",
            vec![
                ("t", Json::from(t)),
                ("node", Json::from(dst)),
                ("hops", Json::from(hops)),
                ("latency_us", Json::from(latency_us)),
            ],
        ),
        None => log_record(
            "path_undelivered",
            vec![
                ("origin", Json::from(origin)),
                ("msg_id", Json::from(msg_id)),
            ],
        ),
    }
}

fn path_query(path: &str, origin: u64, msg_id: u64) {
    let found = match sniff(path) {
        Format::Segmented => {
            let mut r = open_capture(path);
            capture_path_of(&mut r, origin, msg_id)
                .unwrap_or_else(|e| die_load(path, None, None, e))
        }
        _ => load(path).path_of(origin, msg_id),
    };
    print_path(origin, msg_id, found);
}

fn drop_query(path: &str, seq: u64) {
    let drops = match sniff(path) {
        Format::Segmented => {
            let mut r = open_capture(path);
            capture_drops_of_seq(&mut r, seq).unwrap_or_else(|e| die_load(path, None, None, e))
        }
        _ => load(path).drops_of_seq(seq),
    };
    log_record(
        "drop_summary",
        vec![("seq", Json::from(seq)), ("drops", Json::from(drops.len()))],
    );
    for (t, node, cause) in drops {
        log_record(
            "drop_event",
            vec![
                ("t", Json::from(t)),
                ("node", Json::from(node)),
                ("cause", Json::from(cause)),
            ],
        );
    }
}

fn energy_query(path: &str, node: u64) {
    let timeline = match sniff(path) {
        Format::Segmented => {
            let mut r = open_capture(path);
            capture_energy_of(&mut r, node).unwrap_or_else(|e| die_load(path, None, None, e))
        }
        _ => load(path).energy_of(node),
    };
    log_record(
        "energy_summary",
        vec![
            ("node", Json::from(node)),
            ("points", Json::from(timeline.len())),
        ],
    );
    for (t, j) in timeline {
        log_record(
            "energy_point",
            vec![
                ("t", Json::from(t)),
                ("node", Json::from(node)),
                ("consumed_j", Json::Num(j)),
            ],
        );
    }
}

/// Stream a recorded trace through the health monitor, event by event —
/// the offline twin of installing the monitor as the world's sink.
/// Accepts both formats; the detector bank sees the same event sequence
/// whichever sink recorded it, and neither format materialises the full
/// event list (segmented captures stream one segment at a time).
fn monitor_file(path: &str) -> HealthMonitor {
    let mut monitor = HealthMonitor::with_config(HealthConfig::default());
    match sniff(path) {
        Format::Segmented => {
            let mut r = open_capture(path);
            r.scan(&ScanFilter::all(), |ev, _, _| monitor.observe(ev))
                .unwrap_or_else(|e| die_load(path, None, None, e));
        }
        Format::Jsonl => for_each_jsonl_event(path, |ev| monitor.observe(&ev)),
    }
    monitor.finalize();
    monitor
}

fn health(path: &str) {
    let m = monitor_file(path);
    let net = m.net();
    log_record(
        "health_summary",
        vec![
            ("path", Json::from(path.to_string())),
            ("events", Json::from(net.events)),
            ("tx", Json::from(net.tx_total)),
            ("rx", Json::from(net.rx_total)),
            ("drops", Json::from(net.drops_total())),
            ("forwards", Json::from(net.forwards)),
            ("dup_forwards", Json::from(net.dup_forwards)),
            ("delivers", Json::from(net.delivers)),
            ("dup_delivers", Json::from(net.dup_delivers)),
            ("route_installs", Json::from(net.route_installs)),
            ("alerts", Json::from(m.alerts().len())),
        ],
    );
    for (&id, g) in m.gateways() {
        log_record(
            "health_gateway",
            vec![
                ("gateway", Json::from(id)),
                ("delivers", Json::from(g.delivers)),
                ("moves", Json::from(g.moves)),
                ("routes_installed", Json::from(g.routes_installed)),
                ("deliver_rate", Json::Num(g.deliver_rate.get())),
                ("silence_latched", Json::from(g.silence_latched)),
            ],
        );
    }
    for a in m.alerts() {
        println!("{}", a.to_json());
    }
}

fn alerts(path: &str) {
    let m = monitor_file(path);
    print!("{}", m.alerts_jsonl());
}

/// Replay statistics go to stderr: stdout of `health --window` /
/// `explain` is `cmp`-gated against the `--full-scan` baseline, whose
/// statistics necessarily differ.
fn log_replay_stats(path: &str, stats: &WindowReplayStats) {
    log_error(
        "windowed_replay",
        vec![
            ("path", Json::from(path.to_string())),
            (
                "checkpoint_seg",
                stats.checkpoint_seg.map_or(Json::Null, Json::from),
            ),
            ("segments_read", Json::from(stats.segments_read)),
            ("segments_total", Json::from(stats.segments_total)),
            ("frames_decoded", Json::from(stats.frames_decoded)),
        ],
    );
}

/// `health --window lo..hi`: windowed detector replay over a segmented
/// capture. Prints exactly the alerts stamped inside the window —
/// byte-identical whether the replay resumed from a checkpoint or
/// (`--full-scan`) from genesis.
fn health_window(path: &str, lo: u64, hi: u64, full_scan: bool) {
    if sniff(path) != Format::Segmented {
        die_load(
            path,
            None,
            None,
            "health --window needs a segmented capture (the segment \
             directory drives checkpoint seek and segment skipping)"
                .to_string(),
        );
    }
    let mut r = open_capture(path);
    let (monitor, stats) = replay_window(&mut r, lo, hi, HealthConfig::default(), full_scan)
        .unwrap_or_else(|e| die_load(path, None, None, e));
    for a in alerts_in_window(&monitor, lo, hi) {
        println!("{}", a.to_json());
    }
    log_replay_stats(path, &stats);
}

/// `explain <capture> <alert#|json-line>`: provenance report for one
/// alert, via windowed replay of the aggregation windows leading up to
/// its stamp. An integer argument indexes the capture's embedded alert
/// stream; anything else must be the alert's JSON line.
fn explain(path: &str, which: &str, span: u64, full_scan: bool) {
    if sniff(path) != Format::Segmented {
        die_load(
            path,
            None,
            None,
            "explain needs a segmented capture (the segment directory \
             drives checkpoint seek and segment skipping)"
                .to_string(),
        );
    }
    let mut r = open_capture(path);
    let alert = if let Ok(idx) = which.parse::<usize>() {
        let Some(line) = r.alerts_jsonl().lines().nth(idx) else {
            die_load(
                path,
                None,
                None,
                format!(
                    "alert index {idx} out of range: the capture embeds {} alerts \
                     (record it through a checkpointing sink, or pass the alert's \
                     JSON line instead)",
                    r.alerts_jsonl().lines().count()
                ),
            );
        };
        HealthAlert::from_json_line(line).unwrap_or_else(|e| die_load(path, None, None, e))
    } else {
        HealthAlert::from_json_line(which).unwrap_or_else(|e| die_load(path, None, None, e))
    };
    let (forensics, stats) = explain_alert(&mut r, alert, span, HealthConfig::default(), full_scan)
        .unwrap_or_else(|e| die_load(path, None, None, e));
    print!("{}", forensics.report());
    log_replay_stats(path, &stats);
}

/// `compact <in> <out>`: rewrite a capture under the retention policy,
/// keeping frames only for recent and alert-adjacent segments.
fn compact(input: &str, out: &str, policy: CompactionPolicy) {
    let stats = compact_capture(
        std::path::Path::new(input),
        std::path::Path::new(out),
        HealthConfig::default(),
        policy,
    )
    .unwrap_or_else(|e| die_load(input, None, None, e));
    log_record(
        "compact",
        vec![
            ("input", Json::from(input.to_string())),
            ("out", Json::from(out.to_string())),
            ("segments_total", Json::from(stats.segments_total)),
            ("segments_retained", Json::from(stats.segments_retained)),
            ("segments_compacted", Json::from(stats.segments_compacted)),
            ("frames_retained", Json::from(stats.frames_retained)),
            ("frames_compacted", Json::from(stats.frames_compacted)),
            ("checkpoints", Json::from(stats.checkpoints)),
            ("alerts", Json::from(stats.alerts)),
        ],
    );
}

/// `record-e18 <out> [seed]`: the checkpointed gateway-death capture
/// the forensics CI steps replay (a healthy MLR round, the kill, a
/// failure round, recorded through `ForensicCaptureSink` with a
/// checkpoint at every 256-frame segment).
fn record_e18(out: &str, seed: u64) {
    let (stats, alerts) =
        wmsn_core::experiments::e18_forensics_capture(std::path::Path::new(out), seed);
    log_record(
        "record_e18",
        vec![
            ("out", Json::from(out.to_string())),
            ("seed", Json::from(seed)),
            ("frames", Json::from(stats.frames)),
            ("segments", Json::from(stats.segments)),
            ("bytes", Json::from(stats.bytes)),
            ("alerts", Json::from(alerts)),
        ],
    );
}

fn top(path: &str, k: usize) {
    let m = monitor_file(path);
    let mut order: Vec<(u64, usize)> = m
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.tx_total(), i))
        .filter(|&(tx, _)| tx > 0)
        .collect();
    // Busiest first; stable on ties by node id.
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in order.iter().take(k) {
        let s = &m.nodes()[i];
        log_record(
            "top_node",
            vec![
                ("node", Json::from(i as u64)),
                ("tx", Json::from(s.tx_total())),
                ("tx_control", Json::from(s.tx_control)),
                ("tx_data", Json::from(s.tx_data)),
                ("rx", Json::from(s.rx)),
                ("drops", Json::from(s.drops_total())),
                ("forwards", Json::from(s.forwards)),
                ("dup_forwards", Json::from(s.dup_forwards)),
                ("delivers", Json::from(s.delivers)),
                ("spontaneous_ctrl", Json::from(s.spontaneous_ctrl)),
            ],
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            let mut rest: Vec<&String> = args[1..].iter().collect();
            let mut format = Format::Jsonl;
            if rest.iter().any(|s| s.as_str() == "--seg") {
                format = Format::Segmented;
            }
            rest.retain(|s| s.as_str() != "--seg");
            let Some(out) = rest.first() else { usage() };
            let seed = rest.get(1).map_or(11, |s| parse_u64(s, "seed"));
            let rounds = rest.get(2).map_or(1, |s| parse_u64(s, "rounds")) as u32;
            record(out, seed, rounds, format);
        }
        Some("summary") => {
            let Some(path) = args.get(1) else { usage() };
            summary(path);
        }
        Some("path") => {
            let (Some(path), Some(o), Some(m)) = (args.get(1), args.get(2), args.get(3)) else {
                usage()
            };
            path_query(path, parse_u64(o, "origin"), parse_u64(m, "msg_id"));
        }
        Some("drop") => {
            let (Some(path), Some(s)) = (args.get(1), args.get(2)) else {
                usage()
            };
            drop_query(path, parse_u64(s, "seq"));
        }
        Some("energy") => {
            let (Some(path), Some(n)) = (args.get(1), args.get(2)) else {
                usage()
            };
            energy_query(path, parse_u64(n, "node"));
        }
        Some("health") => {
            let Some(path) = args.get(1) else { usage() };
            let full_scan = args.iter().any(|s| s == "--full-scan");
            if let Some(i) = args.iter().position(|s| s == "--window") {
                let Some(range) = args.get(i + 1) else {
                    usage()
                };
                let Some((lo, hi)) = range.split_once("..") else {
                    usage()
                };
                health_window(
                    path,
                    parse_u64(lo, "window start (us)"),
                    parse_u64(hi, "window end (us)"),
                    full_scan,
                );
            } else {
                health(path);
            }
        }
        Some("explain") => {
            let (Some(path), Some(which)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let full_scan = args.iter().any(|s| s == "--full-scan");
            let span =
                args.iter()
                    .position(|s| s == "--span")
                    .map_or(4, |i| match args.get(i + 1) {
                        Some(w) => parse_u64(w, "span (windows)"),
                        None => usage(),
                    });
            explain(path, which, span, full_scan);
        }
        Some("compact") => {
            let (Some(input), Some(out)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let mut policy = CompactionPolicy::default();
            if let Some(i) = args.iter().position(|s| s == "--keep-last") {
                match args.get(i + 1) {
                    Some(n) => policy.keep_last = parse_u64(n, "keep-last (segments)") as usize,
                    None => usage(),
                }
            }
            if let Some(i) = args.iter().position(|s| s == "--keep-alert-windows") {
                match args.get(i + 1) {
                    Some(w) => {
                        policy.alert_span_windows = parse_u64(w, "keep-alert-windows (windows)")
                    }
                    None => usage(),
                }
            }
            compact(input, out, policy);
        }
        Some("record-e18") => {
            let Some(out) = args.get(1) else { usage() };
            let seed = args.get(2).map_or(1, |s| parse_u64(s, "seed"));
            record_e18(out, seed);
        }
        Some("alerts") => {
            let Some(path) = args.get(1) else { usage() };
            alerts(path);
        }
        Some("top") => {
            let Some(path) = args.get(1) else { usage() };
            let k = args.get(2).map_or(10, |s| parse_u64(s, "k")) as usize;
            top(path, k);
        }
        Some("index") => {
            let Some(path) = args.get(1) else { usage() };
            index(path);
        }
        Some("pack") => {
            let (Some(input), Some(out)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let seg = args
                .get(3)
                .map_or(DEFAULT_SEGMENT_FRAMES, |s| {
                    parse_u64(s, "segment_frames") as usize
                })
                .max(1);
            pack(input, out, seg);
        }
        Some("convert") => {
            let (Some(input), Some(out)) = (args.get(1), args.get(2)) else {
                usage()
            };
            convert(input, out);
        }
        _ => usage(),
    }
}
