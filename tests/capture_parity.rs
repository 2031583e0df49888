//! Segmented-capture parity suite: the disk-backed capture path is
//! observationally identical to the in-memory one.
//!
//! The segmented capture format (PR 9) streams the ring pipeline's
//! 64-byte frames to disk in indexed segments so queries run in
//! O(one segment) memory. Its correctness claim, like the ring's, is
//! *byte/structural* equality, not statistical similarity:
//!
//! * every streaming query (`capture_counts`, `capture_path_of`,
//!   `capture_drops_of_seq`, `capture_energy_of`) over a recorded E1
//!   capture must equal the in-memory `Replay` answer over the same
//!   events — including the not-found cases;
//! * the health monitor fed from a segment-at-a-time scan must produce
//!   an alert stream byte-identical to the inline monitor's;
//! * the sharded kernel's per-shard capture files, k-way merged by
//!   `merge_in_execution_order` over `CaptureCursor`s, must render to
//!   the reference JSONL bytes — the same bar, through the same merge,
//!   the in-memory per-shard ring frames clear.

use std::path::PathBuf;
use wmsn::core::builder::{build_spr, SprScenario};
use wmsn::core::drivers::SprDriver;
use wmsn::core::experiments::{e9_large_round, e9_large_scenario};
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::health::{HealthConfig, HealthMonitor};
use wmsn::sim::ShardedWorld;
use wmsn::topology::strip_shards;
use wmsn::trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of,
    merge_in_execution_order, BackpressurePolicy, BufferSink, CaptureConfig, CaptureCursor,
    CaptureReader, CaptureSink, FrameBufferSink, Replay, RingConfig, ScanFilter, TraceEvent,
};

fn test_threads() -> usize {
    std::env::var("SHARD_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// E1-style field (40 sensors, 3 gateways), death-free batteries so
/// the sharded arm can participate.
fn e1_field(seed: u64) -> (FieldParams, GatewayParams) {
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(40, seed)
    };
    (field, GatewayParams::default_three())
}

/// Run `rounds` E1 rounds with `sink` installed and hand the sink back.
fn traced_e1(
    seed: u64,
    rounds: u32,
    sink: Box<dyn wmsn::trace::TraceSink>,
) -> Box<dyn wmsn::trace::TraceSink> {
    let (field, gw) = e1_field(seed);
    let mut d = SprDriver::new(build_spr(&field, &gw, TrafficParams::default()));
    d.scenario.world.set_trace_sink(sink);
    for _ in 0..rounds {
        d.run_round();
    }
    d.scenario.world.take_trace_sink().expect("sink installed")
}

/// A scratch directory unique to this test invocation.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wmsn-capture-parity-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The reference `(at, key, event)` stream of a 2-round E1 run.
fn reference_frames(seed: u64) -> Vec<(u64, u64, TraceEvent)> {
    let sink = traced_e1(seed, 2, Box::new(FrameBufferSink::new()));
    sink.as_any()
        .downcast_ref::<FrameBufferSink>()
        .expect("FrameBufferSink")
        .entries
        .clone()
}

#[test]
fn streaming_queries_match_replay_on_a_recorded_e1_capture() {
    let dir = scratch("queries");
    let path = dir.join("e1.wcap");
    // Tiny segments so a 2-round E1 trace (~7k events) spans hundreds
    // of segments — the worst case for index pruning bugs.
    let sink = CaptureSink::create(&path, CaptureConfig { segment_frames: 32 }).expect("create");
    drop(traced_e1(11, 2, Box::new(sink))); // Drop finalizes the footer.

    let reference = reference_frames(11);
    let events: Vec<TraceEvent> = reference.iter().map(|f| f.2).collect();
    let replay = Replay::from_events(&events);

    let mut r = CaptureReader::open(&path).expect("open capture");
    assert_eq!(r.frames() as usize, events.len());
    assert_eq!(r.frames_dropped(), 0);
    assert!(
        r.segments().len() > 100,
        "want many segments, got {}",
        r.segments().len()
    );
    assert_eq!(capture_counts(&r), replay.counts());

    // A full scan reproduces the reference frames, causal stamps
    // included (the inline CaptureSink sees the same record_keyed
    // stream the FrameBufferSink does).
    let mut scanned = Vec::new();
    r.scan(&ScanFilter::all(), |ev, at, key| {
        scanned.push((at, key, *ev))
    })
    .expect("scan");
    assert_eq!(scanned, reference);

    // Query args harvested from the trace itself, plus not-found and
    // out-of-range cases.
    let mut path_args = vec![(1, 999), (u64::MAX, 0)];
    let mut drop_args = vec![u64::MAX];
    let mut energy_args = vec![0, 7, 999, u64::MAX];
    for ev in &events {
        if let TraceEvent::Deliver { origin, msg_id, .. } = ev {
            path_args.push((origin.0 as u64, *msg_id));
        }
        if let TraceEvent::Drop { seq, .. } = ev {
            drop_args.push(*seq);
        }
    }
    path_args.truncate(12);
    drop_args.truncate(8);
    energy_args.truncate(8);
    for (origin, msg_id) in path_args {
        assert_eq!(
            capture_path_of(&mut r, origin, msg_id).expect("scan"),
            replay.path_of(origin, msg_id),
            "path {origin}/{msg_id}"
        );
    }
    for seq in drop_args {
        assert_eq!(
            capture_drops_of_seq(&mut r, seq).expect("scan"),
            replay.drops_of_seq(seq),
            "drops {seq}"
        );
    }
    for node in energy_args {
        assert_eq!(
            capture_energy_of(&mut r, node).expect("scan"),
            replay.energy_of(node),
            "energy {node}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn monitor_fed_from_a_capture_scan_matches_the_inline_monitor() {
    let dir = scratch("health");
    let path = dir.join("e1.wcap");
    let sink = CaptureSink::create(&path, CaptureConfig { segment_frames: 64 }).expect("create");
    drop(traced_e1(23, 2, Box::new(sink)));

    let mut inline = HealthMonitor::with_config(HealthConfig::default());
    for (_, _, ev) in &reference_frames(23) {
        inline.observe(ev);
    }
    inline.finalize();

    let mut streamed = HealthMonitor::with_config(HealthConfig::default());
    let mut r = CaptureReader::open(&path).expect("open capture");
    r.scan(&ScanFilter::all(), |ev, _, _| streamed.observe(ev))
        .expect("scan");
    streamed.finalize();

    assert_eq!(streamed.alerts_jsonl(), inline.alerts_jsonl());
    assert_eq!(streamed.net().events, inline.net().events);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_capture_files_merge_to_the_reference_trace_bytes() {
    let (field, gw) = e1_field(11);
    let inline = traced_e1(11, 1, Box::new(BufferSink::new()));
    let want = &inline
        .as_any()
        .downcast_ref::<BufferSink>()
        .expect("BufferSink")
        .out;
    assert!(!want.is_empty());

    let dir = scratch("sharded");
    let scen = build_spr(&field, &gw, TrafficParams::default());
    let mut positions = scen.sensor_positions.clone();
    positions.extend_from_slice(&scen.gateway_positions);
    let assignment = strip_shards(&positions, scen.range_m, 4);
    let sharded: SprScenario<ShardedWorld> =
        scen.map_world(|w| ShardedWorld::from_world(w, assignment, test_threads()));
    let mut d = SprDriver::new(sharded);
    let paths = d
        .scenario
        .world
        .install_capture_sinks(
            RingConfig {
                chunk_frames: 7,
                capacity_chunks: 3,
                policy: BackpressurePolicy::Block,
            },
            CaptureConfig { segment_frames: 32 },
            &dir,
        )
        .expect("create shard captures");
    assert_eq!(paths.len(), 4);
    d.run_round();
    let (stats, cap) = d
        .scenario
        .world
        .finish_capture_sinks()
        .expect("capture sinks installed");
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(cap.frames, stats.frames_written);
    assert_eq!(cap.frames_dropped, 0);
    assert!(cap.segments > 0 && cap.bytes > 0);

    let mut cursors: Vec<_> = paths
        .iter()
        .map(|p| CaptureCursor::open(p).expect("open shard capture"))
        .collect();
    let mut got = String::new();
    let merged = merge_in_execution_order(&mut cursors, |(_, _, ev)| {
        got.push_str(&ev.to_json().to_string());
        got.push('\n');
    })
    .expect("merge shard captures");
    assert_eq!(merged, cap.frames);
    assert_eq!(
        &got, want,
        "k-way merged shard captures must render to the reference JSONL"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An E9 n=3000 three-tier sharded scenario (seed 17, 4 shards).
fn sharded_e9() -> (
    SprScenario<ShardedWorld>,
    wmsn::util::NodeId,
    usize, // source count
) {
    let (scen, base) = e9_large_scenario(3000, 17);
    let mut positions = scen.sensor_positions.clone();
    positions.extend_from_slice(&scen.gateway_positions);
    positions.push(scen.world.node(base).pos);
    let assignment = strip_shards(&positions, scen.range_m, 4);
    let sharded = scen.map_world(|w| ShardedWorld::from_world(w, assignment, test_threads()));
    (sharded, base, 3)
}

#[test]
fn capture_merge_heals_same_at_key_inversions_at_scale() {
    // A zero-delay event keyed below the event that scheduled it (an
    // SPR re-flood whose jitter draw is 0) runs right after it, so at
    // E9 scale the per-shard streams carry (at, key) inversions inside
    // equal-`at` runs. The in-memory merge keeps each stream's execution
    // order; the capture cursors must produce the *same* total order
    // from disk. (The E1 tests above never trip this — their shard
    // streams happen to arrive fully sorted — so this scenario is the
    // regression pin.)
    let (mut scen, base, sources) = sharded_e9();
    scen.world.install_ring_sinks(RingConfig::default());
    e9_large_round(&mut scen, base, sources);
    let (frames, _) = scen
        .world
        .finish_ring_frames()
        .expect("ring sinks installed");
    let inverted = frames
        .iter()
        .any(|s| s.windows(2).any(|w| (w[1].0, w[1].1) < (w[0].0, w[0].1)));
    assert!(
        inverted,
        "scenario must exercise the key-inversion healing path"
    );
    let mut streams: Vec<_> = frames.into_iter().map(Vec::into_iter).collect();
    let mut want = Vec::new();
    merge_in_execution_order(&mut streams, |(_, _, ev)| want.push(ev)).expect("in-memory merge");

    let dir = scratch("inversions");
    let (mut scen, base, sources) = sharded_e9();
    let paths = scen
        .world
        .install_capture_sinks(RingConfig::default(), CaptureConfig::default(), &dir)
        .expect("create shard captures");
    e9_large_round(&mut scen, base, sources);
    let (stats, cap) = scen
        .world
        .finish_capture_sinks()
        .expect("capture sinks installed");
    assert_eq!(cap.frames, stats.frames_written);

    let mut cursors: Vec<_> = paths
        .iter()
        .map(|p| CaptureCursor::open(p).expect("open shard capture"))
        .collect();
    let mut got = Vec::with_capacity(want.len());
    let merged = merge_in_execution_order(&mut cursors, |(_, _, ev)| got.push(ev)).expect("merge");
    assert_eq!(merged, cap.frames);
    assert_eq!(got.len(), want.len());
    assert!(
        got == want,
        "disk merge must equal the in-memory merged event order"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Property: the segment node-bloom never produces a false negative —
/// a node-filtered scan over randomized events returns *exactly* the
/// frames an exhaustive check finds, for ids both present and absent.
/// Sparse random ids force bloom-bit collisions, so false positives do
/// occur (and are filtered per frame); a skipped segment that held a
/// match would show up as a missing frame here.
#[test]
fn node_index_pruning_never_skips_a_matching_segment() {
    use std::io::Cursor;
    use wmsn::trace::{CaptureWriter, TraceKind, TraceTier};
    use wmsn::util::{NodeId, SplitMix64};

    // Mirror of the capture layer's node-mention rule for the variants
    // generated below.
    fn mentions(ev: &TraceEvent, id: NodeId) -> bool {
        match *ev {
            TraceEvent::TxStart { src, dst, .. } => src == id || dst == Some(id),
            TraceEvent::Rx { node, .. } => node == id,
            TraceEvent::Forward {
                node, origin, next, ..
            } => node == id || origin == id || next == Some(id),
            TraceEvent::Deliver { node, origin, .. } => node == id || origin == id,
            TraceEvent::Energy { node, .. } => node == id,
            _ => unreachable!("not generated"),
        }
    }

    for seed in [1u64, 7, 42] {
        let mut rng = SplitMix64::new(seed);
        // Sparse ids stress the two-bit bloom with cross-id collisions.
        let mut id = {
            let mut r = SplitMix64::new(seed ^ 0xABCD);
            move || NodeId((r.next_u64_raw() % 50_000) as u32)
        };
        let mut events: Vec<TraceEvent> = Vec::new();
        for i in 0..4000u64 {
            let t = i * 13;
            let ev = match rng.next_u64_raw() % 5 {
                0 => TraceEvent::TxStart {
                    t,
                    seq: i,
                    src: id(),
                    dst: rng.next_u64_raw().is_multiple_of(2).then(&mut id),
                    tier: TraceTier::Sensor,
                    kind: TraceKind::Data,
                    bytes: 32,
                },
                1 => TraceEvent::Rx {
                    t,
                    seq: i,
                    node: id(),
                },
                2 => TraceEvent::Forward {
                    t,
                    node: id(),
                    origin: id(),
                    msg_id: i,
                    next: rng.next_u64_raw().is_multiple_of(2).then(&mut id),
                    hops: 2,
                },
                3 => TraceEvent::Deliver {
                    t,
                    node: id(),
                    origin: id(),
                    msg_id: i,
                    hops: 3,
                    latency_us: 50,
                },
                _ => TraceEvent::Energy {
                    t,
                    node: id(),
                    consumed_j: 0.25,
                },
            };
            events.push(ev);
        }

        let mut w = CaptureWriter::new(
            Cursor::new(Vec::new()),
            CaptureConfig { segment_frames: 64 },
        )
        .expect("header");
        for ev in &events {
            w.push(ev, ev.t(), 0).expect("push");
        }
        let (cur, stats) = w.finish().expect("finish");
        assert_eq!(stats.frames, events.len() as u64);
        let mut r = CaptureReader::new(Cursor::new(cur.into_inner())).expect("open");

        // Probes: ids that occur (drawn from the stream) and fresh
        // random ids that almost surely do not.
        let mut probes: Vec<NodeId> = events
            .iter()
            .step_by(97)
            .map(|ev| {
                let mut first = None;
                if let TraceEvent::Rx { node, .. }
                | TraceEvent::Forward { node, .. }
                | TraceEvent::Deliver { node, .. }
                | TraceEvent::Energy { node, .. } = *ev
                {
                    first = Some(node);
                }
                if let TraceEvent::TxStart { src, .. } = *ev {
                    first = Some(src);
                }
                first.expect("every generated variant names a node")
            })
            .collect();
        let mut absent = SplitMix64::new(seed ^ 0x5EED);
        probes.extend((0..20).map(|_| NodeId(60_000 + (absent.next_u64_raw() % 50_000) as u32)));

        let mut skipped_any = false;
        for probe in probes {
            let expected: Vec<TraceEvent> = events
                .iter()
                .filter(|ev| mentions(ev, probe))
                .copied()
                .collect();
            // No re-filtering in the callback: the scan must hand back
            // exactly the matching frames (bloom false positives are
            // resolved by the per-frame check inside the scan layer).
            let mut got = Vec::new();
            let stats = r
                .scan(&ScanFilter::all().with_node(probe), |ev, _, _| {
                    got.push(*ev);
                })
                .expect("scan");
            skipped_any |= stats.segments_skipped > 0;
            assert_eq!(
                got, expected,
                "seed {seed}, node {probe:?}: index pruning lost frames"
            );
        }
        assert!(
            skipped_any,
            "seed {seed}: the index never pruned — the property was not exercised"
        );
    }
}
