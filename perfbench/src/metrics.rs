//! The metric catalogue and a run's outcome.
//!
//! `E2E` and `LAYER` mirror `end_to_end` and `per_layer` in the
//! repository's `BENCHMARK.json` (a test keeps them in step). Every
//! untraced run reports every `E2E` metric; every traced run reports
//! every `LAYER` metric, with 0 for a layer the workload does not
//! exercise.

/// End-to-end metrics: name and unit.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit.
pub const LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("sharded.split_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.peak_queue_depth", "count"),
    ("sim.tx_frames", "count"),
    ("sim.rx_frames", "count"),
    ("sim.fanout", "ratio"),
    ("sharded.tx_imbalance", "ratio"),
    ("sharded.speedup", "ratio"),
    ("sharded.slice_s", "s"),
    ("routing.control_frames", "count"),
    ("routing.data_frames", "count"),
    ("routing.control_per_delivery", "ratio"),
    ("secure.security_frames", "count"),
    ("secure.security_bytes", "bytes"),
    ("crypto.cmac_ns", "ns"),
    ("crypto.ctr_ns_per_byte", "ns"),
    ("trace.frames", "count"),
    ("trace.frames_dropped", "count"),
    ("trace.hook_ns_per_frame", "ns"),
    ("ring.blocked_s", "s"),
    ("ring.peak_fill", "ratio"),
    ("drain.busy_s", "s"),
    ("capture.encode_ns_per_frame", "ns"),
    ("health.observe_ns_per_frame", "ns"),
    ("health.snapshot_ms", "ms"),
    ("capture.segments", "count"),
    ("capture.checkpoint_bytes", "bytes"),
    ("capture.open_ms", "ms"),
    ("capture.decode_ns_per_frame", "ns"),
    ("health.restore_ms", "ms"),
    ("health.alerts", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name (or a report-only name).
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric measured, catalogue and report-only.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, including failed output checks.
    pub failed: u64,
    /// One line per failed output check.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Record `name` = `value`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record a catalogue metric, taking its unit from the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = E2E
            .iter()
            .chain(LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        self.put(name, value, unit, samples);
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Compare an output against its expected value; a mismatch counts
    /// as one failed operation.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.failed += 1;
            self.mismatches
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

/// `n / d`, or 0 when `d` is 0 (a layer the workload does not
/// exercise).
pub fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the catalogue, in order, with the
    /// same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').unwrap()].to_string();
                    let u = entry.find("\"unit\": \"").expect("unit") + 9;
                    let unit = entry[u..u + entry[u..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(E2E));
        assert_eq!(section("per_layer"), own(LAYER));
    }

    #[test]
    fn a_mismatch_counts_as_a_failed_operation() {
        let mut o = Outcome::default();
        o.check("same", 1, 1);
        assert!(o.correct());
        o.check("differs", 1, 2);
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
        assert_eq!(o.mismatches.len(), 1);
    }
}
