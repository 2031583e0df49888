//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spr_flood|secmlr_capture|forensic_query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the repository root, checks its outputs, and
//! prints one line per metric (value, unit, sample count) followed by a
//! JSON summary as the last line. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` records spans around the calls into
//! each layer, reports the per-layer metrics and writes the spans to
//! `.perfbench_out/`. Exit codes: 0 when every check passed, 1 when an
//! output check failed (the summary says `"correct": false`), 2 when
//! the run could not be made.

mod forensic_query;
mod host;
mod metrics;
mod secmlr_capture;
mod spans;
mod spr_flood;
mod stats;

use metrics::{Outcome, E2E, LAYER};
use spans::Tracer;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <spr_flood|secmlr_capture|forensic_query> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(17),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Threads busy in each workload's timed phase: the shard worker for
/// `spr_flood`, the sim and drain threads for the capture workloads.
fn threads(workload: &str) -> usize {
    match workload {
        "spr_flood" => spr_flood::Config::FULL.threads,
        _ => 2,
    }
}

fn run(a: &Args, tr: Option<&Tracer>) -> Result<Outcome, String> {
    let scratch = |cfg: &secmlr_capture::Config| {
        let budget = secmlr_capture::capture_budget_mb(cfg);
        if let Some(limit) = host::file_size_limit_mb().filter(|&l| l < budget) {
            eprintln!(
                "perfbench: warning: the file-size limit is {limit} MB, and the capture \
                 may reach {budget} MB; a larger capture is killed with SIGXFSZ"
            );
        }
        host::ScratchDir::create(&a.workload, 2 * budget)
    };
    match (a.workload.as_str(), tr) {
        ("spr_flood", None) => Ok(spr_flood::run(&spr_flood::Config::FULL, a.seed, a.seconds)),
        ("spr_flood", Some(t)) => Ok(spr_flood::run_traced(&spr_flood::Config::FULL, a.seed, t)),
        ("secmlr_capture", tr) => {
            let cfg = secmlr_capture::Config::FULL;
            let dir = scratch(&cfg)?;
            match tr {
                None => secmlr_capture::run(&cfg, a.seed, a.seconds, dir.path()),
                Some(t) => secmlr_capture::run_traced(&cfg, a.seed, a.seconds, dir.path(), t),
            }
        }
        ("forensic_query", tr) => {
            let cfg = forensic_query::Config::FULL;
            let dir = scratch(&cfg.capture)?;
            match tr {
                None => forensic_query::run(&cfg, a.seed, a.seconds, dir.path()),
                Some(t) => forensic_query::run_traced(&cfg, a.seed, a.seconds, dir.path(), t),
            }
        }
        (w, _) => Err(format!("unknown workload {w}")),
    }
}

/// The last stdout line: `correct`, `attempted`, `failed` and the
/// catalogue metrics of this run's kind.
fn summary(o: &Outcome, traced: bool) -> String {
    let list = if traced { LAYER } else { E2E };
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let v = o.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_id = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    let tracer = a.trace.then(|| Tracer::new(run_id.clone()));
    let outcome = match run(&a, tracer.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "run workload={} seed={} seconds={} trace={} threads={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        threads(&a.workload)
    );
    for (k, v) in host::facts() {
        println!("host {k}={v}");
    }
    for m in &outcome.metrics {
        println!(
            "metric {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "metric failed_ratio = {} ratio (failed {} of {} attempted)",
        metrics::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.mismatches {
        println!("check failed: {m}");
    }
    if let Some(t) = &tracer {
        let dir = std::path::Path::new(".perfbench_out");
        let file = dir.join(format!("spans-{run_id}.jsonl"));
        match std::fs::create_dir_all(dir).and_then(|()| t.write_jsonl(&file)) {
            Ok(()) => println!("spans {} written to {}", t.spans().len(), file.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", file.display()),
        }
    }
    println!("{}", summary(&outcome, a.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
