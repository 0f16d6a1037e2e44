//! The repository benchmark: four seeded workloads over the ReSiPE
//! simulator, each measured end to end with tracing off, and layer by
//! layer in a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer_lenet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Standard output carries a report line (every metric the run
//! measured, by name and unit) followed, as the last line, by
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The process exits non-zero when a correctness check fails. See
//! `perfbench/README.md` for every workload and metric.

mod circuit;
mod common;
mod infer;
mod inputs;
mod layers;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{peak_rss_mib, Sheet, Tracer};
use layers::{LAYER_FIELDS, LAYER_INDICES};

/// How many times each run sets its workload up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;

/// Metrics every workload reports with `--trace 0`, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics every workload reports with `--trace 1`, with their
/// units (the `layer<i>.*` family, in seconds, is appended from
/// [`LAYER_INDICES`]).
const PER_LAYER: &[(&str, &str)] = &[
    ("nn.train_s", "s"),
    ("nn.datagen_s", "s"),
    ("compile.busy_s", "s"),
    ("compile.calls", "count"),
    ("compile.program_s", "s"),
    ("compile.repair_s", "s"),
    ("inference.run_p50_ms", "ms"),
    ("inference.calls", "count"),
    ("inference.samples", "count"),
    ("inference.plan_swaps", "count"),
    ("inference.epoch", "count"),
    ("layer.digital_s", "s"),
    ("kernel.mvms", "count"),
    ("kernel.zero_activation_skips", "count"),
    ("kernel.skip_ratio", "wordlines/mvm"),
    ("kernel.blocks", "count"),
    ("kernel.mean_block_samples", "samples"),
    ("kernel.bytes_streamed", "bytes"),
    ("kernel.bytes_per_sample", "bytes"),
    ("sim.mvms_per_sample", "count"),
    ("sim.energy_j_per_sample", "J"),
    ("loadgen.send_us", "us"),
    ("loadgen.achieved_rps", "req/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "samples"),
    ("serve.largest_batch", "samples"),
    ("serve.queue_depth_max", "requests"),
    ("serve.rejected_busy", "count"),
    ("serve.expired", "count"),
    ("serve.engine_errors", "count"),
    ("serve.conns_evicted_slow", "count"),
    ("serve.admit_to_done_p50_ms", "ms"),
    ("serve.admit_to_done_p99_ms", "ms"),
    ("serve.kernel_busy_s", "s"),
    ("serve.outside_server_ms", "ms"),
    ("aging.age_ms", "ms"),
    ("aging.steps", "count"),
    ("scrub.passes", "count"),
    ("scrub.tiles", "count"),
    ("scrub.repairs", "count"),
    ("scrub.repairs_per_pass", "repairs/pass"),
    ("analog.small.dense_runs", "count"),
    ("analog.small.sparse_runs", "count"),
    ("analog.small.unknowns", "count"),
    ("analog.small.nonzeros", "count"),
    ("analog.small.assemblies", "count"),
    ("analog.small.symbolic_analyses", "count"),
    ("analog.small.numeric_refactors", "count"),
    ("analog.small.solves", "count"),
    ("analog.small.factor_reuse", "reused/solves"),
    ("analog.tile.dense_runs", "count"),
    ("analog.tile.sparse_runs", "count"),
    ("analog.tile.unknowns", "count"),
    ("analog.tile.nonzeros", "count"),
    ("analog.tile.assemblies", "count"),
    ("analog.tile.symbolic_analyses", "count"),
    ("analog.tile.numeric_refactors", "count"),
    ("analog.tile.solves", "count"),
    ("analog.tile.factor_reuse", "reused/solves"),
    ("analog.wire.dense_runs", "count"),
    ("analog.wire.sparse_runs", "count"),
    ("analog.wire.unknowns", "count"),
    ("analog.wire.nonzeros", "count"),
    ("analog.wire.assemblies", "count"),
    ("analog.wire.symbolic_analyses", "count"),
    ("analog.wire.numeric_refactors", "count"),
    ("analog.wire.solves", "count"),
    ("analog.wire.factor_reuse", "reused/solves"),
    ("analog.engine_ref_ms", "ms"),
];

const WORKLOADS: [&str; 4] = ["infer_lenet", "serve_open", "serve_aging", "circuit_tile"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (the base of `failed`; see the README per
    /// workload).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Everything measured, by name.
    pub sheet: Sheet,
    /// Metric-name prefixes of layers this workload never reaches; their
    /// per-layer metrics read 0.
    pub idle: &'static [&'static str],
}

fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    for li in LAYER_INDICES {
        for field in LAYER_FIELDS {
            metrics.push((format!("layer{li}.{field}"), "s"));
        }
    }
    metrics
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace, origin);
    let result = match args.workload.as_str() {
        "infer_lenet" => infer::run(&args, &tracer),
        "serve_open" => serve::run(&args, &tracer, false),
        "serve_aging" => serve::run(&args, &tracer, true),
        "circuit_tile" => circuit::run(&args, &tracer),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut outcome = match result {
        Ok(o) if o.attempted > 0 => o,
        Ok(_) => {
            eprintln!("perfbench: {}: no operation completed", args.workload);
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    outcome.sheet.set("peak_rss_exit_mb", peak_rss_mib(), "MiB");
    outcome.sheet.set(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted as f64,
        "ratio",
    );

    let metrics: Vec<(String, &str)> = if args.trace {
        let metrics = per_layer_metrics();
        for (name, unit) in &metrics {
            if outcome.sheet.get(name).is_none() && outcome.idle.iter().any(|p| name.starts_with(p))
            {
                outcome.sheet.set(name.clone(), 0.0, unit);
            }
        }
        metrics
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };

    if args.trace {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"report\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.sheet.json_all()
    );
    let metrics = match outcome.sheet.json_of(&metrics) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
