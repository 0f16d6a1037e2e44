//! `infer_lenet`: a closed loop of `HardwareNetwork::run` calls on a
//! compiled LeNet, one caller inside a one-thread rayon pool.

use std::time::Instant;

use resipe::inference::{CompileOptions, HardwareNetwork, RunOptions};
use resipe::telemetry::Telemetry;
use resipe_nn::models;
use resipe_nn::train::{Sgd, TrainConfig};

use crate::common::{median, peak_rss_mib, percentile, repeated_setup, Chunks, Sheet, Tracer};
use crate::inputs::{infer_inputs, InferInputs, INFER_BATCH, INFER_BATCHES};
use crate::layers::{compile_metrics, kernel_metrics, sim_metrics};
use crate::{Args, Outcome, SETUP_REPS};

const N_TRAIN: usize = 500;
const EPOCHS: usize = 3;
const N_HELDOUT: usize = 512;
/// Batches whose planned outputs are checked bit for bit against
/// `RunOptions::per_sample()` after the timed window.
const CHECKED_BATCHES: usize = 4;
/// `run` calls per chunk of the CPU-time and rate medians (about 0.7 s
/// on a 2-vCPU Xeon guest).
const CHUNK_CALLS: usize = 8;
/// Top-1 accuracy below this fails the run.
const MIN_ACCURACY: f64 = 0.80;

struct Ready {
    inputs: InferInputs,
    hw: HardwareNetwork,
    datagen_s: f64,
    train_s: f64,
}

fn setup(args: &Args, tracer: &Tracer) -> Result<Ready, String> {
    let t = Instant::now();
    let inputs = tracer.time("nn.datagen", None, || {
        infer_inputs(args.seed, N_TRAIN, N_HELDOUT)
    })?;
    let datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut net = models::lenet(inputs.model_seed).map_err(|e| e.to_string())?;
    tracer
        .time("nn.train", None, || {
            Sgd::new(
                TrainConfig::new(EPOCHS)
                    .with_learning_rate(0.02)
                    .with_batch_size(32)
                    .with_shuffle_seed(inputs.shuffle_seed),
            )
            .fit(&mut net, &inputs.train)
        })
        .map_err(|e| e.to_string())?;
    let train_s = t.elapsed().as_secs_f64();

    let (calibration, _) = inputs
        .train
        .batch(&(0..32).collect::<Vec<_>>())
        .map_err(|e| e.to_string())?;
    let telemetry = if args.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let hw = tracer
        .time("compile", None, || {
            HardwareNetwork::compile_with_telemetry(
                &net,
                &calibration,
                &CompileOptions::paper(),
                telemetry,
            )
        })
        .map_err(|e| e.to_string())?;
    // Warm-up: build every layer's plan and scratch arena.
    tracer
        .time("warmup", None, || {
            hw.run(&inputs.batches[0].0, &RunOptions::planned())
        })
        .map_err(|e| e.to_string())?;
    Ok(Ready {
        inputs,
        hw,
        datagen_s,
        train_s,
    })
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| run_in_pool(args, tracer))
}

fn run_in_pool(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut datagen = Vec::new();
    let mut train = Vec::new();
    let (ready, setup_times) = repeated_setup(SETUP_REPS, tracer, || {
        let r = setup(args, tracer)?;
        datagen.push(r.datagen_s);
        train.push(r.train_s);
        Ok(r)
    })?;
    let Ready { inputs, hw, .. } = ready;
    let mut sheet = Sheet::default();
    sheet.set("setup_s", median(&setup_times), "s");
    sheet.set("nn.datagen_s", median(&datagen), "s");
    sheet.set("nn.train_s", median(&train), "s");
    let compiled = hw.telemetry().snapshot();
    compile_metrics(&mut sheet, &compiled);

    let zeros = inputs
        .batches
        .iter()
        .flat_map(|(x, _)| x.data())
        .filter(|&&p| p == 0.0)
        .count();
    let pixels: usize = inputs.batches.iter().map(|(x, _)| x.len()).sum();
    sheet.set("input.zero_frac", zeros as f64 / pixels as f64, "fraction");

    sheet.set("peak_rss_mb", peak_rss_mib(), "MiB");

    // ---- Timed window.
    let before = hw.telemetry().snapshot();
    let planned = RunOptions::planned();
    let mut call_ms = Vec::new();
    let mut checked: Vec<Option<Vec<u32>>> = vec![None; CHECKED_BATCHES];
    let (mut answered, mut correct_top1) = (0usize, 0usize);
    let window = tracer.open("window", None);
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(args.seconds);
    let mut chunks = Chunks::start();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (x, labels) = &inputs.batches[i % INFER_BATCHES];
        let t0 = Instant::now();
        let out = std::hint::black_box(hw.run(std::hint::black_box(x), &planned));
        let t1 = Instant::now();
        tracer.record("inference.run", t0, t1, window, Some(i as u64));
        let out = out.map_err(|e| format!("run {i} failed: {e}"))?.outputs;
        call_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if let Some(slot @ None) = checked.get_mut(i) {
            *slot = Some(out.data().iter().map(|v| v.to_bits()).collect());
        }
        answered += labels.len();
        correct_top1 += out
            .argmax_rows()
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        i += 1;
        if i.is_multiple_of(CHUNK_CALLS) {
            chunks.mark(CHUNK_CALLS);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    tracer.close(window);
    let calls = i;
    let samples = calls * INFER_BATCH;
    let after = hw.telemetry().snapshot();

    // ---- Correctness, after the window: planned ≡ per-sample, bit for
    // bit, on the first batches of the run.
    let mut failed = 0u64;
    for (b, got) in checked.iter().enumerate() {
        let Some(got) = got else { continue };
        let reference = hw
            .run(&inputs.batches[b].0, &RunOptions::per_sample())
            .map_err(|e| e.to_string())?
            .outputs;
        let same = reference.len() == got.len()
            && reference
                .data()
                .iter()
                .zip(got)
                .all(|(r, g)| r.to_bits() == *g);
        if !same {
            eprintln!("infer_lenet: batch {b} planned output differs from per-sample");
            failed += 1;
        }
    }
    let accuracy = correct_top1 as f64 / answered.max(1) as f64;

    sheet.set("p50_ms", median(&call_ms), "ms");
    let batch = INFER_BATCH as f64;
    sheet.set("cpu_ms_per_op", chunks.scaled_cpu_ms_per_op(), "ms");
    sheet.set("rate_per_s", chunks.scaled_ops_per_s() * batch, "1/s");
    sheet.set("raw_cpu_ms_per_op", chunks.cpu_ms_per_op(), "ms");
    sheet.set("raw_rate_per_s", chunks.ops_per_s() * batch, "1/s");
    sheet.set("host_probe_ms", chunks.probe_ms(), "ms");
    sheet.set("chunks", chunks.count() as f64, "count");
    sheet.set("samples_per_s", samples as f64 / wall_s, "samples/s");
    sheet.set("accuracy", accuracy, "fraction");
    sheet.set(
        "run_p90_ms",
        percentile(&call_ms, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    sheet.set("inference.run_p50_ms", median(&call_ms), "ms");
    sheet.set("inference.calls", calls as f64, "count");
    sheet.set("inference.samples", samples as f64, "count");
    sheet.set("inference.plan_swaps", hw.plan_swaps() as f64, "count");
    sheet.set("inference.epoch", hw.epoch() as f64, "count");
    kernel_metrics(&mut sheet, &before, &after, samples as u64);
    sim_metrics(&mut sheet, &hw, &inputs.batches[0].0)?;

    let accuracy_ok = accuracy >= MIN_ACCURACY;
    if !accuracy_ok {
        eprintln!("infer_lenet: accuracy {accuracy:.4} below {MIN_ACCURACY}");
    }
    Ok(Outcome {
        correct: failed == 0 && accuracy_ok,
        attempted: calls as u64,
        failed,
        sheet,
        idle: &["loadgen.", "serve.", "aging.", "scrub.", "analog."],
    })
}
