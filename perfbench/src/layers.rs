//! Per-layer metrics copied from counters the program already keeps:
//! the `Telemetry` snapshot (compile spans, forward/layer spans, stage
//! accumulators, kernel counters) and the hardware MVM counter.

use resipe::inference::{HardwareNetwork, RunOptions};
use resipe::power::EnergyModel;
use resipe::telemetry::TelemetrySnapshot;
use resipe_nn::tensor::Tensor;

use crate::common::Sheet;

/// Network layer indices reported as `layer<i>.*`: every index that
/// holds a crossbar layer in LeNet (0, 3, 7, 9, 11) or MLP-1 (1).
/// Digital layers in between (ReLU, pooling, flatten) fold into
/// `layer.digital_s`.
pub const LAYER_INDICES: [usize; 6] = [0, 1, 3, 7, 9, 11];

/// The five `layer<i>.*` metrics of one layer index.
pub const LAYER_FIELDS: [&str; 5] = [
    "busy_s",
    "s1_encode_s",
    "crossbar_s",
    "s2_decode_s",
    "residual_s",
];

fn span_nanos(snap: &TelemetrySnapshot, pred: impl Fn(&str) -> bool) -> (u64, u64) {
    snap.spans
        .iter()
        .filter(|s| pred(&s.path))
        .fold((0, 0), |(n, c), s| (n + s.nanos, c + s.count))
}

const NS: f64 = 1e-9;

pub fn compile_metrics(sheet: &mut Sheet, snap: &TelemetrySnapshot) {
    let (busy, calls) = span_nanos(snap, |p| p == "compile");
    let (program, _) = span_nanos(snap, |p| {
        p.starts_with("compile/") && p.ends_with("/program")
    });
    let (repair, _) = span_nanos(snap, |p| {
        p.starts_with("compile/") && p.ends_with("/repair")
    });
    sheet.set("compile.busy_s", busy as f64 * NS, "s");
    sheet.set("compile.calls", calls as f64, "count");
    sheet.set("compile.program_s", program as f64 * NS, "s");
    sheet.set("compile.repair_s", repair as f64 * NS, "s");
}

/// Kernel and per-layer stage metrics over a window, as the difference
/// of two snapshots of one telemetry sink. `samples` is the base of the
/// per-sample ratios.
pub fn kernel_metrics(
    sheet: &mut Sheet,
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    samples: u64,
) {
    let span = |snap: &TelemetrySnapshot, path: &str| snap.span(path).map_or(0, |s| s.nanos);
    let stage = |snap: &TelemetrySnapshot, li: usize| {
        snap.layers
            .iter()
            .find(|l| l.layer == li)
            .map_or((0, 0, 0), |l| {
                (l.s1_encode_nanos, l.crossbar_nanos, l.s2_decode_nanos)
            })
    };
    for li in LAYER_INDICES {
        let path = format!("forward/layer{li}");
        let busy = span(after, &path).saturating_sub(span(before, &path));
        let (a1, ax, a2) = stage(after, li);
        let (b1, bx, b2) = stage(before, li);
        let (s1, xb, s2) = (a1 - b1, ax - bx, a2 - b2);
        let residual = busy as f64 - (s1 + xb + s2) as f64;
        let values = [busy as f64, s1 as f64, xb as f64, s2 as f64, residual];
        for (field, v) in LAYER_FIELDS.iter().zip(values) {
            sheet.set(format!("layer{li}.{field}"), v * NS, "s");
        }
    }
    // Digital layers: every forward/layer<i> span outside the crossbar
    // indices above.
    let digital = |snap: &TelemetrySnapshot| {
        span_nanos(snap, |p| {
            p.strip_prefix("forward/layer")
                .and_then(|i| i.parse::<usize>().ok())
                .is_some_and(|i| !LAYER_INDICES.contains(&i))
        })
        .0
    };
    sheet.set(
        "layer.digital_s",
        digital(after).saturating_sub(digital(before)) as f64 * NS,
        "s",
    );

    let (a, b) = (&after.counters, &before.counters);
    let mvms = a.mvms - b.mvms;
    let skips = a.zero_activation_skips - b.zero_activation_skips;
    let blocks = a.kernel_blocks - b.kernel_blocks;
    let block_samples = a.kernel_block_samples - b.kernel_block_samples;
    let bytes = a.kernel_bytes_streamed - b.kernel_bytes_streamed;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    sheet.set("kernel.mvms", mvms as f64, "count");
    sheet.set("kernel.zero_activation_skips", skips as f64, "count");
    sheet.set("kernel.skip_ratio", ratio(skips, mvms), "wordlines/mvm");
    sheet.set("kernel.blocks", blocks as f64, "count");
    sheet.set(
        "kernel.mean_block_samples",
        ratio(block_samples, blocks),
        "samples",
    );
    sheet.set("kernel.bytes_streamed", bytes as f64, "bytes");
    sheet.set("kernel.bytes_per_sample", ratio(bytes, samples), "bytes");
}

/// Simulated-hardware figures per sample, counted on a per-sample
/// reference run of `batch`: pure functions of the network and the
/// inputs, so they repeat exactly whatever the host does. Resets `hw`'s
/// MVM counter.
pub fn sim_metrics(sheet: &mut Sheet, hw: &HardwareNetwork, batch: &Tensor) -> Result<(), String> {
    hw.reset_mvm_count();
    hw.run(batch, &RunOptions::per_sample())
        .map_err(|e| e.to_string())?;
    let samples = batch.shape()[0] as f64;
    sheet.set(
        "sim.mvms_per_sample",
        hw.mvm_count() as f64 / samples,
        "count",
    );
    sheet.set(
        "sim.energy_j_per_sample",
        hw.measured_energy(&EnergyModel::paper()).0 / samples,
        "J",
    );
    Ok(())
}
