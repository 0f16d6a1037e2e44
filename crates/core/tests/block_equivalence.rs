//! Bit-identity of the cache-blocked kernel layer, end to end.
//!
//! The blocked planned path (`BatchPlan::forward_block` under
//! `RunOptions::with_block_size`) re-orders *memory traffic* — tile
//! conductances are streamed once per sample block instead of once per
//! sample — but must never re-order a floating-point accumulation. These
//! tests pin that contract across random layer shapes, batch sizes,
//! block sizes, rayon thread counts, and the full non-ideality chain
//! (process variation, hard faults, the repair ladder, comparator
//! offsets and time quantization): the outputs must equal the
//! per-sample reference path to the last bit.
//!
//! Convolutions get their own property: the planned conv arm never
//! builds im2col columns — it encodes each input element once and
//! gathers every wordline's held voltage from that map — so it is
//! checked against the per-sample im2col reference across channel
//! counts, kernel sizes, paddings, tile splits and repaired (row-
//! permuted) tiles, for both exact backends, with telemetry on and off.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use resipe::inference::{CompileOptions, FaultInjection, HardwareNetwork, RunOptions};
use resipe::kernel::Backend;
use resipe::mapping::TileMapper;
use resipe::telemetry::Telemetry;
use resipe_analog::units::Seconds;
use resipe_nn::layers::{im2col, Conv2d, Dense};
use resipe_nn::network::Network;
use resipe_nn::tensor::Tensor;
use resipe_reram::variation::VariationModel;

fn assert_bit_identical(a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {i}: {x:e} vs {y:e} differ in bits"
        );
    }
}

/// The full non-ideality chain — faults and repair included — so the
/// blocked kernel's equivalence claim covers remapped spare columns,
/// permuted wordlines and every readout non-ideality at once.
fn nonideal_options(seed: u64) -> CompileOptions {
    CompileOptions::paper()
        .with_mapper(TileMapper::paper().with_spare_cols(2))
        .with_variation(VariationModel::device_to_device(0.15).unwrap())
        .with_seed(seed)
        .with_faults(FaultInjection::clustered(0.02, 4, seed ^ 0x5eed))
        .with_repair(resipe::repair::RepairPolicy::full())
        .with_comparator_sigma(0.01)
        .with_time_quantization(Seconds(1e-9))
}

/// Sparse activations in `[0, 1]` — exact zeros exercise the encode
/// zero-skip path whose bit-exactness the kernel relies on.
fn sparse_input(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.4 {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0f32)
                }
            })
            .collect(),
        shape,
    )
    .expect("shape")
}

/// [`nonideal_options`] with at most `max_rows` wordlines per tile, so a
/// conv layer's fan-in splits over several tiles, and a 10 % fault rate,
/// so the repair ladder often runs out of spares and permutes wordlines.
fn split_options(seed: u64, max_rows: usize) -> CompileOptions {
    nonideal_options(seed)
        .with_mapper(
            TileMapper::paper()
                .with_spare_cols(2)
                .try_with_max_rows(max_rows)
                .expect("nonzero rows"),
        )
        .with_faults(FaultInjection::clustered(0.1, 4, seed))
}

/// Conv inputs with exact zeros, negatives (which normalize to zero)
/// and positive values.
fn signed_sparse_input(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0..=3 => 0.0,
                4 => -rng.gen_range(0.0..1.0f32),
                _ => rng.gen_range(0.0..1.0f32),
            })
            .collect(),
        shape,
    )
    .expect("shape")
}

/// The wordlines a conv layer's planned path must count as zero
/// activations: every zero entry of the normalized im2col columns of
/// `x`, with the first-layer input scale `max|calibration|`.
fn zero_im2col_entries(x: &Tensor, calib: &Tensor, kernel: usize, padding: usize) -> u64 {
    let scale = f64::from(calib.max_abs()).max(f64::MIN_POSITIVE);
    (0..x.shape()[0])
        .map(|b| {
            let cols = im2col(x, b, kernel, padding).expect("im2col");
            cols.data()
                .iter()
                .filter(|&&v| (f64::from(v) / scale).clamp(0.0, 1.0) == 0.0)
                .count() as u64
        })
        .sum()
}

/// Runs `x` through the planned path of a conv network with telemetry
/// on and off, for both exact backends, and checks every output against
/// the per-sample reference bit for bit and the zero-activation counter
/// against the normalized im2col columns.
fn check_conv_planned(
    hw: &HardwareNetwork,
    calib: &Tensor,
    x: &Tensor,
    kernel: usize,
    padding: usize,
    block: usize,
) {
    let reference = hw
        .run(x, &RunOptions::per_sample())
        .expect("reference")
        .outputs;
    let expected_skips = zero_im2col_entries(x, calib, kernel, padding);
    for backend in [Backend::Scalar, Backend::VectorF32] {
        let opts = RunOptions::planned()
            .with_block_size(block)
            .with_backend(backend);
        let plain = hw.run(x, &opts).expect("planned run").outputs;
        assert_bit_identical(&reference, &plain);
        let mut traced = hw.clone();
        traced.set_telemetry(Telemetry::enabled());
        let probed = traced.run(x, &opts).expect("traced run").outputs;
        assert_bit_identical(&reference, &probed);
        assert_eq!(
            traced.telemetry().snapshot().counters.zero_activation_skips,
            expected_skips,
            "{} backend: skips must count zero im2col wordlines",
            backend.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary convolutions — 1–4 input channels, kernels 1–5,
    /// padding below the kernel, small images, fan-in split over several
    /// tiles — under the full non-ideality chain with faults and the
    /// repair ladder, the planned conv arm equals the per-sample im2col
    /// reference to the bit on both exact backends, with telemetry on
    /// or off, and counts one zero-activation skip per zero im2col
    /// entry.
    #[test]
    fn conv_planned_path_is_bit_identical_to_per_sample(
        c_in in 1usize..5,
        kernel in 1usize..6,
        pad_raw in 0usize..5,
        h_raw in 1usize..8,
        w_raw in 1usize..8,
        out_ch in 1usize..5,
        batch in 1usize..4,
        tiles in 1usize..4,
        block_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let padding = pad_raw % kernel;
        // Smallest image the padded kernel still fits.
        let min_side = kernel.saturating_sub(2 * padding).max(1);
        let (h, w) = (h_raw.max(min_side), w_raw.max(min_side));
        let block = [1usize, 3, 64][block_idx];
        let fan_in = c_in * kernel * kernel;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new("conv-prop");
        net.push(Conv2d::new(c_in, out_ch, kernel, padding, &mut rng));
        let calib = signed_sparse_input(&mut rng, &[2, c_in, h, w]);
        let x = signed_sparse_input(&mut rng, &[batch, c_in, h, w]);
        let hw = HardwareNetwork::compile(&net, &calib, &split_options(seed, fan_in.div_ceil(tiles)))
            .expect("compile");
        check_conv_planned(&hw, &calib, &x, kernel, padding, block);
    }

    /// For arbitrary dense layers under the full non-ideality chain, the
    /// blocked planned path equals the per-sample reference path to the
    /// bit — for any block size, any thread count, and the auto-sized
    /// block — and the telemetry MVM counter stays pinned to the static
    /// figure.
    #[test]
    fn blocked_planned_path_is_bit_identical_to_per_sample(
        in_features in 1usize..60,
        out_features in 1usize..8,
        batch in 1usize..12,
        block_idx in 0usize..7,
        threads_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let block = [1usize, 2, 3, 5, 8, 32, 64][block_idx];
        let threads = [1usize, 2, 4][threads_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new("block-prop");
        net.push(Dense::new(in_features, out_features, &mut rng));
        let calib = sparse_input(&mut rng, &[2, in_features]);
        let x = sparse_input(&mut rng, &[batch, in_features]);
        let hw = HardwareNetwork::compile(&net, &calib, &nonideal_options(seed))
            .expect("compile");
        let reference = hw.run(&x, &RunOptions::per_sample()).expect("reference").outputs;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let pinned = pool
            .install(|| hw.run(&x, &RunOptions::planned().with_block_size(block)))
            .expect("blocked run")
            .outputs;
        let auto = pool
            .install(|| hw.run(&x, &RunOptions::planned()))
            .expect("auto-blocked run")
            .outputs;
        for (a, b) in reference.data().iter().zip(pinned.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in reference.data().iter().zip(auto.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(
            hw.mvm_count(),
            3 * (batch * hw.dense_mvms_per_sample()) as u64,
            "three runs must issue exactly three batches of MVMs"
        );
    }
}

/// A deeper network (two crossbar layers with an interleaved digital
/// ReLU) stays bit-identical under blocking, including when the block
/// does not divide the batch.
#[test]
fn two_layer_network_blocks_bit_identically() {
    let mut rng = StdRng::seed_from_u64(91);
    let mut net = Network::new("two-layer");
    net.push(Dense::new(33, 9, &mut rng));
    net.push(resipe_nn::layers::Relu::new());
    net.push(Dense::new(9, 4, &mut rng));
    let calib = sparse_input(&mut rng, &[4, 33]);
    let x = sparse_input(&mut rng, &[11, 33]);
    let hw = HardwareNetwork::compile(&net, &calib, &nonideal_options(7)).expect("compile");
    let reference = hw.run(&x, &RunOptions::per_sample()).expect("reference");
    for block in [1usize, 2, 4, 7, 64] {
        let blocked = hw
            .run(&x, &RunOptions::planned().with_block_size(block))
            .expect("blocked");
        assert_bit_identical(&reference.outputs, &blocked.outputs);
    }
}

/// The convolution arm routes every output pixel through the blocked
/// kernel; its planned path must match the per-sample reference too.
#[test]
fn conv_layer_blocks_bit_identically() {
    let mut rng = StdRng::seed_from_u64(55);
    let mut net = Network::new("conv-block");
    net.push(Conv2d::new(1, 3, 3, 1, &mut rng));
    let calib = sparse_input(&mut rng, &[2, 1, 6, 6]);
    let x = sparse_input(&mut rng, &[3, 1, 6, 6]);
    let hw = HardwareNetwork::compile(&net, &calib, &nonideal_options(3)).expect("compile");
    let reference = hw.run(&x, &RunOptions::per_sample()).expect("reference");
    for block in [1usize, 5, 32] {
        let blocked = hw
            .run(&x, &RunOptions::planned().with_block_size(block))
            .expect("blocked");
        assert_bit_identical(&reference.outputs, &blocked.outputs);
    }
}

/// A conv layer whose fan-in spans several tiles and whose repair
/// ladder permuted wordlines: each wordline's gather follows the
/// permuted row wiring, so the planned path still matches per-sample.
#[test]
fn conv_layer_with_permuted_multi_tile_rows_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut net = Network::new("conv-permuted");
    net.push(Conv2d::new(3, 4, 3, 1, &mut rng));
    let calib = signed_sparse_input(&mut rng, &[2, 3, 7, 7]);
    let x = signed_sparse_input(&mut rng, &[3, 3, 7, 7]);
    let hw = HardwareNetwork::compile(&net, &calib, &split_options(6, 10)).expect("compile");
    let report = hw.health_report();
    assert!(report.tiles.len() > 1, "fan-in 27 must split over tiles");
    assert!(
        report.tiles.iter().any(|t| t.permuted),
        "the repair ladder must permute some tile's wordlines"
    );
    for block in [1usize, 3, 64] {
        check_conv_planned(&hw, &calib, &x, 3, 1, block);
    }
}
