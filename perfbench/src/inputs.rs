//! Seeded input generation. Every input a workload feeds the program —
//! held-out datasets, batch draws, arrival schedules, aging seeds,
//! conductances and spike times — is a pure function of `--seed` and
//! comes from here.
//!
//! The trained networks are not inputs: they are part of the system
//! under test, so their training sets, initial weights and shuffles come
//! from the fixed [`MODEL_SEED`]. Every seed then runs the same network,
//! and a seed changes only what that network is asked.

use resipe_analog::units::{Seconds, Siemens};
use resipe_nn::data::{synth_digits, Dataset};
use resipe_nn::tensor::Tensor;

use crate::common::{substream, Rng};

/// Samples per `HardwareNetwork::run` call in `infer_lenet`.
pub const INFER_BATCH: usize = 32;
/// Distinct pre-drawn batches the `infer_lenet` loop cycles through.
pub const INFER_BATCHES: usize = 64;
/// Pixels below this are zeroed in the `infer_lenet` inputs.
pub const BACKGROUND: f32 = 0.1;
/// Seed of every trained network's training set, initial weights and
/// shuffle order.
pub const MODEL_SEED: u64 = 7;

/// Inputs of `infer_lenet`: a fixed background-free training set and
/// seeded batch draws from a seeded held-out set.
pub struct InferInputs {
    pub train: Dataset,
    /// `(batch, labels)` pairs of `INFER_BATCH` held-out samples each.
    pub batches: Vec<(Tensor, Vec<usize>)>,
    pub model_seed: u64,
    pub shuffle_seed: u64,
}

/// Zeroes every pixel below `threshold` (the digit generator's
/// background noise), leaving the glyph strokes as they are.
pub fn zero_background(data: &Dataset, threshold: f32) -> Result<Dataset, String> {
    let (all, labels) = data.full_batch().map_err(|e| e.to_string())?;
    let width: usize = data.sample_shape().iter().product();
    let samples: Vec<Vec<f32>> = all
        .data()
        .chunks(width)
        .map(|s| {
            s.iter()
                .map(|&p| if p < threshold { 0.0 } else { p })
                .collect()
        })
        .collect();
    Dataset::new(data.sample_shape(), samples, labels, data.num_classes())
        .map_err(|e| e.to_string())
}

pub fn infer_inputs(seed: u64, n_train: usize, n_heldout: usize) -> Result<InferInputs, String> {
    let digits = |n, stream| {
        synth_digits(n, stream)
            .map_err(|e| e.to_string())
            .and_then(|d| zero_background(&d, BACKGROUND))
    };
    let train = digits(n_train, substream(MODEL_SEED, 1))?;
    let heldout = digits(n_heldout, substream(seed, 2))?;
    let mut draw = Rng::new(substream(seed, 3));
    let batches = (0..INFER_BATCHES)
        .map(|_| {
            let idx: Vec<usize> = (0..INFER_BATCH)
                .map(|_| draw.below(heldout.len()))
                .collect();
            heldout.batch(&idx).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(InferInputs {
        train,
        batches,
        model_seed: substream(MODEL_SEED, 4),
        shuffle_seed: substream(MODEL_SEED, 5),
    })
}

/// Inputs of the serving workloads: a fixed training set for MLP-1 and a
/// seeded pool of raw (noisy, dense) digits the requests draw from.
pub struct ServeInputs {
    pub train: Dataset,
    pub pool: Dataset,
    pub model_seed: u64,
    pub shuffle_seed: u64,
}

pub fn serve_inputs(seed: u64, n_train: usize, n_pool: usize) -> Result<ServeInputs, String> {
    Ok(ServeInputs {
        train: synth_digits(n_train, substream(MODEL_SEED, 11)).map_err(|e| e.to_string())?,
        pool: synth_digits(n_pool, substream(seed, 12)).map_err(|e| e.to_string())?,
        model_seed: substream(MODEL_SEED, 13),
        shuffle_seed: substream(MODEL_SEED, 14),
    })
}

/// One open-loop step: when each request is due (seconds after the step
/// starts) and which pool sample it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub due_s: Vec<f64>,
    pub sample: Vec<usize>,
}

/// Poisson arrivals at `rate` per second for `duration_s` seconds.
/// `step` names the schedule's own stream, so every step of a run draws
/// a different but reproducible sequence.
pub fn poisson_schedule(seed: u64, step: u64, rate: f64, duration_s: f64, pool: usize) -> Schedule {
    let mut gaps = Rng::new(substream(seed, 100 + 2 * step));
    let mut picks = pick_stream(seed, step);
    let mut due_s = Vec::with_capacity((rate * duration_s * 1.1) as usize + 16);
    let mut sample = Vec::with_capacity(due_s.capacity());
    let mut t = 0.0;
    loop {
        // Exponential gap; `1 - u` is in (0, 1], so the log is finite.
        t += -(1.0 - gaps.unit()).ln() / rate;
        if t >= duration_s {
            break;
        }
        due_s.push(t);
        sample.push(picks.below(pool));
    }
    Schedule { due_s, sample }
}

/// Which pool sample each request of step `step` carries, in order.
pub fn pick_stream(seed: u64, step: u64) -> Rng {
    Rng::new(substream(seed, 101 + 2 * step))
}

/// Seed of the `serve_aging` wear schedule.
pub fn aging_seed(seed: u64) -> u64 {
    substream(seed, 21)
}

/// Seed of the `serve_aging` scrubber's repair draws.
pub fn scrub_seed(seed: u64) -> u64 {
    substream(seed, 22)
}

/// Circuit size classes of `circuit_tile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 16×16 ideal tile, below the dense/sparse crossover.
    Small,
    /// 128×128 ideal tile.
    Tile,
    /// 32×32 tile with a bitline RC ladder.
    Wire,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Small, Class::Tile, Class::Wire];

    pub fn name(self) -> &'static str {
        match self {
            Class::Small => "small",
            Class::Tile => "tile",
            Class::Wire => "wire",
        }
    }

    /// `(rows, cols)`.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Class::Small => (16, 16),
            Class::Tile => (128, 128),
            Class::Wire => (32, 32),
        }
    }
}

/// One sweep point: row-major cell conductances in the paper's 5–150 µS
/// device range and one spike time per row. Spike times take one of
/// five levels (10–50 ns), so the sample-and-hold switches change the
/// netlist only a handful of times per transient.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitPoint {
    pub conductances: Vec<Siemens>,
    pub spikes: Vec<Seconds>,
}

pub fn circuit_point(rng: &mut Rng, class: Class) -> CircuitPoint {
    let (rows, cols) = class.shape();
    let conductances = (0..rows * cols)
        .map(|_| Siemens(5e-6 + 145e-6 * rng.unit()))
        .collect();
    let spikes = (0..rows)
        .map(|_| Seconds((rng.below(5) + 1) as f64 * 4e-9))
        .collect();
    CircuitPoint {
        conductances,
        spikes,
    }
}

/// The stream all `circuit_tile` sweep points are drawn from, in order.
pub fn circuit_stream(seed: u64) -> Rng {
    Rng::new(substream(seed, 31))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a byte stream.
    fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn f32_bytes(v: &[f32]) -> impl Iterator<Item = u8> + '_ {
        v.iter().flat_map(|x| x.to_le_bytes())
    }

    fn dataset_hash(d: &Dataset) -> u64 {
        let (x, labels) = d.full_batch().expect("batch");
        fnv(f32_bytes(x.data()).chain(labels.iter().flat_map(|l| l.to_le_bytes())))
    }

    /// One hash per seeded input of each workload.
    fn seeded_hashes(seed: u64) -> Vec<u64> {
        let infer = infer_inputs(seed, 40, 50).expect("inputs");
        let batches = infer.batches.iter().fold(0u64, |h, (x, labels)| {
            h.rotate_left(7)
                ^ fnv(f32_bytes(x.data()))
                ^ fnv(labels.iter().flat_map(|l| l.to_le_bytes()))
        });
        let serve = serve_inputs(seed, 30, 40).expect("inputs");
        let sched = poisson_schedule(seed, 0, 4000.0, 0.05, serve.pool.len());
        let sched_bytes = sched
            .due_s
            .iter()
            .flat_map(|t| t.to_le_bytes())
            .chain(sched.sample.iter().flat_map(|s| s.to_le_bytes()));
        let mut rng = circuit_stream(seed);
        let points = Class::ALL.iter().fold(0u64, |h, &class| {
            let p = circuit_point(&mut rng, class);
            let bytes = p
                .conductances
                .iter()
                .map(|g| g.0)
                .chain(p.spikes.iter().map(|t| t.0))
                .flat_map(f64::to_le_bytes);
            h.rotate_left(11) ^ fnv(bytes)
        });
        vec![
            batches,
            dataset_hash(&serve.pool),
            fnv(sched_bytes),
            pick_stream(seed, 1).next_u64(),
            aging_seed(seed),
            scrub_seed(seed),
            points,
        ]
    }

    #[test]
    fn one_seed_reproduces_every_input() {
        assert_eq!(seeded_hashes(1), seeded_hashes(1));
    }

    #[test]
    fn another_seed_changes_every_input() {
        for (a, b) in seeded_hashes(1).iter().zip(seeded_hashes(2)) {
            assert_ne!(*a, b);
        }
    }

    #[test]
    fn the_model_is_the_same_for_every_seed() {
        let (a, b) = (
            infer_inputs(1, 30, 20).expect("a"),
            infer_inputs(2, 30, 20).expect("b"),
        );
        assert_eq!(dataset_hash(&a.train), dataset_hash(&b.train));
        assert_eq!(
            (a.model_seed, a.shuffle_seed),
            (b.model_seed, b.shuffle_seed)
        );
        let (a, b) = (
            serve_inputs(1, 30, 20).expect("a"),
            serve_inputs(2, 30, 20).expect("b"),
        );
        assert_eq!(dataset_hash(&a.train), dataset_hash(&b.train));
        assert_eq!(
            (a.model_seed, a.shuffle_seed),
            (b.model_seed, b.shuffle_seed)
        );
    }

    #[test]
    fn schedule_rate_and_steps() {
        let a = poisson_schedule(9, 0, 4000.0, 1.0, 100);
        let b = poisson_schedule(9, 1, 4000.0, 1.0, 100);
        assert_ne!(a, b, "steps draw their own streams");
        let n = a.due_s.len() as f64;
        assert!((n - 4000.0).abs() < 4.0 * 4000f64.sqrt(), "{n} arrivals");
        assert!(a.due_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.sample.iter().all(|&s| s < 100));
    }

    #[test]
    fn background_is_zeroed() {
        let inp = infer_inputs(3, 20, 20).expect("inputs");
        let (train, _) = inp.train.full_batch().expect("batch");
        let pixels = train
            .data()
            .iter()
            .chain(inp.batches.iter().flat_map(|(x, _)| x.data()));
        assert!(pixels.copied().all(|p| p == 0.0 || p >= BACKGROUND));
    }
}
