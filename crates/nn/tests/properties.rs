//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use resipe_nn::layers::{im2col, Dense, Relu};
use resipe_nn::tensor::Tensor;
use resipe_nn::train::softmax_cross_entropy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matmul with the identity is the identity.
    #[test]
    fn matmul_identity(
        data in proptest::collection::vec(-10.0..10.0f32, 12),
    ) {
        let a = Tensor::from_vec(data, &[3, 4]).expect("shape");
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0);
        }
        prop_assert_eq!(a.matmul(&eye).expect("valid"), a);
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(
        a_data in proptest::collection::vec(-3.0..3.0f32, 6),
        b_data in proptest::collection::vec(-3.0..3.0f32, 6),
    ) {
        let a = Tensor::from_vec(a_data, &[2, 3]).expect("shape");
        let b = Tensor::from_vec(b_data, &[3, 2]).expect("shape");
        let lhs = a.matmul(&b).expect("valid").transpose().expect("rank 2");
        let rhs = b
            .transpose()
            .expect("rank 2")
            .matmul(&a.transpose().expect("rank 2"))
            .expect("valid");
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax cross-entropy: loss non-negative, gradient rows sum to 0,
    /// true-class gradient non-positive.
    #[test]
    fn softmax_ce_invariants(
        logits in proptest::collection::vec(-5.0..5.0f32, 8),
        label in 0usize..4,
    ) {
        let t = Tensor::from_vec(logits, &[2, 4]).expect("shape");
        let labels = [label, 3 - label.min(3)];
        let (loss, grad) = softmax_cross_entropy(&t, &labels).expect("valid");
        prop_assert!(loss >= 0.0);
        #[allow(clippy::needless_range_loop)]
        for i in 0..2 {
            let row_sum: f32 = grad.row(i).iter().sum();
            prop_assert!(row_sum.abs() < 1e-5, "row sum {row_sum}");
            prop_assert!(grad.get(&[i, labels[i]]) <= 1e-7);
        }
    }

    /// ReLU forward+backward: outputs non-negative, gradients pass only
    /// where inputs were positive.
    #[test]
    fn relu_invariants(
        xs in proptest::collection::vec(-2.0..2.0f32, 10),
        gs in proptest::collection::vec(-2.0..2.0f32, 10),
    ) {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(xs.clone(), &[10]).expect("shape");
        let y = relu.forward(&x).expect("valid");
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
        let g = Tensor::from_vec(gs.clone(), &[10]).expect("shape");
        let dx = relu.backward(&g).expect("valid");
        for ((xi, gi), di) in xs.iter().zip(&gs).zip(dx.data()) {
            if *xi > 0.0 {
                prop_assert_eq!(*di, *gi);
            } else {
                prop_assert_eq!(*di, 0.0);
            }
        }
    }

    /// Dense forward is linear: f(αx) = αf(x) up to the bias term.
    #[test]
    fn dense_linearity(
        xs in proptest::collection::vec(-1.0..1.0f32, 4),
        alpha in 0.1..3.0f32,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::from_vec(xs.clone(), &[1, 4]).expect("shape");
        let xa = x.map(|v| v * alpha);
        let y = d.forward(&x).expect("valid");
        let ya = d.forward(&xa).expect("valid");
        let b = d.bias();
        for j in 0..3 {
            let lin = (y.get(&[0, j]) - b.get(&[j])) * alpha + b.get(&[j]);
            prop_assert!(
                (ya.get(&[0, j]) - lin).abs() < 1e-3,
                "col {j}: {} vs {lin}", ya.get(&[0, j])
            );
        }
    }

    /// `im2col` equals a naive per-element reference built with
    /// `get`/`set` — for several channels, a batch index past 0, and
    /// padding up to (and past) the kernel size.
    #[test]
    fn im2col_matches_naive_reference(
        n in 1usize..4,
        c in 1usize..5,
        h in 1usize..7,
        w in 1usize..7,
        k_raw in 1usize..6,
        padding in 0usize..6,
        seed in 0u64..1000,
    ) {
        // Largest kernel that still fits the padded input.
        let k = 1 + (k_raw - 1) % (h.min(w) + 2 * padding);
        let batch = (seed as usize) % n;
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec(
            (0..n * c * h * w).map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0f32)).collect(),
            &[n, c, h, w],
        )
        .expect("shape");
        let (h_out, w_out) = (h + 2 * padding + 1 - k, w + 2 * padding + 1 - k);
        let mut naive = Tensor::zeros(&[c * k * k, h_out * w_out]);
        for ch in 0..c {
            for ki in 0..k {
                for kj in 0..k {
                    for oi in 0..h_out {
                        for oj in 0..w_out {
                            let (ii, jj) = (oi + ki, oj + kj);
                            if ii < padding || jj < padding || ii - padding >= h || jj - padding >= w {
                                continue;
                            }
                            naive.set(
                                &[ch * k * k + ki * k + kj, oi * w_out + oj],
                                x.get(&[batch, ch, ii - padding, jj - padding]),
                            );
                        }
                    }
                }
            }
        }
        let cols = im2col(&x, batch, k, padding).expect("valid");
        prop_assert_eq!(cols.shape(), naive.shape());
        for (a, b) in cols.data().iter().zip(naive.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
