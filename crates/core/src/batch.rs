//! Amortized batched execution of mapped layers.
//!
//! [`BatchPlan`] precomputes everything in a [`MappedWeights`] forward
//! pass that does not depend on the input sample — per-column crossbar
//! conductance sums, capacitor charge factors, the nominal decode
//! constants, and a column-major copy of the effective conductances —
//! and then replays the *exact* per-sample floating-point operation
//! sequence of [`MappedWeights::forward`] against those hoisted values.
//!
//! Because every hoisted quantity is computed by the same expression on
//! the same inputs (in the same order) as the per-sample path, and a
//! value computed once is bit-equal to the same value recomputed, the
//! plan's outputs are **bit-identical** to the sequential path. What the
//! plan removes is pure redundancy:
//!
//! * column sums and charge factors, recomputed per sample by
//!   [`crate::engine::ResipeEngine::mvm_matrix`], are computed once per
//!   batch;
//! * the output spike time `t_out` that `mvm_matrix` derives for every
//!   physical bitline is skipped — the decode reconstructs its own
//!   observed time from `V_out` and never reads it;
//! * spare (unrouted) bitlines are not evaluated;
//! * the S1 ramp samples are shared between the positive and negative
//!   arrays of the differential pair instead of being recomputed per
//!   array;
//! * a **zero activation encodes to exactly `+0.0`** in both encodings
//!   (`exp(±0.0) == 1.0` and `ln(1.0) == +0.0` are exact in IEEE 754,
//!   so the whole `encode → ramp-sample` chain collapses to `+0.0`),
//!   so its `ln`/`exp` pair is skipped outright;
//! * a convolution's input elements are encoded once per sample into a
//!   held-voltage map and gathered per wordline, instead of once per
//!   im2col copy (k² copies for a k×k kernel) — `s1_encode` is a pure
//!   function of the activation, so the gathered voltages are the
//!   encoded ones bit for bit (DESIGN.md "Convolution staging");
//! * wordlines held at `V = 0` are skipped inside the weighted
//!   accumulation (their products are exactly `+0.0`, so skipping them
//!   cannot change the sum's bits);
//! * the decode of a column observing `V_out = +0.0` is a pure function
//!   of that column's hoisted `(offset, k)` constants, so its value is
//!   computed once at plan-build time and reused whenever the sampled
//!   voltage is exactly zero.
//!
//! This is what makes the batched inference path faster even on a single
//! core; on multicore hosts [`crate::inference::HardwareNetwork::forward_batch`]
//! additionally fans samples out across the rayon pool.

use std::sync::OnceLock;
use std::time::Instant;

use resipe_analog::units::Seconds;

use crate::engine::ResipeEngine;
use crate::error::ResipeError;
use crate::kernel::{Backend, FIXED_LEVELS, VECTOR_LANES};
use crate::mapping::{MappedWeights, SpikeEncoding, Tile};
use crate::telemetry::{LayerProbe, SampleStats};

/// Sample-independent constants of one crossbar tile pair.
#[derive(Debug, Clone)]
struct TilePlan {
    /// First logical input row of this tile.
    row_start: usize,
    /// Wordlines in this tile.
    rows: usize,
    /// Logical columns decoded from this tile.
    cols: usize,
    /// Physical wordline → logical tile row driving it.
    row_source: Vec<usize>,
    /// Effective conductances, column-major `[cols × rows]`, routed
    /// through the logical→physical column map (spares dropped).
    g_plus: Vec<f64>,
    g_minus: Vec<f64>,
    /// Actual per-logical-column conductance sums (row-order partial
    /// sums, exactly as `mvm_matrix` accumulates them).
    g_total_plus: Vec<f64>,
    g_total_minus: Vec<f64>,
    /// Hoisted charge factors `1 − e^(−Δt/C · ΣG)` per logical column.
    charge_plus: Vec<f64>,
    charge_minus: Vec<f64>,
    /// Hoisted nominal decode constants `k_j` per logical column.
    k_plus: Vec<f64>,
    k_minus: Vec<f64>,
    /// Static comparator offsets per logical column.
    offset_plus: Vec<f64>,
    offset_minus: Vec<f64>,
    /// Hoisted decode of `V_out = +0.0` per logical column.
    d0_plus: Vec<f64>,
    d0_minus: Vec<f64>,
}

/// Pre-quantized integer mirror of one [`TilePlan`] for the
/// [`Backend::FixedI32`] kernel: conductances rounded to `i32` codes of
/// `g_lsb` siemens each, built lazily once per plan and shared by every
/// fixed-point block afterwards.
#[derive(Debug, Clone)]
struct FixedTile {
    /// Column-major conductance codes `round(g / g_lsb)`.
    q_plus: Vec<i32>,
    q_minus: Vec<i32>,
    /// Conductance quantization step: `max(g) / 2^FIXED_QBITS` over both
    /// arrays of this tile (floored at `f64::MIN_POSITIVE` so an
    /// all-zero tile stays well-defined).
    g_lsb: f64,
    /// Dequantization factor `v_lsb * g_lsb` applied to the integer dot
    /// product.
    w_scale: f64,
}

impl TilePlan {
    fn new(tile: &Tile, row_start: usize, dt_over_c: f64) -> TilePlan {
        let rows = tile.rows();
        let cols = tile.cols();
        let phys_cols = tile.physical_cols();
        let mut plan = TilePlan {
            row_start,
            rows,
            cols,
            row_source: tile.row_source.clone(),
            g_plus: Vec::with_capacity(cols * rows),
            g_minus: Vec::with_capacity(cols * rows),
            g_total_plus: Vec::with_capacity(cols),
            g_total_minus: Vec::with_capacity(cols),
            charge_plus: Vec::with_capacity(cols),
            charge_minus: Vec::with_capacity(cols),
            k_plus: Vec::with_capacity(cols),
            k_minus: Vec::with_capacity(cols),
            offset_plus: Vec::with_capacity(cols),
            offset_minus: Vec::with_capacity(cols),
            d0_plus: Vec::new(),
            d0_minus: Vec::new(),
        };
        let _ = phys_cols;
        for j in 0..cols {
            let pc = tile.col_map()[j];
            for (eff_cm, g_col, g_total, charge, k, offs, gsum, offsets) in [
                (
                    tile.eff_plus_cm(),
                    &mut plan.g_plus,
                    &mut plan.g_total_plus,
                    &mut plan.charge_plus,
                    &mut plan.k_plus,
                    &mut plan.offset_plus,
                    &tile.gsum_plus,
                    &tile.offset_plus,
                ),
                (
                    tile.eff_minus_cm(),
                    &mut plan.g_minus,
                    &mut plan.g_total_minus,
                    &mut plan.charge_minus,
                    &mut plan.k_minus,
                    &mut plan.offset_minus,
                    &tile.gsum_minus,
                    &tile.offset_minus,
                ),
            ] {
                // Column sum in row order — the exact accumulation order
                // of `mvm_matrix`, so the hoisted sum is bit-equal to the
                // per-sample recomputation it replaces. The tile's SoA
                // mirror already holds the column contiguously.
                let col = &eff_cm[pc * rows..(pc + 1) * rows];
                let mut total = 0.0f64;
                for &g in col {
                    total += g;
                }
                g_col.extend_from_slice(col);
                g_total.push(total);
                charge.push(1.0 - (-dt_over_c * total).exp());
                let gsum_nom = gsum[pc];
                k.push((1.0 - (-dt_over_c * gsum_nom).exp()) / gsum_nom);
                offs.push(offsets[pc]);
            }
        }
        plan
    }
}

/// Reusable per-worker buffers for [`BatchPlan::forward_one`].
///
/// Create one per thread with [`BatchPlan::scratch`] and reuse it across
/// samples to keep the hot loop allocation-free.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// Held S1 wordline voltages of the current tile.
    v_in: Vec<f64>,
    /// Indices of wordlines with a non-zero held voltage.
    nonzero: Vec<u32>,
    /// Sampled `(V_out⁺, V_out⁻)` per column of the current tile —
    /// used only by the probed path, which splits the column loop into
    /// a crossbar pass and a decode pass to time them separately.
    v_cols: Vec<(f64, f64)>,
    /// Held wordline voltages of every sample in the current block,
    /// stride `tile.rows` per sample ([`BatchPlan::forward_block`]).
    v_in_block: Vec<f64>,
    /// Concatenated non-zero wordline indices of the block's samples.
    nz_idx: Vec<u32>,
    /// Prefix bounds into `nz_idx`: sample `b` of the block owns
    /// `nz_idx[nz_bounds[b]..nz_bounds[b + 1]]`.
    nz_bounds: Vec<usize>,
    /// Staged `(V_out⁺, V_out⁻)` per (column, sample) of the probed
    /// block path and of the non-scalar kernel backends, indexed
    /// `j * samples + b`.
    v_cols_block: Vec<(f64, f64)>,
    /// Quantized held-voltage codes of the current tile block (stride
    /// `tile.rows` per sample), filled by the [`Backend::FixedI32`]
    /// prepare stage.
    q_in_block: Vec<i32>,
    /// Normalized-activation staging for a block of samples — borrowed
    /// by `HardwareNetwork` between kernel invocations so the per-block
    /// input copy reuses one allocation.
    pub(crate) a_block: Vec<f64>,
    /// One convolution sample's held-voltage map
    /// ([`BatchPlan::encode_conv_map`]), borrowed the same way.
    pub(crate) held_map: Vec<f64>,
}

/// Where the wordlines of a block come from. Both sources fill the same
/// staging buffers ([`BatchPlan::stage_wordlines`]), so the kind of
/// layer changes how wordlines are staged and nothing after that.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wordlines<'a> {
    /// `samples × rows` normalized activations, back to back; each
    /// wordline is S1-encoded as it is staged (dense layers).
    Rows(&'a [f64]),
    /// Consecutive output pixels of one convolution sample, from
    /// `first_pixel` on; each wordline gathers its held voltage from the
    /// sample's pre-encoded map.
    Patches {
        conv: &'a ConvGather,
        map: &'a [f64],
        first_pixel: usize,
    },
}

/// The wordline wiring of one planned convolution
/// ([`BatchPlan::conv_gather`]): the input geometry, and for every tile
/// the offset of each physical wordline's input element in a sample's
/// zero-padded held-voltage map, relative to the output pixel's
/// top-left corner. Row permutations from repair and layers split over
/// several tiles need nothing extra — each wordline's offset comes from
/// the logical row it is wired to.
#[derive(Debug, Clone)]
pub(crate) struct ConvGather {
    channels: usize,
    height: usize,
    width: usize,
    padding: usize,
    padded_h: usize,
    padded_w: usize,
    /// Output height and width.
    pub(crate) out_h: usize,
    pub(crate) out_w: usize,
    /// Per tile: physical wordline → map offset.
    offsets: Vec<Vec<usize>>,
}

/// A sample-independent execution plan for one mapped weight layer.
///
/// See the [module docs](crate::batch) for the amortization/determinism
/// contract. Build once per layer per batch with [`BatchPlan::new`], then
/// call [`BatchPlan::forward_one`] per sample (from any number of
/// threads, each with its own [`BatchScratch`]).
#[derive(Debug, Clone)]
pub struct BatchPlan {
    rows: usize,
    cols: usize,
    encoding: SpikeEncoding,
    tau: f64,
    vs: f64,
    t_max: f64,
    v_ref: f64,
    slice: f64,
    /// Upper comparator clamp `V_s (1 − 1e−12)` of the decode.
    v_clamp: f64,
    time_quantum: Option<f64>,
    /// Final digital rescale `w_scale / (V_ref Δg_eff)`.
    scale: f64,
    tiles: Vec<TilePlan>,
    max_tile_rows: usize,
    /// Conductance bytes read from the tile plans by one pass over all
    /// tiles (both differential arrays) — the traffic one block of the
    /// blocked kernel streams, versus once per *sample* unblocked.
    tile_stream_bytes: u64,
    /// Held-voltage quantization step `V_s / 2^FIXED_QBITS` of the
    /// fixed-point backend.
    v_lsb: f64,
    /// Lazily built integer tile mirrors for [`Backend::FixedI32`] —
    /// a pure function of the plan, so sharing the cache across threads
    /// and backends is race-free.
    fixed: OnceLock<Vec<FixedTile>>,
}

impl BatchPlan {
    /// Builds the plan for one mapped layer on one engine.
    pub fn new(
        engine: &ResipeEngine,
        mapped: &MappedWeights,
        encoding: SpikeEncoding,
    ) -> BatchPlan {
        let cfg = engine.config();
        let tau = cfg.tau_gd().0;
        let vs = cfg.vs().0;
        let t_max = cfg.t_max().0;
        let v_ref = vs * (1.0 - (-t_max / tau).exp());
        let dt_over_c = cfg.dt().0 / cfg.c_cog().0;
        let mut tiles = Vec::with_capacity(mapped.tiles().len());
        let mut row_start = 0usize;
        for tile in mapped.tiles() {
            tiles.push(TilePlan::new(tile, row_start, dt_over_c));
            row_start += tile.rows();
        }
        let mut plan = BatchPlan {
            rows: mapped.rows(),
            cols: mapped.cols(),
            encoding,
            tau,
            vs,
            t_max,
            v_ref,
            slice: cfg.slice().0,
            v_clamp: vs * (1.0 - 1e-12),
            time_quantum: mapped.time_quantum(),
            scale: mapped.weight_scale() / (v_ref * mapped.delta_g_eff().0),
            max_tile_rows: mapped.tiles().iter().map(Tile::rows).max().unwrap_or(0),
            tile_stream_bytes: 0,
            v_lsb: vs / FIXED_LEVELS,
            fixed: OnceLock::new(),
            tiles,
        };
        plan.tile_stream_bytes = plan
            .tiles
            .iter()
            .map(|t| ((t.g_plus.len() + t.g_minus.len()) * std::mem::size_of::<f64>()) as u64)
            .sum();
        for ti in 0..plan.tiles.len() {
            let d0_plus: Vec<f64> = (0..plan.tiles[ti].cols)
                .map(|j| {
                    plan.decode_column(0.0, plan.tiles[ti].offset_plus[j], plan.tiles[ti].k_plus[j])
                })
                .collect();
            let d0_minus: Vec<f64> = (0..plan.tiles[ti].cols)
                .map(|j| {
                    plan.decode_column(
                        0.0,
                        plan.tiles[ti].offset_minus[j],
                        plan.tiles[ti].k_minus[j],
                    )
                })
                .collect();
            plan.tiles[ti].d0_plus = d0_plus;
            plan.tiles[ti].d0_minus = d0_minus;
        }
        plan
    }

    /// Allocates a scratch buffer sized for this plan.
    pub fn scratch(&self) -> BatchScratch {
        BatchScratch {
            v_in: Vec::with_capacity(self.max_tile_rows),
            nonzero: Vec::with_capacity(self.max_tile_rows),
            v_cols: Vec::with_capacity(self.cols),
            ..BatchScratch::default()
        }
    }

    /// Logical input dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical output dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Conductance bytes streamed from the tile plans by one pass over
    /// all tiles (both differential arrays). The blocked kernel pays
    /// this once per *block*; the unblocked path pays it once per
    /// *sample*.
    pub fn tile_stream_bytes(&self) -> u64 {
        self.tile_stream_bytes
    }

    /// Deterministic sample-block size for [`BatchPlan::forward_block`]:
    /// as many samples as keep one block's per-sample working set
    /// (held wordline voltages, non-zero index list, output row) inside
    /// a 32 KiB L1 budget, clamped to `[1, 64]`. A pure function of the
    /// layer shape — never of the host — so blocked execution partitions
    /// work identically on every machine.
    pub fn preferred_block(&self) -> usize {
        let per_sample = 12 * self.max_tile_rows + 8 * self.cols;
        (32 * 1024 / per_sample.max(1)).clamp(1, 64)
    }

    /// Executes one logical MVM — bit-identical to
    /// [`MappedWeights::forward`] on the same activations and encoding.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`.
    pub fn forward_one(
        &self,
        activations: &[f64],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<f64>, ResipeError> {
        if activations.len() != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: activations.len(),
            });
        }
        let mut acc = vec![0.0f64; self.cols];
        for tile in &self.tiles {
            scratch.v_in.clear();
            scratch.nonzero.clear();
            // S1: encode each driven wordline's activation into a spike
            // time and sample the shared GD ramp — once per tile, shared
            // by both arrays of the differential pair.
            for (p, &l) in tile.row_source.iter().enumerate() {
                let a = activations[tile.row_start + l].clamp(0.0, 1.0);
                if a == 0.0 {
                    // encode(±0.0) is exactly +0.0 in both encodings:
                    // `0.0 * x == ±0.0`, `ln(1.0) == +0.0`, `exp(±0.0)
                    // == 1.0` and `1.0 - 1.0 == +0.0` are all IEEE-exact,
                    // so the ln/exp pair can be skipped without changing
                    // a bit.
                    scratch.v_in.push(0.0);
                    continue;
                }
                let v = self.s1_encode(a);
                scratch.v_in.push(v);
                if v != 0.0 {
                    scratch.nonzero.push(p as u32);
                }
            }
            for (j, slot) in acc.iter_mut().enumerate().take(tile.cols) {
                let col = j * tile.rows..(j + 1) * tile.rows;
                // One pass over the held wordlines accumulates both
                // arrays' weighted sums; each accumulator still adds its
                // products in row order, so the bits are unchanged.
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                let mut wp = 0.0f64;
                let mut wm = 0.0f64;
                for &p in &scratch.nonzero {
                    let v = scratch.v_in[p as usize];
                    wp += v * gp[p as usize];
                    wm += v * gm[p as usize];
                }
                let vp = Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]);
                let vm = Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]);
                // A column observing exactly V_out = 0.0 decodes to a
                // sample-independent value hoisted at plan-build time
                // (decode is a pure function of (v_out, offset, k)).
                let d_plus = if vp == 0.0 {
                    tile.d0_plus[j]
                } else {
                    self.decode_column(vp, tile.offset_plus[j], tile.k_plus[j])
                };
                let d_minus = if vm == 0.0 {
                    tile.d0_minus[j]
                } else {
                    self.decode_column(vm, tile.offset_minus[j], tile.k_minus[j])
                };
                *slot += d_plus - d_minus;
            }
        }
        for y in &mut acc {
            *y *= self.scale;
        }
        Ok(acc)
    }

    /// S1: the held wordline voltage of one normalized activation `a` —
    /// its spike time in this layer's encoding, sampled on the shared GD
    /// ramp. The one copy of the encode every staging path calls.
    /// `s1_encode(0.0)` is exactly `+0.0` (see the module docs), which
    /// is why callers may skip it for zero activations; for any `a` it
    /// is never `-0.0`, since `1 − e^(−t/τ)` with `t ≥ ±0` is `≥ +0.0`.
    fn s1_encode(&self, a: f64) -> f64 {
        let t = match self.encoding {
            SpikeEncoding::LinearTime => a * self.t_max,
            SpikeEncoding::PassThrough => {
                Seconds(-self.tau * (1.0 - a * self.v_ref / self.vs).ln()).0
            }
        };
        self.vs * (1.0 - (-t / self.tau).exp())
    }

    /// The sampled bitline voltage of one column from its accumulated
    /// weighted sum: `V_eq` times the hoisted charge factor. Zero-voltage
    /// wordlines contribute exactly `+0.0` to the weighted sum, so the
    /// caller skips them without changing a single bit of the
    /// accumulation.
    fn v_out(weighted: f64, g_total: f64, charge: f64) -> f64 {
        if g_total == 0.0 {
            0.0
        } else {
            (weighted / g_total) * charge
        }
    }

    /// The digital decode of one observed bitline voltage — the same
    /// operation sequence as the sequential path, with the nominal
    /// column constant `k_j` hoisted.
    fn decode_column(&self, v_out: f64, offset: f64, k: f64) -> f64 {
        self.decode_column_traced(v_out, offset, k).0
    }

    /// [`BatchPlan::decode_column`] plus the observation telemetry needs:
    /// the effective comparator voltage, the observed spike time, and
    /// whether the range clamp or the slice-end saturation engaged.
    /// Identical floating-point sequence — the trace only reads values
    /// the decode computes anyway.
    fn decode_column_traced(&self, v_out: f64, offset: f64, k: f64) -> (f64, DecodeTrace) {
        let raw = v_out + offset;
        let v_eff = raw.clamp(0.0, self.v_clamp);
        let mut t_obs = -self.tau * (1.0 - v_eff / self.vs).ln();
        if let Some(q) = self.time_quantum {
            t_obs = (t_obs / q).round() * q;
        }
        let saturated = t_obs > self.slice;
        let t_obs = t_obs.min(self.slice);
        let v_hat = self.vs * (1.0 - (-t_obs / self.tau).exp());
        (
            v_hat / k,
            DecodeTrace {
                v_eff,
                t_obs,
                offset_clamped: raw != v_eff,
                saturated,
            },
        )
    }

    /// [`BatchPlan::forward_one`] with an optional telemetry probe.
    ///
    /// With `None` this *is* `forward_one`. With a probe, the per-tile
    /// column loop is split into a crossbar pass (weighted sums and
    /// sampled `V_out`, staged in the scratch buffer) and a decode pass,
    /// so S1 encode, the computation stage and S2 decode can be timed
    /// separately — and the decode records the `t_out`/`V_out`
    /// histograms, zero-activation skips, comparator-offset rejects and
    /// slice-end saturations. Every column still sees the exact
    /// floating-point operation sequence of the unprobed path on the
    /// same inputs (columns are independent; staging an intermediate in
    /// memory does not change its bits), so probed outputs remain
    /// **bit-identical**.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`.
    pub fn forward_one_probed(
        &self,
        activations: &[f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<Vec<f64>, ResipeError> {
        let Some(probe) = probe else {
            return self.forward_one(activations, scratch);
        };
        if activations.len() != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: activations.len(),
            });
        }
        let mut stats = SampleStats {
            mvms: 2 * self.tiles.len() as u64,
            ..SampleStats::default()
        };
        let mut acc = vec![0.0f64; self.cols];
        for tile in &self.tiles {
            let t0 = Instant::now();
            scratch.v_in.clear();
            scratch.nonzero.clear();
            for (p, &l) in tile.row_source.iter().enumerate() {
                let a = activations[tile.row_start + l].clamp(0.0, 1.0);
                if a == 0.0 {
                    scratch.v_in.push(0.0);
                    stats.zero_activation_skips += 1;
                    continue;
                }
                let v = self.s1_encode(a);
                scratch.v_in.push(v);
                if v != 0.0 {
                    scratch.nonzero.push(p as u32);
                }
            }
            let t1 = Instant::now();
            scratch.v_cols.clear();
            for j in 0..tile.cols {
                let col = j * tile.rows..(j + 1) * tile.rows;
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                let mut wp = 0.0f64;
                let mut wm = 0.0f64;
                for &p in &scratch.nonzero {
                    let v = scratch.v_in[p as usize];
                    wp += v * gp[p as usize];
                    wm += v * gm[p as usize];
                }
                scratch.v_cols.push((
                    Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]),
                    Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]),
                ));
            }
            let t2 = Instant::now();
            for (j, slot) in acc.iter_mut().enumerate().take(tile.cols) {
                let (vp, vm) = scratch.v_cols[j];
                // The zero-voltage fast path of `forward_one` reuses a
                // value hoisted from this same pure function, so always
                // decoding here returns the same bits — and lets the
                // probe observe every column.
                let (d_plus, tr_p) =
                    self.decode_column_traced(vp, tile.offset_plus[j], tile.k_plus[j]);
                let (d_minus, tr_m) =
                    self.decode_column_traced(vm, tile.offset_minus[j], tile.k_minus[j]);
                for tr in [&tr_p, &tr_m] {
                    probe.record_decode(tr.v_eff, tr.t_obs);
                    stats.comparator_offset_rejects += u64::from(tr.offset_clamped);
                    stats.saturated_decodes += u64::from(tr.saturated);
                }
                *slot += d_plus - d_minus;
            }
            let t3 = Instant::now();
            stats.s1_encode_nanos += (t1 - t0).as_nanos() as u64;
            stats.crossbar_nanos += (t2 - t1).as_nanos() as u64;
            stats.s2_decode_nanos += (t3 - t2).as_nanos() as u64;
        }
        let t_scale = Instant::now();
        for y in &mut acc {
            *y *= self.scale;
        }
        stats.s2_decode_nanos += t_scale.elapsed().as_nanos() as u64;
        probe.record_sample(stats);
        Ok(acc)
    }

    /// Stages one tile's wordlines for every sample of a block into the
    /// scratch buffers: held voltages at stride `tile.rows`, and the
    /// per-sample non-zero index lists behind a shared prefix-bounds
    /// array. Every computation stage — the fused scalar kernel, the
    /// probed kernel and each backend of [`BatchPlan::run_block_kernel`]
    /// — consumes exactly these buffers, whichever [`Wordlines`] source
    /// filled them. Returns the number of zero-activation wordlines.
    ///
    /// * [`Wordlines::Rows`] encodes each wordline's activation as it is
    ///   staged — the exact encode sequence of
    ///   [`BatchPlan::forward_one`]; only the buffer it lands in differs.
    /// * [`Wordlines::Patches`] encodes nothing: every wordline gathers
    ///   its held voltage from the sample's map built by
    ///   [`BatchPlan::encode_conv_map`], where each input element was
    ///   encoded once. `held + 0.0` turns the map's `-0.0`
    ///   zero-activation mark into the `+0.0` the rows source stages
    ///   and leaves every other entry (all `≥ +0.0`) unchanged, so the
    ///   staged voltages, non-zero lists and skip count equal what
    ///   encoding the im2col column of each pixel would give.
    fn stage_wordlines(
        &self,
        ti: usize,
        source: Wordlines<'_>,
        samples: usize,
        scratch: &mut BatchScratch,
    ) -> u64 {
        let tile = &self.tiles[ti];
        let mut skips = 0u64;
        scratch.v_in_block.clear();
        scratch.nz_idx.clear();
        scratch.nz_bounds.clear();
        scratch.nz_bounds.push(0);
        match source {
            Wordlines::Rows(activations) => {
                for b in 0..samples {
                    let base = b * self.rows + tile.row_start;
                    for (p, &l) in tile.row_source.iter().enumerate() {
                        let a = activations[base + l].clamp(0.0, 1.0);
                        if a == 0.0 {
                            scratch.v_in_block.push(0.0);
                            skips += 1;
                            continue;
                        }
                        let v = self.s1_encode(a);
                        scratch.v_in_block.push(v);
                        if v != 0.0 {
                            scratch.nz_idx.push(p as u32);
                        }
                    }
                    scratch.nz_bounds.push(scratch.nz_idx.len());
                }
            }
            Wordlines::Patches {
                conv,
                map,
                first_pixel,
            } => {
                let offsets = &conv.offsets[ti];
                scratch.nz_idx.resize(samples * tile.rows, 0);
                let mut nz = 0usize;
                for pix in first_pixel..first_pixel + samples {
                    let corner = (pix / conv.out_w) * conv.padded_w + pix % conv.out_w;
                    // Branch-free: every wordline writes its index, and
                    // the cursor only moves past the non-zero ones.
                    for (p, &off) in offsets.iter().enumerate() {
                        let held = map[corner + off];
                        skips += u64::from(held.is_sign_negative());
                        let v = held + 0.0;
                        scratch.v_in_block.push(v);
                        scratch.nz_idx[nz] = p as u32;
                        nz += usize::from(v != 0.0);
                    }
                    scratch.nz_bounds.push(nz);
                }
                scratch.nz_idx.truncate(nz);
            }
        }
        skips
    }

    /// The wordline wiring of a convolution over `[channels, height,
    /// width]` inputs with a square `kernel` and symmetric zero
    /// `padding` (stride 1) on this plan's layer, whose logical rows are
    /// the im2col rows `(ch, ki, kj)`, i.e. `ch·k² + ki·k + kj`.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `channels · kernel² == rows` and the padded input is at least
    /// `kernel` on each side.
    pub(crate) fn conv_gather(
        &self,
        channels: usize,
        height: usize,
        width: usize,
        kernel: usize,
        padding: usize,
    ) -> Result<ConvGather, ResipeError> {
        if channels * kernel * kernel != self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: self.rows,
                got: channels * kernel * kernel,
            });
        }
        let (padded_h, padded_w) = (height + 2 * padding, width + 2 * padding);
        if padded_h.min(padded_w) < kernel {
            return Err(ResipeError::DimensionMismatch {
                expected: kernel,
                got: padded_h.min(padded_w),
            });
        }
        let offsets = self
            .tiles
            .iter()
            .map(|tile| {
                tile.row_source
                    .iter()
                    .map(|&l| {
                        let r = tile.row_start + l;
                        let (ch, ki, kj) =
                            (r / (kernel * kernel), (r / kernel) % kernel, r % kernel);
                        (ch * padded_h + ki) * padded_w + kj
                    })
                    .collect()
            })
            .collect();
        Ok(ConvGather {
            channels,
            height,
            width,
            padding,
            padded_h,
            padded_w,
            out_h: padded_h + 1 - kernel,
            out_w: padded_w + 1 - kernel,
            offsets,
        })
    }

    /// S1 for one convolution sample: fills `map` with the zero-padded
    /// `[channels, height + 2p, width + 2p]` held-voltage map of
    /// `input` (one sample, `channels · height · width` values), each
    /// element normalized by `input_scale` and encoded exactly once.
    /// Zero activations and padding hold `-0.0`, a mark the gather of
    /// [`BatchPlan::stage_wordlines`] counts as a zero-activation
    /// wordline and stages as `+0.0`. With a probe, the time is added to
    /// the layer's S1 encode stage.
    pub(crate) fn encode_conv_map(
        &self,
        conv: &ConvGather,
        input: &[f32],
        input_scale: f64,
        map: &mut Vec<f64>,
        probe: Option<&LayerProbe>,
    ) {
        let t0 = probe.map(|_| Instant::now());
        let (h, w, pad) = (conv.height, conv.width, conv.padding);
        map.clear();
        map.resize(conv.channels * conv.padded_h * conv.padded_w, -0.0);
        for ch in 0..conv.channels {
            for i in 0..h {
                let src = &input[(ch * h + i) * w..(ch * h + i + 1) * w];
                let at = (ch * conv.padded_h + i + pad) * conv.padded_w + pad;
                for (held, &x) in map[at..at + w].iter_mut().zip(src) {
                    let a = (x as f64 / input_scale).clamp(0.0, 1.0);
                    *held = if a == 0.0 { -0.0 } else { self.s1_encode(a) };
                }
            }
        }
        if let (Some(probe), Some(t0)) = (probe, t0) {
            probe.record_s1_encode(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Rejects a block whose activation or output buffer does not hold
    /// exactly `samples` rows of this layer.
    fn check_block(
        &self,
        activations: &[f64],
        samples: usize,
        out: &[f64],
    ) -> Result<(), ResipeError> {
        if activations.len() != samples * self.rows {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.rows,
                got: activations.len(),
            });
        }
        if out.len() != samples * self.cols {
            return Err(ResipeError::DimensionMismatch {
                expected: samples * self.cols,
                got: out.len(),
            });
        }
        Ok(())
    }

    /// Executes one block of `samples` logical MVMs from any wordline
    /// source through the selected backend, writing `samples × cols`
    /// outputs to `out`: the fused scalar kernel when unprobed, the
    /// probed scalar kernel with a probe, and the staged pipeline
    /// otherwise. A conv block of pixels from
    /// [`BatchPlan::encode_conv_map`]'s map returns the bits the same
    /// kernel returns on the pixels' normalized im2col columns.
    pub(crate) fn run_block(
        &self,
        backend: Backend,
        source: Wordlines<'_>,
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) {
        match (backend, probe) {
            (Backend::Scalar, None) => self.block_fused(source, samples, out, scratch),
            (Backend::Scalar, Some(probe)) => {
                self.block_probed(source, samples, out, scratch, probe)
            }
            _ => self.run_block_kernel(backend, source, samples, out, scratch, probe),
        }
    }

    /// Executes `samples` logical MVMs in one pass over the tile data —
    /// the cache-blocked kernel. `activations` holds the samples
    /// back-to-back (`samples × rows`), `out` receives the outputs
    /// back-to-back (`samples × cols`).
    ///
    /// Per tile, the S1 encode runs for every sample of the block first,
    /// then each column's conductance pair is loaded **once** and swept
    /// across all samples, so tile data is read from cache instead of
    /// being re-streamed from memory per sample. For every sample the
    /// per-(tile, column) contributions still accumulate in tile order
    /// with the row-order weighted sums of `forward_one`, so the result
    /// is **bit-identical** to calling [`BatchPlan::forward_one`] on
    /// each sample — for any block size.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block(
        &self,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) -> Result<(), ResipeError> {
        self.check_block(activations, samples, out)?;
        self.block_fused(Wordlines::Rows(activations), samples, out, scratch);
        Ok(())
    }

    /// The fused scalar kernel behind [`BatchPlan::forward_block`].
    fn block_fused(
        &self,
        source: Wordlines<'_>,
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) {
        out.fill(0.0);
        for (ti, tile) in self.tiles.iter().enumerate() {
            self.stage_wordlines(ti, source, samples, scratch);
            for j in 0..tile.cols {
                let col = j * tile.rows..(j + 1) * tile.rows;
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                for b in 0..samples {
                    let v_in = &scratch.v_in_block[b * tile.rows..(b + 1) * tile.rows];
                    let nz = &scratch.nz_idx[scratch.nz_bounds[b]..scratch.nz_bounds[b + 1]];
                    let mut wp = 0.0f64;
                    let mut wm = 0.0f64;
                    for &p in nz {
                        let v = v_in[p as usize];
                        wp += v * gp[p as usize];
                        wm += v * gm[p as usize];
                    }
                    let vp = Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]);
                    let vm = Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]);
                    let d_plus = if vp == 0.0 {
                        tile.d0_plus[j]
                    } else {
                        self.decode_column(vp, tile.offset_plus[j], tile.k_plus[j])
                    };
                    let d_minus = if vm == 0.0 {
                        tile.d0_minus[j]
                    } else {
                        self.decode_column(vm, tile.offset_minus[j], tile.k_minus[j])
                    };
                    out[b * self.cols + j] += d_plus - d_minus;
                }
            }
        }
        for y in out.iter_mut() {
            *y *= self.scale;
        }
    }

    /// [`BatchPlan::forward_block`] with an optional telemetry probe.
    ///
    /// With `None` this *is* `forward_block`. With a probe, the per-tile
    /// work is split into a block encode pass, a crossbar pass staging
    /// every `(column, sample)` voltage pair, and a decode pass, so the
    /// three stages can be timed separately and every column decode is
    /// observed — the same staging argument as
    /// [`BatchPlan::forward_one_probed`] keeps the outputs
    /// **bit-identical**. The probe's layer counters advance by the
    /// whole block (`calls += samples`), and the global kernel counters
    /// record one block of `samples` samples streaming
    /// [`BatchPlan::tile_stream_bytes`] conductance bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block_probed(
        &self,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<(), ResipeError> {
        self.forward_block_probed_with(Backend::Scalar, activations, samples, out, scratch, probe)
    }

    /// The probed scalar kernel behind [`BatchPlan::forward_block_probed`].
    fn block_probed(
        &self,
        source: Wordlines<'_>,
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: &LayerProbe,
    ) {
        let mut stats = SampleStats {
            mvms: (samples * 2 * self.tiles.len()) as u64,
            ..SampleStats::default()
        };
        out.fill(0.0);
        for (ti, tile) in self.tiles.iter().enumerate() {
            let t0 = Instant::now();
            stats.zero_activation_skips += self.stage_wordlines(ti, source, samples, scratch);
            let t1 = Instant::now();
            scratch.v_cols_block.clear();
            for j in 0..tile.cols {
                let col = j * tile.rows..(j + 1) * tile.rows;
                let gp = &tile.g_plus[col.clone()];
                let gm = &tile.g_minus[col];
                for b in 0..samples {
                    let v_in = &scratch.v_in_block[b * tile.rows..(b + 1) * tile.rows];
                    let nz = &scratch.nz_idx[scratch.nz_bounds[b]..scratch.nz_bounds[b + 1]];
                    let mut wp = 0.0f64;
                    let mut wm = 0.0f64;
                    for &p in nz {
                        let v = v_in[p as usize];
                        wp += v * gp[p as usize];
                        wm += v * gm[p as usize];
                    }
                    scratch.v_cols_block.push((
                        Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]),
                        Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]),
                    ));
                }
            }
            let t2 = Instant::now();
            for j in 0..tile.cols {
                for b in 0..samples {
                    let (vp, vm) = scratch.v_cols_block[j * samples + b];
                    let (d_plus, tr_p) =
                        self.decode_column_traced(vp, tile.offset_plus[j], tile.k_plus[j]);
                    let (d_minus, tr_m) =
                        self.decode_column_traced(vm, tile.offset_minus[j], tile.k_minus[j]);
                    for tr in [&tr_p, &tr_m] {
                        probe.record_decode(tr.v_eff, tr.t_obs);
                        stats.comparator_offset_rejects += u64::from(tr.offset_clamped);
                        stats.saturated_decodes += u64::from(tr.saturated);
                    }
                    out[b * self.cols + j] += d_plus - d_minus;
                }
            }
            let t3 = Instant::now();
            stats.s1_encode_nanos += (t1 - t0).as_nanos() as u64;
            stats.crossbar_nanos += (t2 - t1).as_nanos() as u64;
            stats.s2_decode_nanos += (t3 - t2).as_nanos() as u64;
        }
        let t_scale = Instant::now();
        for y in out.iter_mut() {
            *y *= self.scale;
        }
        stats.s2_decode_nanos += t_scale.elapsed().as_nanos() as u64;
        probe.record_block(stats, samples as u64);
        probe.record_kernel(samples as u64, self.tile_stream_bytes, Backend::Scalar);
    }

    /// [`BatchPlan::forward_one`] executed by the selected
    /// [`Backend`]. [`Backend::Scalar`] *is* `forward_one`;
    /// [`Backend::VectorF32`] returns the same bits through the lane
    /// kernel; [`Backend::FixedI32`] stays within
    /// [`BatchPlan::backend_error_bound`] of the reference.
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == rows`.
    pub fn forward_one_with(
        &self,
        backend: Backend,
        activations: &[f64],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<f64>, ResipeError> {
        if backend == Backend::Scalar {
            return self.forward_one(activations, scratch);
        }
        let mut out = vec![0.0f64; self.cols];
        self.forward_block_with(backend, activations, 1, &mut out, scratch)?;
        Ok(out)
    }

    /// [`BatchPlan::forward_block`] executed by the selected
    /// [`Backend`]. The scalar arm delegates to the untouched reference
    /// kernel; the other backends run the shared
    /// encode → prepare → stage → decode pipeline with their own
    /// computation stage (see [`crate::kernel`] for the per-backend
    /// equivalence guarantees).
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block_with(
        &self,
        backend: Backend,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) -> Result<(), ResipeError> {
        self.forward_block_probed_with(backend, activations, samples, out, scratch, None)
    }

    /// [`BatchPlan::forward_block_probed`] executed by the selected
    /// [`Backend`]: the probed counterpart of
    /// [`BatchPlan::forward_block_with`]. The probe's kernel counters
    /// record the block against the backend that ran it (per-backend
    /// block counters, backend-specific streamed bytes).
    ///
    /// # Errors
    ///
    /// Returns [`ResipeError::DimensionMismatch`] unless
    /// `activations.len() == samples * rows` and
    /// `out.len() == samples * cols`.
    pub fn forward_block_probed_with(
        &self,
        backend: Backend,
        activations: &[f64],
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) -> Result<(), ResipeError> {
        self.check_block(activations, samples, out)?;
        let source = Wordlines::Rows(activations);
        self.run_block(backend, source, samples, out, scratch, probe);
        Ok(())
    }

    /// The generic staged block pipeline behind the non-scalar
    /// backends: shared S1 wordline staging, backend prepare + compute
    /// stages filling the `(V_out⁺, V_out⁻)` staging buffer, then the
    /// shared decode pass. Always decoding (no `d0` fast path) returns
    /// the same bits as the fused scalar kernel — the zero-voltage fast
    /// path reuses a value hoisted from this same pure function — which
    /// is what lets one decode pass serve every backend.
    fn run_block_kernel(
        &self,
        backend: Backend,
        source: Wordlines<'_>,
        samples: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
        probe: Option<&LayerProbe>,
    ) {
        let kernel = backend.kernel();
        let mut stats = SampleStats {
            mvms: (samples * 2 * self.tiles.len()) as u64,
            ..SampleStats::default()
        };
        out.fill(0.0);
        for ti in 0..self.tiles.len() {
            let t0 = Instant::now();
            stats.zero_activation_skips += self.stage_wordlines(ti, source, samples, scratch);
            kernel.prepare_tile_block(self, ti, samples, scratch);
            let t1 = Instant::now();
            scratch.v_cols_block.clear();
            scratch
                .v_cols_block
                .resize(self.tiles[ti].cols * samples, (0.0, 0.0));
            kernel.stage_tile_block(self, ti, samples, scratch);
            let t2 = Instant::now();
            let tile = &self.tiles[ti];
            for j in 0..tile.cols {
                for b in 0..samples {
                    let (vp, vm) = scratch.v_cols_block[j * samples + b];
                    let (d_plus, tr_p) =
                        self.decode_column_traced(vp, tile.offset_plus[j], tile.k_plus[j]);
                    let (d_minus, tr_m) =
                        self.decode_column_traced(vm, tile.offset_minus[j], tile.k_minus[j]);
                    if let Some(probe) = probe {
                        for tr in [&tr_p, &tr_m] {
                            probe.record_decode(tr.v_eff, tr.t_obs);
                            stats.comparator_offset_rejects += u64::from(tr.offset_clamped);
                            stats.saturated_decodes += u64::from(tr.saturated);
                        }
                    }
                    out[b * self.cols + j] += d_plus - d_minus;
                }
            }
            let t3 = Instant::now();
            stats.s1_encode_nanos += (t1 - t0).as_nanos() as u64;
            stats.crossbar_nanos += (t2 - t1).as_nanos() as u64;
            stats.s2_decode_nanos += (t3 - t2).as_nanos() as u64;
        }
        let t_scale = Instant::now();
        for y in out.iter_mut() {
            *y *= self.scale;
        }
        stats.s2_decode_nanos += t_scale.elapsed().as_nanos() as u64;
        if let Some(probe) = probe {
            probe.record_block(stats, samples as u64);
            probe.record_kernel(samples as u64, kernel.stream_bytes(self), backend);
        }
    }

    /// The scalar computation stage in staged form: the sparse
    /// non-zero-index walk of [`BatchPlan::forward_block`] writing the
    /// sampled voltage pairs into the staging buffer instead of fusing
    /// the decode.
    pub(crate) fn stage_tile_block_scalar(
        &self,
        ti: usize,
        samples: usize,
        scratch: &mut BatchScratch,
    ) {
        let tile = &self.tiles[ti];
        for j in 0..tile.cols {
            let col = j * tile.rows..(j + 1) * tile.rows;
            let gp = &tile.g_plus[col.clone()];
            let gm = &tile.g_minus[col];
            for b in 0..samples {
                let v_in = &scratch.v_in_block[b * tile.rows..(b + 1) * tile.rows];
                let nz = &scratch.nz_idx[scratch.nz_bounds[b]..scratch.nz_bounds[b + 1]];
                let mut wp = 0.0f64;
                let mut wm = 0.0f64;
                for &p in nz {
                    let v = v_in[p as usize];
                    wp += v * gp[p as usize];
                    wm += v * gm[p as usize];
                }
                scratch.v_cols_block[j * samples + b] = (
                    Self::v_out(wp, tile.g_total_plus[j], tile.charge_plus[j]),
                    Self::v_out(wm, tile.g_total_minus[j], tile.charge_minus[j]),
                );
            }
        }
    }

    /// The [`Backend::VectorF32`] computation stage: [`VECTOR_LANES`]
    /// samples advance per conductance load, each lane's accumulator
    /// adding its products in the reference ascending row order, and the
    /// dense rows replace the non-zero index walk (zero-voltage rows
    /// contribute exact `±0.0` products, which cannot flip an
    /// accumulator that is never `-0.0`). Bit-identical to
    /// [`BatchPlan::stage_tile_block_scalar`] by construction.
    pub(crate) fn stage_tile_block_vector(
        &self,
        ti: usize,
        samples: usize,
        scratch: &mut BatchScratch,
    ) {
        let tile = &self.tiles[ti];
        let rows = tile.rows;
        for j in 0..tile.cols {
            let col = j * rows..(j + 1) * rows;
            let gp = &tile.g_plus[col.clone()];
            let gm = &tile.g_minus[col];
            let (gtp, chp) = (tile.g_total_plus[j], tile.charge_plus[j]);
            let (gtm, chm) = (tile.g_total_minus[j], tile.charge_minus[j]);
            let mut b = 0usize;
            while b + VECTOR_LANES <= samples {
                let mut wp = [0.0f64; VECTOR_LANES];
                let mut wm = [0.0f64; VECTOR_LANES];
                let lanes: [&[f64]; VECTOR_LANES] = std::array::from_fn(|l| {
                    &scratch.v_in_block[(b + l) * rows..(b + l + 1) * rows]
                });
                for (p, (&gpv, &gmv)) in gp.iter().zip(gm).enumerate() {
                    for l in 0..VECTOR_LANES {
                        let v = lanes[l][p];
                        wp[l] += v * gpv;
                        wm[l] += v * gmv;
                    }
                }
                for l in 0..VECTOR_LANES {
                    scratch.v_cols_block[j * samples + b + l] =
                        (Self::v_out(wp[l], gtp, chp), Self::v_out(wm[l], gtm, chm));
                }
                b += VECTOR_LANES;
            }
            while b < samples {
                let v_in = &scratch.v_in_block[b * rows..(b + 1) * rows];
                let mut swp = 0.0f64;
                let mut swm = 0.0f64;
                for (p, (&gpv, &gmv)) in gp.iter().zip(gm).enumerate() {
                    let v = v_in[p];
                    swp += v * gpv;
                    swm += v * gmv;
                }
                scratch.v_cols_block[j * samples + b] =
                    (Self::v_out(swp, gtp, chp), Self::v_out(swm, gtm, chm));
                b += 1;
            }
        }
    }

    /// The [`Backend::FixedI32`] prepare stage: rounds the block's held
    /// wordline voltages to `i32` codes of `v_lsb` volts each. Codes
    /// never exceed `2^FIXED_QBITS` because held voltages live in
    /// `[0, V_s)`.
    pub(crate) fn quantize_block_inputs(&self, scratch: &mut BatchScratch) {
        scratch.q_in_block.clear();
        for &v in &scratch.v_in_block {
            scratch.q_in_block.push((v / self.v_lsb).round() as i32);
        }
    }

    /// The [`Backend::FixedI32`] computation stage: an exact `i64` dot
    /// product of the quantized voltage and conductance codes,
    /// dequantized once per `(column, sample)` and fed through the same
    /// analog charge division as the reference. Products are bounded by
    /// `2^(2·FIXED_QBITS)`, so the accumulator cannot overflow below
    /// `2^33` wordlines per tile.
    pub(crate) fn stage_tile_block_fixed(
        &self,
        ti: usize,
        samples: usize,
        scratch: &mut BatchScratch,
    ) {
        let tile = &self.tiles[ti];
        let ft = &self.fixed_tiles()[ti];
        let rows = tile.rows;
        for j in 0..tile.cols {
            let col = j * rows..(j + 1) * rows;
            let qp = &ft.q_plus[col.clone()];
            let qm = &ft.q_minus[col];
            for b in 0..samples {
                let qv = &scratch.q_in_block[b * rows..(b + 1) * rows];
                let mut ap = 0i64;
                let mut am = 0i64;
                for (p, (&qpv, &qmv)) in qp.iter().zip(qm).enumerate() {
                    let v = i64::from(qv[p]);
                    ap += v * i64::from(qpv);
                    am += v * i64::from(qmv);
                }
                scratch.v_cols_block[j * samples + b] = (
                    Self::v_out(
                        ap as f64 * ft.w_scale,
                        tile.g_total_plus[j],
                        tile.charge_plus[j],
                    ),
                    Self::v_out(
                        am as f64 * ft.w_scale,
                        tile.g_total_minus[j],
                        tile.charge_minus[j],
                    ),
                );
            }
        }
    }

    /// The lazily built integer tile mirrors of the fixed-point backend.
    fn fixed_tiles(&self) -> &[FixedTile] {
        self.fixed.get_or_init(|| {
            self.tiles
                .iter()
                .map(|t| {
                    let g_max = t
                        .g_plus
                        .iter()
                        .chain(&t.g_minus)
                        .fold(f64::MIN_POSITIVE, |m, &g| m.max(g));
                    let g_lsb = g_max / FIXED_LEVELS;
                    let quantize =
                        |gs: &[f64]| gs.iter().map(|&g| (g / g_lsb).round() as i32).collect();
                    FixedTile {
                        q_plus: quantize(&t.g_plus),
                        q_minus: quantize(&t.g_minus),
                        g_lsb,
                        w_scale: self.v_lsb * g_lsb,
                    }
                })
                .collect()
        })
    }

    /// Worst-case absolute deviation of the selected backend from the
    /// scalar reference, per logical output column, on *any* valid
    /// input. Exact backends return all-zero bounds; the documented
    /// [`Backend::FixedI32`] bound is, per column `j` and differential
    /// arm of each tile:
    ///
    /// * weighted-sum quantization
    ///   `Δw ≤ ΣG_j · v_lsb/2 + rows · (V_s · g_lsb/2 + v_lsb·g_lsb/4)`
    ///   (each held voltage is within `v_lsb/2` of its code, each
    ///   conductance within `g_lsb/2`, voltages below `V_s`);
    /// * through the charge division, `Δv_out = (Δw / ΣG_j) · charge_j`;
    /// * through the decode — a monotone 1-Lipschitz map of the clamped
    ///   comparator voltage, plus `V_s · q / τ_gd` when spike times are
    ///   quantized to `q` (time rounding moves each decode by at most
    ///   `q/2 · V_s/τ_gd`), plus a `10⁻¹² V_s` float-evaluation
    ///   allowance — divided by the column constant `k_j`;
    /// * summed over both arms and all tiles, scaled by the digital
    ///   rescale, with a `1 + 10⁻⁹` safety factor for `f64` rounding in
    ///   the comparison itself.
    ///
    /// The `backend_equivalence` proptests pin every fixed-point output
    /// inside this bound across shapes, block sizes and the full
    /// non-ideality chain.
    pub fn backend_error_bound(&self, backend: Backend) -> Vec<f64> {
        if backend.is_exact() {
            return vec![0.0; self.cols];
        }
        let dv = self.v_lsb / 2.0;
        let tq = self.time_quantum.map_or(0.0, |q| self.vs * q / self.tau);
        let fixed = self.fixed_tiles();
        let mut bound = vec![0.0f64; self.cols];
        for (tile, ft) in self.tiles.iter().zip(fixed) {
            let dg = ft.g_lsb / 2.0;
            let per_row = self.vs * dg + dv * dg;
            for (j, slot) in bound.iter_mut().enumerate().take(tile.cols) {
                for (g_total, charge, k) in [
                    (tile.g_total_plus[j], tile.charge_plus[j], tile.k_plus[j]),
                    (tile.g_total_minus[j], tile.charge_minus[j], tile.k_minus[j]),
                ] {
                    if g_total == 0.0 {
                        // Both backends sample exactly V_out = 0 here.
                        continue;
                    }
                    let dw = g_total * dv + tile.rows as f64 * per_row;
                    let dvout = dw / g_total * charge;
                    *slot += (dvout + tq + 1e-12 * self.vs) / k;
                }
            }
        }
        let s = self.scale.abs() * (1.0 + 1e-9);
        for b in &mut bound {
            *b *= s;
        }
        bound
    }
}

/// Observation sidecar of one traced column decode.
#[derive(Debug, Clone, Copy)]
struct DecodeTrace {
    /// Effective comparator voltage after offset and range clamp.
    v_eff: f64,
    /// Observed (possibly quantized, slice-limited) spike time.
    t_obs: f64,
    /// `true` when the clamp changed `v_out + offset`.
    offset_clamped: bool,
    /// `true` when the spike time saturated at the slice end.
    saturated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResipeConfig;
    use crate::mapping::TileMapper;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> ResipeEngine {
        ResipeEngine::new(ResipeConfig::paper())
    }

    fn exact_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "column {i}: {x:e} vs {y:e} differ in bits"
            );
        }
    }

    #[test]
    fn plan_matches_sequential_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights: Vec<f64> = (0..64 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 64, 5).unwrap();
        let e = engine();
        for encoding in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let plan = BatchPlan::new(&e, &mapped, encoding);
            let mut scratch = plan.scratch();
            for _ in 0..5 {
                let a: Vec<f64> = (0..64).map(|_| rng.gen_range(0.0..1.0)).collect();
                let seq = mapped.forward(&e, &a, encoding).unwrap();
                let bat = plan.forward_one(&a, &mut scratch).unwrap();
                exact_eq(&seq, &bat);
            }
        }
    }

    #[test]
    fn plan_matches_under_nonidealities() {
        let mut rng = StdRng::seed_from_u64(13);
        let weights: Vec<f64> = (0..48 * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = resipe_reram::VariationModel::device_to_device(0.15).unwrap();
        let mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&weights, 48, 3)
            .unwrap()
            .with_faults(0.02, 4, 99)
            .unwrap()
            .perturbed(&model, 7)
            .with_comparator_offsets(0.01, 21)
            .with_time_quantization(Seconds(1e-9));
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let mut scratch = plan.scratch();
        for _ in 0..5 {
            // Sparse activations exercise the zero-skip path.
            let a: Vec<f64> = (0..48)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.5 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let seq = mapped.forward(&e, &a, SpikeEncoding::PassThrough).unwrap();
            let bat = plan.forward_one(&a, &mut scratch).unwrap();
            exact_eq(&seq, &bat);
        }
    }

    #[test]
    fn probed_path_is_bit_identical_and_records() {
        let mut rng = StdRng::seed_from_u64(17);
        let weights: Vec<f64> = (0..48 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper()
            .map(&weights, 48, 4)
            .unwrap()
            .with_comparator_offsets(0.01, 5);
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let telemetry = crate::telemetry::Telemetry::enabled();
        let cfg = e.config();
        let probe = telemetry
            .layer_probe(0, cfg.slice().0, cfg.vs().0)
            .expect("enabled probe");
        let mut scratch = plan.scratch();
        let mut samples = 0u64;
        for _ in 0..4 {
            let a: Vec<f64> = (0..48)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let plain = plan.forward_one(&a, &mut scratch).unwrap();
            let probed = plan
                .forward_one_probed(&a, &mut scratch, Some(&probe))
                .unwrap();
            exact_eq(&plain, &probed);
            samples += 1;
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.layers.len(), 1);
        let l = snap.layers[0];
        assert_eq!(l.calls, samples);
        assert_eq!(l.mvms, samples * mapped.mvms_per_forward() as u64);
        assert!(l.zero_activation_skips > 0, "sparse inputs must skip");
        // Every decoded column lands in both histograms (2 arrays/col).
        let decodes = samples * 2 * 4 * plan.tiles.len() as u64;
        assert_eq!(snap.t_out.total(), decodes);
        assert_eq!(snap.v_out.total(), decodes);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mapped = TileMapper::paper().map(&[0.5, -0.5], 2, 1).unwrap();
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::LinearTime);
        let mut scratch = plan.scratch();
        assert!(plan.forward_one(&[0.1], &mut scratch).is_err());
        let mut out = vec![0.0; 2];
        assert!(plan
            .forward_block(&[0.1; 3], 2, &mut out, &mut scratch)
            .is_err());
        assert!(plan
            .forward_block(&[0.1; 4], 2, &mut out[..1], &mut scratch)
            .is_err());
    }

    #[test]
    fn block_kernel_matches_forward_one_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        let weights: Vec<f64> = (0..80 * 6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = resipe_reram::VariationModel::device_to_device(0.12).unwrap();
        let mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&weights, 80, 6)
            .unwrap()
            .with_faults(0.02, 4, 31)
            .unwrap()
            .perturbed(&model, 9)
            .with_comparator_offsets(0.01, 17)
            .with_time_quantization(Seconds(1e-9));
        let e = engine();
        for encoding in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let plan = BatchPlan::new(&e, &mapped, encoding);
            let mut scratch = plan.scratch();
            let n = 13usize;
            let a: Vec<f64> = (0..n * 80)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let mut reference = Vec::with_capacity(n * 6);
            for b in 0..n {
                reference.extend(
                    plan.forward_one(&a[b * 80..(b + 1) * 80], &mut scratch)
                        .unwrap(),
                );
            }
            for block in [1usize, 2, 3, 5, 8, 13, 64] {
                let mut out = vec![f64::NAN; n * 6];
                for start in (0..n).step_by(block) {
                    let b = block.min(n - start);
                    plan.forward_block(
                        &a[start * 80..(start + b) * 80],
                        b,
                        &mut out[start * 6..(start + b) * 6],
                        &mut scratch,
                    )
                    .unwrap();
                }
                exact_eq(&reference, &out);
            }
        }
    }

    #[test]
    fn probed_block_is_bit_identical_and_counts_whole_block() {
        let mut rng = StdRng::seed_from_u64(29);
        let weights: Vec<f64> = (0..48 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper()
            .map(&weights, 48, 4)
            .unwrap()
            .with_comparator_offsets(0.01, 5);
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let telemetry = crate::telemetry::Telemetry::enabled();
        let cfg = e.config();
        let probe = telemetry
            .layer_probe(0, cfg.slice().0, cfg.vs().0)
            .expect("enabled probe");
        let mut scratch = plan.scratch();
        let n = 7usize;
        let a: Vec<f64> = (0..n * 48).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut plain = vec![0.0; n * 4];
        plan.forward_block(&a, n, &mut plain, &mut scratch).unwrap();
        let mut probed = vec![0.0; n * 4];
        plan.forward_block_probed(&a, n, &mut probed, &mut scratch, Some(&probe))
            .unwrap();
        exact_eq(&plain, &probed);
        let snap = telemetry.snapshot();
        let l = snap.layers[0];
        assert_eq!(l.calls, n as u64, "one block must count all its samples");
        assert_eq!(l.mvms, (n * mapped.mvms_per_forward()) as u64);
        assert_eq!(snap.counters.kernel_blocks, 1);
        assert_eq!(snap.counters.kernel_block_samples, n as u64);
        assert_eq!(
            snap.counters.kernel_bytes_streamed,
            plan.tile_stream_bytes()
        );
        assert!(plan.tile_stream_bytes() > 0);
    }

    /// A mapped layer carrying the full non-ideality chain, shared by
    /// the backend tests below.
    fn nonideal_mapped(rows: usize, cols: usize, quantized: bool) -> MappedWeights {
        let mut rng = StdRng::seed_from_u64(41);
        let weights: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = resipe_reram::VariationModel::device_to_device(0.12).unwrap();
        let mapped = TileMapper::paper()
            .with_spare_cols(2)
            .map(&weights, rows, cols)
            .unwrap()
            .with_faults(0.02, 4, 31)
            .unwrap()
            .perturbed(&model, 9)
            .with_comparator_offsets(0.01, 17);
        if quantized {
            mapped.with_time_quantization(Seconds(1e-9))
        } else {
            mapped
        }
    }

    #[test]
    fn vector_backend_is_bit_identical_across_blocks() {
        let mut rng = StdRng::seed_from_u64(43);
        let mapped = nonideal_mapped(80, 6, true);
        let e = engine();
        for encoding in [SpikeEncoding::LinearTime, SpikeEncoding::PassThrough] {
            let plan = BatchPlan::new(&e, &mapped, encoding);
            let mut scratch = plan.scratch();
            let n = 11usize;
            let a: Vec<f64> = (0..n * 80)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let mut reference = Vec::with_capacity(n * 6);
            for b in 0..n {
                reference.extend(
                    plan.forward_one(&a[b * 80..(b + 1) * 80], &mut scratch)
                        .unwrap(),
                );
            }
            // Blocks below, at, and above the lane width exercise both
            // the unrolled lanes and the scalar remainder loop.
            for block in [1usize, 3, 4, 5, 8, 11] {
                let mut out = vec![f64::NAN; n * 6];
                for start in (0..n).step_by(block) {
                    let b = block.min(n - start);
                    plan.forward_block_with(
                        Backend::VectorF32,
                        &a[start * 80..(start + b) * 80],
                        b,
                        &mut out[start * 6..(start + b) * 6],
                        &mut scratch,
                    )
                    .unwrap();
                }
                exact_eq(&reference, &out);
            }
        }
    }

    #[test]
    fn fixed_backend_stays_within_documented_bound() {
        let mut rng = StdRng::seed_from_u64(47);
        let e = engine();
        for quantized in [false, true] {
            let mapped = nonideal_mapped(64, 5, quantized);
            let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
            let bound = plan.backend_error_bound(Backend::FixedI32);
            assert!(bound.iter().all(|&b| b > 0.0 && b.is_finite()));
            let mut scratch = plan.scratch();
            for _ in 0..8 {
                let a: Vec<f64> = (0..64).map(|_| rng.gen_range(0.0..1.0)).collect();
                let exact = plan.forward_one(&a, &mut scratch).unwrap();
                let fixed = plan
                    .forward_one_with(Backend::FixedI32, &a, &mut scratch)
                    .unwrap();
                for (j, ((x, f), b)) in exact.iter().zip(&fixed).zip(&bound).enumerate() {
                    let dev = (x - f).abs();
                    assert!(
                        dev <= *b,
                        "column {j}: |{x:e} - {f:e}| = {dev:e} exceeds bound {b:e} \
                         (quantized: {quantized})"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_backends_report_zero_bound() {
        let mapped = nonideal_mapped(32, 3, false);
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::LinearTime);
        assert!(plan
            .backend_error_bound(Backend::Scalar)
            .iter()
            .all(|&b| b == 0.0));
        assert!(plan
            .backend_error_bound(Backend::VectorF32)
            .iter()
            .all(|&b| b == 0.0));
    }

    #[test]
    fn probed_backend_blocks_count_per_backend() {
        let mut rng = StdRng::seed_from_u64(53);
        let weights: Vec<f64> = (0..48 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mapped = TileMapper::paper().map(&weights, 48, 4).unwrap();
        let e = engine();
        let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
        let telemetry = crate::telemetry::Telemetry::enabled();
        let cfg = e.config();
        let probe = telemetry
            .layer_probe(0, cfg.slice().0, cfg.vs().0)
            .expect("enabled probe");
        let mut scratch = plan.scratch();
        let n = 6usize;
        let a: Vec<f64> = (0..n * 48).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut plain = vec![0.0; n * 4];
        plan.forward_block_with(Backend::VectorF32, &a, n, &mut plain, &mut scratch)
            .unwrap();
        let mut probed = vec![0.0; n * 4];
        plan.forward_block_probed_with(
            Backend::VectorF32,
            &a,
            n,
            &mut probed,
            &mut scratch,
            Some(&probe),
        )
        .unwrap();
        exact_eq(&plain, &probed);
        let mut fixed = vec![0.0; n * 4];
        plan.forward_block_probed_with(
            Backend::FixedI32,
            &a,
            n,
            &mut fixed,
            &mut scratch,
            Some(&probe),
        )
        .unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters.kernel_blocks, 2);
        assert_eq!(snap.counters.backend_vector_f32_blocks, 1);
        assert_eq!(snap.counters.backend_fixed_i32_blocks, 1);
        assert_eq!(snap.counters.backend_scalar_blocks, 0);
        // The vector backend streams the f64 mirrors, the fixed backend
        // its half-width i32 codes.
        assert_eq!(
            snap.counters.kernel_bytes_streamed,
            plan.tile_stream_bytes() + plan.tile_stream_bytes() / 2
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The convolution source stages exactly what the rows source
        /// stages for the pixels' normalized im2col columns — so every
        /// backend returns the same bits from either, the fixed-point
        /// backend stays inside its documented bound of the scalar
        /// reference, and the zero-activation count is the same — on
        /// repaired, multi-tile layers under the full non-ideality chain.
        #[test]
        fn conv_patches_stage_like_im2col_rows(
            c in 1usize..5,
            kernel in 1usize..6,
            pad_raw in 0usize..5,
            h_raw in 1usize..7,
            w_raw in 1usize..7,
            cols in 1usize..5,
            tiles in 1usize..4,
            block_idx in 0usize..3,
            scale_raw in 1u32..40,
            seed in 0u64..1000,
        ) {
            let padding = pad_raw % kernel;
            let min_side = kernel.saturating_sub(2 * padding).max(1);
            let (h, w) = (h_raw.max(min_side), w_raw.max(min_side));
            let block = [1usize, 3, 64][block_idx];
            let input_scale = f64::from(scale_raw) / 10.0;
            let rows = c * kernel * kernel;
            let mut rng = StdRng::seed_from_u64(seed);
            let weights: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let model = resipe_reram::VariationModel::device_to_device(0.12).unwrap();
            let mut mapped = TileMapper::paper()
                .with_spare_cols(2)
                .try_with_max_rows(rows.div_ceil(tiles))
                .unwrap()
                .map(&weights, rows, cols)
                .unwrap()
                .with_faults(0.1, 4, seed)
                .unwrap()
                .perturbed(&model, seed ^ 9);
            let e = engine();
            crate::repair::repair_layer(&e, &mut mapped, 0, &crate::repair::RepairPolicy::full(), seed)
                .unwrap();
            let mapped = mapped
                .with_comparator_offsets(0.01, seed ^ 17)
                .with_time_quantization(Seconds(1e-9));
            let plan = BatchPlan::new(&e, &mapped, SpikeEncoding::PassThrough);
            let x: Vec<f32> = (0..c * h * w)
                .map(|_| match rng.gen_range(0..10) {
                    0..=3 => 0.0,
                    4 => -rng.gen_range(0.0..1.0f32),
                    _ => rng.gen_range(0.0..4.0f32),
                })
                .collect();
            let conv = plan.conv_gather(c, h, w, kernel, padding).unwrap();
            let n_pix = conv.out_h * conv.out_w;
            let tensor = resipe_nn::tensor::Tensor::from_vec(x.clone(), &[1, c, h, w]).unwrap();
            let im2col = resipe_nn::layers::im2col(&tensor, 0, kernel, padding).unwrap();
            let mut a = Vec::with_capacity(n_pix * rows);
            for pix in 0..n_pix {
                a.extend((0..rows).map(|r| {
                    (f64::from(im2col.data()[r * n_pix + pix]) / input_scale).clamp(0.0, 1.0)
                }));
            }
            let mut map = Vec::new();
            plan.encode_conv_map(&conv, &x, input_scale, &mut map, None);
            let mut scratch = plan.scratch();
            let bound = plan.backend_error_bound(Backend::FixedI32);
            let cfg = e.config();
            for backend in Backend::all() {
                let t_rows = crate::telemetry::Telemetry::enabled();
                let t_patches = crate::telemetry::Telemetry::enabled();
                let p_rows = t_rows.layer_probe(0, cfg.slice().0, cfg.vs().0);
                let p_patches = t_patches.layer_probe(0, cfg.slice().0, cfg.vs().0);
                let mut from_rows = vec![0.0; n_pix * cols];
                let mut from_patches = vec![0.0; n_pix * cols];
                for start in (0..n_pix).step_by(block) {
                    let bl = block.min(n_pix - start);
                    let out = start * cols..(start + bl) * cols;
                    plan.forward_block_probed_with(
                        backend,
                        &a[start * rows..(start + bl) * rows],
                        bl,
                        &mut from_rows[out.clone()],
                        &mut scratch,
                        p_rows.as_ref(),
                    )
                    .unwrap();
                    let patches = Wordlines::Patches {
                        conv: &conv,
                        map: &map,
                        first_pixel: start,
                    };
                    plan.run_block(
                        backend,
                        patches,
                        bl,
                        &mut from_patches[out],
                        &mut scratch,
                        p_patches.as_ref(),
                    );
                }
                exact_eq(&from_rows, &from_patches);
                let zero_wordlines = a.iter().filter(|&&v| v == 0.0).count() as u64;
                proptest::prop_assert_eq!(
                    t_patches.snapshot().counters.zero_activation_skips,
                    zero_wordlines
                );
                proptest::prop_assert_eq!(
                    t_rows.snapshot().counters.zero_activation_skips,
                    zero_wordlines
                );
                for pix in 0..n_pix {
                    let exact = plan.forward_one(&a[pix * rows..(pix + 1) * rows], &mut scratch).unwrap();
                    let got = &from_patches[pix * cols..(pix + 1) * cols];
                    if backend.is_exact() {
                        exact_eq(&exact, got);
                    } else {
                        for (j, (x, f)) in exact.iter().zip(got).enumerate() {
                            proptest::prop_assert!(
                                (x - f).abs() <= bound[j],
                                "pixel {pix} column {j}: |{x:e} - {f:e}| > {:e}",
                                bound[j]
                            );
                        }
                    }
                }
            }
        }
    }
}
