//! `circuit_tile`: a closed loop of seeded sweeps through the MNA
//! netlist (`AnalogMvm`, `SolverKind::Auto`), every column checked
//! against the closed-form `ResipeEngine`.

use std::time::{Duration, Instant};

use resipe::circuit::AnalogMvm;
use resipe::config::ResipeConfig;
use resipe::engine::ResipeEngine;
use resipe_analog::transient::{SolverKind, SolverSession};
use resipe_analog::units::{Ohms, Seconds};

use crate::common::{median, peak_rss_mib, repeated_setup, Chunks, Rng, Sheet, SpanId, Tracer};
use crate::inputs::{circuit_point, circuit_stream, Class};
use crate::{Args, Outcome, SETUP_REPS};

/// Integration step of every transient.
const STEP: Seconds = Seconds(100e-12);
/// Bitline wire resistance per cell segment in the `wire` class.
const WIRE_OHMS: f64 = 2.5;
/// Column tolerances against the closed-form engine.
const TOL_DV: f64 = 0.01;
const TOL_DT: f64 = 0.05;

/// Sweep points per class in one round; each sweep shares one
/// `SolverSession`.
fn points_per_sweep(class: Class) -> usize {
    match class {
        Class::Small => 16,
        Class::Tile => 2,
        Class::Wire => 3,
    }
}

/// Per-class accumulators.
#[derive(Default)]
struct ClassStats {
    solve_ms: Vec<f64>,
    dense_runs: usize,
    sparse_runs: usize,
    unknowns: usize,
    nonzeros: usize,
    assemblies: usize,
    symbolic_analyses: usize,
    numeric_refactors: usize,
    solves: usize,
    reused_factor_solves: usize,
}

/// What checking one transient against the engine found.
struct Check {
    max_dv: f64,
    ok: bool,
}

struct Sweeper {
    config: ResipeConfig,
    engine: ResipeEngine,
}

impl Sweeper {
    /// Runs one sweep of `class` from `rng`, timing each transient.
    fn sweep(
        &self,
        class: Class,
        rng: &mut Rng,
        stats: &mut ClassStats,
        engine_ms: &mut Vec<f64>,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<Vec<Check>, String> {
        let (rows, cols) = class.shape();
        let mut session = SolverSession::new();
        let sweep_span = tracer.open("analog.sweep", parent);
        let mut checks = Vec::new();
        for _ in 0..points_per_sweep(class) {
            let point = circuit_point(rng, class);
            let g: Vec<f64> = point.conductances.iter().map(|g| g.0).collect();
            let t0 = Instant::now();
            let reference = self
                .engine
                .mvm_matrix(&g, rows, cols, &point.spikes)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            tracer.record("analog.engine_ref", t0, t1, sweep_span, None);
            engine_ms.push((t1 - t0).as_secs_f64() * 1e3);

            let mut mvm = AnalogMvm::new(self.config, &point.conductances, rows, cols)
                .map_err(|e| e.to_string())?
                .with_solver(SolverKind::Auto);
            if class == Class::Wire {
                mvm = mvm.with_wire_resistance(Ohms(WIRE_OHMS));
            }
            let t0 = Instant::now();
            let result =
                std::hint::black_box(mvm.run_with_session(&point.spikes, STEP, &mut session));
            let t1 = Instant::now();
            tracer.record("analog.transient", t0, t1, sweep_span, None);
            let result = result.map_err(|e| format!("{} transient failed: {e}", class.name()))?;
            stats.solve_ms.push((t1 - t0).as_secs_f64() * 1e3);

            let s = &result.solver_stats;
            match s.backend {
                SolverKind::Dense => stats.dense_runs += 1,
                _ => stats.sparse_runs += 1,
            }
            stats.unknowns = s.unknowns;
            stats.nonzeros = s.nonzeros;
            stats.assemblies += s.assemblies;
            stats.symbolic_analyses += s.symbolic_analyses;
            stats.numeric_refactors += s.numeric_refactors;
            stats.solves += s.solves;
            stats.reused_factor_solves += s.reused_factor_solves;

            let mut check = Check {
                max_dv: 0.0,
                ok: result.columns.len() == reference.len(),
            };
            for (a, e) in result.columns.iter().zip(&reference) {
                let dv = (a.v_out.0 - e.v_out.0).abs();
                check.max_dv = check.max_dv.max(dv);
                let dt_ok =
                    e.saturated || (a.t_out.0 - e.t_out.0).abs() / e.t_out.0.max(1e-10) < TOL_DT;
                check.ok &= dv < TOL_DV && dt_ok && a.saturated == e.saturated;
            }
            checks.push(check);
        }
        tracer.close(sweep_span);
        Ok(checks)
    }
}

fn setup(args: &Args, tracer: &Tracer) -> Result<Sweeper, String> {
    let config = ResipeConfig::paper();
    let sweeper = Sweeper {
        config,
        engine: ResipeEngine::try_new(config).map_err(|e| e.to_string())?,
    };
    // Warm-up: one sweep of every class.
    let warm = tracer.open("warmup", None);
    let mut rng = circuit_stream(args.seed);
    for class in Class::ALL {
        let checks = sweeper.sweep(
            class,
            &mut rng,
            &mut ClassStats::default(),
            &mut Vec::new(),
            tracer,
            warm,
        )?;
        if let Some(bad) = checks.iter().find(|c| !c.ok) {
            return Err(format!(
                "warm-up {} transient out of tolerance (|dv| {:.4} V)",
                class.name(),
                bad.max_dv
            ));
        }
    }
    tracer.close(warm);
    Ok(sweeper)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let (sweeper, setup_times) = repeated_setup(SETUP_REPS, tracer, || setup(args, tracer))?;
    let mut sheet = Sheet::default();
    sheet.set("setup_s", median(&setup_times), "s");

    sheet.set("peak_rss_mb", peak_rss_mib(), "MiB");
    let mut rng = circuit_stream(args.seed);
    let mut stats: Vec<ClassStats> = Class::ALL.iter().map(|_| ClassStats::default()).collect();
    let mut engine_ms = Vec::new();
    let mut checks = Vec::new();
    let window = tracer.open("window", None);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Whole rounds only, so every run weighs the classes alike; each
    // round is one chunk of the CPU-time and rate medians.
    let mut chunks = Chunks::start();
    while Instant::now() < deadline {
        let before = checks.len();
        for (class, st) in Class::ALL.iter().zip(stats.iter_mut()) {
            checks.extend(sweeper.sweep(*class, &mut rng, st, &mut engine_ms, tracer, window)?);
        }
        chunks.mark(checks.len() - before);
    }
    tracer.close(window);

    let failed = checks.iter().filter(|c| !c.ok).count();
    if failed > 0 {
        eprintln!("circuit_tile: {failed} transients out of tolerance (|dv| < {TOL_DV} V, |dt|/t < {TOL_DT})");
    }
    let max_dv = checks.iter().map(|c| c.max_dv).fold(0.0, f64::max);
    sheet.set("max_abs_dv_v", max_dv, "V");
    let tile = &stats[1];
    sheet.set("p50_ms", median(&tile.solve_ms), "ms");
    sheet.set("cpu_ms_per_op", chunks.scaled_cpu_ms_per_op(), "ms");
    sheet.set("rate_per_s", chunks.scaled_ops_per_s(), "1/s");
    sheet.set("raw_cpu_ms_per_op", chunks.cpu_ms_per_op(), "ms");
    sheet.set("raw_rate_per_s", chunks.ops_per_s(), "1/s");
    sheet.set("host_probe_ms", chunks.probe_ms(), "ms");
    sheet.set("rounds", chunks.count() as f64, "count");
    for (class, st) in Class::ALL.iter().zip(&stats) {
        let c = class.name();
        sheet.set(format!("solve_ms.{c}"), median(&st.solve_ms), "ms");
        sheet.set(format!("transients.{c}"), st.solve_ms.len() as f64, "count");
        sheet.set(
            format!("analog.{c}.dense_runs"),
            st.dense_runs as f64,
            "count",
        );
        sheet.set(
            format!("analog.{c}.sparse_runs"),
            st.sparse_runs as f64,
            "count",
        );
        sheet.set(format!("analog.{c}.unknowns"), st.unknowns as f64, "count");
        sheet.set(format!("analog.{c}.nonzeros"), st.nonzeros as f64, "count");
        sheet.set(
            format!("analog.{c}.assemblies"),
            st.assemblies as f64,
            "count",
        );
        sheet.set(
            format!("analog.{c}.symbolic_analyses"),
            st.symbolic_analyses as f64,
            "count",
        );
        sheet.set(
            format!("analog.{c}.numeric_refactors"),
            st.numeric_refactors as f64,
            "count",
        );
        sheet.set(format!("analog.{c}.solves"), st.solves as f64, "count");
        sheet.set(
            format!("analog.{c}.factor_reuse"),
            if st.solves == 0 {
                0.0
            } else {
                st.reused_factor_solves as f64 / st.solves as f64
            },
            "reused/solves",
        );
    }
    sheet.set("analog.engine_ref_ms", median(&engine_ms), "ms");

    Ok(Outcome {
        correct: failed == 0,
        attempted: checks.len() as u64,
        failed: failed as u64,
        sheet,
        idle: &[
            "nn.",
            "compile.",
            "inference.",
            "layer",
            "kernel.",
            "sim.",
            "loadgen.",
            "serve.",
            "aging.",
            "scrub.",
        ],
    })
}
