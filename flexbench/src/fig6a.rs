//! `fig6a_cold`: the paper's Fig. 6a headline point. Independent 32x32
//! thermal frames, 10 % stuck-at errors, 50 % sampling that excludes
//! tested defects, one cold default-FISTA decode per frame, one caller
//! back to back.

use crate::common::{
    mix, overhead, repeated_setup, same_prefix, Frames, Layers, Report, RunConfig,
};
use flexcs::core::{
    detect_extremes, run_experiment, BasisKind, ExperimentConfig, SamplingPlan, SamplingStrategy,
    SparseErrorModel, SubsampledDctOperator,
};
use flexcs::datasets::{normalize_unit, thermal_frames, ThermalConfig};
use flexcs::linalg::Matrix;
use flexcs::solver::LinearOperator;
use flexcs::transform::Dct2d;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct frames (scene, error and sampling draws); the window
/// replays them in order until it ends.
const PASS: usize = 256;
/// Frames decoded before the timed window.
const WARMUP: usize = 8;
/// Frames between samples of the host's speed.
const CALIBRATE_EVERY: usize = 64;
/// The `paper_gate` Fig. 6a gate on mean CS RMSE at 10 % errors.
const RMSE_GATE: f64 = 0.08;

struct Inputs {
    seed: u64,
    scenes: Vec<Matrix>,
    config: ExperimentConfig,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let scenes = thermal_frames(&ThermalConfig::default(), PASS, mix(seed, 1, 0));
        let mut inputs = Inputs {
            seed,
            scenes,
            config: ExperimentConfig::default(),
        };
        for k in 0..WARMUP {
            inputs.config.seed = inputs.frame_seed(k);
            run_experiment(inputs.scene(k), &inputs.config).expect("warm-up frame decodes");
        }
        inputs
    }

    fn scene(&self, k: usize) -> &Matrix {
        &self.scenes[k % PASS]
    }

    fn frame_seed(&self, k: usize) -> u64 {
        mix(self.seed, 2, (k % PASS) as u64)
    }
}

/// The program as a user runs it: `run_experiment` per frame.
fn untraced(inputs: &Inputs, phase: Duration) -> Frames {
    let mut config = inputs.config.clone();
    let mut out = Frames::calibrated(CALIBRATE_EVERY);
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < phase {
        config.seed = inputs.frame_seed(k);
        let t = Instant::now();
        let result = run_experiment(inputs.scene(k), &config);
        let latency = t.elapsed();
        let frame = result.as_ref().ok();
        out.push(
            start,
            latency,
            frame.map(|o| (&o.reconstructed, o.rmse_cs, o.rmse_raw)),
        );
        k += 1;
    }
    out
}

/// The same frames through the layers' public entry points, each call
/// timed. Mirrors `run_experiment` with the exclude-tested strategy
/// step for step, so its outputs are bit-identical.
fn traced(inputs: &Inputs, phase: Duration, layers: &mut Layers) -> (Frames, f64) {
    let config = &inputs.config;
    let SamplingStrategy::ExcludeTested { margin } = config.strategy else {
        unreachable!("fig6a_cold uses the exclude-tested strategy");
    };
    let (rows, cols) = inputs.scenes[0].shape();
    let n = rows * cols;
    let m = ((n as f64) * config.sampling_fraction).round().max(1.0) as usize;
    let model = SparseErrorModel::new(config.error_fraction).expect("valid error fraction");
    let plan = Arc::new(Dct2d::new(rows, cols).expect("frame-sized DCT plan"));
    let mut out = Frames::calibrated(CALIBRATE_EVERY);
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < phase {
        let seed = inputs.frame_seed(k);
        let t = Instant::now();
        let (truth, corrupted) = layers.time("core.inject", || {
            let truth = normalize_unit(inputs.scene(k));
            let (corrupted, _) = model.corrupt(&truth, seed);
            (truth, corrupted)
        });
        let sampling = layers.time("core.sampling", || {
            let excluded = detect_extremes(&corrupted, margin);
            let m_eff = m.min(n - excluded.len().min(n));
            SamplingPlan::random_subset(n, m_eff, &excluded, seed ^ 0x5a5a).map(|p| {
                let y = p.measure(&corrupted.to_flat());
                (p, y)
            })
        });
        let rec = sampling.and_then(|(sampling, y)| {
            let rec = layers.time("core.decode", || {
                config
                    .decoder
                    .reconstruct(rows, cols, sampling.selected(), &y)
            })?;
            Ok((sampling, rec))
        });
        let latency = t.elapsed();
        match rec {
            Ok((sampling, rec)) => {
                layers.time("core.basisop", || {
                    basisop_pair(&plan, &sampling, &rec.coefficients)
                });
                layers.add_solve(&rec.report, &config.decoder);
                let rmse_cs = flexcs::core::rmse(&rec.frame, &truth);
                let rmse_raw = flexcs::core::rmse(&corrupted, &truth);
                out.push(start, latency, Some((&rec.frame, rmse_cs, rmse_raw)));
            }
            Err(_) => out.push(start, latency, None),
        }
        k += 1;
    }
    let wall = start.elapsed().as_secs_f64() - out.window.paused();
    (out, wall)
}

/// One `apply` + `apply_transpose` of the frame's measurement operator:
/// FISTA's per-iteration kernel (transform plus gather/scatter).
pub fn basisop_pair(plan: &Arc<Dct2d>, sampling: &SamplingPlan, coefficients: &Matrix) {
    let (rows, cols) = coefficients.shape();
    let op = SubsampledDctOperator::with_plan(
        rows,
        cols,
        sampling.selected().to_vec(),
        BasisKind::Dct,
        Arc::clone(plan),
    )
    .expect("operator over the frame's own plan");
    let y = op.apply(black_box(coefficients.as_slice()));
    black_box(op.apply_transpose(&y));
}

pub fn run(cfg: &RunConfig) -> Report {
    let (inputs, setup_s) = repeated_setup(|| Inputs::new(cfg.seed));
    let mut report = Report::default();
    let base = untraced(&inputs, cfg.phase());
    report.attempted = base.window.attempted;
    report.failed = base.window.attempted - base.window.ok;
    let cs = base.check(&mut report);
    report.check(
        format!("mean rmse {cs:.5} <= {RMSE_GATE} (paper_gate Fig. 6a)"),
        cs <= RMSE_GATE,
    );
    report.info("frames", base.window.attempted);
    if cfg.trace {
        let mut layers = Layers::default();
        let (traced, wall) = traced(&inputs, cfg.phase(), &mut layers);
        report.attempted += traced.window.attempted;
        report.failed += traced.window.attempted - traced.window.ok;
        let same = same_prefix(&base.hashes, &traced.hashes);
        report.check(
            "traced outputs bit-identical to run_experiment",
            same == Some(true),
        );
        layers.report_solver("core.decode", &mut report);
        report.set("core.inject.us_p50", layers.p50("core.inject") * 1e6);
        report.set("core.sampling.us_p50", layers.p50("core.sampling") * 1e6);
        report.set("core.basisop.pair_us", layers.p50("core.basisop") * 1e6);
        report.set(
            "trace.overhead_frac",
            overhead(&base.window, &traced.window),
        );
        report.set("trace.ops", traced.window.attempted as f64);
        report.set("unattributed_frac", 1.0 - layers.covered() / wall);
    } else {
        base.window.end_to_end(&setup_s, &mut report);
    }
    report
}
