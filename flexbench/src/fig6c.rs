//! `fig6c_rpca`: the paper's Fig. 6c RPCA strategy on a stream. Clips
//! of one drifting 32x32 hand, 10 % stuck errors, 55 % sampling, RPCA
//! outlier filtering warm-started frame to frame by a
//! `StrategySession`; decodes stay cold.

use crate::common::{
    bit_hash, mean, mix, overhead, repeated_setup, same_prefix, Frames, Layers, Report, RunConfig,
};
use crate::fig6a::basisop_pair;
use flexcs::core::{
    outlier_indices, rmse, run_experiment_stream, ExperimentConfig, RpcaConfig, RpcaStream,
    SamplingPlan, SamplingStrategy, SparseErrorModel, StrategySession,
};
use flexcs::datasets::{normalize_unit, thermal_sequence, ThermalConfig};
use flexcs::linalg::Matrix;
use flexcs::transform::Dct2d;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames per clip; each clip starts a fresh session (cold RPCA). A
/// cold frame costs about what a warm one does, so short clips cost
/// nothing and let one run average over many hands.
const CLIP: usize = 8;
/// Distinct clips, each a hand with its own error and sampling draws;
/// the window replays them in order until it ends.
const CLIPS: usize = 40;
const PASS: usize = CLIPS * CLIP;
/// Frames decoded before the timed window.
const WARMUP: usize = 2;
/// Frames of the first clip replayed through `run_experiment_stream`.
const REPLAY: usize = 4;

struct Inputs {
    seed: u64,
    clips: Vec<Vec<Matrix>>,
    config: ExperimentConfig,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let clips = (0..CLIPS)
            .map(|c| thermal_sequence(&ThermalConfig::default(), CLIP, mix(seed, 3, c as u64)))
            .collect();
        let inputs = Inputs {
            seed,
            clips,
            config: ExperimentConfig {
                sampling_fraction: 0.55,
                strategy: SamplingStrategy::RpcaFilter { threshold: 0.3 },
                ..ExperimentConfig::default()
            },
        };
        let mut session = StrategySession::new(inputs.config.strategy.clone());
        for k in 0..WARMUP {
            inputs
                .frame(&mut session, k)
                .expect("warm-up frame decodes");
        }
        inputs
    }

    fn scene(&self, k: usize) -> &Matrix {
        let i = k % PASS;
        &self.clips[i / CLIP][i % CLIP]
    }

    /// The experiment seed of frame `k`: clip base seed plus the
    /// per-frame step `run_experiment_stream` applies.
    fn frame_seed(&self, k: usize) -> u64 {
        let i = k % PASS;
        let base = mix(self.seed, 4, (i / CLIP) as u64);
        base.wrapping_add((i % CLIP) as u64 * 1013)
    }

    fn measurements(&self) -> usize {
        let (rows, cols) = self.clips[0][0].shape();
        let n = rows * cols;
        (((n as f64) * self.config.sampling_fraction)
            .round()
            .max(1.0) as usize)
            .min(n)
    }

    /// `run_experiment_stream`'s per-frame body: normalize, inject,
    /// reconstruct through the session. Returns `(frame, rmse_cs,
    /// rmse_raw)`.
    fn frame(
        &self,
        session: &mut StrategySession,
        k: usize,
    ) -> flexcs::core::Result<(Matrix, f64, f64)> {
        let seed = self.frame_seed(k);
        let truth = normalize_unit(self.scene(k));
        let model = SparseErrorModel::new(self.config.error_fraction)?;
        let (corrupted, _) = model.corrupt(&truth, seed);
        let rec = session.reconstruct(
            &corrupted,
            self.measurements(),
            &self.config.decoder,
            seed ^ 0x5a5a,
        )?;
        let (cs, raw) = (rmse(&rec, &truth), rmse(&corrupted, &truth));
        Ok((rec, cs, raw))
    }
}

fn untraced(inputs: &Inputs, phase: Duration) -> Frames {
    let mut out = Frames::calibrated(CLIP);
    let mut session = StrategySession::new(inputs.config.strategy.clone());
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < phase {
        if k % CLIP == 0 {
            session = StrategySession::new(inputs.config.strategy.clone());
        }
        let t = Instant::now();
        let result = inputs.frame(&mut session, k);
        let latency = t.elapsed();
        out.push(
            start,
            latency,
            result.as_ref().ok().map(|(f, c, r)| (f, *c, *r)),
        );
        k += 1;
    }
    out
}

/// RPCA figures of the traced frames: flags against the injected
/// stuck set (summed) and the decompositions' reports.
#[derive(Default)]
struct RpcaStats {
    flagged: usize,
    stuck: usize,
    hits: usize,
    iterations: Vec<f64>,
    converged: usize,
    warm_ranks: Vec<f64>,
}

/// The same frames through `RpcaStream`, `outlier_indices`,
/// `SamplingPlan` and `Decoder`, each call timed. Mirrors the session's
/// RPCA-filter step for step, so its outputs are bit-identical.
fn traced(inputs: &Inputs, phase: Duration, layers: &mut Layers) -> (Frames, RpcaStats, f64) {
    let config = &inputs.config;
    let SamplingStrategy::RpcaFilter { threshold } = config.strategy else {
        unreachable!("fig6c_rpca uses the RPCA-filter strategy");
    };
    let (rows, cols) = inputs.clips[0][0].shape();
    let n = rows * cols;
    let m = inputs.measurements();
    let model = SparseErrorModel::new(config.error_fraction).expect("valid error fraction");
    let plan = Arc::new(Dct2d::new(rows, cols).expect("frame-sized DCT plan"));
    let mut stream = RpcaStream::new(RpcaConfig::default());
    let mut stats = RpcaStats::default();
    let mut out = Frames::calibrated(CLIP);
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < phase {
        if k % CLIP == 0 {
            stream = RpcaStream::new(RpcaConfig::default());
        }
        let seed = inputs.frame_seed(k);
        let t = Instant::now();
        let (truth, corrupted, stuck) = layers.time("core.inject", || {
            let truth = normalize_unit(inputs.scene(k));
            let (corrupted, stuck) = model.corrupt(&truth, seed);
            (truth, corrupted, stuck)
        });
        let result = layers
            .time("core.rpca", || stream.push(&corrupted))
            .and_then(|dec| {
                stats.iterations.push(dec.iterations as f64);
                stats.converged += usize::from(dec.converged);
                stats
                    .warm_ranks
                    .push(stream.warm_rank().unwrap_or(0) as f64);
                let (excluded, sampling) = layers.time("core.sampling", || {
                    let excluded = outlier_indices(&dec, threshold);
                    let m_eff = m.min(n - excluded.len().min(n));
                    let sampling = SamplingPlan::random_subset(n, m_eff, &excluded, seed ^ 0x5a5a)
                        .map(|p| {
                            let y = p.measure(&corrupted.to_flat());
                            (p, y)
                        });
                    (excluded, sampling)
                });
                stats.flagged += excluded.len();
                stats.stuck += stuck.len();
                stats.hits += excluded
                    .iter()
                    .filter(|i| stuck.binary_search(i).is_ok())
                    .count();
                let (sampling, y) = sampling?;
                let rec = layers.time("core.decode", || {
                    config
                        .decoder
                        .reconstruct(rows, cols, sampling.selected(), &y)
                })?;
                Ok((sampling, rec))
            });
        let latency = t.elapsed();
        match result {
            Ok((sampling, rec)) => {
                layers.time("core.basisop", || {
                    basisop_pair(&plan, &sampling, &rec.coefficients)
                });
                layers.add_solve(&rec.report, &config.decoder);
                let (cs, raw) = (rmse(&rec.frame, &truth), rmse(&corrupted, &truth));
                out.push(start, latency, Some((&rec.frame, cs, raw)));
            }
            Err(_) => out.push(start, latency, None),
        }
        k += 1;
    }
    let wall = start.elapsed().as_secs_f64() - out.window.paused();
    (out, stats, wall)
}

pub fn run(cfg: &RunConfig) -> Report {
    let (inputs, setup_s) = repeated_setup(|| Inputs::new(cfg.seed));
    let mut report = Report::default();
    let base = untraced(&inputs, cfg.phase());
    report.attempted = base.window.attempted;
    report.failed = base.window.attempted - base.window.ok;
    base.check(&mut report);
    // The session-driven loop must match the library's stream runner.
    let mut replay_cfg = inputs.config.clone();
    replay_cfg.seed = inputs.frame_seed(0);
    let replay: Vec<u64> = run_experiment_stream(&inputs.clips[0][..REPLAY], &replay_cfg)
        .map(|outs| {
            outs.iter()
                .map(|o| bit_hash(o.reconstructed.as_slice()))
                .collect()
        })
        .unwrap_or_default();
    report.check(
        format!("first {REPLAY} frames bit-identical to run_experiment_stream"),
        replay.len() == REPLAY && same_prefix(&base.hashes, &replay) == Some(true),
    );
    report.info("frames", base.window.attempted);
    report.info("clip_frames", CLIP);
    if cfg.trace {
        let mut layers = Layers::default();
        let (traced, stats, wall) = traced(&inputs, cfg.phase(), &mut layers);
        report.attempted += traced.window.attempted;
        report.failed += traced.window.attempted - traced.window.ok;
        report.check(
            "traced outputs bit-identical to the session loop",
            same_prefix(&base.hashes, &traced.hashes) == Some(true),
        );
        layers.report_solver("core.decode", &mut report);
        report.set("core.inject.us_p50", layers.p50("core.inject") * 1e6);
        report.set("core.sampling.us_p50", layers.p50("core.sampling") * 1e6);
        report.set("core.basisop.pair_us", layers.p50("core.basisop") * 1e6);
        report.set("core.rpca.ms_p50", layers.p50("core.rpca") * 1e3);
        report.set("core.rpca.iters_mean", mean(&stats.iterations));
        report.set(
            "core.rpca.converged_frac",
            stats.converged as f64 / stats.iterations.len().max(1) as f64,
        );
        report.set("core.rpca.warm_rank_mean", mean(&stats.warm_ranks));
        report.set(
            "core.rpca.flag_precision",
            stats.hits as f64 / stats.flagged.max(1) as f64,
        );
        report.set(
            "core.rpca.flag_recall",
            stats.hits as f64 / stats.stuck.max(1) as f64,
        );
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
