//! `mc_yield`: Monte-Carlo yield sweeps of a 16x16 statically selected
//! readout column (306 MNA unknowns) through `McEngine` with its default
//! configuration and `VariationModel::default()`. A trial passes when
//! every row readout stays within 25 mV of the nominal readout.

use crate::common::{
    bit_hash, mean, mix, overhead, repeated_setup, same_prefix, valid_output, Layers, Report,
    RunConfig, Window,
};
use flexcs::circuit::{
    Circuit, CntTftModel, McEngine, McEngineConfig, McReport, McSample, McTrial, NodeId,
    PtSensorModel, VariationModel, Waveform,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rows and columns of the pixel array the readout column belongs to.
const SIDE: usize = 16;
/// Trials per sweep: the stated size of one yield estimate.
const TRIALS: usize = 100;
/// Supply voltage; readout deviations are reported as a share of it.
const VDD: f64 = 3.0;
/// Pass limit on the worst-row readout deviation, volts.
const PASS_V: f64 = 0.025;
/// Sweeps run before the timed window.
const WARMUP: usize = 4;
/// Distinct sweeps; the window replays them in order until it ends.
const PASS: usize = 100;
/// Sweeps between samples of the host's speed.
const CALIBRATE_EVERY: usize = 16;

/// Column 0's active-low select is tied on and every other column off,
/// so one DC solve reads the whole selected column through its access
/// TFTs. `models` gives each access TFT's compact model in raster
/// order.
fn readout_circuit(models: &[CntTftModel]) -> flexcs::circuit::Result<(Circuit, Vec<NodeId>)> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(vdd, NodeId::GROUND, Waveform::Dc(VDD));
    let sels: Vec<NodeId> = (0..SIDE)
        .map(|c| {
            let n = ckt.node(&format!("sel{c}"));
            ckt.add_vsource(
                n,
                NodeId::GROUND,
                Waveform::Dc(if c == 0 { 0.0 } else { VDD }),
            );
            n
        })
        .collect();
    let rows: Vec<NodeId> = (0..SIDE).map(|r| ckt.node(&format!("row{r}"))).collect();
    for &row in &rows {
        ckt.add_resistor(row, NodeId::GROUND, 10_000.0)?;
    }
    let sensor = PtSensorModel::default();
    let mut models = models.iter();
    for (r, &row) in rows.iter().enumerate() {
        for (c, &sel) in sels.iter().enumerate() {
            let x = ckt.fresh_node("px");
            let model = models.next().expect("one model per pixel").clone();
            ckt.add_tft_with_model(sel, x, vdd, 20.0, model)?;
            let t = 20.0 + 20.0 * ((r * SIDE + c) as f64 / (SIDE * SIDE) as f64);
            ckt.add_resistor(x, row, sensor.resistance(t))?;
        }
    }
    Ok((ckt, rows))
}

struct Inputs {
    seed: u64,
    variation: VariationModel,
    nominal_model: CntTftModel,
    nominal_rows: Vec<f64>,
    engine: McEngine,
}

/// Per-trial spans of one traced evaluation, in seconds:
/// `[perturb, build and teardown, dc, whole eval]`.
type TrialSpans = Mutex<Vec<[f64; 4]>>;

impl Inputs {
    fn new(seed: u64, threads: usize) -> Self {
        let nominal_model = CntTftModel::default();
        let (ckt, rows) =
            readout_circuit(&vec![nominal_model.clone(); SIDE * SIDE]).expect("nominal circuit");
        let op = ckt.dc_operating_point().expect("nominal readout converges");
        let inputs = Inputs {
            seed,
            variation: VariationModel::default(),
            nominal_model,
            nominal_rows: rows.iter().map(|&n| op.voltage(n)).collect(),
            engine: McEngine::new(McEngineConfig {
                threads: Some(threads),
                ..McEngineConfig::default()
            }),
        };
        for j in 0..WARMUP {
            inputs
                .sweep(&inputs.engine, j, None)
                .expect("warm-up sweep");
        }
        inputs
    }

    fn sweep_seed(&self, j: usize) -> u64 {
        mix(self.seed, 8, j as u64)
    }

    /// One yield sweep of [`TRIALS`] trials; with `spans`, each trial's
    /// perturbation, netlist build and DC solve are timed.
    fn sweep(
        &self,
        engine: &McEngine,
        j: usize,
        spans: Option<&TrialSpans>,
    ) -> flexcs::circuit::Result<McReport> {
        engine.run(TRIALS, self.sweep_seed(j), |trial: &mut McTrial<'_>| {
            let t0 = Instant::now();
            let models: Vec<CntTftModel> = (0..SIDE * SIDE)
                .map(|_| trial.perturb(&self.variation, &self.nominal_model))
                .collect();
            let t1 = Instant::now();
            let (ckt, rows) = readout_circuit(&models)?;
            let t2 = Instant::now();
            let op = trial.dc(&ckt)?;
            let t3 = Instant::now();
            let worst = rows
                .iter()
                .zip(&self.nominal_rows)
                .map(|(&n, &v0)| (op.voltage(n) - v0).abs())
                .fold(0.0f64, f64::max);
            // Freeing the netlist is part of its build cost.
            let t4 = Instant::now();
            drop((op, ckt, rows, models));
            if let Some(spans) = spans {
                let t5 = Instant::now();
                let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
                spans.lock().expect("trial span lock").push([
                    secs(t0, t1),
                    secs(t1, t2) + secs(t4, t5),
                    secs(t2, t3),
                    secs(t0, t5),
                ]);
            }
            Ok(McSample {
                value: worst,
                pass: worst < PASS_V,
            })
        })
    }
}

#[derive(Default)]
struct Sweeps {
    window: Window,
    hashes: Vec<u64>,
    reports: Vec<McReport>,
    wall: f64,
}

fn drive(inputs: &Inputs, phase: Duration, spans: Option<&TrialSpans>, window: Window) -> Sweeps {
    let mut out = Sweeps {
        window,
        ..Sweeps::default()
    };
    let start = Instant::now();
    let mut s = 0;
    while start.elapsed() < phase {
        let j = WARMUP + s % PASS;
        let t = Instant::now();
        let result = inputs.sweep(&inputs.engine, j, spans);
        let latency = t.elapsed();
        match result {
            Ok(report) => {
                let values = &report.stats.values;
                let ok = valid_output(values);
                let rms = (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt();
                out.window.rmse.push(rms / VDD);
                out.window.record(start, latency, TRIALS as f64, ok);
                out.hashes.push(bit_hash(values));
                out.reports.push(report);
            }
            Err(_) => {
                out.window.record(start, latency, TRIALS as f64, false);
                out.hashes.push(0);
            }
        }
        s += 1;
    }
    out.wall = start.elapsed().as_secs_f64() - out.window.paused();
    out
}

pub fn run(cfg: &RunConfig) -> Report {
    let (inputs, setup_s) = repeated_setup(|| Inputs::new(cfg.seed, cfg.threads));
    let mut report = Report::default();
    let base = drive(
        &inputs,
        cfg.phase(),
        None,
        Window::calibrated(CALIBRATE_EVERY),
    );
    report.attempted = base.window.attempted;
    report.failed = base.window.attempted - base.window.ok;
    report.check(
        format!(
            "{} of {} sweeps valid",
            base.window.ok, base.window.attempted
        ),
        base.window.ok == base.window.attempted,
    );
    // Thread-invariance contract: the same sweep on another thread count
    // gives the same statistics and refactor count.
    let replay_threads = if cfg.threads == 1 {
        cfg.nproc.min(2)
    } else {
        1
    };
    let replay = inputs.sweep(
        &McEngine::new(McEngineConfig {
            threads: Some(replay_threads),
            ..McEngineConfig::default()
        }),
        WARMUP,
        None,
    );
    let same = match (base.reports.first(), &replay) {
        (Some(a), Ok(b)) => a.stats == b.stats && a.refactors == b.refactors,
        _ => false,
    };
    report.check(
        format!("first sweep's yield and refactors equal a {replay_threads}-thread replay"),
        same,
    );
    let yields: Vec<f64> = base
        .reports
        .iter()
        .map(|r| r.stats.yield_fraction())
        .collect();
    report.info("sweeps", base.window.attempted);
    report.info("trials_per_sweep", TRIALS);
    report.info("mean_yield", format!("{:.4}", mean(&yields)));
    report.info("mc_threads", cfg.threads);
    if cfg.trace {
        let spans = TrialSpans::default();
        let traced = drive(
            &inputs,
            cfg.phase(),
            Some(&spans),
            Window::calibrated(CALIBRATE_EVERY),
        );
        report.attempted += traced.window.attempted;
        report.failed += traced.window.attempted - traced.window.ok;
        report.check(
            "traced sweeps bit-identical to untraced sweeps",
            same_prefix(&base.hashes, &traced.hashes) == Some(true),
        );
        let spans = spans.into_inner().expect("trial span lock");
        let mut layers = Layers::default();
        for s in &spans {
            layers.add("circuit.perturb", Duration::from_secs_f64(s[0]));
            layers.add("circuit.build", Duration::from_secs_f64(s[1]));
            layers.add("circuit.dc", Duration::from_secs_f64(s[2]));
        }
        let eval: f64 = spans.iter().map(|s| s[3]).sum();
        let capacity = traced.wall * cfg.threads as f64;
        let trials = (traced.reports.len() * TRIALS).max(1) as f64;
        let sum = |f: fn(&McReport) -> u64| traced.reports.iter().map(f).sum::<u64>() as f64;
        report.set(
            "circuit.perturb_us_p50",
            layers.p50("circuit.perturb") * 1e6,
        );
        report.set("circuit.build_us_p50", layers.p50("circuit.build") * 1e6);
        report.set("circuit.dc_ms_p50", layers.p50("circuit.dc") * 1e3);
        report.set("circuit.refactors_per_trial", sum(|r| r.refactors) / trials);
        report.set(
            "circuit.newton_saved_per_trial",
            sum(|r| r.warm_newton_saved) / trials,
        );
        report.set(
            "circuit.pool_reuse_frac",
            sum(|r| r.pool_reuses) / sum(|r| r.pool_checkouts).max(1.0),
        );
        report.set("parallel.busy_frac", eval / capacity);
        report.set(
            "trace.overhead_frac",
            overhead(&base.window, &traced.window),
        );
        report.set("trace.ops", traced.window.attempted as f64);
        report.set("unattributed_frac", 1.0 - layers.covered() / capacity);
    } else {
        base.window.end_to_end(&setup_s, &mut report);
    }
    report
}
