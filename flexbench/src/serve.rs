//! `array_serve`: 32 tenant arrays through `flexcs_serve::Engine` with
//! its default warm sessions. Each array streams drifting 32x32 hands,
//! one 16-frame clip after another, through a fixed 50 % scan plan that
//! skips its 10 % persistent stuck pixels. Closed loop: every array
//! keeps one frame in flight, all driven from one generator thread.

use crate::common::{
    bit_hash, mix, overhead, percentile, repeated_setup, same_prefix, valid_output, Layers, Report,
    RunConfig, Window,
};
use flexcs::core::{
    rmse, DecodeWarmState, Decoder, Reconstruction, SamplingPlan, SparseErrorModel,
};
use flexcs::datasets::{normalize_unit, thermal_sequence, ThermalConfig};
use flexcs::linalg::Matrix;
use flexcs::serve::{
    DecodeBackend, Engine, EngineConfig, EngineMetrics, FrameHandle, FrameRequest, Session,
    SessionConfig, Submit, WarmDecodeBackend,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tenant arrays served concurrently.
const ARRAYS: usize = 32;
/// Drifting-hand clips shared by the arrays.
const HANDS: usize = 64;
/// Frames per clip. After each clip an array's stream moves on to its
/// next hand, so one run averages over every hand in the pool.
const CLIP: usize = 16;
/// Step through the hand pool; coprime with `HANDS`, so every array
/// visits every hand and no two arrays show the same hand at once.
const HAND_STRIDE: usize = 7;
/// Frames per array decoded before the timed window.
const WARMUP: usize = 2;
/// Frames per array replayed through a serial warm decoder.
const REPLAY: usize = 4;
/// Fraction of each array's stuck pixels.
const STUCK_FRACTION: f64 = 0.1;
/// Completions between samples of the host's speed.
const CALIBRATE_EVERY: usize = 256;

struct Inputs {
    shape: (usize, usize),
    hands: Vec<Vec<Matrix>>,
    /// Each array's fixed scan plan, which skips its stuck pixels.
    plans: Vec<SamplingPlan>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let cfg = ThermalConfig::default();
        let shape = (cfg.rows, cfg.cols);
        let n = shape.0 * shape.1;
        let hands: Vec<Vec<Matrix>> = (0..HANDS as u64)
            .map(|h| {
                thermal_sequence(&cfg, CLIP, mix(seed, 5, h))
                    .iter()
                    .map(normalize_unit)
                    .collect()
            })
            .collect();
        let model = SparseErrorModel::new(STUCK_FRACTION).expect("valid stuck fraction");
        let plans = (0..ARRAYS as u64)
            .map(|a| {
                let (_, stuck) = model.corrupt(&hands[0][0], mix(seed, 6, a));
                SamplingPlan::random_subset(n, n / 2, &stuck, mix(seed, 7, a))
                    .expect("enough healthy pixels for the scan plan")
            })
            .collect();
        Inputs {
            shape,
            hands,
            plans,
        }
    }

    /// The scene array `a` shows at stream index `k`.
    fn truth(&self, a: usize, k: usize) -> &Matrix {
        &self.hands[(a + (k / CLIP) * HAND_STRIDE) % HANDS][k % CLIP]
    }

    fn measure(&self, a: usize, k: usize) -> Vec<f64> {
        self.plans[a].measure(self.truth(a, k).as_slice())
    }

    fn request(&self, a: usize, k: usize) -> FrameRequest {
        FrameRequest {
            rows: self.shape.0,
            cols: self.shape.1,
            selected: self.plans[a].selected().to_vec(),
            y: self.measure(a, k),
        }
    }
}

/// Decode backend that times `WarmDecodeBackend::decode` per frame,
/// keyed by (array, per-tenant sequence number).
#[derive(Default)]
struct TimedBackend {
    service: Mutex<HashMap<(usize, u64), Duration>>,
}

impl DecodeBackend for TimedBackend {
    fn decode(
        &self,
        req: &FrameRequest,
        session: &mut Session,
    ) -> flexcs::core::Result<Reconstruction> {
        let array = session
            .name()
            .strip_prefix("array")
            .and_then(|i| i.parse().ok())
            .expect("tenants are named array<index>");
        let key = (array, session.frames_decoded());
        let t = Instant::now();
        let out = WarmDecodeBackend.decode(req, session);
        let d = t.elapsed();
        self.service
            .lock()
            .expect("service map lock")
            .insert(key, d);
        out
    }
}

/// A started engine with every array registered and warmed up.
struct Served {
    engine: Engine,
    next: Vec<usize>,
    hashes: Vec<Vec<u64>>,
}

impl Served {
    fn start(inputs: &Inputs, workers: usize, backend: Option<Arc<TimedBackend>>) -> Self {
        let config = EngineConfig {
            workers,
            ..EngineConfig::default()
        };
        let engine = match backend {
            Some(b) => Engine::with_backend(config, b),
            None => Engine::new(config),
        };
        for a in 0..ARRAYS {
            let id = engine.register_tenant(SessionConfig::named(format!("array{a}")));
            assert_eq!(id, a, "tenant ids are dense in registration order");
        }
        let mut served = Served {
            engine,
            next: vec![0; ARRAYS],
            hashes: vec![Vec::new(); ARRAYS],
        };
        served.drive(inputs, Until::Frames(WARMUP), Window::default(), None);
        served
    }

    /// Closed loop: each array has one frame in flight and submits its
    /// next frame when the previous completes. With one frame per
    /// tenant in flight the engine completes frames in submission
    /// order, so waiting on the oldest handle observes each completion
    /// as it happens.
    fn drive(
        &mut self,
        inputs: &Inputs,
        until: Until,
        window: Window,
        mut layers: Option<&mut Layers>,
    ) -> Run {
        let mut run = Run {
            window,
            ..Run::default()
        };
        let start = Instant::now();
        let more = |next: usize| match until {
            Until::Frames(n) => next < n,
            Until::Time(d) => start.elapsed() < d,
        };
        let mut inflight: VecDeque<(usize, usize, Instant, FrameHandle)> = VecDeque::new();
        let submit = |served: &mut Served,
                      a: usize,
                      run: &mut Run,
                      layers: &mut Option<&mut Layers>,
                      inflight: &mut VecDeque<_>| {
            let k = served.next[a];
            served.next[a] += 1;
            let req = inputs.request(a, k);
            let t0 = Instant::now();
            let submitted = served.engine.submit(a, req);
            if let Some(layers) = layers.as_deref_mut() {
                layers.add("serve.submit", t0.elapsed());
            }
            match submitted {
                Ok(Submit::Accepted(handle)) => inflight.push_back((a, k, t0, handle)),
                Ok(Submit::Rejected { .. }) | Err(_) => {
                    run.window.record(start, t0.elapsed(), 1.0, false);
                    run.keys.push((a, k));
                    served.hashes[a].push(0);
                }
            }
        };
        for a in 0..ARRAYS {
            if more(self.next[a]) {
                submit(self, a, &mut run, &mut layers, &mut inflight);
            }
        }
        while let Some((a, k, t0, handle)) = inflight.pop_front() {
            let result = handle.wait();
            let latency = t0.elapsed();
            let ok = match &result {
                Ok(frame) => {
                    let slice = frame.frame.as_slice();
                    self.hashes[a].push(bit_hash(slice));
                    run.window.rmse.push(rmse(&frame.frame, inputs.truth(a, k)));
                    run.solves.push(frame.report.clone());
                    valid_output(slice)
                }
                Err(_) => {
                    self.hashes[a].push(0);
                    false
                }
            };
            run.window.record(start, latency, 1.0, ok);
            run.keys.push((a, k));
            if more(self.next[a]) {
                submit(self, a, &mut run, &mut layers, &mut inflight);
            }
        }
        run.wall = start.elapsed().as_secs_f64();
        run
    }
}

#[derive(Clone, Copy)]
enum Until {
    Frames(usize),
    Time(Duration),
}

/// One driven window.
#[derive(Default)]
struct Run {
    window: Window,
    /// `(array, stream index)` of each completed frame, in window order.
    keys: Vec<(usize, usize)>,
    solves: Vec<flexcs::solver::SolveReport>,
    wall: f64,
}

/// Replays each array's first frames through a serial warm decoder:
/// the engine's per-tenant results must be bit-identical to it.
fn serial_replay_matches(inputs: &Inputs, hashes: &[Vec<u64>]) -> bool {
    let (rows, cols) = inputs.shape;
    hashes.iter().enumerate().all(|(a, got)| {
        let decoder = Decoder::default();
        let mut warm = DecodeWarmState::new();
        let selected = inputs.plans[a].selected();
        let want: Vec<u64> = (0..REPLAY)
            .map_while(|k| {
                decoder
                    .reconstruct_warm(rows, cols, selected, &inputs.measure(a, k), &mut warm)
                    .ok()
                    .map(|rec| bit_hash(rec.frame.as_slice()))
            })
            .collect();
        want.len() == REPLAY && got.len() >= REPLAY && got[..REPLAY] == want[..]
    })
}

fn counter_delta(before: &EngineMetrics, after: &EngineMetrics) -> (f64, f64, f64, f64) {
    let batches = (after.batches - before.batches) as f64;
    let frames = (after.completed() - before.completed()) as f64;
    let occupancy = if batches > 0.0 { frames / batches } else { 0.0 };
    (
        batches,
        (after.steals - before.steals) as f64,
        (after.rejected - before.rejected) as f64,
        occupancy,
    )
}

pub fn run(cfg: &RunConfig) -> Report {
    let workers = cfg.threads;
    let ((inputs, mut served), setup_s) = repeated_setup(|| {
        let inputs = Inputs::new(cfg.seed);
        let served = Served::start(&inputs, workers, None);
        (inputs, served)
    });
    let mut report = Report::default();
    let base = served.drive(
        &inputs,
        Until::Time(cfg.phase()),
        Window::calibrated(CALIBRATE_EVERY),
        None,
    );
    served.engine.shutdown();
    report.attempted = base.window.attempted;
    report.failed = base.window.attempted - base.window.ok;
    report.check(
        format!(
            "{} of {} frames valid",
            base.window.ok, base.window.attempted
        ),
        base.window.ok == base.window.attempted,
    );
    report.check(
        format!("first {REPLAY} frames of every array bit-identical to serial reconstruct_warm"),
        serial_replay_matches(&inputs, &served.hashes),
    );
    report.info("frames", base.window.attempted);
    report.info("arrays", ARRAYS);
    report.info("engine_workers", served.engine.workers());
    if cfg.trace {
        let backend = Arc::new(TimedBackend::default());
        let mut traced = Served::start(&inputs, workers, Some(Arc::clone(&backend)));
        let before = traced.engine.metrics();
        let mut layers = Layers::default();
        let run = traced.drive(
            &inputs,
            Until::Time(cfg.phase()),
            Window::calibrated(CALIBRATE_EVERY),
            Some(&mut layers),
        );
        let after = traced.engine.metrics();
        traced.engine.shutdown();
        report.attempted += run.window.attempted;
        report.failed += run.window.attempted - run.window.ok;
        let identical = served
            .hashes
            .iter()
            .zip(&traced.hashes)
            .all(|(a, b)| same_prefix(a, b) != Some(false));
        report.check(
            "traced outputs bit-identical to the untraced engine",
            identical,
        );
        let service = backend.service.lock().expect("service map lock");
        let mut waits = Vec::new();
        for (&(a, k), &latency_ms) in run.keys.iter().zip(&run.window.latency_ms) {
            if let Some(&d) = service.get(&(a, k as u64)) {
                layers.add("serve.service", d);
                waits.push(latency_ms - d.as_secs_f64() * 1e3);
            }
        }
        drop(service);
        let decoder = Decoder::default();
        for solve in &run.solves {
            layers.add_solve(solve, &decoder);
        }
        layers.report_solver("serve.service", &mut report);
        let busy = layers.total("serve.service") / (run.wall * workers as f64);
        let (batches, steals, rejected, occupancy) = counter_delta(&before, &after);
        report.set("serve.submit_us_p50", layers.p50("serve.submit") * 1e6);
        report.set("serve.service_ms_p50", layers.p50("serve.service") * 1e3);
        report.set("serve.worker_busy_frac", busy);
        report.set("serve.queue_wait_ms_p50", percentile(&waits, 0.5));
        report.set("serve.queue_wait_ms_p90", percentile(&waits, 0.9));
        report.set("serve.batch_occupancy", occupancy);
        report.set("serve.batches", batches);
        report.set("serve.steals", steals);
        report.set("serve.rejected", rejected);
        report.set("trace.overhead_frac", overhead(&base.window, &run.window));
        report.set("trace.ops", run.window.attempted as f64);
        report.set("unattributed_frac", 1.0 - busy);
    } else {
        base.window.end_to_end(&setup_s, &mut report);
    }
    report
}
