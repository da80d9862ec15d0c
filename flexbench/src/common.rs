//! Shared measurement plumbing: metric tables, closed-loop windows,
//! percentiles, per-layer timers, output hashing and process stats.

use flexcs::core::Decoder;
use flexcs::linalg::Matrix;
use flexcs::solver::{SolveReport, SparseSolver};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("rmse", "frac_fs"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A
/// layer a workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.inject.us_p50", "us"),
    ("core.sampling.us_p50", "us"),
    ("core.decode.ms_p50", "ms"),
    ("solver.iters_mean", "count"),
    ("solver.converged_frac", "frac"),
    ("solver.cap_hit_frac", "frac"),
    ("solver.us_per_iter", "us"),
    ("core.basisop.pair_us", "us"),
    ("core.rpca.ms_p50", "ms"),
    ("core.rpca.iters_mean", "count"),
    ("core.rpca.converged_frac", "frac"),
    ("core.rpca.warm_rank_mean", "count"),
    ("core.rpca.flag_precision", "frac"),
    ("core.rpca.flag_recall", "frac"),
    ("serve.submit_us_p50", "us"),
    ("serve.service_ms_p50", "ms"),
    ("serve.worker_busy_frac", "frac"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.batch_occupancy", "count"),
    ("serve.batches", "count"),
    ("serve.steals", "count"),
    ("serve.rejected", "count"),
    ("circuit.build_us_p50", "us"),
    ("circuit.perturb_us_p50", "us"),
    ("circuit.dc_ms_p50", "ms"),
    ("circuit.refactors_per_trial", "count"),
    ("circuit.newton_saved_per_trial", "count"),
    ("circuit.pool_reuse_frac", "frac"),
    ("parallel.busy_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.ops", "count"),
    ("unattributed_frac", "frac"),
];

/// Times each setup is repeated; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Run the traced phase (per-layer metrics) after an untraced one.
    pub trace: bool,
    /// Width of the workload's parallel layer (engine workers, MC
    /// threads); the generator thread comes on top.
    pub threads: usize,
    /// Hardware threads available to the process.
    pub nproc: usize,
}

impl RunConfig {
    /// Length of each phase: the whole window untraced, or half
    /// untraced and half traced.
    pub fn phase(&self) -> Duration {
        let secs = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed window(s).
    pub attempted: u64,
    /// Operations that failed or returned a non-finite or all-zero
    /// output.
    pub failed: u64,
    /// Correctness checks: label and verdict.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form facts printed with the environment stamp.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a correctness check.
    pub fn check(&mut self, label: impl Into<String>, passed: bool) {
        self.checks.push((label.into(), passed));
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an environment fact.
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Closed-loop record of one timed window: one entry per completed
/// operation, in completion order.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-operation latency in ms.
    pub latency_ms: Vec<f64>,
    /// Completion time of each operation, seconds after window start.
    pub done_at: Vec<f64>,
    /// Units of work per operation (1 per frame, trials per sweep).
    pub work: Vec<f64>,
    /// Operations whose output was valid.
    pub ok: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Per-operation quality (RMSE against ground truth).
    pub rmse: Vec<f64>,
    /// Operations between calibration samples (0: never calibrate).
    calibrate_every: usize,
    /// Calibration-loop time in seconds before the first operation and
    /// after every `calibrate_every` operations.
    calibration: Vec<f64>,
    /// Time spent calibrating, left out of `done_at`.
    paused: f64,
}

impl Window {
    /// A window that samples the host's speed before its first
    /// operation and after every `every` operations, for
    /// [`Window::end_to_end`].
    pub fn calibrated(every: usize) -> Self {
        Window {
            calibrate_every: every,
            calibration: vec![calibrate()],
            ..Window::default()
        }
    }

    /// Records one completed operation.
    pub fn record(&mut self, start: Instant, latency: Duration, work: f64, ok: bool) {
        self.latency_ms.push(latency.as_secs_f64() * 1e3);
        self.done_at
            .push(start.elapsed().as_secs_f64() - self.paused);
        self.work.push(work);
        self.attempted += 1;
        self.ok += u64::from(ok);
        if self.calibrate_every > 0
            && (self.attempted as usize).is_multiple_of(self.calibrate_every)
        {
            let t = Instant::now();
            self.calibration.push(calibrate());
            self.paused += t.elapsed().as_secs_f64();
        }
    }

    /// Nominal-host scale of operation `i`: nominal over measured
    /// calibration time, averaged over the samples either side of it.
    fn scale(&self, i: usize) -> f64 {
        let c = &self.calibration;
        if c.is_empty() {
            return 1.0;
        }
        let block = (i / self.calibrate_every.max(1)).min(c.len() - 1);
        let after = c.get(block + 1).unwrap_or(&c[block]);
        NOMINAL_CALIBRATION_S / ((c[block] + after) / 2.0)
    }

    /// Per-operation latency in ms, scaled to the nominal host.
    pub fn scaled_latency_ms(&self) -> Vec<f64> {
        (0..self.latency_ms.len())
            .map(|i| self.latency_ms[i] * self.scale(i))
            .collect()
    }

    /// Seconds spent calibrating since the window started.
    pub fn paused(&self) -> f64 {
        self.paused
    }

    /// Fills the end-to-end metrics common to every workload. Times are
    /// scaled to the nominal host (see [`calibrate`]): each operation's
    /// latency, and each stretch of window time, by the calibration
    /// samples taken around it. Quality and validity cover every
    /// operation. The raw wall-clock figures go to the stamp.
    pub fn end_to_end(&self, setup_s: &[f64], report: &mut Report) {
        let n = self.done_at.len();
        let latency = self.scaled_latency_ms();
        let mut time = 0.0;
        let mut prev = 0.0;
        for (i, &t) in self.done_at.iter().enumerate() {
            time += (t - prev) * self.scale(i);
            prev = t;
        }
        let work: f64 = self.work.iter().sum();
        let rate = |time: f64| if time > 0.0 { work / time } else { 0.0 };
        report.set("setup_s", median(setup_s));
        report.set("throughput", rate(time));
        report.set("latency_ms_p50", percentile(&latency, 0.5));
        report.set("latency_ms_p90", percentile(&latency, 0.9));
        report.set("rmse", mean(&self.rmse));
        report.set("ok_frac", self.ok as f64 / self.attempted.max(1) as f64);
        report.info("setup_reps", setup_s.len());
        report.info(
            "host_speed",
            format!("{:.4}", NOMINAL_CALIBRATION_S / median(&self.calibration)),
        );
        report.info("raw_throughput", format!("{:.4}", rate(prev)));
        report.info(
            "raw_latency_ms_p50",
            format!("{:.4}", percentile(&self.latency_ms, 0.5)),
        );
        report.info(
            "raw_latency_ms_p90",
            format!("{:.4}", percentile(&self.latency_ms, 0.9)),
        );
        if n < 100 {
            eprintln!(
                "flexbench: only {n} operations in the window; p90 rests on fewer than 10 samples"
            );
        }
    }
}

/// Per-frame outputs of a decode window, kept for the checks.
#[derive(Debug, Default)]
pub struct Frames {
    /// Timing, validity and CS RMSE per frame.
    pub window: Window,
    /// Bit hash of each reconstructed frame (0 for a failed frame).
    pub hashes: Vec<u64>,
    /// RMSE of each corrupted input frame against the truth.
    pub rmse_raw: Vec<f64>,
}

impl Frames {
    /// Frames whose window samples the host's speed every `every`
    /// frames (see [`Window::calibrated`]).
    pub fn calibrated(every: usize) -> Self {
        Frames {
            window: Window::calibrated(every),
            ..Frames::default()
        }
    }

    /// Records one frame: `(reconstruction, rmse_cs, rmse_raw)`, or
    /// `None` when the call failed.
    pub fn push(&mut self, start: Instant, latency: Duration, frame: Option<(&Matrix, f64, f64)>) {
        let (ok, hash) = match frame {
            Some((rec, rmse_cs, rmse_raw)) => {
                self.window.rmse.push(rmse_cs);
                self.rmse_raw.push(rmse_raw);
                (valid_output(rec.as_slice()), bit_hash(rec.as_slice()))
            }
            None => (false, 0),
        };
        self.window.record(start, latency, 1.0, ok);
        self.hashes.push(hash);
    }

    /// Checks every frame is valid and the mean CS RMSE beats the
    /// corrupted input's; returns the mean CS RMSE.
    pub fn check(&self, report: &mut Report) -> f64 {
        let w = &self.window;
        let (cs, raw) = (mean(&w.rmse), mean(&self.rmse_raw));
        report.check(
            format!("mean rmse {cs:.5} < corrupted-frame rmse {raw:.5}"),
            cs < raw,
        );
        report.check(
            format!("{} of {} frames valid", w.ok, w.attempted),
            w.ok == w.attempted,
        );
        cs
    }
}

/// Runs `setup` [`SETUP_REPS`] times, returning the last result and
/// every repetition's time in seconds, scaled to the nominal host by
/// the calibration samples taken before and after it.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let mut before = calibrate();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first so each one pays the same
        // allocation and teardown costs.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        let raw = t.elapsed().as_secs_f64();
        let after = calibrate();
        times.push(raw * NOMINAL_CALIBRATION_S / ((before + after) / 2.0));
        before = after;
    }
    (last.expect("SETUP_REPS > 0"), times)
}

/// Nominal time of one calibration loop: its time on an uncontended
/// vCPU of the 2-vCPU Xeon VM the bounds were set on.
pub const NOMINAL_CALIBRATION_S: f64 = 150e-6;

/// Times of the calibration loop taken per sample; the median is used.
const CALIBRATION_LOOPS: usize = 8;

/// Measures the host's current speed: the median time, in seconds, of
/// a fixed floating-point loop that belongs to the benchmark, not the
/// program. On shared VMs the CPU's speed moves by up to ~1.8x within
/// minutes, and program and loop slow down together, so scaling
/// measured times by `NOMINAL_CALIBRATION_S / calibrate()` reports
/// them as on the nominal host.
pub fn calibrate() -> f64 {
    let mut times: Vec<f64> = (0..CALIBRATION_LOOPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(calibration_loop());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[CALIBRATION_LOOPS / 2]
}

#[inline(never)]
fn calibration_loop() -> f64 {
    let mut a = [0.0f64; 1024];
    let mut b = [0.0f64; 1024];
    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
        *x = (i as f64 * 0.37).sin();
        *y = (i as f64 * 0.11).cos();
    }
    let mut acc = 0.0;
    for r in 0..400 {
        let s = 1.0 + r as f64 * 1e-6;
        for (x, y) in a.iter_mut().zip(&b) {
            *x = *x * 0.999 + y * s;
        }
        acc += std::hint::black_box(&a)[r % 1024];
    }
    acc
}

/// Per-layer durations collected by the traced phase, in seconds, plus
/// the solver reports of the decodes they timed.
#[derive(Debug, Default)]
pub struct Layers {
    spans: BTreeMap<&'static str, Vec<f64>>,
    /// `(iterations, converged, hit the iteration cap)` per decode.
    solves: Vec<(usize, bool, bool)>,
}

impl Layers {
    /// Times `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Adds one measured span of `layer`.
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        self.spans.entry(layer).or_default().push(d.as_secs_f64());
    }

    /// Every span of `layer`, in seconds.
    fn spans(&self, layer: &str) -> &[f64] {
        self.spans.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Median span of `layer`, in seconds.
    pub fn p50(&self, layer: &str) -> f64 {
        percentile(self.spans(layer), 0.5)
    }

    /// Summed spans of `layer`, in seconds.
    pub fn total(&self, layer: &str) -> f64 {
        self.spans(layer).iter().sum()
    }

    /// Summed spans over every layer, in seconds.
    pub fn covered(&self) -> f64 {
        self.spans.values().flatten().sum()
    }

    /// Records one decode's solver report.
    pub fn add_solve(&mut self, solve: &SolveReport, decoder: &Decoder) {
        let cap = match decoder.solver() {
            SparseSolver::Fista(cfg) | SparseSolver::Ista(cfg) => Some(cfg.max_iterations),
            _ => None,
        };
        let capped = cap.is_some_and(|c| solve.iterations >= c);
        self.solves
            .push((solve.iterations, solve.converged, capped));
    }

    /// Fills `core.decode.*` and `solver.*` from the decodes timed
    /// under `decode_layer`.
    pub fn report_solver(&self, decode_layer: &str, report: &mut Report) {
        let n = self.solves.len().max(1) as f64;
        let iters: usize = self.solves.iter().map(|s| s.0).sum();
        let converged = self.solves.iter().filter(|s| s.1).count();
        let capped = self.solves.iter().filter(|s| s.2).count();
        report.set("core.decode.ms_p50", self.p50(decode_layer) * 1e3);
        report.set("solver.iters_mean", iters as f64 / n);
        report.set("solver.converged_frac", converged as f64 / n);
        report.set("solver.cap_hit_frac", capped as f64 / n);
        if iters > 0 {
            report.set(
                "solver.us_per_iter",
                self.total(decode_layer) / iters as f64 * 1e6,
            );
        }
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64 finalizer over `(seed, stream, index)`: decorrelated
/// per-purpose, per-operation seeds from the one workload seed.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of `values`: two outputs hash equal
/// only when they are bit-identical (up to hash collisions).
pub fn bit_hash(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// An output is valid when every value is finite and not all are zero
/// (the silent all-zero frame counts as a failure).
pub fn valid_output(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite()) && values.iter().any(|&v| v != 0.0)
}

/// Checks that two runs over the same inputs produced bit-identical
/// outputs on their common prefix; `None` when the prefix is empty.
pub fn same_prefix(a: &[u64], b: &[u64]) -> Option<bool> {
    let n = a.len().min(b.len());
    (n > 0).then(|| a[..n] == b[..n])
}

/// Ratio of traced to untraced median operation latency, both scaled
/// to the nominal host, minus one.
pub fn overhead(untraced: &Window, traced: &Window) -> f64 {
    let base = median(&untraced.scaled_latency_ms());
    if base > 0.0 {
        median(&traced.scaled_latency_ms()) / base - 1.0
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn uncalibrated_window_reports_raw_rates() {
        let mut w = Window::default();
        for i in 1..=100 {
            w.done_at.push(i as f64 * 0.01);
            w.latency_ms.push(10.0);
            w.work.push(1.0);
        }
        let mut report = Report::default();
        w.end_to_end(&[0.5], &mut report);
        assert!((report.metrics["throughput"] - 100.0).abs() < 1e-9);
        assert_eq!(report.metrics["latency_ms_p50"], 10.0);
        assert_eq!(report.metrics["setup_s"], 0.5);
    }

    #[test]
    fn validity_rejects_zero_and_non_finite() {
        assert!(valid_output(&[0.0, 0.5]));
        assert!(!valid_output(&[0.0, 0.0]));
        assert!(!valid_output(&[f64::NAN, 1.0]));
    }

    #[test]
    fn hash_sees_single_bit_changes() {
        let a = [0.25, 0.5];
        let b = [0.25, f64::from_bits(0.5f64.to_bits() + 1)];
        assert_ne!(bit_hash(&a), bit_hash(&b));
        assert_eq!(same_prefix(&[1, 2, 3], &[1, 2]), Some(true));
        assert_eq!(same_prefix(&[], &[1]), None);
    }
}
