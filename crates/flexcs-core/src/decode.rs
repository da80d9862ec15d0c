//! The silicon-side CS decoder (paper Eq. 9).
//!
//! Solves `min ‖x‖₁ s.t. Φ_M·y = Φ_M·Ψ·x` (or its LASSO relaxation) over
//! the 2-D DCT basis, then inverts the basis to obtain the reconstructed
//! frame.

use crate::basisop::{BasisKind, SubsampledDctOperator};
use crate::error::{CoreError, Result};
use crate::tel;
use flexcs_linalg::{simd, Matrix};
use flexcs_solver::{
    IstaConfig, LinearOperator, SolveReport, SolveWorkspace, SparseSolver, WarmStart,
};
use flexcs_transform::{devectorize, haar2d_full_inverse, Dct2d};
use std::sync::{Arc, Mutex};

/// A configured CS decoder.
///
/// # Examples
///
/// ```
/// use flexcs_core::{Decoder, SamplingPlan};
/// use flexcs_linalg::Matrix;
/// use flexcs_transform::Dct2d;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A DCT-sparse frame sampled at 60 %: reconstruction is near exact.
/// let dct = Dct2d::new(8, 8)?;
/// let mut coeffs = Matrix::zeros(8, 8);
/// coeffs[(0, 0)] = 4.0;
/// coeffs[(1, 2)] = 1.5;
/// coeffs[(3, 0)] = -1.0;
/// let frame = dct.inverse(&coeffs)?;
/// let plan = SamplingPlan::random_subset(64, 38, &[], 7)?;
/// let y = plan.measure(&frame.to_flat());
/// let result = Decoder::default().reconstruct(8, 8, plan.selected(), &y)?;
/// assert!(result.frame.max_abs_diff(&frame)? < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Decoder {
    solver: SparseSolver,
    basis: BasisKind,
    /// Most-recently-used 2-D DCT plan, keyed by its shape. Repeated
    /// reconstructions of same-shaped frames (the common case: every
    /// resample round and batch frame) skip the twiddle-table rebuild.
    plan_cache: Mutex<Option<Arc<Dct2d>>>,
}

impl Clone for Decoder {
    fn clone(&self) -> Self {
        Decoder {
            solver: self.solver.clone(),
            basis: self.basis,
            plan_cache: Mutex::new(
                self.plan_cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
        }
    }
}

/// Decode-side warm-start state: a reusable solver workspace plus the
/// previous solution's DCT coefficients and cached spectral norm.
///
/// Passed to [`Decoder::reconstruct_warm`] across related solves —
/// consecutive resampling rounds of one frame, or consecutive frames of
/// a stream — so each solve after the first starts from the previous
/// coefficients and reuses the preallocated iterate buffers. This
/// composes with the RPCA subspace warm starts of the streaming session
/// layer: RPCA carries the low-rank subspace across frames, this
/// carries the sparse code.
///
/// Cold solves through [`Decoder::reconstruct`] are unaffected; a
/// shape or sampling-density change simply resets the carried state on
/// the next solve.
#[derive(Clone, Debug, Default)]
pub struct DecodeWarmState {
    workspace: SolveWorkspace,
    warm: WarmStart,
}

impl DecodeWarmState {
    /// Fresh state; the first reconstruction through it runs cold.
    pub fn new() -> Self {
        DecodeWarmState::default()
    }

    /// Number of solves seeded from a previous solution.
    pub fn warm_starts(&self) -> u64 {
        self.warm.warm_starts()
    }

    /// Adaptive FISTA momentum restarts taken across warm solves.
    pub fn restarts(&self) -> u64 {
        self.warm.restarts()
    }

    /// Iterations saved by warm solves relative to the cold baseline.
    pub fn saved_iterations(&self) -> u64 {
        self.warm.saved_iterations()
    }

    /// Forgets the carried solution and cached norm (counters survive);
    /// the next reconstruction runs cold again.
    pub fn clear(&mut self) {
        self.warm.clear();
    }

    /// Exchanges this state's iterate buffers with `workspace`, leaving
    /// the carried solution, cached norm and counters in place.
    ///
    /// Workspaces hold nothing between solves, so a decode is
    /// bit-identical whichever buffers it runs on. A thread serving many
    /// streams (a serve-engine worker) swaps one workspace in around
    /// each decode, so idle streams keep only their carried solution
    /// instead of a full iterate arena each.
    pub fn swap_workspace(&mut self, workspace: &mut SolveWorkspace) {
        std::mem::swap(&mut self.workspace, workspace);
    }

    /// Adopts externally produced basis coefficients (vectorized, length
    /// `rows·cols`) as the carried solution for an operator of the given
    /// `(measurements, coefficients)` shape. The adaptive decode tier
    /// uses this to seed the next warm FISTA solve from a greedy
    /// fast-tier result, so a cheap event decode still primes the
    /// following delta decodes.
    pub fn absorb_coefficients(&mut self, shape: (usize, usize), coefficients: &[f64]) {
        self.warm.absorb_solution(shape, coefficients);
    }
}

/// A reconstruction: the frame, its DCT coefficients and solver
/// diagnostics.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// Reconstructed frame (`x_cs` mapped through `Ψ`).
    pub frame: Matrix,
    /// Recovered DCT coefficients.
    pub coefficients: Matrix,
    /// Solver diagnostics.
    pub report: SolveReport,
}

impl Decoder {
    /// Creates a decoder with the given solver (DCT basis).
    pub fn new(solver: SparseSolver) -> Self {
        Decoder {
            solver,
            basis: BasisKind::Dct,
            plan_cache: Mutex::new(None),
        }
    }

    /// Selects the sparsity basis (builder style).
    #[must_use]
    pub fn with_basis(mut self, basis: BasisKind) -> Self {
        self.basis = basis;
        self
    }

    /// Borrows the solver configuration.
    pub fn solver(&self) -> &SparseSolver {
        &self.solver
    }

    /// Basis in use.
    pub fn basis(&self) -> BasisKind {
        self.basis
    }

    /// Reconstructs a `rows x cols` frame from measurements `y` taken at
    /// the (ascending) pixel indices `selected`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonFiniteSample`](crate::CoreError::NonFiniteSample)
    /// for a NaN or infinite measurement, and propagates
    /// operator-construction and solver failures.
    pub fn reconstruct(
        &self,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
    ) -> Result<Reconstruction> {
        self.reconstruct_inner(rows, cols, selected, y, None, None)
    }

    /// [`Decoder::reconstruct`] with cross-solve warm starting: the
    /// solver is seeded from the previous solution carried in `state`,
    /// reuses its preallocated workspace, and serves the Lipschitz
    /// constant from the cached spectral norm (with the wider warm
    /// margin). The first call on a fresh (or shape-changed)
    /// state is bit-identical to [`Decoder::reconstruct`].
    ///
    /// # Errors
    ///
    /// See [`Decoder::reconstruct`].
    pub fn reconstruct_warm(
        &self,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        state: &mut DecodeWarmState,
    ) -> Result<Reconstruction> {
        self.reconstruct_inner(rows, cols, selected, y, Some(state), None)
    }

    /// [`Decoder::reconstruct_warm`] with a per-call solver override:
    /// the decode runs `solver` instead of the configured one, while
    /// basis, plan cache and λ-scaling behave exactly as usual. The
    /// adaptive tier derives its delta (budget-capped FISTA) and
    /// event-greedy (OMP) decodes from the session solver this way
    /// without rebuilding the decoder.
    ///
    /// # Errors
    ///
    /// See [`Decoder::reconstruct`].
    pub fn reconstruct_with_solver(
        &self,
        solver: &SparseSolver,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        state: &mut DecodeWarmState,
    ) -> Result<Reconstruction> {
        self.reconstruct_inner(rows, cols, selected, y, Some(state), Some(solver))
    }

    fn reconstruct_inner(
        &self,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        warm: Option<&mut DecodeWarmState>,
        solver_override: Option<&SparseSolver>,
    ) -> Result<Reconstruction> {
        if let Some(index) = y.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteSample {
                index,
                value: y[index],
            });
        }
        if tel::enabled() {
            // Tag every decode with the micro-kernel tier that produced
            // it, so perf traces are attributable to the hardware path
            // (`simd.tier.scalar`, `simd.tier.x86_64-avx2+fma`, ...).
            tel::counter(&format!("simd.tier.{}", simd::tier_name()), 1);
        }
        let setup_span = tel::span("decode.setup");
        let plan = self.plan_for(rows, cols)?;
        let op = SubsampledDctOperator::with_plan(rows, cols, selected.to_vec(), self.basis, plan)?;
        // Scale λ for LASSO-type solvers relative to the measurement
        // correlations so behaviour is signal-amplitude invariant.
        let solver = self.scaled_solver(solver_override.unwrap_or(&self.solver), &op, y);
        drop(setup_span);
        let solve_span = tel::span("decode.solve");
        let recovery = match warm {
            Some(state) => solver.solve_warm(&op, y, &mut state.workspace, &mut state.warm)?,
            None => solver.solve(&op, y)?,
        };
        drop(solve_span);
        if tel::enabled() {
            tel::histogram(
                "decode.solver_iterations",
                recovery.report.iterations as f64,
            );
            tel::histogram("decode.residual_norm", recovery.report.residual_norm);
        }
        let inverse_span = tel::span("decode.inverse");
        let coefficients = devectorize(&recovery.x, rows, cols)?;
        let frame = match self.basis {
            BasisKind::Dct => op.plan().inverse(&coefficients)?,
            BasisKind::Haar => haar2d_full_inverse(&coefficients)?,
        };
        drop(inverse_span);
        Ok(Reconstruction {
            frame,
            coefficients,
            report: recovery.report,
        })
    }

    /// Returns the cached plan when its shape matches, otherwise builds
    /// and caches a fresh one. Shared plans are safe across threads —
    /// `Dct2d` falls back to transient scratch under contention — so
    /// parallel resample rounds all borrow the same tables.
    pub(crate) fn plan_for(&self, rows: usize, cols: usize) -> Result<Arc<Dct2d>> {
        let mut cache = self.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = cache.as_ref() {
            if plan.shape() == (rows, cols) {
                return Ok(Arc::clone(plan));
            }
        }
        let plan = Arc::new(Dct2d::new(rows, cols)?);
        *cache = Some(Arc::clone(&plan));
        Ok(plan)
    }

    fn scaled_solver(
        &self,
        base: &SparseSolver,
        op: &SubsampledDctOperator,
        y: &[f64],
    ) -> SparseSolver {
        let correlation_scale = || {
            let aty = op.apply_transpose(y);
            flexcs_linalg::vecops::norm_inf(&aty)
        };
        match base {
            SparseSolver::Fista(cfg) | SparseSolver::Ista(cfg) => {
                let scale = correlation_scale();
                let mut scaled = cfg.clone();
                if scale > 0.0 {
                    scaled.lambda = cfg.lambda * scale;
                }
                match base {
                    SparseSolver::Fista(_) => SparseSolver::Fista(scaled),
                    _ => SparseSolver::Ista(scaled),
                }
            }
            SparseSolver::ReweightedL1(cfg) => {
                let scale = correlation_scale();
                let mut scaled = cfg.clone();
                if scale > 0.0 {
                    scaled.inner.lambda = cfg.inner.lambda * scale;
                }
                SparseSolver::ReweightedL1(scaled)
            }
            other => other.clone(),
        }
    }
}

impl Default for Decoder {
    /// FISTA with relative `λ = 2e-3`, stopped at a 1 % relative
    /// duality gap (about 110 iterations on the paper's 32x32 frames,
    /// with the RMSE of a 400-iteration run); 400 iterations remain as a
    /// safety cap.
    fn default() -> Self {
        let mut cfg = IstaConfig::with_lambda(2e-3);
        cfg.max_iterations = 400;
        cfg.tol = 1e-2;
        Decoder::new(SparseSolver::Fista(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingPlan;
    use flexcs_solver::{AdmmConfig, GreedyConfig};

    /// A frame that is exactly K-sparse in the DCT domain.
    fn sparse_frame(rows: usize, cols: usize) -> Matrix {
        let dct = Dct2d::new(rows, cols).unwrap();
        let mut coeffs = Matrix::zeros(rows, cols);
        coeffs[(0, 0)] = 5.0;
        coeffs[(0, 1)] = 2.0;
        coeffs[(1, 0)] = -1.5;
        coeffs[(2, 2)] = 1.0;
        coeffs[(1, 3)] = 0.8;
        dct.inverse(&coeffs).unwrap()
    }

    #[test]
    fn fista_decoder_reconstructs_sparse_frame() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 5).unwrap();
        let y = plan.measure(&frame.to_flat());
        let rec = Decoder::default()
            .reconstruct(8, 8, plan.selected(), &y)
            .unwrap();
        assert!(
            rec.frame.max_abs_diff(&frame).unwrap() < 0.02,
            "error {}",
            rec.frame.max_abs_diff(&frame).unwrap()
        );
    }

    #[test]
    fn greedy_decoder_reconstructs_exactly() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 6).unwrap();
        let y = plan.measure(&frame.to_flat());
        let decoder = Decoder::new(SparseSolver::Omp(GreedyConfig::with_sparsity(5)));
        let rec = decoder.reconstruct(8, 8, plan.selected(), &y).unwrap();
        assert!(rec.frame.max_abs_diff(&frame).unwrap() < 1e-8);
        assert!(rec.report.converged);
    }

    #[test]
    fn admm_bp_decoder_works() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 8).unwrap();
        let y = plan.measure(&frame.to_flat());
        let cfg = AdmmConfig {
            rho: 5.0,
            max_iterations: 2000,
            ..AdmmConfig::default()
        };
        let decoder = Decoder::new(SparseSolver::AdmmBasisPursuit(cfg));
        let rec = decoder.reconstruct(8, 8, plan.selected(), &y).unwrap();
        assert!(
            rec.frame.max_abs_diff(&frame).unwrap() < 0.01,
            "error {}",
            rec.frame.max_abs_diff(&frame).unwrap()
        );
    }

    #[test]
    fn coefficients_match_frame() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 48, &[], 9).unwrap();
        let y = plan.measure(&frame.to_flat());
        let rec = Decoder::default()
            .reconstruct(8, 8, plan.selected(), &y)
            .unwrap();
        let from_coeffs = Dct2d::new(8, 8)
            .unwrap()
            .inverse(&rec.coefficients)
            .unwrap();
        assert!(from_coeffs.max_abs_diff(&rec.frame).unwrap() < 1e-12);
    }

    #[test]
    fn haar_basis_decoder_reconstructs_piecewise_constant() {
        use flexcs_transform::haar2d_full_inverse;
        // A frame that is exactly sparse in the Haar basis (few wavelet
        // coefficients) — blocky structure the DCT handles poorly.
        let mut coeffs = Matrix::zeros(8, 8);
        coeffs[(0, 0)] = 4.0;
        coeffs[(1, 0)] = 1.5;
        coeffs[(0, 1)] = -1.0;
        coeffs[(2, 2)] = 0.7;
        let frame = haar2d_full_inverse(&coeffs).unwrap();
        let plan = SamplingPlan::random_subset(64, 40, &[], 3).unwrap();
        let y = plan.measure(&frame.to_flat());
        let decoder = Decoder::default().with_basis(crate::BasisKind::Haar);
        let rec = decoder.reconstruct(8, 8, plan.selected(), &y).unwrap();
        assert!(
            rec.frame.max_abs_diff(&frame).unwrap() < 0.05,
            "haar error {}",
            rec.frame.max_abs_diff(&frame).unwrap()
        );
    }

    #[test]
    fn default_decoder_certifies_thermal_frame_below_cap() {
        use flexcs_datasets::{normalize_unit, thermal_frames, ThermalConfig};
        let truth = normalize_unit(&thermal_frames(&ThermalConfig::default(), 1, 2020)[0]);
        let plan = SamplingPlan::random_subset(1024, 512, &[], 11).unwrap();
        let y = plan.measure(&truth.to_flat());
        let rec = Decoder::default()
            .reconstruct(32, 32, plan.selected(), &y)
            .unwrap();
        assert!(rec.report.converged, "{:?}", rec.report);
        assert!(rec.report.iterations < 400, "{:?}", rec.report);
        let SparseSolver::Fista(cfg) = Decoder::default().solver().clone() else {
            unreachable!("the default decoder runs FISTA");
        };
        let reference = Decoder::new(SparseSolver::Fista(IstaConfig { tol: 0.0, ..cfg }))
            .reconstruct(32, 32, plan.selected(), &y)
            .unwrap();
        assert_eq!(reference.report.iterations, 400);
        let (certified, capped) = (
            crate::rmse(&rec.frame, &truth),
            crate::rmse(&reference.frame, &truth),
        );
        assert!(
            certified <= capped + 1e-3,
            "certified rmse {certified} vs 400-iteration rmse {capped}"
        );
    }

    #[test]
    fn cold_decode_uses_the_exact_norm() {
        // The operator reports ‖A‖₂ = 1 exactly, so a cold default decode
        // must equal FISTA run with L = 1.02 (the cold margin) and the
        // decoder's scaled λ, bit for bit: nothing estimates the norm.
        // On this plan 30 power steps stop at 1 − 2⁻⁵³, which would move
        // L down one ulp and every iterate with it.
        use flexcs_datasets::{normalize_unit, thermal_frames, ThermalConfig};
        let truth = normalize_unit(&thermal_frames(&ThermalConfig::default(), 1, 7)[0]);
        let plan = SamplingPlan::random_subset(1024, 512, &[], 3).unwrap();
        let y = plan.measure(&truth.to_flat());
        let rec = Decoder::default()
            .reconstruct(32, 32, plan.selected(), &y)
            .unwrap();
        let op = SubsampledDctOperator::new(32, 32, plan.selected().to_vec()).unwrap();
        let SparseSolver::Fista(mut cfg) = Decoder::default().solver().clone() else {
            unreachable!("the default decoder runs FISTA");
        };
        cfg.lambda *= flexcs_linalg::vecops::norm_inf(&op.apply_transpose(&y));
        cfg.lipschitz = Some(1.02);
        let direct = flexcs_solver::fista(&op, &y, &cfg).unwrap();
        assert_eq!(rec.report.iterations, direct.report.iterations);
        let coeffs = rec.coefficients.to_flat();
        assert_eq!(coeffs.len(), direct.x.len());
        for (a, b) in coeffs.iter().zip(&direct.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn non_finite_samples_are_typed_errors() {
        let frame = sparse_frame(16, 16);
        let plan = SamplingPlan::random_subset(256, 128, &[], 4).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = plan.measure(&frame.to_flat());
            y[17] = bad;
            let e = Decoder::default()
                .reconstruct(16, 16, plan.selected(), &y)
                .unwrap_err();
            assert!(
                matches!(e, CoreError::NonFiniteSample { index: 17, .. }),
                "{bad}: {e:?}"
            );
            let mut state = DecodeWarmState::new();
            assert!(Decoder::default()
                .reconstruct_warm(16, 16, plan.selected(), &y, &mut state)
                .is_err());
        }
    }

    #[test]
    fn mismatched_measurements_rejected() {
        let decoder = Decoder::default();
        let e = decoder.reconstruct(4, 4, &[0, 1, 2], &[1.0, 2.0]);
        assert!(e.is_err());
    }
}
