//! The implicit measurement operator `A = Φ_M·Ψ` (paper Eq. 8).
//!
//! `Ψ` maps DCT coefficients to pixels (2-D inverse DCT); `Φ_M` gathers
//! the sampled pixels. Keeping the operator implicit lets FISTA-class
//! solvers run in O(N^1.5) per iteration instead of O(M·N) dense
//! products — the practical difference between decoding a 32x32 frame in
//! milliseconds versus materializing a 512x1024 matrix.

use crate::error::{CoreError, Result};
use flexcs_linalg::Matrix;
use flexcs_solver::LinearOperator;
use flexcs_transform::{devectorize, haar2d_full_forward, haar2d_full_inverse, Dct2d};
use std::sync::Arc;

/// Sparsity basis the decoder works in.
///
/// The paper develops the DCT formulation (Eqs. 3–7) and notes that
/// "other suitable transformations, such as discrete Fourier transform
/// and discrete wavelet transform, can be applied as well"; [`BasisKind::Haar`]
/// exercises that claim (power-of-two frames only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BasisKind {
    /// 2-D orthonormal DCT (the paper's basis).
    #[default]
    Dct,
    /// Full 2-D orthonormal Haar wavelet basis.
    Haar,
}

impl BasisKind {
    /// Short name for result tables.
    pub fn name(self) -> &'static str {
        match self {
            BasisKind::Dct => "dct",
            BasisKind::Haar => "haar",
        }
    }

    /// Synthesis: coefficients → frame.
    pub(crate) fn synthesize(self, coeffs: &Matrix, plan: &Dct2d) -> Matrix {
        match self {
            BasisKind::Dct => plan.inverse(coeffs).expect("plan shape matches"),
            BasisKind::Haar => haar2d_full_inverse(coeffs).expect("validated power of two"),
        }
    }

    /// Analysis: frame → coefficients.
    pub(crate) fn analyze(self, frame: &Matrix, plan: &Dct2d) -> Matrix {
        match self {
            BasisKind::Dct => plan.forward(frame).expect("plan shape matches"),
            BasisKind::Haar => haar2d_full_forward(frame).expect("validated power of two"),
        }
    }
}

/// Implicit `Φ_M·Ψ` operator for identity-subset sampling over an
/// orthonormal 2-D basis (DCT by default).
///
/// Its spectral norm is known in closed form and computed once at
/// construction. `AᵀA = Ψᵀ·diag(c)·Ψ`, where `c_j` counts how often
/// pixel `j` is selected, and `Ψ` is orthogonal, so
/// `‖A‖₂ = √(max_j c_j)`: exactly 1 for the distinct indices every
/// sampling plan produces, `√k` when some index repeats `k` times, and
/// 0 when nothing is selected.
#[derive(Debug, Clone)]
pub struct SubsampledDctOperator {
    rows: usize,
    cols: usize,
    plan: Arc<Dct2d>,
    selected: Vec<usize>,
    basis: BasisKind,
    norm: f64,
}

impl SubsampledDctOperator {
    /// Creates the operator for a `rows x cols` frame sampled at the
    /// given (ascending) pixel indices, in the DCT basis.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for empty dimensions or
    /// out-of-range indices.
    pub fn new(rows: usize, cols: usize, selected: Vec<usize>) -> Result<Self> {
        Self::with_basis(rows, cols, selected, BasisKind::Dct)
    }

    /// Creates the operator over an explicit basis.
    ///
    /// # Errors
    ///
    /// As [`SubsampledDctOperator::new`]; additionally the Haar basis
    /// requires power-of-two dimensions.
    pub fn with_basis(
        rows: usize,
        cols: usize,
        selected: Vec<usize>,
        basis: BasisKind,
    ) -> Result<Self> {
        let plan = Arc::new(Dct2d::new(rows, cols)?);
        Self::with_plan(rows, cols, selected, basis, plan)
    }

    /// Creates the operator around an existing (shared) 2-D DCT plan.
    ///
    /// Building a plan precomputes twiddle tables, so callers decoding
    /// many sampling patterns of the same frame shape — the decoder's
    /// resample-median rounds, batch runs — share one plan instead of
    /// rebuilding it per operator. The plan's internal scratch is
    /// contention-safe, so one `Arc` may serve concurrent operators.
    ///
    /// # Errors
    ///
    /// As [`SubsampledDctOperator::with_basis`]; additionally the plan
    /// shape must match `rows x cols`.
    pub fn with_plan(
        rows: usize,
        cols: usize,
        selected: Vec<usize>,
        basis: BasisKind,
        plan: Arc<Dct2d>,
    ) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CoreError::InvalidConfig(
                "operator needs positive dimensions".to_string(),
            ));
        }
        // One scan range-checks the indices and notes whether they
        // strictly ascend, which pins the spectral norm at 1.
        let mut ascending = true;
        for (k, &i) in selected.iter().enumerate() {
            if i >= rows * cols {
                return Err(CoreError::InvalidConfig(
                    "selected index out of range".to_string(),
                ));
            }
            ascending &= k == 0 || selected[k - 1] < i;
        }
        let norm = if selected.is_empty() {
            0.0
        } else if ascending {
            1.0
        } else {
            let mut counts = vec![0usize; rows * cols];
            let mut max = 0;
            for &i in &selected {
                counts[i] += 1;
                max = max.max(counts[i]);
            }
            (max as f64).sqrt()
        };
        if basis == BasisKind::Haar && !(rows.is_power_of_two() && cols.is_power_of_two()) {
            return Err(CoreError::InvalidConfig(format!(
                "haar basis requires power-of-two dimensions, got {rows}x{cols}"
            )));
        }
        if plan.shape() != (rows, cols) {
            return Err(CoreError::InvalidConfig(format!(
                "plan shape {:?} does not match frame {rows}x{cols}",
                plan.shape()
            )));
        }
        Ok(SubsampledDctOperator {
            rows,
            cols,
            plan,
            selected,
            basis,
            norm,
        })
    }

    /// Basis in use.
    pub fn basis(&self) -> BasisKind {
        self.basis
    }

    /// The shared 2-D DCT plan.
    pub fn plan(&self) -> &Arc<Dct2d> {
        &self.plan
    }

    /// Frame shape.
    pub fn frame_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Sampled pixel indices.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// `Φᵀ·y`: the measurements scattered into a zero frame. A repeated
    /// index accumulates, which keeps the adjoint exact.
    fn scatter(&self, y: &[f64]) -> Matrix {
        let mut frame = Matrix::zeros(self.rows, self.cols);
        for (&i, &v) in self.selected.iter().zip(y) {
            frame[(i / self.cols, i % self.cols)] += v;
        }
        frame
    }
}

impl LinearOperator for SubsampledDctOperator {
    fn rows(&self) -> usize {
        self.selected.len()
    }

    fn cols(&self) -> usize {
        self.rows * self.cols
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        // Ψ·x (synthesis), then gather the sampled pixels.
        let coeffs = devectorize(x, self.rows, self.cols).expect("length checked by caller");
        let frame = self.basis.synthesize(&coeffs, &self.plan);
        let flat = frame.to_flat();
        self.selected.iter().map(|&i| flat[i]).collect()
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        // Ψᵀ·Φᵀ·y = analysis(scatter(y)); Ψ orthonormal so Ψᵀ = Ψ⁻¹.
        self.basis.analyze(&self.scatter(y), &self.plan).to_flat()
    }

    fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        // The transform itself still builds its output matrix (the 2-D
        // passes need a full frame), but the gather writes straight into
        // the caller's buffer, so solver loops skip one Vec per product.
        let coeffs = devectorize(x, self.rows, self.cols).expect("length checked by caller");
        let frame = self.basis.synthesize(&coeffs, &self.plan);
        let flat = frame.as_slice();
        out.clear();
        out.extend(self.selected.iter().map(|&i| flat[i]));
    }

    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) {
        let coeffs = self.basis.analyze(&self.scatter(y), &self.plan);
        out.clear();
        out.extend_from_slice(coeffs.as_slice());
    }

    /// The exact `‖A‖₂` computed at construction (see the type docs);
    /// `iterations` is ignored. Power iteration would spend two 2-D
    /// transforms per step only to approach this value from below, and
    /// the decoder builds a fresh operator for every decode.
    fn spectral_norm_estimate(&self, _iterations: usize) -> f64 {
        self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcs_linalg::vecops;
    use flexcs_transform::psi_matrix;

    #[test]
    fn matches_dense_phi_psi() {
        let (rows, cols) = (4, 5);
        let selected = vec![1, 7, 8, 13, 19];
        let op = SubsampledDctOperator::new(rows, cols, selected.clone()).unwrap();
        // Dense construction: gather rows of Ψ.
        let psi = psi_matrix(rows, cols).unwrap();
        let dense = psi.select_rows(&selected);
        let x: Vec<f64> = (0..rows * cols)
            .map(|i| ((i as f64) * 0.37).sin())
            .collect();
        let implicit = op.apply(&x);
        let explicit = dense.matvec(&x).unwrap();
        for (a, b) in implicit.iter().zip(&explicit) {
            assert!((a - b).abs() < 1e-12);
        }
        let y: Vec<f64> = (0..selected.len()).map(|i| (i as f64) - 2.0).collect();
        let implicit_t = op.apply_transpose(&y);
        let explicit_t = dense.matvec_transpose(&y).unwrap();
        for (a, b) in implicit_t.iter().zip(&explicit_t) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn adjoint_identity_holds() {
        let op = SubsampledDctOperator::new(6, 6, vec![0, 5, 11, 17, 23, 29, 35]).unwrap();
        let x: Vec<f64> = (0..36).map(|i| ((i * i) as f64 * 0.11).cos()).collect();
        let y: Vec<f64> = (0..7).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let ax = op.apply(&x);
        let aty = op.apply_transpose(&y);
        assert!((vecops::dot(&ax, &y) - vecops::dot(&x, &aty)).abs() < 1e-10);
    }

    #[test]
    fn operator_norm_at_most_one() {
        // Rows of an orthonormal matrix: spectral norm ≤ 1.
        let op = SubsampledDctOperator::new(8, 8, (0..32).collect()).unwrap();
        let norm = op.spectral_norm_estimate(40);
        assert!(norm <= 1.0 + 1e-9, "norm {norm}");
    }

    #[test]
    fn shared_plan_operators_match_owned_plan() {
        let (rows, cols) = (6, 4);
        let plan = Arc::new(Dct2d::new(rows, cols).unwrap());
        let x: Vec<f64> = (0..rows * cols)
            .map(|i| ((i as f64) * 0.29).sin())
            .collect();
        for selected in [vec![0, 3, 9, 17, 23], (0..rows * cols).step_by(2).collect()] {
            let shared = SubsampledDctOperator::with_plan(
                rows,
                cols,
                selected.clone(),
                BasisKind::Dct,
                Arc::clone(&plan),
            )
            .unwrap();
            let owned = SubsampledDctOperator::new(rows, cols, selected).unwrap();
            assert_eq!(shared.apply(&x), owned.apply(&x));
            assert!(
                Arc::ptr_eq(shared.plan(), &plan),
                "plan is shared, not cloned"
            );
        }
    }

    #[test]
    fn with_plan_rejects_shape_mismatch() {
        let plan = Arc::new(Dct2d::new(4, 4).unwrap());
        assert!(SubsampledDctOperator::with_plan(4, 5, vec![0], BasisKind::Dct, plan).is_err());
    }

    #[test]
    fn exact_norm_counts_index_multiplicity() {
        let norm = |selected: Vec<usize>| {
            SubsampledDctOperator::new(4, 4, selected)
                .unwrap()
                .spectral_norm_estimate(0)
        };
        assert_eq!(norm(vec![]), 0.0);
        assert_eq!(norm(vec![3]), 1.0);
        assert_eq!(norm((0..16).collect()), 1.0);
        assert_eq!(norm(vec![9, 2, 5]), 1.0);
        assert_eq!(norm(vec![2, 2, 7]), 2f64.sqrt());
        assert_eq!(norm(vec![5, 1, 5, 1, 5]), 3f64.sqrt());
    }

    /// Pixel subsets of one of five shapes: sorted, unsorted, with one
    /// index repeated `k` times (returned), empty, or full.
    fn subset(n: usize, kind: usize, seed: u64) -> (Vec<usize>, usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn shuffle(v: &mut [usize], rng: &mut StdRng) {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut picked: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
        if picked.is_empty() {
            picked.push(rng.gen_range(0..n));
        }
        match kind {
            0 => (picked, 1),
            1 => {
                shuffle(&mut picked, &mut rng);
                (picked, 1)
            }
            2 => {
                let k = rng.gen_range(2..=4);
                let dup = picked[rng.gen_range(0..picked.len())];
                picked.extend(std::iter::repeat_n(dup, k - 1));
                shuffle(&mut picked, &mut rng);
                (picked, k)
            }
            3 => (Vec::new(), 0),
            _ => ((0..n).collect(), 1),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn exact_norm_matches_power_iteration(
            log_rows in 0usize..5,
            log_cols in 0usize..5,
            dct_rows in 1usize..17,
            dct_cols in 1usize..17,
            haar in 0usize..2,
            kind in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let (basis, rows, cols) = if haar == 1 {
                (BasisKind::Haar, 1 << log_rows, 1 << log_cols)
            } else {
                (BasisKind::Dct, dct_rows, dct_cols)
            };
            let (selected, k) = subset(rows * cols, kind, seed);
            let m = selected.len();
            let op = SubsampledDctOperator::with_basis(rows, cols, selected, basis).unwrap();
            let exact = op.spectral_norm_estimate(30);
            proptest::prop_assert_eq!(exact, (k as f64).sqrt());
            let power = flexcs_solver::power_iteration_norm(&op, 200);
            if m >= 1 {
                proptest::prop_assert!((exact - power).abs() <= 1e-9, "exact {exact} power {power}");
            } else {
                proptest::prop_assert_eq!(power, 0.0);
            }
            proptest::prop_assert!(power <= exact + 1e-12, "power {power} over exact {exact}");
            // Repeated indices accumulate in the adjoint, so it stays exact.
            let x: Vec<f64> = (0..rows * cols).map(|i| ((i as f64) * 0.37).sin()).collect();
            let y: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.53).cos()).collect();
            let lhs = vecops::dot(&op.apply(&x), &y);
            let rhs = vecops::dot(&x, &op.apply_transpose(&y));
            proptest::prop_assert!((lhs - rhs).abs() <= 1e-10 * (1.0 + lhs.abs()));
        }
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(SubsampledDctOperator::new(0, 4, vec![]).is_err());
        assert!(SubsampledDctOperator::new(4, 4, vec![16]).is_err());
        // Haar demands powers of two.
        assert!(SubsampledDctOperator::with_basis(6, 8, vec![0], BasisKind::Haar).is_err());
    }

    #[test]
    fn haar_operator_adjoint_and_roundtrip() {
        let op =
            SubsampledDctOperator::with_basis(8, 8, (0..64).collect(), BasisKind::Haar).unwrap();
        let x: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.21).sin()).collect();
        let y: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.17).cos()).collect();
        let lhs = vecops::dot(&op.apply(&x), &y);
        let rhs = vecops::dot(&x, &op.apply_transpose(&y));
        assert!((lhs - rhs).abs() < 1e-10);
        // Full sampling over an orthonormal basis: ΨᵀΨ = I.
        let back = op.apply_transpose(&op.apply(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn full_sampling_is_orthonormal() {
        let op = SubsampledDctOperator::new(4, 4, (0..16).collect()).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64).sqrt()).collect();
        let back = op.apply_transpose(&op.apply(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
