//! Ablation: decoder-solver choice (DESIGN.md Sec. 5).
//!
//! The paper says the L1 problem "can be solved through convex
//! optimization or can be re-formulated as a linear programming
//! problem". This bench compares every solver in the flexcs stack at the
//! paper's operating point (32x32 frame, 50 % sampling, 10 % errors
//! excluded by test): reconstruction RMSE and wall-clock time. It
//! first sweeps the default FISTA decoder's duality-gap tolerance over
//! 128 such frames (iterations and RMSE per tolerance).
//!
//! Run with: `cargo run --release -p flexcs-bench --bin solver_ablation`

use flexcs_bench::{f4, print_table};
use flexcs_core::detect_extremes;
use flexcs_core::{rmse, Decoder, SamplingPlan, SparseErrorModel};
use flexcs_datasets::{normalize_unit, thermal_frame, thermal_frames, ThermalConfig};
use flexcs_solver::{
    AdmmConfig, GreedyConfig, IrlsConfig, IstaConfig, LpConfig, ReweightedConfig, SparseSolver,
};
use std::time::Instant;

/// Cold decodes of 128 Fig. 6a frames by the default decoder at several
/// relative duality-gap tolerances (`0` runs the 400-iteration cap).
fn tol_sweep(seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    println!("FISTA duality-gap tolerance — 128 frames, 50% sampling, 10% tested-out errors\n");
    let SparseSolver::Fista(base) = Decoder::default().solver().clone() else {
        unreachable!("the default decoder runs FISTA");
    };
    let model = SparseErrorModel::new(0.10)?;
    let mut frames = Vec::new();
    for (k, scene) in thermal_frames(&ThermalConfig::default(), 128, seed)
        .iter()
        .enumerate()
    {
        let truth = normalize_unit(scene);
        let (bad, _) = model.corrupt(&truth, seed + k as u64);
        let excluded = detect_extremes(&bad, 0.02);
        let plan = SamplingPlan::random_subset(1024, 512, &excluded, seed + k as u64)?;
        let y = plan.measure(&bad.to_flat());
        frames.push((truth, plan, y));
    }
    let mut rows = Vec::new();
    for tol in [0.0, 1e-2, 3e-3, 1e-3] {
        let decoder = Decoder::new(SparseSolver::Fista(IstaConfig {
            tol,
            ..base.clone()
        }));
        let (mut iterations, mut converged, mut total, mut worst) = (0, 0, 0.0, 0.0_f64);
        for (truth, plan, y) in &frames {
            let rec = decoder.reconstruct(32, 32, plan.selected(), y)?;
            iterations += rec.report.iterations;
            converged += usize::from(rec.report.converged);
            let e = rmse(&rec.frame, truth);
            total += e;
            worst = worst.max(e);
        }
        let n = frames.len() as f64;
        rows.push(vec![
            format!("{tol:e}"),
            format!("{:.1}", iterations as f64 / n),
            format!("{converged}/{}", frames.len()),
            format!("{:.5}", total / n),
            f4(worst),
        ]);
    }
    print_table(
        &["tol", "mean iters", "certified", "mean rmse", "worst rmse"],
        &rows,
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2020;
    tol_sweep(seed)?;
    println!("solver ablation — 32x32 thermal frame, 50% sampling, 10% tested-out errors\n");
    let truth = normalize_unit(&thermal_frame(&ThermalConfig::default(), seed));
    let (bad, _) = SparseErrorModel::new(0.10)?.corrupt(&truth, seed);
    let excluded = detect_extremes(&bad, 0.02);
    let plan = SamplingPlan::random_subset(1024, 512, &excluded, seed)?;
    let y = plan.measure(&bad.to_flat());

    let mut fista = IstaConfig::with_lambda(2e-3);
    fista.max_iterations = 400;
    let mut ista = fista.clone();
    ista.max_iterations = 1500;
    let admm_bp = AdmmConfig {
        rho: 5.0,
        max_iterations: 600,
        ..AdmmConfig::default()
    };
    let mut admm_bpdn = AdmmConfig::with_lambda(1e-3);
    admm_bpdn.max_iterations = 600;
    let greedy = GreedyConfig::with_sparsity(220);
    // The decoder rescales the inner λ by the measurement correlations,
    // as it does for FISTA.
    let mut rw = ReweightedConfig::default();
    rw.inner.lambda = 2e-3;
    rw.inner.max_iterations = 300;
    let solvers: Vec<SparseSolver> = vec![
        SparseSolver::Fista(fista),
        SparseSolver::Ista(ista),
        SparseSolver::ReweightedL1(rw),
        SparseSolver::Omp(greedy.clone()),
        SparseSolver::Cosamp(greedy.clone()),
        SparseSolver::SubspacePursuit(greedy),
        SparseSolver::AdmmBasisPursuit(admm_bp),
        SparseSolver::AdmmBpdn(admm_bpdn),
        SparseSolver::Irls(IrlsConfig::default()),
        SparseSolver::LpBasisPursuit(LpConfig::default()),
    ];

    let mut rows = Vec::new();
    for solver in solvers {
        let name = solver.name();
        let dense = solver.requires_dense();
        let decoder = Decoder::new(solver);
        let start = Instant::now();
        let rec = decoder.reconstruct(32, 32, plan.selected(), &y)?;
        let elapsed = start.elapsed().as_secs_f64();
        rows.push(vec![
            name.to_string(),
            f4(rmse(&rec.frame, &truth)),
            format!("{elapsed:.2}s"),
            format!("{}", rec.report.iterations),
            if dense {
                "dense".into()
            } else {
                "implicit".into()
            },
        ]);
        println!("  {name} done ({elapsed:.2}s)");
    }
    println!();
    print_table(&["solver", "rmse", "time", "iters", "operator"], &rows);
    println!("\nFISTA over the implicit DCT operator is the pipeline default: near-best\nRMSE at a fraction of the dense solvers' cost.");
    Ok(())
}
