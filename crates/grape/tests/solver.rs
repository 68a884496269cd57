//! The GRAPE solver through its public entry points: initialization
//! strategies, the latency search on the paper's default L-BFGS path
//! (§IV-D), and the line search's evaluation cost per iteration.

use accqoc_grape::{
    find_minimal_latency, solve, GrapeOptions, GrapeProblem, InitStrategy, LatencySearch, Workspace,
};
use accqoc_hw::ControlModel;
use accqoc_linalg::Mat;

fn x_target() -> Mat {
    Mat::from_reals(&[0.0, 1.0, 1.0, 0.0])
}

#[test]
fn lbfgs_latency_search_finds_ten_slice_x_gate() {
    // The minimal latency is a physical property: a π rotation at the
    // amplitude cap takes 10 ns, so 10 slices of 1 ns.
    let model = ControlModel::spin_chain(1);
    let r = find_minimal_latency(
        &model,
        &x_target(),
        None,
        &GrapeOptions::default(),
        &LatencySearch::default(),
        &mut Workspace::new(),
    )
    .unwrap();
    assert_eq!(r.n_steps, 10);
}

#[test]
fn zero_init_breaks_symmetry_eventually() {
    // Zero controls are a stationary-ish point for some targets; the
    // solver must either converge or report non-convergence gracefully.
    let model = ControlModel::spin_chain(1);
    let out = solve(&GrapeProblem {
        model: &model,
        target: &x_target(),
        n_steps: 12,
        options: GrapeOptions {
            init: InitStrategy::Zero,
            ..Default::default()
        },
    });
    // Either outcome is acceptable; the invariant is a finite, bounded run.
    assert!(out.infidelity.is_finite());
    assert!(out.iterations <= 300);
}

#[test]
fn warm_start_across_different_step_counts() {
    let model = ControlModel::spin_chain(1);
    let base = solve(&GrapeProblem {
        model: &model,
        target: &x_target(),
        n_steps: 16,
        options: GrapeOptions::default(),
    });
    assert!(base.converged);
    // Resampling a 16-step solution to 12 steps still seeds convergence.
    let warm = solve(&GrapeProblem {
        model: &model,
        target: &x_target(),
        n_steps: 12,
        options: GrapeOptions::default().with_init(InitStrategy::Warm(base.pulse)),
    });
    assert!(
        warm.converged,
        "warm resample infidelity {}",
        warm.infidelity
    );
}

/// Evaluations per accepted iteration on the 1-qubit X-gate probes. The
/// projected line search measures 4.25 (10 slices, feasible) and 3.66
/// (9 slices, infeasible); measuring the slope along the raw direction
/// took 16.5 per iteration at 9 slices.
const MAX_EVALS_PER_ITERATION: f64 = 6.0;

#[test]
fn x_gate_probes_spend_few_evaluations_per_iteration() {
    let model = ControlModel::spin_chain(1);
    for (n_steps, feasible) in [(10, true), (9, false)] {
        let out = solve(&GrapeProblem {
            model: &model,
            target: &x_target(),
            n_steps,
            options: GrapeOptions::default(),
        });
        assert_eq!(out.converged, feasible, "{n_steps} slices");
        assert!(out.iterations > 0, "{n_steps} slices took no step");
        let per_iteration = out.fn_evals as f64 / out.iterations as f64;
        assert!(
            per_iteration <= MAX_EVALS_PER_ITERATION,
            "{n_steps} slices: {} evaluations in {} iterations",
            out.fn_evals,
            out.iterations
        );
    }
}
