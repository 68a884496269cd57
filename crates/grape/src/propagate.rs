//! Time-slice propagation for piecewise-constant controls.
//!
//! GRAPE divides the control window into `N` slices; slice `k` evolves
//! under `U_k = exp(−i·Δt·H_k)` with
//! `H_k = H₀ + Σ_j u_{j,k}·H_j` (paper §II-D). This module computes step
//! propagators, cumulative forward states `X_k = U_k⋯U_1`, and backward
//! states `B_k = U_T†·U_N⋯U_{k+1}` — everything the gradient needs.

use accqoc_hw::ControlModel;
use accqoc_linalg::{expm_i, LinalgError, Mat};

use crate::pulse::Pulse;

/// Step propagators `U_1 … U_N` for a pulse on a control model.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when the pulse channel count
/// disagrees with the model; [`LinalgError::NonFinite`] when an
/// amplitude or the time step makes a slice Hamiltonian non-finite.
pub fn step_unitaries(model: &ControlModel, pulse: &Pulse) -> Result<Vec<Mat>, LinalgError> {
    if pulse.n_controls() != model.n_controls() {
        return Err(LinalgError::ShapeMismatch {
            what: "pulse channels vs model controls",
            expected: model.n_controls(),
            got: pulse.n_controls(),
        });
    }
    let dt = pulse.dt_ns();
    (0..pulse.n_steps())
        .map(|k| expm_i(&model.hamiltonian(&pulse.step_amps(k)), dt))
        .collect()
}

/// Cumulative forward states: returns `[X_0 = I, X_1, …, X_N]`
/// (length `N + 1`).
pub fn forward_states(step_us: &[Mat], dim: usize) -> Vec<Mat> {
    let mut out = Vec::with_capacity(step_us.len() + 1);
    out.push(Mat::identity(dim));
    for u in step_us {
        let next = u.matmul(out.last().expect("non-empty"));
        out.push(next);
    }
    out
}

/// Backward states: returns `[B_0, …, B_N]` where
/// `B_k = U_target†·U_N⋯U_{k+1}` and `B_N = U_target†`.
pub fn backward_states(step_us: &[Mat], target: &Mat) -> Vec<Mat> {
    let n = step_us.len();
    let mut out = vec![Mat::identity(target.rows()); n + 1];
    out[n] = target.dagger();
    for k in (0..n).rev() {
        out[k] = out[k + 1].matmul(&step_us[k]);
    }
    out
}

/// Forward states written into `ws.fwd` (`X_0 = I … X_N`), reading the
/// first `n_steps` propagators from `ws.step_us`. Allocation-free once
/// the workspace buffers are warm — the solver's per-iteration path.
pub(crate) fn forward_states_into(ws: &mut crate::Workspace, dim: usize, n_steps: usize) {
    ws.fwd[0].set_identity(dim);
    for k in 0..n_steps {
        let (head, tail) = ws.fwd.split_at_mut(k + 1);
        ws.step_us[k].matmul_into(&head[k], &mut tail[0]);
    }
}

/// Backward states written into `ws.bwd` (`B_N = U_target† … B_0`),
/// reading the first `n_steps` propagators from `ws.step_us`.
pub(crate) fn backward_states_into(ws: &mut crate::Workspace, target: &Mat, n_steps: usize) {
    target.dagger_into(&mut ws.bwd[n_steps]);
    for k in (0..n_steps).rev() {
        let (head, tail) = ws.bwd.split_at_mut(k + 1);
        tail[0].matmul_into(&ws.step_us[k], &mut head[k]);
    }
}

/// Final unitary realized by a pulse (`X_N`).
///
/// # Errors
///
/// Same as [`step_unitaries`].
pub fn total_unitary(model: &ControlModel, pulse: &Pulse) -> Result<Mat, LinalgError> {
    let mut x = Mat::identity(model.dim());
    for u in &step_unitaries(model, pulse)? {
        x = u.matmul(&x);
    }
    Ok(x)
}

/// Phase-invariant infidelity between the unitary a pulse actually
/// realizes on `model` and `target`: `1 − |Tr(X_N† · target)| / d`.
///
/// This is the verification oracle's ground truth — a cached pulse is
/// only as good as the unitary its propagation reproduces, and a healthy
/// pulse sits at or below the paper's `1e-4` convergence target.
///
/// # Errors
///
/// Same as [`step_unitaries`].
///
/// # Panics
///
/// Panics if the target dimension disagrees with the model's Hilbert
/// space.
pub fn realized_infidelity(
    model: &ControlModel,
    pulse: &Pulse,
    target: &Mat,
) -> Result<f64, LinalgError> {
    Ok(accqoc_linalg::phase_invariant_infidelity(
        &total_unitary(model, pulse)?,
        target,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_linalg::phase_invariant_infidelity;

    #[test]
    fn zero_pulse_on_driftless_qubit_is_identity() {
        let model = ControlModel::spin_chain(1);
        let pulse = Pulse::zeros(model.n_controls(), 8, model.dt_ns());
        let u = total_unitary(&model, &pulse).unwrap();
        assert!(u.approx_eq(&Mat::identity(2), 1e-12));
    }

    #[test]
    fn realized_infidelity_matches_direct_comparison() {
        let model = ControlModel::spin_chain(1);
        let mut pulse = Pulse::zeros(model.n_controls(), 10, 1.0);
        for k in 0..10 {
            pulse.set(0, k, 1.0);
        }
        let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
        // A full-drive π rotation realizes X…
        assert!(realized_infidelity(&model, &pulse, &x).unwrap() < 1e-10);
        // …and is maximally far from Z.
        let z = Mat::from_reals(&[1.0, 0.0, 0.0, -1.0]);
        assert!(realized_infidelity(&model, &pulse, &z).unwrap() > 0.99);
    }

    #[test]
    fn full_x_drive_for_ten_ns_is_x_gate() {
        // Ω/2π = 0.05 GHz ⇒ a π rotation at full amplitude takes 10 ns.
        let model = ControlModel::spin_chain(1);
        let mut pulse = Pulse::zeros(model.n_controls(), 10, 1.0);
        for k in 0..10 {
            pulse.set(0, k, 1.0); // x channel
        }
        let u = total_unitary(&model, &pulse).unwrap();
        let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
        assert!(phase_invariant_infidelity(&u, &x) < 1e-10);
    }

    #[test]
    fn bad_pulses_are_typed_errors() {
        let model = ControlModel::spin_chain(1);
        let mut pulse = Pulse::zeros(model.n_controls(), 3, 1.0);
        pulse.set(0, 1, f64::INFINITY);
        assert_eq!(
            total_unitary(&model, &pulse).unwrap_err(),
            LinalgError::NonFinite
        );
        let wide = Pulse::zeros(model.n_controls() + 1, 3, 1.0);
        assert!(matches!(
            step_unitaries(&model, &wide),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn forward_backward_consistency() {
        // B_k · X_k is constant in k: U_T† · X_N.
        let model = ControlModel::spin_chain(2);
        let mut pulse = Pulse::zeros(model.n_controls(), 6, 1.0);
        for k in 0..6 {
            pulse.set(0, k, 0.3);
            pulse.set(3, k, -0.5);
        }
        let us = step_unitaries(&model, &pulse).unwrap();
        let target = Mat::identity(4);
        let fwd = forward_states(&us, model.dim());
        let bwd = backward_states(&us, &target);
        let reference = bwd[6].matmul(&fwd[6]);
        for k in 0..=6 {
            let prod = bwd[k].matmul(&fwd[k]);
            assert!(prod.approx_eq(&reference, 1e-10), "k = {k}");
        }
    }

    #[test]
    fn propagators_are_unitary() {
        let model = ControlModel::spin_chain(2);
        let mut pulse = Pulse::zeros(model.n_controls(), 5, 1.0);
        pulse.set(1, 2, 0.9);
        pulse.set(2, 4, -0.7);
        for u in step_unitaries(&model, &pulse).unwrap() {
            assert!(u.is_unitary(1e-11));
        }
        assert!(total_unitary(&model, &pulse).unwrap().is_unitary(1e-10));
    }

    #[test]
    fn drift_alone_generates_iswap_like_evolution() {
        // After t = π/(2J), exp(−iHt) under the exchange drift maps
        // |01⟩ → −i|10⟩ (an iSWAP up to phase convention).
        let model = ControlModel::spin_chain(2);
        let j = std::f64::consts::TAU * accqoc_hw::COUPLING_GHZ;
        let t_iswap = std::f64::consts::FRAC_PI_2 / j;
        let n_steps = 125; // 12.5 ns at dt = 0.1
        let model = model.with_dt(t_iswap / n_steps as f64);
        let pulse = Pulse::zeros(model.n_controls(), n_steps, model.dt_ns());
        let u = total_unitary(&model, &pulse).unwrap();
        // |01⟩ = index 1 → −i·|10⟩ = index 2.
        assert!(u[(2, 1)].im < -0.99, "got {:?}", u[(2, 1)]);
        assert!(u[(1, 2)].im < -0.99);
        assert!((u[(0, 0)].re - 1.0).abs() < 1e-9);
        // Populations |00⟩ and |11⟩ untouched; |01⟩/|10⟩ fully exchanged.
        assert!(u[(1, 1)].abs() < 1e-9);
    }
}
