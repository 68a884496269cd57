//! The GRAPE solver: pulse optimization toward a target unitary.
//!
//! Cost is the phase-invariant gate infidelity
//! `1 − |Tr(U_target†·X_N)|²/d²`; the paper sets the convergence target to
//! `1e-4` (§IV-D). Gradients are exact for any slice width: each slice's
//! Hamiltonian is diagonalized once, and the derivative of its propagator
//! follows from the spectral (Daleckii–Krein) form, contracted into one
//! matrix `G` per slice so that every control channel's derivative is a
//! single trace `Tr(H_j·G)/d` — see [`cost_and_gradient_into`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use accqoc_hw::ControlModel;
use accqoc_linalg::{eigh_into, Mat, C64};

use crate::optimizer::{minimize, StopCriteria};
use crate::propagate::{backward_states_into, forward_states_into};
use crate::pulse::Pulse;
use crate::workspace::Workspace;

/// How [`cost_and_gradient_into`] computes GRAPE gradients. The solver
/// has one method; the type names it at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradientMethod {
    /// Exact gradients through the spectral (Daleckii–Krein) form of the
    /// propagator derivative: one Hermitian eigendecomposition per slice.
    /// Exact for any `Δt` — coarse 1 ns slices would starve the
    /// quasi-Newton line search of descent under the first-order
    /// approximation `∂U_k/∂u ≈ −iΔt·H_j·U_k`.
    #[default]
    Spectral,
}

/// Initial pulse guess.
#[derive(Debug, Clone, PartialEq)]
pub enum InitStrategy {
    /// All-zero controls.
    Zero,
    /// Deterministic uniform noise in `±scale·max_amp`, seeded.
    Random {
        /// Fraction of the amplitude bound.
        scale: f64,
        /// RNG seed — identical seeds give identical runs.
        seed: u64,
    },
    /// Warm start from an existing pulse (resampled to the step count) —
    /// the mechanism behind the paper's MST-ordered compilation (§V).
    Warm(Pulse),
}

impl Default for InitStrategy {
    fn default() -> Self {
        // Small random break of symmetry; deterministic by default.
        InitStrategy::Random {
            scale: 0.1,
            seed: 0xACC0,
        }
    }
}

/// GRAPE configuration. The solver itself is fixed: spectral gradients
/// and L-BFGS-B over the amplitude box (the paper's BFGS choice, §IV-D).
#[derive(Debug, Clone, Default)]
pub struct GrapeOptions {
    /// Stopping criteria; `target_cost` is the fidelity target.
    pub stop: StopCriteria,
    /// Initial guess.
    pub init: InitStrategy,
}

impl GrapeOptions {
    /// Returns a copy with a different initial guess.
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Returns a copy with a different iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.stop.max_iters = max_iters;
        self
    }
}

/// A pulse-synthesis problem: realize `target` on `model` in `n_steps`
/// slices.
///
/// The target is borrowed, not owned: the latency binary search probes
/// the same target a dozen-plus times per compile, and the serving tier
/// runs thousands of such searches — cloning a `2^q × 2^q` matrix per
/// probe was pure allocator traffic.
#[derive(Debug, Clone)]
pub struct GrapeProblem<'a> {
    /// Device model (drift, controls, dt).
    pub model: &'a ControlModel,
    /// Target unitary (must match the model dimension).
    pub target: &'a Mat,
    /// Number of time slices; latency = `n_steps · dt`.
    pub n_steps: usize,
    /// Solver configuration.
    pub options: GrapeOptions,
}

/// Result of one GRAPE run.
#[derive(Debug, Clone)]
pub struct GrapeOutcome {
    /// The optimized pulse.
    pub pulse: Pulse,
    /// Final infidelity `1 − |Tr(U_T†X_N)|²/d²`.
    pub infidelity: f64,
    /// Optimizer iterations (the paper's compile-cost metric, §VI-G).
    pub iterations: usize,
    /// Objective evaluations, including line-search probes.
    pub fn_evals: usize,
    /// Whether the fidelity target was met.
    pub converged: bool,
    /// Cost after each iteration.
    pub history: Vec<f64>,
}

/// Phase-invariant infidelity between the realized and target unitaries.
pub fn infidelity(target: &Mat, realized: &Mat) -> f64 {
    let d = target.rows() as f64;
    let phi = target.hs_inner(realized) / C64::real(d);
    (1.0 - phi.norm_sqr()).max(0.0)
}

/// Runs GRAPE on a problem with a throwaway [`Workspace`].
///
/// Repeated solves (latency searches, pre-compilation loops) should hold
/// one workspace per thread and call [`solve_with`] instead; the results
/// are identical, only the allocations differ.
///
/// # Panics
///
/// Panics if the target dimension disagrees with the model.
pub fn solve(problem: &GrapeProblem<'_>) -> GrapeOutcome {
    solve_with(problem, &mut Workspace::new())
}

/// Runs GRAPE on a problem, reusing the caller's scratch buffers.
///
/// # Panics
///
/// Panics if the target dimension disagrees with the model.
pub fn solve_with(problem: &GrapeProblem<'_>, ws: &mut Workspace) -> GrapeOutcome {
    let model = problem.model;
    let dim = model.dim();
    assert_eq!(problem.target.rows(), dim, "target dimension vs model");
    assert!(problem.target.is_square());
    let n_ctrl = model.n_controls();
    let n_steps = problem.n_steps;
    let dt = model.dt_ns();

    // Degenerate case: zero-length pulse realizes the identity.
    if n_steps == 0 {
        let empty = Pulse::zeros(n_ctrl, 0, dt);
        let inf = infidelity(problem.target, &Mat::identity(dim));
        return GrapeOutcome {
            pulse: empty,
            infidelity: inf,
            iterations: 0,
            fn_evals: 1,
            converged: inf <= problem.options.stop.target_cost,
            history: vec![],
        };
    }

    let x0 = initial_params(problem, n_ctrl, n_steps, dt);

    let mut evals = 0usize;
    let mut objective = |params: &[f64]| -> (f64, Vec<f64>) {
        evals += 1;
        // One gradient vector per evaluation: the optimizer's line-search
        // state owns its gradients, so this allocation is part of its
        // API. Everything below it reuses workspace buffers.
        let mut grad = Vec::with_capacity(n_ctrl * n_steps);
        let cost = cost_and_gradient_into(
            model,
            problem.target,
            params,
            n_steps,
            GradientMethod::Spectral,
            ws,
            &mut grad,
        );
        (cost, grad)
    };

    // Channel-major like the parameters: each channel's amplitude cap,
    // repeated over its slices.
    let bounds: Vec<f64> = model
        .channels()
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.max_amp, n_steps))
        .collect();

    let result = minimize(&mut objective, &bounds, x0, &problem.options.stop);

    GrapeOutcome {
        pulse: Pulse::from_params(&result.x, n_ctrl, n_steps, dt),
        infidelity: result.cost,
        iterations: result.iterations,
        fn_evals: evals,
        converged: result.converged,
        history: result.history,
    }
}

fn initial_params(problem: &GrapeProblem<'_>, n_ctrl: usize, n_steps: usize, dt: f64) -> Vec<f64> {
    match &problem.options.init {
        InitStrategy::Zero => vec![0.0; n_ctrl * n_steps],
        InitStrategy::Random { scale, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let bounds: Vec<f64> = problem.model.channels().iter().map(|c| c.max_amp).collect();
            (0..n_ctrl * n_steps)
                .map(|i| rng.gen_range(-1.0..1.0) * scale * bounds[i / n_steps])
                .collect()
        }
        InitStrategy::Warm(pulse) => {
            assert_eq!(
                pulse.n_controls(),
                n_ctrl,
                "warm-start pulse channel count vs model"
            );
            let resampled = pulse.resampled(n_steps);
            Pulse::from_params(&resampled.to_params(), n_ctrl, n_steps, dt).to_params()
        }
    }
}

/// Computes `(cost, gradient)` for the flat parameter vector with a
/// throwaway workspace (test/verification entry point; the solver calls
/// [`cost_and_gradient_into`] with a long-lived workspace).
#[cfg(test)]
fn cost_and_gradient(
    model: &ControlModel,
    target: &Mat,
    params: &[f64],
    n_steps: usize,
) -> (f64, Vec<f64>) {
    let mut grad = Vec::new();
    let cost = cost_and_gradient_into(
        model,
        target,
        params,
        n_steps,
        GradientMethod::Spectral,
        &mut Workspace::new(),
        &mut grad,
    );
    (cost, grad)
}

/// Computes the GRAPE cost for the flat parameter vector, writing the
/// gradient into `grad` and reusing the workspace buffers.
///
/// This is the innermost function of the entire serving stack — every
/// optimizer iteration and every line-search probe lands here — and it
/// performs **zero heap allocations** once `ws` and `grad` have warmed
/// to the problem size (asserted by a counting-allocator test). The dense products dispatch to the
/// register-blocked kernel layer of `accqoc-linalg`; the `grape_kernels`
/// bench harness tracks its per-call cost in `BENCH_grape.json`.
///
/// Per slice `k` the pass performs one Hermitian eigensolve
/// `H_k = V·diag(λ)·V†`, forms the phases `e^{−iΔtλ_a}` once (they give
/// both the propagator `U_k = V·diag(e^{−iΔtλ})·V†` and the
/// Daleckii–Krein weights `W`), and then, with `M = X_{k−1}·B_k` and
/// `M̃ = V†·M·V`, one gradient matrix `G = V·Kᵀ·V†` where
/// `Kᵀ[b,a] = W[a,b]·M̃[b,a]`. Channel `j`'s derivative is
/// `∂φ/∂u_j = Tr(H_j·G)/d`: five dense products per slice, however many
/// control channels there are.
///
/// `grad` is cleared and resized to `n_controls × n_steps` (channel-major
/// like [`Pulse::to_params`]). Returns the phase-invariant infidelity
/// `1 − |Tr(U_T†·X_N)|²/d²`. `GradientMethod` has the single variant
/// [`GradientMethod::Spectral`].
///
/// # Panics
///
/// Panics if `target` disagrees with the model dimension or `params` is
/// shorter than `n_controls × n_steps`.
#[allow(clippy::too_many_arguments)]
pub fn cost_and_gradient_into(
    model: &ControlModel,
    target: &Mat,
    params: &[f64],
    n_steps: usize,
    _method: GradientMethod,
    ws: &mut Workspace,
    grad: &mut Vec<f64>,
) -> f64 {
    let dim = model.dim();
    let d = dim as f64;
    let n_ctrl = model.n_controls();
    let dt = model.dt_ns();
    ws.ensure(dim, n_ctrl, n_steps);

    // Step propagators: the eigendecompositions the gradient needs
    // double as the propagators, and the slice phases e^{−iΔtλ_a} are
    // formed once here for both the propagator and the Krein weights.
    for k in 0..n_steps {
        ws.load_amps(params, n_steps, k);
        model.hamiltonian_into(&ws.amps, &mut ws.h);
        let eig = &mut ws.eigs[k];
        eigh_into(&ws.h, eig, &mut ws.eig_ws).expect("control hamiltonians are hermitian");
        let phases = &mut ws.phases[k * dim..(k + 1) * dim];
        for (p, &l) in phases.iter_mut().zip(&eig.values) {
            *p = C64::cis(-dt * l);
        }
        // U_k = V·diag(phases)·V†.
        ws.tmp.copy_from(&eig.vectors);
        for row in ws.tmp.as_mut_slice().chunks_exact_mut(dim) {
            for (z, &p) in row.iter_mut().zip(phases.iter()) {
                *z *= p;
            }
        }
        ws.tmp.matmul_dagger_into(&eig.vectors, &mut ws.step_us[k]);
    }
    forward_states_into(ws, dim, n_steps);
    backward_states_into(ws, target, n_steps);

    // φ = Tr(U_T† X_N)/d; cost = 1 − |φ|².
    let phi = ws.bwd[n_steps].matmul_trace(&ws.fwd[n_steps]) / C64::real(d);
    let cost = (1.0 - phi.norm_sqr()).max(0.0);

    grad.clear();
    grad.resize(n_ctrl * n_steps, 0.0);
    for k in 0..n_steps {
        let eig = &ws.eigs[k];
        let phases = &ws.phases[k * dim..(k + 1) * dim];
        // With M = X_{k−1}·B_k, M̃ = V†·M·V and the Daleckii–Krein
        // weights W of the slice, ∂U_k/∂u_j = V·(W ∘ V†·H_j·V)·V†, so
        //   ∂φ/∂u_j = Tr(∂U_k/∂u_j · M)/d
        //           = Σ_{a,b} (V†·H_j·V)[a,b]·W[a,b]·M̃[b,a] / d
        //           = Tr(H_j · G)/d,   G = V·Kᵀ·V†,  Kᵀ[b,a] = W[a,b]·M̃[b,a].
        // G depends on the slice only, so each channel costs one trace
        // instead of rotating H_j into the eigenbasis.
        ws.fwd[k].matmul_into(&ws.bwd[k + 1], &mut ws.m);
        eig.vectors.rotate_into(&ws.m, &mut ws.tmp, &mut ws.mt);
        // Kᵀ in place of M̃.
        let (values, kt) = (&eig.values, ws.mt.as_mut_slice());
        for (b, row) in kt.chunks_exact_mut(dim).enumerate() {
            for (a, z) in row.iter_mut().enumerate() {
                *z = krein_weight(values[a], values[b], phases[a], phases[b], dt) * *z;
            }
        }
        eig.vectors.matmul_into(&ws.mt, &mut ws.tmp);
        ws.tmp.matmul_dagger_into(&eig.vectors, &mut ws.g);
        for (j, ch) in model.channels().iter().enumerate() {
            let dphi = ch.hamiltonian.matmul_trace(&ws.g) / C64::real(d);
            grad[j * n_steps + k] = -2.0 * (phi.conj() * dphi).re;
        }
    }
    cost
}

/// Daleckii–Krein divided difference for the derivative of
/// `exp(−iΔt·H)` in the eigenbasis of `H`: with `p = e^{−iΔtλ}`,
/// `W[a,b] = (p_a − p_b)/(λ_a − λ_b)`, and the confluent limit
/// `−iΔt·p_a` on (near-)degenerate pairs.
#[inline]
fn krein_weight(la: f64, lb: f64, pa: C64, pb: C64, dt: f64) -> C64 {
    if (la - lb).abs() < 1e-9 {
        C64::imag(-dt) * pa
    } else {
        (pa - pb) / C64::real(la - lb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::total_unitary;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};
    use accqoc_linalg::expm_frechet;

    fn x_target() -> Mat {
        Mat::from_reals(&[0.0, 1.0, 1.0, 0.0])
    }

    #[test]
    fn spectral_gradient_matches_finite_difference_on_coarse_grid() {
        // Spectral gradients are exact for any dt, including coarse slices.
        let model = ControlModel::spin_chain(2).with_dt(1.5);
        let target = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1)]));
        let n_steps = 5;
        let n_params = model.n_controls() * n_steps;
        let params: Vec<f64> = (0..n_params)
            .map(|i| ((i * 29 % 17) as f64 / 17.0 - 0.5) * 0.9)
            .collect();
        let (c0, g) = cost_and_gradient(&model, &target, &params, n_steps);
        let h = 1e-6;
        for i in (0..n_params).step_by(3) {
            let mut p = params.clone();
            p[i] += h;
            let (c1, _) = cost_and_gradient(&model, &target, &p, n_steps);
            let fd = (c1 - c0) / h;
            assert!(
                (fd - g[i]).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {i}: fd {fd} vs spectral {}",
                g[i]
            );
        }
    }

    /// Reference `(cost, gradient)` through the Padé propagators and the
    /// Fréchet derivatives of the augmented-block matrix exponential:
    /// `∂φ/∂u_{j,k} = Tr(B_k · L_{j,k} · X_{k−1})/d` with `L_{j,k}` the
    /// derivative of `exp(−iΔt·H_k)` along `−iΔt·H_j`. Independent of the
    /// eigensolver the production path runs on.
    fn frechet_cost_and_gradient(
        model: &ControlModel,
        target: &Mat,
        params: &[f64],
        n_steps: usize,
    ) -> (f64, Vec<f64>) {
        let d = model.dim() as f64;
        let dt = model.dt_ns();
        let pulse = Pulse::from_params(params, model.n_controls(), n_steps, dt);
        let us = crate::propagate::step_unitaries(model, &pulse).unwrap();
        let fwd = crate::propagate::forward_states(&us, model.dim());
        let bwd = crate::propagate::backward_states(&us, target);
        let phi = bwd[n_steps].matmul_trace(&fwd[n_steps]) / C64::real(d);
        let mut grad = vec![0.0; params.len()];
        for k in 0..n_steps {
            let a = model.hamiltonian(&pulse.step_amps(k)).scale(C64::imag(-dt));
            for (j, ch) in model.channels().iter().enumerate() {
                let e = ch.hamiltonian.scale(C64::imag(-dt));
                let (_, l) = expm_frechet(&a, &e).expect("finite hamiltonians");
                let dphi = bwd[k + 1].matmul(&l).matmul_trace(&fwd[k]) / C64::real(d);
                grad[j * n_steps + k] = -2.0 * (phi.conj() * dphi).re;
            }
        }
        ((1.0 - phi.norm_sqr()).max(0.0), grad)
    }

    #[test]
    fn spectral_and_frechet_gradients_agree() {
        let model = ControlModel::spin_chain(1).with_dt(2.0);
        let target = x_target();
        let n_steps = 4;
        let params: Vec<f64> = (0..8).map(|i| (i as f64 / 8.0 - 0.4) * 0.9).collect();
        let (c1, g1) = cost_and_gradient(&model, &target, &params, n_steps);
        let (c2, g2) = frechet_cost_and_gradient(&model, &target, &params, n_steps);
        assert!((c1 - c2).abs() < 1e-10);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn solves_x_gate_single_qubit() {
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 12,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(out.converged, "infidelity {}", out.infidelity);
        assert!(out.infidelity <= 1e-4);
        // Realized unitary matches the pulse the solver reports.
        let u = total_unitary(&model, &out.pulse).unwrap();
        assert!(infidelity(problem.target, &u) <= 1.1e-4);
        assert!(out.pulse.max_abs_amp() <= 1.0 + 1e-12, "bounds respected");
    }

    #[test]
    fn solves_hadamard() {
        let model = ControlModel::spin_chain(1);
        let target = circuit_unitary(&Circuit::from_gates(1, [Gate::H(0)]));
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 12,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(out.converged, "infidelity {}", out.infidelity);
    }

    #[test]
    fn solves_cnot_two_qubits() {
        let model = ControlModel::spin_chain(2);
        let target = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1)]));
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 40,
            options: GrapeOptions::default().with_max_iters(800),
        };
        let out = solve(&problem);
        assert!(
            out.converged,
            "CNOT infidelity {} after {} iters",
            out.infidelity, out.iterations
        );
    }

    #[test]
    fn identity_with_zero_steps_converges_immediately() {
        let model = ControlModel::spin_chain(2);
        let target = Mat::identity(4);
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 0,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.pulse.n_steps(), 0);
    }

    #[test]
    fn too_few_steps_fails_to_converge() {
        // An X gate needs ≥ 10 ns at our amplitude bound; 4 steps of 1 ns
        // cannot reach it.
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 4,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(
            !out.converged,
            "should be infeasible, got infidelity {}",
            out.infidelity
        );
        assert!(out.infidelity > 1e-3);
    }

    #[test]
    fn warm_start_from_solution_converges_in_few_iterations() {
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let base = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 12,
            options: GrapeOptions::default(),
        };
        let cold = solve(&base);
        assert!(cold.converged);
        // Re-solve warm-started from the solution: near-instant.
        let warm_problem = GrapeProblem {
            options: GrapeOptions::default().with_init(InitStrategy::Warm(cold.pulse.clone())),
            ..base
        };
        let warm = solve(&warm_problem);
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations / 2,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let make = || {
            solve(&GrapeProblem {
                model: &model,
                target: &target,
                n_steps: 12,
                options: GrapeOptions::default(),
            })
        };
        let a = make();
        let b = make();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.pulse, b.pulse);
    }
}
