//! Pins `cost_and_gradient_into` to the pre-kernel-dispatch bytes.
//!
//! The evaluator below re-implements the spectral cost path on top of
//! `accqoc_linalg::kernels::reference` — the preserved
//! naive triple loops that predate the register-blocked kernel layer —
//! and demands exact bit equality of the cost and every gradient entry.
//! It mirrors the solver's operation sequence: the slice phases
//! `e^{−iΔtλ_a}` formed once and shared by the propagator and the
//! Daleckii–Krein weights, and each slice's gradient contracted through
//! `G = V·Kᵀ·V†` as `∂φ/∂u_j = Tr(H_j·G)/d`. Together with the
//! kernel-level property suite in `accqoc-linalg`, this is the proof
//! that kernel dispatch cannot move a single byte of any solver output
//! (and therefore of any golden pulse).

use accqoc_grape::{cost_and_gradient_into, GradientMethod, Workspace};
use accqoc_hw::ControlModel;
use accqoc_linalg::{eigh_into, kernels, EigH, EighWorkspace, Mat, C64, ZERO};

/// Deterministic off-grid test amplitudes (channel-major).
fn params_for(model: &ControlModel, n_steps: usize) -> Vec<f64> {
    let n = model.n_controls() * n_steps;
    (0..n)
        .map(|i| ((i * 37 % 19) as f64 / 19.0 - 0.5) * 0.8)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The slice phases `e^{−iΔtλ_a}`, formed once per slice.
fn reference_phases(eig: &EigH, dt: f64) -> Vec<C64> {
    eig.values.iter().map(|&l| C64::cis(-dt * l)).collect()
}

/// `V·diag(phases)·V†` through the naive reference kernels.
fn reference_propagator(eig: &EigH, phases: &[C64]) -> Mat {
    let dim = eig.values.len();
    let mut scratch = eig.vectors.clone();
    for j in 0..dim {
        for i in 0..dim {
            scratch[(i, j)] *= phases[j];
        }
    }
    reference_matmul_dagger(&scratch, &eig.vectors)
}

/// Daleckii–Krein weight `W[a,b]`, duplicated verbatim from the solver.
fn reference_krein_weight(la: f64, lb: f64, pa: C64, pb: C64, dt: f64) -> C64 {
    if (la - lb).abs() < 1e-9 {
        C64::imag(-dt) * pa
    } else {
        (pa - pb) / C64::real(la - lb)
    }
}

fn reference_matmul_dagger(a: &Mat, b: &Mat) -> Mat {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = vec![ZERO; m * n];
    kernels::reference::matmul_dagger(a.as_slice(), b.as_slice(), &mut out, m, k, n);
    Mat::from_fn(m, n, |i, j| out[i * n + j])
}

fn reference_matmul(a: &Mat, b: &Mat) -> Mat {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![ZERO; m * n];
    kernels::reference::matmul(a.as_slice(), b.as_slice(), &mut out, m, k, n);
    Mat::from_fn(m, n, |i, j| out[i * n + j])
}

/// `V†·M·V` through the naive reference kernels.
fn reference_rotate(v: &Mat, m: &Mat) -> Mat {
    let n = v.rows();
    let mut scratch = vec![ZERO; n * n];
    let mut out = vec![ZERO; n * n];
    kernels::reference::rotate(v.as_slice(), m.as_slice(), &mut scratch, &mut out, n);
    Mat::from_fn(n, n, |i, j| out[i * n + j])
}

/// The spectral cost-and-gradient path rebuilt on the reference kernels.
/// Same operations, same order, same `eigh_into` — only the dense-product
/// kernels differ, which is exactly the claim under test.
fn reference_cost_and_gradient(
    model: &ControlModel,
    target: &Mat,
    params: &[f64],
    n_steps: usize,
) -> (f64, Vec<f64>) {
    let dim = model.dim();
    let d = dim as f64;
    let n_ctrl = model.n_controls();
    let dt = model.dt_ns();

    let mut eig_ws = EighWorkspace::new();
    let mut h = Mat::zeros(0, 0);
    let mut amps = vec![0.0; n_ctrl];
    let mut eigs = Vec::with_capacity(n_steps);
    let mut phases = Vec::with_capacity(n_steps);
    let mut step_us = Vec::with_capacity(n_steps);
    for k in 0..n_steps {
        for (j, a) in amps.iter_mut().enumerate() {
            *a = params[j * n_steps + k];
        }
        model.hamiltonian_into(&amps, &mut h);
        let mut eig = EigH {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        };
        eigh_into(&h, &mut eig, &mut eig_ws).expect("hermitian");
        let p = reference_phases(&eig, dt);
        step_us.push(reference_propagator(&eig, &p));
        phases.push(p);
        eigs.push(eig);
    }

    let mut fwd = vec![Mat::identity(dim)];
    for u in &step_us {
        let next = reference_matmul(u, fwd.last().expect("non-empty"));
        fwd.push(next);
    }
    let mut bwd = vec![Mat::identity(dim); n_steps + 1];
    bwd[n_steps] = target.dagger();
    for k in (0..n_steps).rev() {
        bwd[k] = reference_matmul(&bwd[k + 1], &step_us[k]);
    }

    // The trace kernel is shared (never blocked), so calling it here is
    // calling the same code the solver runs.
    let phi = bwd[n_steps].matmul_trace(&fwd[n_steps]) / C64::real(d);
    let cost = (1.0 - phi.norm_sqr()).max(0.0);

    let mut grad = vec![0.0; n_ctrl * n_steps];
    for k in 0..n_steps {
        let (eig, p) = (&eigs[k], &phases[k]);
        let m = reference_matmul(&fwd[k], &bwd[k + 1]);
        let mt = reference_rotate(&eig.vectors, &m);
        let kt = Mat::from_fn(dim, dim, |b, a| {
            let (la, lb) = (eig.values[a], eig.values[b]);
            reference_krein_weight(la, lb, p[a], p[b], dt) * mt[(b, a)]
        });
        let g = reference_matmul_dagger(&reference_matmul(&eig.vectors, &kt), &eig.vectors);
        for (j, ch) in model.channels().iter().enumerate() {
            // Shared trace kernel, as for φ above.
            let dphi = ch.hamiltonian.matmul_trace(&g) / C64::real(d);
            grad[j * n_steps + k] = -2.0 * (phi.conj() * dphi).re;
        }
    }
    (cost, grad)
}

/// One propagator per slice comes from `eigh_into` in both evaluators,
/// so the reference only differs in which dense kernels run — a perfect
/// isolation of the dispatch layer.
fn assert_bit_identical(qubits: usize, n_steps: usize) {
    let model = ControlModel::spin_chain(qubits).with_dt(1.5);
    let dim = model.dim();
    let target = Mat::from_fn(dim, dim, |i, j| {
        // Any fixed matrix works; an off-diagonal phase pattern keeps
        // both real and imaginary accumulation paths busy.
        C64::new(
            if (i + j) % dim == 1 { 1.0 } else { 0.0 },
            if i == j { 0.25 } else { 0.0 },
        )
    });
    let params = params_for(&model, n_steps);

    let mut ws = Workspace::new();
    let mut grad = Vec::new();
    let cost = cost_and_gradient_into(
        &model,
        &target,
        &params,
        n_steps,
        GradientMethod::Spectral,
        &mut ws,
        &mut grad,
    );
    // Second evaluation through the warm workspace: buffer reuse must not
    // move bits either.
    let mut grad_warm = Vec::new();
    let cost_warm = cost_and_gradient_into(
        &model,
        &target,
        &params,
        n_steps,
        GradientMethod::Spectral,
        &mut ws,
        &mut grad_warm,
    );
    assert_eq!(cost.to_bits(), cost_warm.to_bits(), "warm reuse drifted");
    assert_eq!(bits(&grad), bits(&grad_warm), "warm reuse drifted");

    let (ref_cost, ref_grad) = reference_cost_and_gradient(&model, &target, &params, n_steps);
    assert_eq!(
        cost.to_bits(),
        ref_cost.to_bits(),
        "dim {dim}: cost {cost} vs reference {ref_cost}"
    );
    assert_eq!(
        bits(&grad),
        bits(&ref_grad),
        "dim {dim}: gradient bytes drifted"
    );
}

#[test]
fn spectral_cost_and_gradient_bit_identical_to_reference_kernels() {
    // dim 2 and 4 are all-remainder shapes for the 2×4 tile; dim 8 runs
    // the main tiled loops.
    assert_bit_identical(1, 6);
    assert_bit_identical(2, 4);
    assert_bit_identical(3, 3);
}
