//! Reusable GRAPE scratch buffers.
//!
//! Every objective evaluation propagates `N` slice unitaries forward and
//! backward; done naively that allocates a few dozen small matrices per
//! iteration, and a full latency binary search performs thousands of
//! iterations. A [`Workspace`] owns those buffers once, so repeated
//! solves — in particular the per-thread compile loops of the parallel
//! pre-compilation engine — run allocation-free on the steady state.
//!
//! Workspaces are plain owned data: create one per thread (they are
//! `Send` but deliberately not shared) and pass it to
//! [`solve_with`](crate::solve_with) or
//! [`find_minimal_latency`](crate::find_minimal_latency). The convenience
//! wrapper [`solve`](crate::solve) creates a throwaway workspace
//! internally and produces bit-identical results.

use accqoc_linalg::{EigH, EighWorkspace, Mat, C64, ZERO};

/// Per-thread scratch space for GRAPE objective evaluations.
///
/// All buffers are resized on demand, so one workspace serves problems of
/// any dimension and slice count; reuse across solves only skips the
/// allocations, never changes a result.
///
/// # Examples
///
/// ```
/// use accqoc_grape::{solve_with, GrapeOptions, GrapeProblem, Workspace};
/// use accqoc_hw::ControlModel;
/// use accqoc_linalg::Mat;
///
/// let model = ControlModel::spin_chain(1);
/// let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
/// let mut ws = Workspace::new();
/// let out = solve_with(
///     &GrapeProblem { model: &model, target: &x, n_steps: 12, options: GrapeOptions::default() },
///     &mut ws,
/// );
/// assert!(out.converged);
/// ```
#[derive(Debug)]
pub struct Workspace {
    /// Step propagators `U_1 … U_N`.
    pub(crate) step_us: Vec<Mat>,
    /// Forward states `X_0 … X_N`.
    pub(crate) fwd: Vec<Mat>,
    /// Backward states `B_0 … B_N`.
    pub(crate) bwd: Vec<Mat>,
    /// Per-slice eigendecompositions (spectral gradients), reused by
    /// index across objective evaluations.
    pub(crate) eigs: Vec<EigH>,
    /// Per-slice phases `e^{−iΔtλ_a}`, `dim` per slice (slice `k` at
    /// `k·dim..(k+1)·dim`): formed once per evaluation, read by both the
    /// step propagator and the Daleckii–Krein weights.
    pub(crate) phases: Vec<C64>,
    /// Eigensolver scratch (Jacobi working copy + sort permutation).
    pub(crate) eig_ws: EighWorkspace,
    /// Per-slice control amplitudes.
    pub(crate) amps: Vec<f64>,
    /// Slice Hamiltonian.
    pub(crate) h: Mat,
    /// `X_{k−1}·B_k` product.
    pub(crate) m: Mat,
    /// `M̃ = V†·M·V` (the product rotated into the slice eigenbasis),
    /// then overwritten in place by `Kᵀ[b,a] = W[a,b]·M̃[b,a]` with the
    /// slice's Daleckii–Krein weights `W`.
    pub(crate) mt: Mat,
    /// General matmul scratch.
    pub(crate) tmp: Mat,
    /// `G = V·Kᵀ·V†`, the slice's gradient matrix: channel `j`'s
    /// derivative is `Tr(H_j·G)/d`, so no control Hamiltonian is rotated
    /// into the eigenbasis.
    pub(crate) g: Mat,
}

impl Workspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            step_us: Vec::new(),
            fwd: Vec::new(),
            bwd: Vec::new(),
            eigs: Vec::new(),
            phases: Vec::new(),
            eig_ws: EighWorkspace::new(),
            amps: Vec::new(),
            h: Mat::zeros(0, 0),
            m: Mat::zeros(0, 0),
            mt: Mat::zeros(0, 0),
            tmp: Mat::zeros(0, 0),
            g: Mat::zeros(0, 0),
        }
    }

    /// Grows the per-slice buffer vectors to cover `n_steps` slices of a
    /// `dim`-dimensional problem with `n_ctrl` control channels. Matrix
    /// shapes are corrected lazily by the `*_into` kernels.
    pub(crate) fn ensure(&mut self, dim: usize, n_ctrl: usize, n_steps: usize) {
        self.amps.resize(n_ctrl, 0.0);
        if self.step_us.len() < n_steps {
            self.step_us.resize_with(n_steps, || Mat::zeros(dim, dim));
        }
        if self.fwd.len() < n_steps + 1 {
            self.fwd.resize_with(n_steps + 1, || Mat::zeros(dim, dim));
        }
        if self.bwd.len() < n_steps + 1 {
            self.bwd.resize_with(n_steps + 1, || Mat::zeros(dim, dim));
        }
        self.phases.resize(n_steps * dim, ZERO);
        if self.eigs.len() < n_steps {
            self.eigs.resize_with(n_steps, || EigH {
                values: Vec::new(),
                vectors: Mat::zeros(0, 0),
            });
        }
    }

    /// Copies slice `k`'s amplitudes out of the flat channel-major
    /// parameter vector into the `amps` scratch.
    pub(crate) fn load_amps(&mut self, params: &[f64], n_steps: usize, k: usize) {
        for (j, a) in self.amps.iter_mut().enumerate() {
            *a = params[j * n_steps + k];
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}
