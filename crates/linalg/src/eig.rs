//! Eigendecomposition of complex Hermitian matrices via the cyclic Jacobi
//! method.
//!
//! Hermitian eigensolves back four things in this workspace: the GRAPE
//! objective (one eigensolve per time slice per evaluation: the slice
//! propagator `V·diag(e^{−iΔtλ})·V†` and the Daleckii–Krein gradient
//! contraction `G = V·Kᵀ·V†` both come from it), spectral matrix
//! functions ([`crate::sqrtm::sqrtm_psd`], [`funm_hermitian`]), the
//! Uhlmann-fidelity similarity metric (`d₄` in the paper), and
//! cross-checks of the Padé [`crate::expm`] on Hermitian input.
//! Matrices are ≤ 32×32, where Jacobi is simple, robust, and fast.
//!
//! The GRAPE path makes [`eigh_into`] the hottest kernel of every
//! compile, so the sweep is written for it:
//!
//! - each rotation works in place on the flat row-major buffers, and
//!   mixes only the two pivot rows of the Hermitian working copy: its
//!   columns are their conjugates, and the pivot block is set to its
//!   closed-form diagonal;
//! - the rotation is formed from `|a_pq|²` and the diagonal gap, with
//!   two square roots and one division on its dependent chain and no
//!   `hypot`, pivot modulus or pivot phase (a `hypot` form only where
//!   `|a_pq|²` would underflow or overflow);
//! - the entry checks — the matrix scale `max(max|a_ij|, 1)` and the
//!   Hermitian-deviation test against `1e-9·scale` — compare squared
//!   moduli and fall back to the exact `hypot` form only inside a
//!   [`GUARD`] band around the threshold, so both decisions come out
//!   exactly as the `hypot` forms would decide them.
//!
//! The eigenvalue sort is stable (see `sorted_into`), so degenerate
//! spectra keep Jacobi's column order.

use crate::complex::{C64, ZERO};
use crate::mat::Mat;
use crate::LinalgError;

/// Result of a Hermitian eigendecomposition `A = V · diag(λ) · V†`.
#[derive(Debug, Clone)]
pub struct EigH {
    /// Real eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: Mat,
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 60;

/// Relative half-width of the band around a squared threshold inside
/// which the squared-modulus entry checks defer to the exact `hypot`
/// form. `re² + im²` is within a few ulps (~1e-15 relative) of `|z|²`
/// and `hypot` within one ulp of `|z|`, so outside the band the two
/// forms cannot disagree.
const GUARD: f64 = 1e-12;

/// Range of `|z|²` over which `√(re² + im²)` is as accurate as `hypot`:
/// no underflow into subnormals below it, no overflow above it.
const NORM_SQR_SAFE: std::ops::RangeInclusive<f64> = 1e-290..=1e290;

/// Reusable scratch for [`eigh_into`]: the Jacobi working copy, the
/// accumulated rotations, and the sort permutation.
///
/// One workspace serves problems of any dimension; reuse only skips
/// allocations, never changes a result. The GRAPE spectral-gradient path
/// performs one eigensolve per slice per objective evaluation, so this
/// is what keeps the steady-state solver allocation-free.
#[derive(Debug)]
pub struct EighWorkspace {
    /// Jacobi working copy of the input.
    m: Mat,
    /// Accumulated eigenvector rotations.
    v: Mat,
    /// Eigenvalue sort permutation.
    idx: Vec<usize>,
    /// Unsorted diagonal eigenvalues.
    vals: Vec<f64>,
}

impl EighWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            m: Mat::zeros(0, 0),
            v: Mat::zeros(0, 0),
            idx: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl Default for EighWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the eigendecomposition of a Hermitian matrix.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] / [`LinalgError::NonFinite`] on bad input.
/// - [`LinalgError::NotHermitian`] if `A` deviates from `A†` by more than
///   `1e-9` (relative to its largest entry).
/// - [`LinalgError::NoConvergence`] if Jacobi sweeps fail to reduce the
///   off-diagonal mass (does not occur for Hermitian input in practice).
///
/// # Examples
///
/// ```
/// use accqoc_linalg::{eigh, Mat};
///
/// let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
/// let eig = eigh(&x)?;
/// assert!((eig.values[0] + 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), accqoc_linalg::LinalgError>(())
/// ```
pub fn eigh(a: &Mat) -> Result<EigH, LinalgError> {
    let mut out = EigH {
        values: Vec::new(),
        vectors: Mat::zeros(0, 0),
    };
    eigh_into(a, &mut out, &mut EighWorkspace::new())?;
    Ok(out)
}

/// [`eigh`] written into a caller-owned [`EigH`] through a reusable
/// [`EighWorkspace`] — no allocation once both are warm, and
/// bit-identical results (the wrapper [`eigh`] is this function with
/// throwaway buffers).
///
/// On error `out` is left untouched.
///
/// # Errors
///
/// Same as [`eigh`].
pub fn eigh_into(a: &Mat, out: &mut EigH, ws: &mut EighWorkspace) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite);
    }
    let scale = entry_scale(a);
    if !hermitian_within(a, 1e-9 * scale) {
        return Err(LinalgError::NotHermitian);
    }
    let n = a.rows();
    ws.m.copy_from(a);
    ws.v.set_identity(n);

    // Absolute convergence threshold tied to the matrix scale.
    let frobenius = ws.m.frobenius_norm();
    let mut tol = 1e-14 * scale.max(frobenius);
    // ‖A‖_F² overflows for entries of modulus ≳ 1e154, which would make
    // the threshold infinite and pass the first convergence test before
    // any rotation. Such a matrix is swept as A / max|a_ij| instead, and
    // its eigenvalues are scaled back; every other input keeps this
    // path bit for bit.
    let mut unscale = None;
    if !frobenius.is_finite() {
        let max = a.max_abs();
        for z in ws.m.as_mut_slice() {
            *z = z.scale(1.0 / max);
        }
        tol = 1e-14 * ws.m.frobenius_norm().max(1.0);
        unscale = Some(max);
    }

    for _sweep in 0..MAX_SWEEPS {
        if off_diagonal_norm(ws.m.as_slice(), n) <= tol {
            return finish(ws, out, unscale);
        }
        let (m, v) = (ws.m.as_mut_slice(), ws.v.as_mut_slice());
        for p in 0..n {
            for q in (p + 1)..n {
                rotate(m, v, n, p, q);
            }
        }
    }
    if off_diagonal_norm(ws.m.as_slice(), n) <= tol * 100.0 {
        return finish(ws, out, unscale);
    }
    Err(LinalgError::NoConvergence {
        what: "jacobi eigh",
        iters: MAX_SWEEPS,
    })
}

/// Scales the eigenvalues of a rescaled sweep back by `unscale` (see
/// [`eigh_into`]), then sorts the eigenpairs into `out`.
fn finish(ws: &mut EighWorkspace, out: &mut EigH, unscale: Option<f64>) -> Result<(), LinalgError> {
    if let Some(max) = unscale {
        for i in 0..ws.m.rows() {
            let value = ws.m[(i, i)].re * max;
            if !value.is_finite() {
                return Err(LinalgError::NonFinite);
            }
            ws.m[(i, i)] = C64::real(value);
        }
    }
    sorted_into(ws, out);
    Ok(())
}

/// `max(max_ij |A[i,j]|, 1)`, exactly as [`Mat::max_abs`] would give it,
/// without a `hypot` per entry: the largest squared modulus proves the
/// common case (every entry clearly below 1, so the scale is 1), and only
/// a matrix with an entry modulus near or above 1 pays for the exact
/// maximum.
fn entry_scale(a: &Mat) -> f64 {
    let max_sq = a
        .as_slice()
        .iter()
        .map(|z| z.norm_sqr())
        .fold(0.0, f64::max);
    if max_sq < 1.0 - GUARD {
        1.0
    } else {
        a.max_abs().max(1.0)
    }
}

/// `max |A[i,j] − conj(A[j,i])| ≤ threshold` — the deviation
/// [`Mat::is_hermitian`] measures, decided without materializing the
/// dagger (that method allocates; the hot eigensolve path must not).
///
/// Compares the largest squared deviation with `threshold²`; inside the
/// [`GUARD`] band, or when a square leaves the finite range, it decides
/// on the exact `hypot` deviation instead. The pair `(i, j)` and
/// `(j, i)` deviate by the same modulus, so one triangle is scanned.
fn hermitian_within(a: &Mat, threshold: f64) -> bool {
    let n = a.rows();
    let s = a.as_slice();
    let mut dev_sq = 0.0f64;
    for i in 0..n {
        for j in i..n {
            dev_sq = dev_sq.max((s[i * n + j] - s[j * n + i].conj()).norm_sqr());
        }
    }
    let thr_sq = threshold * threshold;
    if thr_sq.is_finite() && dev_sq.is_finite() {
        if dev_sq < thr_sq * (1.0 - GUARD) {
            return true;
        }
        if dev_sq > thr_sq * (1.0 + GUARD) {
            return false;
        }
    }
    hermitian_deviation(a) <= threshold
}

/// `max |A[i,j] − conj(A[j,i])|` through `hypot`: the exact deviation
/// [`hermitian_within`] falls back to inside its guard band.
fn hermitian_deviation(a: &Mat) -> f64 {
    let n = a.rows();
    let mut dev = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            dev = dev.max((a[(i, j)] - a[(j, i)].conj()).abs());
        }
    }
    dev
}

/// Frobenius norm of the off-diagonal part of the row-major `n×n` `m`.
fn off_diagonal_norm(m: &[C64], n: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m[i * n + j].norm_sqr();
            }
        }
    }
    s.sqrt()
}

/// One complex Jacobi rotation zeroing `m[p,q]` of the row-major `n×n`
/// working copy, in place, accumulating into the row-major `n×n` `v`.
///
/// With `a_pq = r·e^{iφ}` and `d = a_qq − a_pp`, the rotation angle is
/// `t = tan θ = sign(d)/(|τ| + √(1 + τ²))` for `τ = d/(2r)`. Multiplying
/// through by `2r`, with `ρ = √(d² + 4r²)` and `w = |d| + ρ`:
/// `u = t/r = 2·sign(d)/w` and `1 + t² = 2ρ/w`, so `c = cos θ = √(w/2ρ)`
/// and the rotation's off-diagonal entry is `s·e^{iφ} = u·c·a_pq`.
/// On the common path neither `r` nor the phase `e^{iφ}` is formed: the
/// dependent chain is two square roots and one division (the other runs
/// beside it).
fn rotate(m: &mut [C64], v: &mut [C64], n: usize, p: usize, q: usize) {
    debug_assert!(p < q && q < n);
    let apq = m[p * n + q];
    let d = m[q * n + q].re - m[p * n + p].re;
    let r_sq = apq.norm_sqr();
    let disc = d * d + 4.0 * r_sq;
    let (u, c, r_sq) = if NORM_SQR_SAFE.contains(&r_sq) && disc <= *NORM_SQR_SAFE.end() {
        let rho = disc.sqrt();
        let w = d.abs() + rho;
        let mag = 2.0 / w;
        let c = (w / (2.0 * rho)).sqrt();
        (if d >= 0.0 { mag } else { -mag }, c, r_sq)
    } else {
        // Extreme magnitudes, where the squares lose precision: the
        // same angle through hypot.
        let r = apq.abs();
        if r < 1e-300 {
            return;
        }
        let tau = d / (2.0 * r);
        let t = if tau >= 0.0 {
            1.0 / (tau + tau.hypot(1.0))
        } else {
            -1.0 / (-tau + tau.hypot(1.0))
        };
        (t / r, 1.0 / t.hypot(1.0), r * r)
    };
    // U[p,p] = c, U[p,q] = s·e^{iφ}, U[q,p] = −s·e^{−iφ}, U[q,q] = c.
    let sp = apq.scale(u * c);
    let spc = sp.conj();

    // A ← U†·A·U. Outside the (p, q) block only rows and columns p and
    // q change; the rows mix as U† prescribes, and A stays Hermitian, so
    // the columns are their conjugates. The block itself becomes
    // diag(α − t·r, γ + t·r) with t·r = r²·u.
    let shift = r_sq * u;
    let alpha = m[p * n + p].re;
    let gamma = m[q * n + q].re;
    let (head, tail) = m.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    let row_q = &mut tail[..n];
    for (apj, aqj) in row_p.iter_mut().zip(row_q.iter_mut()) {
        let (x, y) = (*apj, *aqj);
        *apj = x.scale(c) - y * sp;
        *aqj = x * spc + y.scale(c);
    }
    for j in 0..n {
        let (apj, aqj) = (m[p * n + j], m[q * n + j]);
        m[j * n + p] = apj.conj();
        m[j * n + q] = aqj.conj();
    }
    m[p * n + p] = C64::real(alpha - shift);
    m[q * n + q] = C64::real(gamma + shift);
    m[p * n + q] = ZERO;
    m[q * n + p] = ZERO;

    // Eigenvector accumulation V ← V·U.
    for row in v.chunks_exact_mut(n) {
        let (vip, viq) = (row[p], row[q]);
        row[p] = vip.scale(c) - viq * spc;
        row[q] = vip * sp + viq.scale(c);
    }
}

/// Sorts eigenpairs ascending by eigenvalue into `out`, reusing the
/// workspace permutation buffers.
///
/// The sort must be **stable**: degenerate spectra are routine (identity
/// slices, symmetric Hamiltonians), and the tie order picks which
/// eigenvector lands in which column — an unstable sort would permute
/// them and move pulse bytes pinned by the CI gates. A hand-rolled
/// insertion sort keeps the allocation-free guarantee (`slice::sort_by`
/// buys scratch for larger inputs) and produces the identical
/// permutation, because stable sorts under a total order agree.
fn sorted_into(ws: &mut EighWorkspace, out: &mut EigH) {
    let n = ws.m.rows();
    ws.vals.clear();
    for i in 0..n {
        ws.vals.push(ws.m[(i, i)].re);
    }
    ws.idx.clear();
    ws.idx.extend(0..n);
    for i in 1..n {
        let key = ws.idx[i];
        let kv = ws.vals[key];
        let mut j = i;
        while j > 0 && ws.vals[ws.idx[j - 1]].total_cmp(&kv) == std::cmp::Ordering::Greater {
            ws.idx[j] = ws.idx[j - 1];
            j -= 1;
        }
        ws.idx[j] = key;
    }
    out.values.clear();
    for &i in &ws.idx {
        out.values.push(ws.vals[i]);
    }
    out.vectors.reshape_zeros(n, n);
    for j in 0..n {
        let src = ws.idx[j];
        for i in 0..n {
            out.vectors[(i, j)] = ws.v[(i, src)];
        }
    }
}

/// Applies a real scalar function to a Hermitian matrix through its
/// spectral decomposition: `f(A) = V · diag(f(λ)) · V†`.
///
/// # Errors
///
/// Propagates [`eigh`] errors.
///
/// # Examples
///
/// ```
/// use accqoc_linalg::{funm_hermitian, Mat};
///
/// let z = Mat::from_reals(&[1.0, 0.0, 0.0, -1.0]);
/// let abs_z = funm_hermitian(&z, |x| x.abs())?;
/// assert!(abs_z.approx_eq(&Mat::identity(2), 1e-12));
/// # Ok::<(), accqoc_linalg::LinalgError>(())
/// ```
pub fn funm_hermitian(a: &Mat, f: impl Fn(f64) -> f64) -> Result<Mat, LinalgError> {
    let eig = eigh(a)?;
    let n = a.rows();
    let fvals: Vec<f64> = eig.values.iter().map(|&l| f(l)).collect();
    // V · diag(f) · V†
    let mut scaled = eig.vectors.clone();
    for j in 0..n {
        for i in 0..n {
            scaled[(i, j)] = scaled[(i, j)].scale(fvals[j]);
        }
    }
    Ok(scaled.matmul(&eig.vectors.dagger()))
}

/// Computes `exp(−i·t·H)` for Hermitian `H` exactly through the spectral
/// decomposition. Slower than the Padé route for repeated small steps but
/// exact up to the eigensolve; used as a cross-check and for long
/// evolutions.
///
/// # Errors
///
/// Propagates [`eigh`] errors.
pub fn expm_i_hermitian(h: &Mat, t: f64) -> Result<Mat, LinalgError> {
    let eig = eigh(h)?;
    let n = h.rows();
    let phases: Vec<C64> = eig.values.iter().map(|&l| C64::cis(-t * l)).collect();
    let mut scaled = eig.vectors.clone();
    for j in 0..n {
        for i in 0..n {
            scaled[(i, j)] *= phases[j];
        }
    }
    Ok(scaled.matmul(&eig.vectors.dagger()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::I;
    use crate::expm::expm_i;
    use crate::qr::random_unitary;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The cyclic Jacobi as it ran before the in-place rewrite: `Mat`
    /// indexing, `hypot` for every modulus, and separate divisions for
    /// the pivot phase and the rotation angle. Kept as the reference the
    /// production solver is checked against.
    mod reference {
        use super::super::{EigH, MAX_SWEEPS};
        use crate::complex::{C64, ZERO};
        use crate::mat::Mat;
        use crate::LinalgError;

        pub fn eigh(a: &Mat) -> Result<EigH, LinalgError> {
            if !a.is_square() {
                return Err(LinalgError::NotSquare {
                    rows: a.rows(),
                    cols: a.cols(),
                });
            }
            if !a.is_finite() {
                return Err(LinalgError::NonFinite);
            }
            let scale = a.max_abs().max(1.0);
            if super::super::hermitian_deviation(a) > 1e-9 * scale {
                return Err(LinalgError::NotHermitian);
            }
            let n = a.rows();
            let mut m = a.clone();
            let mut v = Mat::identity(n);
            let tol = 1e-14 * scale.max(m.frobenius_norm());
            for _sweep in 0..MAX_SWEEPS {
                if off_diagonal_norm(&m) <= tol {
                    return Ok(sorted(&m, &v));
                }
                for p in 0..n {
                    for q in (p + 1)..n {
                        rotate(&mut m, &mut v, p, q);
                    }
                }
            }
            if off_diagonal_norm(&m) <= tol * 100.0 {
                return Ok(sorted(&m, &v));
            }
            Err(LinalgError::NoConvergence {
                what: "jacobi eigh",
                iters: MAX_SWEEPS,
            })
        }

        fn off_diagonal_norm(m: &Mat) -> f64 {
            let n = m.rows();
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        s += m[(i, j)].norm_sqr();
                    }
                }
            }
            s.sqrt()
        }

        fn rotate(m: &mut Mat, v: &mut Mat, p: usize, q: usize) {
            let apq = m[(p, q)];
            let r = apq.abs();
            if r < 1e-300 {
                return;
            }
            let phase = apq.scale(1.0 / r);
            let alpha = m[(p, p)].re;
            let gamma = m[(q, q)].re;
            let tau = (gamma - alpha) / (2.0 * r);
            let t = if tau >= 0.0 {
                1.0 / (tau + (1.0 + tau * tau).sqrt())
            } else {
                -1.0 / (-tau + (1.0 + tau * tau).sqrt())
            };
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = t * c;
            let n = m.rows();
            for i in 0..n {
                let aip = m[(i, p)];
                let aiq = m[(i, q)];
                m[(i, p)] = aip.scale(c) - aiq * phase.conj().scale(s);
                m[(i, q)] = aip * phase.scale(s) + aiq.scale(c);
            }
            for j in 0..n {
                let apj = m[(p, j)];
                let aqj = m[(q, j)];
                m[(p, j)] = apj.scale(c) - aqj * phase.scale(s);
                m[(q, j)] = apj * phase.conj().scale(s) + aqj.scale(c);
            }
            m[(p, q)] = ZERO;
            m[(q, p)] = ZERO;
            m[(p, p)] = C64::real(m[(p, p)].re);
            m[(q, q)] = C64::real(m[(q, q)].re);
            for i in 0..v.rows() {
                let vip = v[(i, p)];
                let viq = v[(i, q)];
                v[(i, p)] = vip.scale(c) - viq * phase.conj().scale(s);
                v[(i, q)] = vip * phase.scale(s) + viq.scale(c);
            }
        }

        /// Stable ascending sort of the eigenpairs.
        fn sorted(m: &Mat, v: &Mat) -> EigH {
            let n = m.rows();
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| m[(a, a)].re.total_cmp(&m[(b, b)].re));
            EigH {
                values: idx.iter().map(|&i| m[(i, i)].re).collect(),
                vectors: Mat::from_fn(n, n, |i, j| v[(i, idx[j])]),
            }
        }
    }

    /// The kinds of Hermitian input the property test draws.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        /// `(G + G†)/2` with uniform complex entries.
        Dense,
        /// Real diagonal: Jacobi must return it without rotating.
        Diagonal,
        /// `Q·diag(λ)·Q†` with only two distinct eigenvalues.
        Degenerate,
        /// Diagonal plus off-diagonal entries already below the
        /// convergence tolerance.
        Reduced,
    }

    /// A random Hermitian `n×n` matrix of the given kind with entries of
    /// modulus up to about `scale`, drawn from `seed`.
    fn hermitian_case(n: usize, scale: f64, kind: Kind, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut uniform = move || rand::Rng::gen_range(&mut rng, -1.0..1.0);
        match kind {
            Kind::Dense => {
                let g = Mat::from_fn(n, n, |_, _| C64::new(uniform(), uniform()));
                (&g + &g.dagger()).scale_re(0.5 * scale)
            }
            Kind::Diagonal => Mat::diag(
                &(0..n)
                    .map(|_| C64::real(uniform() * scale))
                    .collect::<Vec<_>>(),
            ),
            Kind::Degenerate => {
                let levels = [uniform() * scale, uniform() * scale];
                let q = random_unitary(n, &mut StdRng::seed_from_u64(seed ^ 0x5eed));
                let d = Mat::diag(&(0..n).map(|i| C64::real(levels[i % 2])).collect::<Vec<_>>());
                let h = q.matmul(&d).matmul(&q.dagger());
                // Symmetrize away the rounding of the products.
                (&h + &h.dagger()).scale_re(0.5)
            }
            Kind::Reduced => Mat::from_fn(n, n, |i, j| {
                let z = C64::new(uniform(), uniform());
                if i == j {
                    C64::real(z.re * scale)
                } else {
                    // Below 1e-14 · max(scale, ‖A‖_F) / n per entry.
                    let tiny = 1e-16 * scale.max(1.0);
                    let (lo, hi) = (i.min(j), i.max(j));
                    let w = C64::new(((lo * 7 + hi) % 5) as f64, ((lo + 3 * hi) % 4) as f64);
                    if i < j {
                        w.scale(tiny)
                    } else {
                        w.conj().scale(tiny)
                    }
                }
            }),
        }
    }

    fn reconstruct(eig: &EigH) -> Mat {
        let n = eig.values.len();
        let mut scaled = eig.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                scaled[(i, j)] = scaled[(i, j)].scale(eig.values[j]);
            }
        }
        scaled.matmul(&eig.vectors.dagger())
    }

    #[test]
    fn pauli_matrices_spectra() {
        let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
        let y = Mat::from_flat(&[ZERO, -I, I, ZERO]);
        let z = Mat::from_reals(&[1.0, 0.0, 0.0, -1.0]);
        for p in [&x, &y, &z] {
            let e = eigh(p).unwrap();
            assert!((e.values[0] + 1.0).abs() < 1e-12);
            assert!((e.values[1] - 1.0).abs() < 1e-12);
            assert!(e.vectors.is_unitary(1e-11));
            assert!(reconstruct(&e).approx_eq(p, 1e-11));
        }
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let d = Mat::diag(&[C64::real(3.0), C64::real(-1.0), C64::real(0.5)]);
        let e = eigh(&d).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] + 1.0).abs() < 1e-13);
        assert!((e.values[1] - 0.5).abs() < 1e-13);
        assert!((e.values[2] - 3.0).abs() < 1e-13);
    }

    #[test]
    fn random_hermitian_reconstruction() {
        // Deterministic pseudo-random Hermitian 8×8.
        let g = Mat::from_fn(8, 8, |i, j| {
            C64::new(
                ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5,
                ((i * 7 + j * 29) % 11) as f64 / 11.0 - 0.5,
            )
        });
        let h = &g + &g.dagger();
        let e = eigh(&h).unwrap();
        assert!(e.vectors.is_unitary(1e-10));
        assert!(reconstruct(&e).approx_eq(&h, 1e-10));
        // Eigenvalues ascending.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Trace preserved.
        let tr: f64 = e.values.iter().sum();
        assert!((tr - h.trace().re).abs() < 1e-9);
    }

    #[test]
    fn degenerate_spectrum() {
        let h = Mat::identity(4).scale_re(2.0);
        let e = eigh(&h).unwrap();
        for v in &e.values {
            assert!((v - 2.0).abs() < 1e-13);
        }
        assert!(e.vectors.is_unitary(1e-12));
    }

    #[test]
    fn eigh_into_reuse_is_bit_identical_to_eigh() {
        let g = Mat::from_fn(6, 6, |i, j| {
            C64::new(
                ((i * 13 + j * 5) % 17) as f64 / 17.0 - 0.4,
                ((i * 3 + j * 11) % 7) as f64 / 7.0 - 0.5,
            )
        });
        let h1 = &g + &g.dagger();
        let h2 = h1.scale_re(0.37);
        let mut ws = EighWorkspace::new();
        let mut out = EigH {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        };
        // Warm the workspace on a different matrix first, then re-solve:
        // reuse must not leak state between solves.
        eigh_into(&h2, &mut out, &mut ws).unwrap();
        eigh_into(&h1, &mut out, &mut ws).unwrap();
        let fresh = eigh(&h1).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.values), bits(&fresh.values));
        assert_eq!(out.vectors, fresh.vectors);
        for (a, b) in out.vectors.as_slice().iter().zip(fresh.vectors.as_slice()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn degenerate_tie_order_is_stable_across_entry_points() {
        // Ties must keep Jacobi column order — the pinned-pulse gates
        // depend on it. Identity-like spectra exercise the tie path.
        let h = Mat::identity(5).scale_re(0.25);
        let a = eigh(&h).unwrap();
        let mut ws = EighWorkspace::new();
        let mut b = EigH {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        };
        eigh_into(&h, &mut b, &mut ws).unwrap();
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn rejects_non_hermitian() {
        let a = Mat::from_reals(&[0.0, 1.0, 0.0, 0.0]);
        assert!(matches!(eigh(&a), Err(LinalgError::NotHermitian)));
    }

    #[test]
    fn funm_square_matches_matmul() {
        let g = Mat::from_fn(4, 4, |i, j| {
            C64::new((i + j) as f64 * 0.1, (i as f64 - j as f64) * 0.2)
        });
        let h = &g + &g.dagger();
        let sq = funm_hermitian(&h, |x| x * x).unwrap();
        assert!(sq.approx_eq(&h.matmul(&h), 1e-10));
    }

    #[test]
    fn spectral_expm_matches_pade() {
        let g = Mat::from_fn(4, 4, |i, j| {
            C64::new((3 * i + j) as f64 * 0.13, (i as f64 - j as f64) * 0.21)
        });
        let h = &g + &g.dagger();
        for &t in &[0.1, 1.0, 5.0] {
            let a = expm_i_hermitian(&h, t).unwrap();
            let b = expm_i(&h, t).unwrap();
            assert!(a.approx_eq(&b, 1e-9), "t={t}: diff {}", a.max_abs_diff(&b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn jacobi_matches_reference_reconstructs_and_sorts(
            n in 1usize..9,
            log_scale in -8.0f64..3.0,
            kind in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let kind = [Kind::Dense, Kind::Diagonal, Kind::Degenerate, Kind::Reduced]
                [kind as usize];
            let a = hermitian_case(n, 10f64.powf(log_scale), kind, seed);
            // The solver's own scale: its tolerances are absolute below 1.
            let tol = 1e-12 * a.max_abs().max(1.0);
            let got = eigh(&a).map_err(|e| format!("{kind:?}: {e}"))?;
            let want = reference::eigh(&a).map_err(|e| format!("reference {kind:?}: {e}"))?;
            for (x, y) in got.values.iter().zip(&want.values) {
                prop_assert!((x - y).abs() <= tol, "{kind:?} n={n}: eigenvalue {x} vs reference {y}");
            }
            for w in got.values.windows(2) {
                prop_assert!(w[0] <= w[1], "{kind:?} n={n}: eigenvalues not ascending");
            }
            let rebuilt = reconstruct(&got);
            prop_assert!(
                rebuilt.max_abs_diff(&a) <= tol,
                "{kind:?} n={n}: reconstruction residual {}",
                rebuilt.max_abs_diff(&a)
            );
            let gram = got.vectors.dagger().matmul(&got.vectors);
            prop_assert!(
                gram.max_abs_diff(&Mat::identity(n)) <= tol,
                "{kind:?} n={n}: V†V − I = {}",
                gram.max_abs_diff(&Mat::identity(n))
            );
        }
    }

    #[test]
    fn extreme_magnitudes_stay_accurate() {
        // Entries whose squares leave the normal range, and a pivot of
        // 1e-160 between equal diagonal entries (a 45° rotation built
        // from a pivot modulus that `|a_pq|²` would lose to underflow).
        let mut cases: Vec<Mat> = [1e-150, 1e150]
            .iter()
            .map(|&s| hermitian_case(4, 1.0, Kind::Dense, 7).scale_re(s))
            .collect();
        cases.push(Mat::from_flat(&[
            C64::real(1.0),
            C64::new(1e-160, 1e-160),
            C64::real(0.5),
            C64::new(1e-160, -1e-160),
            C64::real(1.0),
            ZERO,
            C64::real(0.5),
            ZERO,
            C64::real(3.0),
        ]));
        for a in &cases {
            let n = a.rows();
            let tol = 1e-12 * a.max_abs().max(1.0);
            let got = eigh(a).unwrap();
            let want = reference::eigh(a).unwrap();
            for (x, y) in got.values.iter().zip(&want.values) {
                assert!((x - y).abs() <= tol, "eigenvalue {x} vs reference {y}");
            }
            assert!(reconstruct(&got).max_abs_diff(a) <= tol);
            let gram = got.vectors.dagger().matmul(&got.vectors);
            assert!(gram.max_abs_diff(&Mat::identity(n)) <= 1e-12, "V†V − I");
        }
    }

    #[test]
    fn overflowing_norms_are_swept_rescaled() {
        // At 1e200 the squared Frobenius norm overflows: the sweep runs
        // on A / max|a_ij| and scales the eigenvalues back.
        let base = hermitian_case(4, 1.0, Kind::Dense, 7);
        let a = base.scale_re(1e200);
        let got = eigh(&a).unwrap();
        let tol = 1e-12 * a.max_abs();
        assert!(reconstruct(&got).max_abs_diff(&a) <= tol, "A = V·Λ·V†");
        for (x, y) in got.values.iter().zip(&eigh(&base).unwrap().values) {
            assert!(
                (x - y * 1e200).abs() <= tol,
                "eigenvalue {x} vs {}",
                y * 1e200
            );
        }
        let gram = got.vectors.dagger().matmul(&got.vectors);
        assert!(gram.max_abs_diff(&Mat::identity(4)) <= 1e-12, "V†V − I");
        // An eigenvalue past f64::MAX is an error, not an infinity.
        let big = Mat::from_reals(&[1e308, 1e308, 1e308, 1e308]);
        assert_eq!(eigh(&big).unwrap_err(), LinalgError::NonFinite);
    }

    /// `x` moved by `k` units in the last place (`k` may be negative).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// Angles at which the boundary tests place a complex modulus: dense
    /// enough that `re² + im²` and `hypot(re, im)²` round to opposite
    /// sides of the threshold in some cases (about one in a hundred).
    fn angles() -> impl Iterator<Item = f64> {
        (0..64).map(|a| a as f64 * 0.0245)
    }

    #[test]
    fn hermitian_decision_matches_hypot_at_the_threshold() {
        // A deviation of modulus a few ulps either side of 1e-9·scale,
        // formed exactly: A[0,1] − conj(A[1,0]) = dev − 0. The
        // squared-modulus test must decide exactly as the hypot test.
        for (alpha, scale) in [(0.5, 1.0), (2.5, 2.5)] {
            let threshold = 1e-9 * scale;
            for k in -40i64..=40 {
                let t = ulps(threshold, k);
                for angle in angles() {
                    let dev = C64::new(t * angle.cos(), t * angle.sin());
                    let a = Mat::from_flat(&[C64::real(alpha), dev, ZERO, C64::real(-0.25)]);
                    check_decision(&a);
                }
            }
        }
        // And clearly either side.
        let just_under = Mat::from_flat(&[ZERO, C64::real(0.5), C64::new(0.5, 0.999e-9), ZERO]);
        let just_over = Mat::from_flat(&[ZERO, C64::real(0.5), C64::new(0.5, 1.001e-9), ZERO]);
        assert!(eigh(&just_under).is_ok());
        assert!(matches!(eigh(&just_over), Err(LinalgError::NotHermitian)));
        check_decision(&just_under);
        check_decision(&just_over);
    }

    /// Asserts the fast scale and Hermitian decisions equal the `hypot`
    /// forms bit for bit, and that both solvers agree on acceptance.
    fn check_decision(a: &Mat) {
        let scale = a.max_abs().max(1.0);
        assert_eq!(entry_scale(a).to_bits(), scale.to_bits(), "scale of {a:?}");
        let exact = hermitian_deviation(a) <= 1e-9 * scale;
        assert_eq!(
            hermitian_within(a, 1e-9 * scale),
            exact,
            "hermitian decision on {a:?}"
        );
        assert_eq!(
            eigh(a).is_ok(),
            reference::eigh(a).is_ok(),
            "acceptance of {a:?}"
        );
    }

    #[test]
    fn scale_decision_matches_hypot_at_unit_modulus() {
        // Entry moduli a few ulps either side of 1: `entry_scale` must
        // return exactly `max(max_abs, 1)`.
        for k in -40i64..=40 {
            let r = ulps(1.0, k);
            for angle in angles() {
                let z = C64::new(r * angle.cos(), r * angle.sin());
                let a = Mat::from_flat(&[C64::real(0.1), z, z.conj(), C64::real(-0.2)]);
                check_decision(&a);
            }
        }
        let under = Mat::from_flat(&[C64::real(1.0 - 1e-15), ZERO, ZERO, ZERO]);
        let over = Mat::from_flat(&[C64::real(1.0 + 1e-15), ZERO, ZERO, ZERO]);
        assert_eq!(entry_scale(&under), 1.0);
        assert_eq!(entry_scale(&over), 1.0 + 1e-15);
        check_decision(&under);
        check_decision(&over);
    }
}
