//! Register-blocked complex matmul microkernels — bit-identical by
//! construction to the naive loops they replaced.
//!
//! # Why this layer exists
//!
//! All GRAPE serving cost bottoms out in the dense complex products of
//! `cost_and_gradient`: forward/backward propagation (`A·B`), eigenbasis
//! rotations (`A†·B`, then `·V`), and the spectral propagator (`A·B†`).
//! The original [`crate::Mat`] kernels were naive triple loops that
//! stream every accumulator through memory; the kernels here hold a
//! 2×4 tile of output accumulators in locals so the inner loop runs on
//! registers, touching memory once per operand element and once per
//! output element.
//!
//! # The bit-exactness contract (why the k-order is sacred)
//!
//! Several CI gates pin **byte-identical pulses** (golden corpus, every
//! scenario of the `scenarios` serving harness): any
//! change to the floating-point result of these kernels — even in the
//! last ulp — re-times pulses across the entire serving stack and trips
//! the gates. IEEE-754 arithmetic is deterministic, so the kernels stay
//! byte-identical by preserving, for every output element, the **exact
//! FLOP sequence** of the naive loop:
//!
//! - the accumulator starts at `+0.0 + 0.0i`,
//! - the `k` (inner-dimension) accumulation runs innermost, in ascending
//!   order, and
//! - each contribution is the same [`C64::mul_add`] call (itself a fixed
//!   chain of scalar `mul`/`add`s, no hardware FMA).
//!
//! Register blocking only interleaves *independent* per-element chains
//! across the 8 accumulators of a tile; it never reassociates within a
//! chain. Tiling the output is free; tiling `k` would not be.
//!
//! # The dropped `aik == ZERO` skip branch
//!
//! The old `matmul` inner loop skipped rows of `B` when the `A` entry was
//! exactly zero — a branch per inner iteration that buys nothing on the
//! dense matrices of the GRAPE hot path. The dense kernels here drop it.
//! For **finite** operands this is still bit-exact: a `±0` entry of `A`
//! contributes `±0`-valued products, and under round-to-nearest a `+0.0`
//! accumulator stays `+0.0` when `±0.0` is added to it (`(+0) + (−0) =
//! +0`), while a nonzero accumulator is unchanged by `±0` exactly. Since
//! every per-element chain starts at `+0.0`, the dense sum equals the
//! skipping sum bit-for-bit. The behaviours differ only on non-finite
//! input: the skip branch suppressed `0·∞ = NaN`, the dense kernels
//! propagate NaN/∞ like every other BLAS. GRAPE matrices are finite by
//! construction (checked at the eigensolver and exponential entry
//! points). The allocating [`crate::Mat::matmul`] keeps the sparse-aware
//! skip: it serves the Padé `expm` chains and Kronecker assembly where
//! operands genuinely carry structural zeros.
//!
//! The [`mod@reference`] module preserves the pre-kernel naive loops
//! verbatim; the bit-identity test-suite and the `grape_kernels` bench
//! harness compare against them.

use crate::complex::{C64, ZERO};

/// Output-tile height (rows of accumulators held in locals).
pub const TILE_ROWS: usize = 2;
/// Output-tile width (columns of accumulators held in locals).
pub const TILE_COLS: usize = 4;

#[inline]
fn check_dims(a: &[C64], b: &[C64], out: &mut [C64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
}

/// Dense `C = A·B` for row-major `A (m×k)`, `B (k×n)`, `C (m×n)`.
///
/// `out` is fully overwritten. Bit-identical to the naive
/// [`reference::matmul`] on finite input (see the module docs for the
/// signed-zero argument covering the dropped skip branch).
pub fn matmul(a: &[C64], b: &[C64], out: &mut [C64], m: usize, k: usize, n: usize) {
    check_dims(a, b, out, m, k, n);
    let mut i = 0;
    while i + TILE_ROWS <= m {
        let (ar0, ar1) = (&a[i * k..(i + 1) * k], &a[(i + 1) * k..(i + 2) * k]);
        let mut j = 0;
        while j + TILE_COLS <= n {
            let mut c0 = [ZERO; TILE_COLS];
            let mut c1 = [ZERO; TILE_COLS];
            for p in 0..k {
                let (a0, a1) = (ar0[p], ar1[p]);
                let br: &[C64; TILE_COLS] = b[p * n + j..p * n + j + TILE_COLS]
                    .try_into()
                    .expect("tile");
                for t in 0..TILE_COLS {
                    c0[t] = a0.mul_add(br[t], c0[t]);
                    c1[t] = a1.mul_add(br[t], c1[t]);
                }
            }
            out[i * n + j..i * n + j + TILE_COLS].copy_from_slice(&c0);
            out[(i + 1) * n + j..(i + 1) * n + j + TILE_COLS].copy_from_slice(&c1);
            j += TILE_COLS;
        }
        while j < n {
            let (mut c0, mut c1) = (ZERO, ZERO);
            for p in 0..k {
                let bpj = b[p * n + j];
                c0 = ar0[p].mul_add(bpj, c0);
                c1 = ar1[p].mul_add(bpj, c1);
            }
            out[i * n + j] = c0;
            out[(i + 1) * n + j] = c1;
            j += 1;
        }
        i += TILE_ROWS;
    }
    if i < m {
        let ar = &a[i * k..(i + 1) * k];
        let mut j = 0;
        while j + TILE_COLS <= n {
            let mut c = [ZERO; TILE_COLS];
            for p in 0..k {
                let a0 = ar[p];
                let br: &[C64; TILE_COLS] = b[p * n + j..p * n + j + TILE_COLS]
                    .try_into()
                    .expect("tile");
                for t in 0..TILE_COLS {
                    c[t] = a0.mul_add(br[t], c[t]);
                }
            }
            out[i * n + j..i * n + j + TILE_COLS].copy_from_slice(&c);
            j += TILE_COLS;
        }
        while j < n {
            let mut c = ZERO;
            for p in 0..k {
                c = ar[p].mul_add(b[p * n + j], c);
            }
            out[i * n + j] = c;
            j += 1;
        }
    }
}

/// Dense `C = A†·B` for row-major `A (r×m)`, `B (r×n)`, `C (m×n)` —
/// the dagger is never materialized.
///
/// Per output element the chain is `acc = conj(A[p,i])·B[p,j] + acc`
/// over ascending `p`, exactly as in [`reference::dagger_matmul`].
pub fn dagger_matmul(a: &[C64], b: &[C64], out: &mut [C64], r: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), r * m);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(out.len(), m * n);
    let mut i = 0;
    while i + TILE_ROWS <= m {
        let mut j = 0;
        while j + TILE_COLS <= n {
            let (mut c00, mut c01, mut c02, mut c03) = (ZERO, ZERO, ZERO, ZERO);
            let (mut c10, mut c11, mut c12, mut c13) = (ZERO, ZERO, ZERO, ZERO);
            for p in 0..r {
                let a0 = a[p * m + i].conj();
                let a1 = a[p * m + i + 1].conj();
                let br = &b[p * n + j..p * n + j + TILE_COLS];
                c00 = a0.mul_add(br[0], c00);
                c01 = a0.mul_add(br[1], c01);
                c02 = a0.mul_add(br[2], c02);
                c03 = a0.mul_add(br[3], c03);
                c10 = a1.mul_add(br[0], c10);
                c11 = a1.mul_add(br[1], c11);
                c12 = a1.mul_add(br[2], c12);
                c13 = a1.mul_add(br[3], c13);
            }
            out[i * n + j] = c00;
            out[i * n + j + 1] = c01;
            out[i * n + j + 2] = c02;
            out[i * n + j + 3] = c03;
            out[(i + 1) * n + j] = c10;
            out[(i + 1) * n + j + 1] = c11;
            out[(i + 1) * n + j + 2] = c12;
            out[(i + 1) * n + j + 3] = c13;
            j += TILE_COLS;
        }
        while j < n {
            let (mut c0, mut c1) = (ZERO, ZERO);
            for p in 0..r {
                let bpj = b[p * n + j];
                c0 = a[p * m + i].conj().mul_add(bpj, c0);
                c1 = a[p * m + i + 1].conj().mul_add(bpj, c1);
            }
            out[i * n + j] = c0;
            out[(i + 1) * n + j] = c1;
            j += 1;
        }
        i += TILE_ROWS;
    }
    if i < m {
        let mut j = 0;
        while j + TILE_COLS <= n {
            let (mut c0, mut c1, mut c2, mut c3) = (ZERO, ZERO, ZERO, ZERO);
            for p in 0..r {
                let a0 = a[p * m + i].conj();
                let br = &b[p * n + j..p * n + j + TILE_COLS];
                c0 = a0.mul_add(br[0], c0);
                c1 = a0.mul_add(br[1], c1);
                c2 = a0.mul_add(br[2], c2);
                c3 = a0.mul_add(br[3], c3);
            }
            out[i * n + j] = c0;
            out[i * n + j + 1] = c1;
            out[i * n + j + 2] = c2;
            out[i * n + j + 3] = c3;
            j += TILE_COLS;
        }
        while j < n {
            let mut c = ZERO;
            for p in 0..r {
                c = a[p * m + i].conj().mul_add(b[p * n + j], c);
            }
            out[i * n + j] = c;
            j += 1;
        }
    }
}

/// Dense `C = A·B†` for row-major `A (m×k)`, `B (n×k)`, `C (m×n)` —
/// the dagger is never materialized.
///
/// Per output element the chain is `acc = A[i,p]·conj(B[j,p]) + acc`
/// over ascending `p`, exactly as in [`reference::matmul_dagger`].
pub fn matmul_dagger(a: &[C64], b: &[C64], out: &mut [C64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let mut i = 0;
    while i + TILE_ROWS <= m {
        let (ar0, ar1) = (&a[i * k..(i + 1) * k], &a[(i + 1) * k..(i + 2) * k]);
        let mut j = 0;
        while j + TILE_COLS <= n {
            let (mut c00, mut c01, mut c02, mut c03) = (ZERO, ZERO, ZERO, ZERO);
            let (mut c10, mut c11, mut c12, mut c13) = (ZERO, ZERO, ZERO, ZERO);
            let br0 = &b[j * k..(j + 1) * k];
            let br1 = &b[(j + 1) * k..(j + 2) * k];
            let br2 = &b[(j + 2) * k..(j + 3) * k];
            let br3 = &b[(j + 3) * k..(j + 4) * k];
            for p in 0..k {
                let (a0, a1) = (ar0[p], ar1[p]);
                let (b0, b1, b2, b3) = (br0[p].conj(), br1[p].conj(), br2[p].conj(), br3[p].conj());
                c00 = a0.mul_add(b0, c00);
                c01 = a0.mul_add(b1, c01);
                c02 = a0.mul_add(b2, c02);
                c03 = a0.mul_add(b3, c03);
                c10 = a1.mul_add(b0, c10);
                c11 = a1.mul_add(b1, c11);
                c12 = a1.mul_add(b2, c12);
                c13 = a1.mul_add(b3, c13);
            }
            out[i * n + j] = c00;
            out[i * n + j + 1] = c01;
            out[i * n + j + 2] = c02;
            out[i * n + j + 3] = c03;
            out[(i + 1) * n + j] = c10;
            out[(i + 1) * n + j + 1] = c11;
            out[(i + 1) * n + j + 2] = c12;
            out[(i + 1) * n + j + 3] = c13;
            j += TILE_COLS;
        }
        while j < n {
            let br = &b[j * k..(j + 1) * k];
            let (mut c0, mut c1) = (ZERO, ZERO);
            for p in 0..k {
                let bj = br[p].conj();
                c0 = ar0[p].mul_add(bj, c0);
                c1 = ar1[p].mul_add(bj, c1);
            }
            out[i * n + j] = c0;
            out[(i + 1) * n + j] = c1;
            j += 1;
        }
        i += TILE_ROWS;
    }
    if i < m {
        let ar = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let br = &b[j * k..(j + 1) * k];
            let mut c = ZERO;
            for p in 0..k {
                c = ar[p].mul_add(br[p].conj(), c);
            }
            out[i * n + j] = c;
        }
    }
}

/// `Tr(A·B)` without forming the product: `Σ_{a,b} A[a,b]·B[b,a]` for
/// row-major `A (m×n)`, `B (n×m)`.
///
/// **Deliberately not blocked.** Unlike the matmul kernels, whose output
/// elements are independent chains, the trace is a *single* accumulator:
/// any tiling or partial-sum split reassociates the global sum and moves
/// bits. The chain — row-major over `A`, `tr += a·b` (mul then add, not
/// `mul_add`) — is pinned by the golden-pulse CI gates.
pub fn trace_of_product(a: &[C64], b: &[C64], m: usize, n: usize) -> C64 {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(b.len(), n * m);
    let mut tr = ZERO;
    for i in 0..m {
        let arow = &a[i * n..(i + 1) * n];
        for (j, &aij) in arow.iter().enumerate() {
            tr += aij * b[j * m + i];
        }
    }
    tr
}

/// Fused eigenbasis rotation `C = V†·M·V` for square row-major `n×n`
/// operands, with one caller-owned intermediate (`scratch = V†·M`).
///
/// Composes the two blocked kernels above, so it is bit-identical to the
/// unfused two-call sequence (`dagger_matmul` then `matmul`) — the
/// fusion saves the second output round-trip through a `Mat` resize and
/// keeps both passes on the same hot scratch, not FLOPs. A deeper
/// algebraic fusion (contracting `V†·M·V` in one pass) would reassociate
/// the element chains and is forbidden by the byte-identity gates.
pub fn rotate(v: &[C64], m: &[C64], scratch: &mut [C64], out: &mut [C64], n: usize) {
    debug_assert_eq!(v.len(), n * n);
    debug_assert_eq!(m.len(), n * n);
    debug_assert_eq!(scratch.len(), n * n);
    debug_assert_eq!(out.len(), n * n);
    dagger_matmul(v, m, scratch, n, n, n);
    matmul(scratch, v, out, n, n, n);
}

/// The pre-kernel naive loops, preserved verbatim.
///
/// These are the FLOP-sequence ground truth the blocked kernels must
/// reproduce bit-for-bit: the proptest suite asserts exact `==` between
/// each blocked kernel and its reference over random shapes, and the
/// `grape_kernels` bench harness times both paths to report the speedup.
pub mod reference {
    use super::*;

    /// Naive `C = A·B` with the historical `aik == ZERO` skip branch and
    /// memory-resident accumulators (the pre-kernel `Mat::matmul_into`
    /// inner loop).
    pub fn matmul(a: &[C64], b: &[C64], out: &mut [C64], m: usize, k: usize, n: usize) {
        check_dims(a, b, out, m, k, n);
        out.fill(ZERO);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &aik) in arow.iter().enumerate() {
                if aik == ZERO {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o = aik.mul_add(bkj, *o);
                }
            }
        }
    }

    /// Naive `C = A†·B` (the pre-kernel `Mat::dagger_matmul_into` inner
    /// loop: `k` outermost, accumulators in memory).
    pub fn dagger_matmul(a: &[C64], b: &[C64], out: &mut [C64], r: usize, m: usize, n: usize) {
        debug_assert_eq!(a.len(), r * m);
        debug_assert_eq!(b.len(), r * n);
        debug_assert_eq!(out.len(), m * n);
        out.fill(ZERO);
        for p in 0..r {
            let arow = &a[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
            for (i, &api) in arow.iter().enumerate() {
                let ac = api.conj();
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bpj) in orow.iter_mut().zip(brow) {
                    *o = ac.mul_add(bpj, *o);
                }
            }
        }
    }

    /// Naive `C = A·B†` (the pre-kernel `Mat::matmul_dagger_into` inner
    /// loop: local scalar accumulator, no blocking).
    pub fn matmul_dagger(a: &[C64], b: &[C64], out: &mut [C64], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = ZERO;
                for (&aip, &bjp) in arow.iter().zip(brow) {
                    acc = aip.mul_add(bjp.conj(), acc);
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// Unfused `C = V†·M·V`: the pre-kernel two-call sequence.
    pub fn rotate(v: &[C64], m: &[C64], scratch: &mut [C64], out: &mut [C64], n: usize) {
        dagger_matmul(v, m, scratch, n, n, n);
        matmul(scratch, v, out, n, n, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic dense test matrix with irrational-ish entries.
    fn fill(m: usize, n: usize, salt: u64) -> Vec<C64> {
        (0..m * n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                let re = ((x >> 11) % 10_000) as f64 / 5_000.0 - 1.0;
                let im = ((x >> 31) % 10_000) as f64 / 5_000.0 - 1.0;
                C64::new(re, im)
            })
            .collect()
    }

    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn blocked_matmul_matches_reference_bits_all_small_shapes() {
        for m in 1..=6 {
            for k in 1..=6 {
                for n in 1..=6 {
                    let a = fill(m, k, 1);
                    let b = fill(k, n, 2);
                    let mut got = vec![ZERO; m * n];
                    let mut want = vec![ZERO; m * n];
                    matmul(&a, &b, &mut got, m, k, n);
                    reference::matmul(&a, &b, &mut want, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "matmul {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn blocked_dagger_matmul_matches_reference_bits() {
        for r in [1, 2, 3, 5, 8, 9] {
            for m in [1, 2, 4, 7] {
                for n in [1, 3, 4, 6] {
                    let a = fill(r, m, 3);
                    let b = fill(r, n, 4);
                    let mut got = vec![ZERO; m * n];
                    let mut want = vec![ZERO; m * n];
                    dagger_matmul(&a, &b, &mut got, r, m, n);
                    reference::dagger_matmul(&a, &b, &mut want, r, m, n);
                    assert_eq!(bits(&got), bits(&want), "dagger_matmul {r}x{m}x{n}");
                }
            }
        }
    }

    #[test]
    fn blocked_matmul_dagger_matches_reference_bits() {
        for m in [1, 2, 3, 5, 8] {
            for k in [1, 2, 4, 9] {
                for n in [1, 2, 5, 8] {
                    let a = fill(m, k, 5);
                    let b = fill(n, k, 6);
                    let mut got = vec![ZERO; m * n];
                    let mut want = vec![ZERO; m * n];
                    matmul_dagger(&a, &b, &mut got, m, k, n);
                    reference::matmul_dagger(&a, &b, &mut want, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "matmul_dagger {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn dense_matmul_matches_skipping_reference_on_sparse_input() {
        // The signed-zero argument from the module docs, exercised: exact
        // +0 and −0 entries in A must not move output bits vs the
        // skip-branch reference.
        for n in [2usize, 3, 8] {
            let mut a = fill(n, n, 7);
            for (i, z) in a.iter_mut().enumerate() {
                match i % 4 {
                    0 => *z = ZERO,
                    1 => *z = C64::new(-0.0, 0.0),
                    2 => *z = C64::new(0.0, -0.0),
                    _ => {}
                }
            }
            let b = fill(n, n, 8);
            let mut got = vec![ZERO; n * n];
            let mut want = vec![ZERO; n * n];
            matmul(&a, &b, &mut got, n, n, n);
            reference::matmul(&a, &b, &mut want, n, n, n);
            assert_eq!(bits(&got), bits(&want), "sparse matmul n={n}");
        }
    }

    #[test]
    fn rotate_matches_unfused_reference_bits() {
        for n in [1usize, 2, 4, 5, 8, 11] {
            let v = fill(n, n, 9);
            let m = fill(n, n, 10);
            let mut s1 = vec![ZERO; n * n];
            let mut s2 = vec![ZERO; n * n];
            let mut got = vec![ZERO; n * n];
            let mut want = vec![ZERO; n * n];
            rotate(&v, &m, &mut s1, &mut got, n);
            reference::rotate(&v, &m, &mut s2, &mut want, n);
            assert_eq!(bits(&got), bits(&want), "rotate n={n}");
        }
    }

    #[test]
    fn trace_of_product_matches_mat_trace_order() {
        let a = fill(5, 5, 11);
        let b = fill(5, 5, 12);
        // Replay the exact historical chain.
        let mut want = ZERO;
        for i in 0..5 {
            for j in 0..5 {
                want += a[i * 5 + j] * b[j * 5 + i];
            }
        }
        let got = trace_of_product(&a, &b, 5, 5);
        assert_eq!(
            (got.re.to_bits(), got.im.to_bits()),
            (want.re.to_bits(), want.im.to_bits())
        );
    }
}
