//! Dense, row-major complex matrices.
//!
//! All AccQOC matrices are small (a group of `q` qubits is `2^q × 2^q`
//! with `q ≤ 5`), so a dense representation is the right tool. The hot
//! `*_into` products dispatch to the register-blocked microkernels of
//! [`crate::kernels`], which are bit-identical to the naive loops they
//! replaced (the byte-identity CI gates pin every ulp of the serving
//! stack's pulses).

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::complex::{C64, ONE, ZERO};

/// A dense complex matrix stored in row-major order.
///
/// # Examples
///
/// ```
/// use accqoc_linalg::{Mat, C64};
///
/// let x = Mat::from_rows(&[
///     &[C64::real(0.0), C64::real(1.0)],
///     &[C64::real(1.0), C64::real(0.0)],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert_eq!(&x * &x, Mat::identity(2));
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Mat {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows given");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a square matrix from a flat row-major slice of real numbers.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len()` is not a perfect square.
    pub fn from_reals(vals: &[f64]) -> Self {
        let n = (vals.len() as f64).sqrt().round() as usize;
        assert_eq!(
            n * n,
            vals.len(),
            "from_reals: length {} is not square",
            vals.len()
        );
        Self {
            rows: n,
            cols: n,
            data: vals.iter().map(|&v| C64::real(v)).collect(),
        }
    }

    /// Builds a square matrix from a flat row-major slice of complex values.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len()` is not a perfect square.
    pub fn from_flat(vals: &[C64]) -> Self {
        let n = (vals.len() as f64).sqrt().round() as usize;
        assert_eq!(
            n * n,
            vals.len(),
            "from_flat: length {} is not square",
            vals.len()
        );
        Self {
            rows: n,
            cols: n,
            data: vals.to_vec(),
        }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Flat row-major view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable flat row-major view of the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[C64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Trace `Σᵢ aᵢᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `√(Σ |aᵢⱼ|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Induced 1-norm (maximum absolute column sum). Used to pick the
    /// scaling power in [`crate::expm`].
    pub fn one_norm(&self) -> f64 {
        (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Largest entry modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Sum of entry-modulus differences `Σ |aᵢⱼ − bᵢⱼ|` (the paper's `d₁`
    /// similarity distance).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn l1_distance(&self, other: &Mat) -> f64 {
        self.check_same_shape(other, "l1_distance");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .sum()
    }

    /// Frobenius distance `√(Σ |aᵢⱼ − bᵢⱼ|²)` (the paper's `d₂`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn frobenius_distance(&self, other: &Mat) -> f64 {
        self.check_same_shape(other, "frobenius_distance");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum entry-wise modulus difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        self.check_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Approximate entry-wise equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.max_abs_diff(other) <= tol
    }

    /// Matrix product `A·B` (naive `O(n³)`, transpose-free inner loop over
    /// `B` rows for cache friendliness).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} by {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &aik) in arow.iter().enumerate() {
                if aik == ZERO {
                    continue;
                }
                let brow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o = aik.mul_add(bkj, *o);
                }
            }
        }
        out
    }

    /// Matrix product `A·B` written into `out`, reusing its storage when
    /// the shape already matches (no allocation on the steady-state path —
    /// the GRAPE inner loop calls this thousands of times per solve).
    ///
    /// Dispatches to the register-blocked [`crate::kernels`] layer;
    /// bit-identical to the historical naive loop on finite input (see
    /// the kernel module docs for the signed-zero argument).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` aliases an operand
    /// shape-incompatibly (the shape is reset to `self.rows × rhs.cols`).
    pub fn matmul_into(&self, rhs: &Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_into: {}x{} by {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_zeros(self.rows, rhs.cols);
        crate::kernels::matmul(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// `A† · B` written into `out` without materializing the dagger or
    /// allocating (shape permitting). See [`Mat::matmul_into`].
    ///
    /// Dispatches to the register-blocked [`crate::kernels`] layer.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn dagger_matmul_into(&self, rhs: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, rhs.rows, "dagger_matmul_into shape mismatch");
        out.reshape_zeros(self.cols, rhs.cols);
        crate::kernels::dagger_matmul(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// `A · B†` written into `out` without materializing the dagger or
    /// allocating (shape permitting).
    ///
    /// Dispatches to the register-blocked [`crate::kernels`] layer.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_dagger_into(&self, rhs: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, rhs.cols, "matmul_dagger_into shape mismatch");
        out.reshape_zeros(self.rows, rhs.rows);
        crate::kernels::matmul_dagger(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.rows,
        );
    }

    /// Fused eigenbasis rotation `self† · m · self` written into `out`
    /// through one caller-owned intermediate (`scratch = self†·m`).
    ///
    /// Bit-identical to the unfused
    /// [`dagger_matmul_into`](Mat::dagger_matmul_into) +
    /// [`matmul_into`](Mat::matmul_into) sequence; the GRAPE gradient
    /// rotates each slice's `X_{k−1}·B_k` into the eigenbasis through
    /// this call.
    ///
    /// # Panics
    ///
    /// Panics unless `self` and `m` are square with equal dimension.
    pub fn rotate_into(&self, m: &Mat, scratch: &mut Mat, out: &mut Mat) {
        assert!(self.is_square(), "rotate_into: basis not square");
        assert!(
            m.is_square() && m.rows == self.rows,
            "rotate_into: {}x{} operand in dimension-{} basis",
            m.rows,
            m.cols,
            self.rows
        );
        let n = self.rows;
        scratch.reshape_zeros(n, n);
        out.reshape_zeros(n, n);
        crate::kernels::rotate(&self.data, &m.data, &mut scratch.data, &mut out.data, n);
    }

    /// Conjugate transpose written into `out`, reusing its storage.
    pub fn dagger_into(&self, out: &mut Mat) {
        out.reshape_zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j].conj();
            }
        }
    }

    /// Resets this matrix to `rows × cols` zeros, reusing storage.
    pub fn reshape_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, ZERO);
    }

    /// Resets this matrix to the `n × n` identity, reusing storage.
    pub fn set_identity(&mut self, n: usize) {
        self.reshape_zeros(n, n);
        for i in 0..n {
            self.data[i * n + i] = ONE;
        }
    }

    /// Overwrites this matrix with a copy of `other`, reusing storage.
    pub fn copy_from(&mut self, other: &Mat) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// `Tr(A·B)` without forming the product: `Σ_{a,b} A[a,b]·B[b,a]`.
    ///
    /// # Panics
    ///
    /// Panics if `A·B` is not square (`self.rows() != rhs.cols()` or
    /// `self.cols() != rhs.rows()`).
    pub fn matmul_trace(&self, rhs: &Mat) -> C64 {
        assert_eq!(self.cols, rhs.rows, "matmul_trace inner dimension");
        assert_eq!(self.rows, rhs.cols, "matmul_trace: product not square");
        crate::kernels::trace_of_product(&self.data, &rhs.data, self.rows, self.cols)
    }

    /// `A† · B` without materializing the dagger.
    pub fn dagger_matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.rows, rhs.rows, "dagger_matmul shape mismatch");
        let mut out = Mat::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (i, &aki) in arow.iter().enumerate() {
                let a = aki.conj();
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o = a.mul_add(bkj, *o);
                }
            }
        }
        out
    }

    /// Hilbert–Schmidt inner product `⟨A, B⟩ = Tr(A† B)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hs_inner(&self, other: &Mat) -> C64 {
        self.check_same_shape(other, "hs_inner");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: C64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * k).collect(),
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_re(&self, k: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// In-place `self += k · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, k: C64, other: &Mat) {
        self.check_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = k.mul_add(*b, *a);
        }
    }

    /// Kronecker (tensor) product `A ⊗ B`.
    pub fn kron(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == ZERO {
                    continue;
                }
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// `true` if `A†A ≈ I` within tolerance `tol` (max-abs entry-wise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.dagger_matmul(self)
            .approx_eq(&Mat::identity(self.rows), tol)
    }

    /// `true` if `A ≈ A†` within tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.dagger(), tol)
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    /// Conjugates by a basis permutation: returns `P A Pᵀ` where `P` is the
    /// permutation matrix sending basis index `i` to `perm[i]`.
    ///
    /// Used to canonicalize group unitaries up to qubit relabeling.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n` for square `A`.
    pub fn permute_basis(&self, perm: &[usize]) -> Mat {
        assert!(self.is_square(), "permute_basis on non-square matrix");
        assert_eq!(perm.len(), self.rows, "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        Mat::from_fn(self.rows, self.cols, |i, j| {
            // (P A Pᵀ)[perm[i], perm[j]] = A[i, j]  ⇒ out[i, j] = A[inv[i], inv[j]];
            // easier: build via scatter.
            let _ = (i, j);
            ZERO
        })
        .scatter_permuted(self, perm)
    }

    fn scatter_permuted(mut self, src: &Mat, perm: &[usize]) -> Mat {
        for i in 0..src.rows {
            for j in 0..src.cols {
                self[(perm[i], perm[j])] = src[(i, j)];
            }
        }
        self
    }

    fn check_same_shape(&self, other: &Mat, what: &str) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "{what}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                let z = self[(i, j)];
                write!(f, "{:>7.3}{:+.3}i ", z.re, z.im)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        self.check_same_shape(rhs, "add");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        self.check_same_shape(rhs, "sub");
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        self.matmul(rhs)
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| -*z).collect(),
        }
    }
}

impl AddAssign<&Mat> for Mat {
    fn add_assign(&mut self, rhs: &Mat) {
        self.check_same_shape(rhs, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl SubAssign<&Mat> for Mat {
    fn sub_assign(&mut self, rhs: &Mat) {
        self.check_same_shape(rhs, "sub_assign");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::I;

    fn pauli_x() -> Mat {
        Mat::from_reals(&[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> Mat {
        Mat::from_flat(&[ZERO, -I, I, ZERO])
    }

    fn pauli_z() -> Mat {
        Mat::from_reals(&[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let id = Mat::identity(2);
        assert_eq!(&x * &id, x);
        assert_eq!(&id * &x, x);
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        assert!((&x * &y).approx_eq(&z.scale(I), 1e-14));
        // X² = Y² = Z² = I
        for p in [&x, &y, &z] {
            assert!((p * p).approx_eq(&Mat::identity(2), 1e-14));
        }
        // {X, Y} = 0
        let anti = &(&x * &y) + &(&y * &x);
        assert!(anti.approx_eq(&Mat::zeros(2, 2), 1e-14));
    }

    #[test]
    fn dagger_properties() {
        let y = pauli_y();
        assert!(y.is_hermitian(1e-14));
        assert_eq!(y.dagger().dagger(), y);
        let a = Mat::from_flat(&[C64::new(1.0, 2.0), ZERO, I, C64::real(3.0)]);
        // (AB)† = B†A†
        let b = pauli_x();
        assert!((&a * &b)
            .dagger()
            .approx_eq(&(&b.dagger() * &a.dagger()), 1e-14));
    }

    #[test]
    fn dagger_matmul_matches_explicit() {
        let a = Mat::from_flat(&[C64::new(1.0, 2.0), C64::new(0.5, -1.0), I, C64::real(3.0)]);
        let b = pauli_y();
        assert!(a.dagger_matmul(&b).approx_eq(&(&a.dagger() * &b), 1e-14));
    }

    #[test]
    fn trace_and_hs_inner() {
        let z = pauli_z();
        assert!(z.trace().approx_eq(ZERO, 1e-14));
        assert!(Mat::identity(4).trace().approx_eq(C64::real(4.0), 1e-14));
        // ⟨A,B⟩ = Tr(A†B): Paulis are orthogonal with norm² = 2.
        let x = pauli_x();
        assert!(x.hs_inner(&x).approx_eq(C64::real(2.0), 1e-14));
        assert!(x.hs_inner(&z).approx_eq(ZERO, 1e-14));
    }

    #[test]
    fn norms() {
        let x = pauli_x();
        assert!((x.frobenius_norm() - 2f64.sqrt()).abs() < 1e-14);
        assert!((x.one_norm() - 1.0).abs() < 1e-14);
        assert!((x.max_abs() - 1.0).abs() < 1e-14);
        let a = Mat::from_reals(&[1.0, -2.0, 3.0, 4.0]);
        assert!((a.one_norm() - 6.0).abs() < 1e-14);
    }

    #[test]
    fn distances() {
        let x = pauli_x();
        let id = Mat::identity(2);
        assert!((x.l1_distance(&id) - 4.0).abs() < 1e-14);
        assert!((x.frobenius_distance(&id) - 2.0).abs() < 1e-14);
        assert!((x.max_abs_diff(&id) - 1.0).abs() < 1e-14);
        assert_eq!(x.l1_distance(&x), 0.0);
    }

    #[test]
    fn kron_shapes_and_values() {
        let x = pauli_x();
        let id = Mat::identity(2);
        let xi = x.kron(&id);
        assert_eq!(xi.rows(), 4);
        // X ⊗ I flips the *first* qubit in big-endian ordering.
        assert_eq!(xi[(0, 2)], ONE);
        assert_eq!(xi[(1, 3)], ONE);
        assert_eq!(xi[(0, 1)], ZERO);
        // (A⊗B)(C⊗D) = AC ⊗ BD
        let z = pauli_z();
        let lhs = &x.kron(&z) * &z.kron(&x);
        let rhs = (&x * &z).kron(&(&z * &x));
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn unitarity_checks() {
        assert!(pauli_x().is_unitary(1e-14));
        assert!(Mat::identity(8).is_unitary(1e-14));
        assert!(!pauli_x().scale_re(2.0).is_unitary(1e-9));
        assert!(!Mat::zeros(2, 3).is_unitary(1e-9));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::identity(2);
        a.axpy(C64::real(2.0), &pauli_x());
        assert_eq!(a[(0, 1)], C64::real(2.0));
        assert_eq!(a[(0, 0)], ONE);
        let b = pauli_z().scale_re(-0.5);
        assert_eq!(b[(1, 1)], C64::real(0.5));
    }

    #[test]
    fn permute_basis_swap_conjugation() {
        // SWAP conjugation of CNOT(control=0) gives CNOT(control=1).
        let cnot01 = Mat::from_reals(&[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0,
        ]);
        let cnot10 = Mat::from_reals(&[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, 0.0,
        ]);
        // Swapping the two qubits permutes basis states |01⟩ ↔ |10⟩.
        let perm = [0usize, 2, 1, 3];
        assert!(cnot01.permute_basis(&perm).approx_eq(&cnot10, 1e-14));
        // Permuting twice with the same involution round-trips.
        assert!(cnot01
            .permute_basis(&perm)
            .permute_basis(&perm)
            .approx_eq(&cnot01, 1e-14));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let _ = Mat::zeros(2, 3).matmul(&Mat::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn bad_permutation_panics() {
        let _ = Mat::identity(2).permute_basis(&[0, 0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Mat::identity(2));
        assert!(s.contains("Mat 2x2"));
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let a = Mat::from_fn(3, 2, |i, j| C64::new(i as f64 + 0.5, j as f64 - 1.0));
        let b = Mat::from_fn(2, 4, |i, j| C64::new(j as f64 * 0.3, i as f64 + 0.1));
        let mut out = Mat::zeros(1, 1); // wrong shape on purpose: must resize
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Reuse the same buffer for the dagger product.
        let c = Mat::from_fn(3, 4, |i, j| C64::new(i as f64, -(j as f64)));
        a.dagger_matmul_into(&c, &mut out);
        assert_eq!(out, a.dagger_matmul(&c));
        // And copy_from round-trips.
        let mut d = Mat::zeros(5, 5);
        d.copy_from(&out);
        assert_eq!(d, out);
    }

    #[test]
    fn matmul_dagger_into_and_set_identity() {
        let a = Mat::from_fn(2, 3, |i, j| C64::new(i as f64 - 0.2, 0.7 * j as f64));
        let b = Mat::from_fn(4, 3, |i, j| C64::new(0.5 * j as f64, -(i as f64)));
        let mut out = Mat::zeros(0, 0);
        a.matmul_dagger_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b.dagger()));
        let mut id = Mat::from_fn(3, 1, |_, _| C64::real(9.0));
        id.set_identity(4);
        assert_eq!(id, Mat::identity(4));
    }

    #[test]
    fn matmul_trace_equals_trace_of_product() {
        let a = Mat::from_fn(3, 3, |i, j| C64::new(0.2 * i as f64 - 0.1, 0.3 * j as f64));
        let b = Mat::from_fn(3, 3, |i, j| C64::new(j as f64 - 1.0, 0.4 * i as f64));
        let direct = a.matmul(&b).trace();
        let fused = a.matmul_trace(&b);
        assert!((direct - fused).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul_trace")]
    fn matmul_trace_rejects_non_square_product() {
        let _ = Mat::zeros(2, 3).matmul_trace(&Mat::zeros(3, 3));
    }
}
