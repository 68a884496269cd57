//! A minimal, dependency-free double-precision complex number.
//!
//! The workspace deliberately avoids external numerics crates (see the
//! offline-build policy in `docs/ARCHITECTURE.md`); quantum unitaries are small and dense, so a plain
//! `(re, im)` pair with inlined arithmetic is all that is needed.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use accqoc_linalg::C64;
///
/// let z = C64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!(z * z.conj(), C64::new(25.0, 0.0));
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
pub struct C64 {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

/// The imaginary unit `i`.
pub const I: C64 = C64 { re: 0.0, im: 1.0 };
/// Complex one.
pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
/// Complex zero.
pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

impl C64 {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Returns `e^{iθ}` — a unit-modulus complex number at phase `θ`.
    ///
    /// ```
    /// use accqoc_linalg::C64;
    /// let z = C64::cis(std::f64::consts::PI);
    /// assert!((z.re + 1.0).abs() < 1e-15 && z.im.abs() < 1e-15);
    /// ```
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²` — cheaper than [`C64::abs`] when comparing
    /// magnitudes.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `z == 0`, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        let (s, c) = self.im.sin_cos();
        Self {
            re: r * c,
            im: r * s,
        }
    }

    /// Principal square root.
    ///
    /// The branch cut follows the convention of returning the root with
    /// non-negative real part.
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) / 2.0).sqrt();
        let im_mag = ((m - self.re) / 2.0).sqrt();
        Self {
            re,
            im: if self.im < 0.0 { -im_mag } else { im_mag },
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Fused multiply-add: `self * b + c`, computed with scalar FMA-friendly
    /// expressions. Used in matrix-multiplication inner loops.
    #[inline]
    pub fn mul_add(self, b: C64, c: C64) -> Self {
        Self {
            re: self.re * b.re - self.im * b.im + c.re,
            im: self.re * b.im + self.im * b.re + c.im,
        }
    }

    /// Approximate equality within absolute tolerance `tol` per component
    /// distance (Euclidean on the complex plane).
    #[inline]
    pub fn approx_eq(self, other: C64, tol: f64) -> bool {
        (self - other).abs() <= tol
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 || self.im.is_nan() {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}-{}i", self.re, -self.im)
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ by definition
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        C64 {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for C64 {
    fn sum<It: Iterator<Item = C64>>(iter: It) -> C64 {
        iter.fold(ZERO, |a, b| a + b)
    }
}

impl Product for C64 {
    fn product<It: Iterator<Item = C64>>(iter: It) -> C64 {
        iter.fold(ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn construction_and_accessors() {
        let z = C64::new(1.5, -2.5);
        assert_eq!(z.re, 1.5);
        assert_eq!(z.im, -2.5);
        assert_eq!(C64::real(2.0), C64::new(2.0, 0.0));
        assert_eq!(C64::imag(3.0), C64::new(0.0, 3.0));
        assert_eq!(C64::from(4.0), C64::real(4.0));
    }

    #[test]
    fn arithmetic_identities() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-0.5, 3.0);
        assert!((a + b - b).approx_eq(a, TOL));
        assert!((a * b / b).approx_eq(a, TOL));
        assert!((a * b).approx_eq(b * a, TOL));
        assert!((-a + a).approx_eq(ZERO, TOL));
        assert!((a * ONE).approx_eq(a, TOL));
        assert!((a * ZERO).approx_eq(ZERO, TOL));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((I * I).approx_eq(C64::real(-1.0), TOL));
    }

    #[test]
    fn conj_and_modulus() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z.conj(), C64::new(3.0, 4.0));
        assert!((z.abs() - 5.0).abs() < TOL);
        assert!((z.norm_sqr() - 25.0).abs() < TOL);
        assert!((z * z.conj()).approx_eq(C64::real(25.0), TOL));
    }

    #[test]
    fn cis_and_exp_agree() {
        for k in 0..16 {
            let theta = k as f64 * 0.7 - 5.0;
            let a = C64::cis(theta);
            let b = C64::imag(theta).exp();
            assert!(a.approx_eq(b, TOL), "{a} vs {b}");
            assert!((a.abs() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn exp_of_real_matches_scalar() {
        let z = C64::real(1.25).exp();
        assert!((z.re - 1.25f64.exp()).abs() < TOL);
        assert!(z.im.abs() < TOL);
    }

    #[test]
    fn sqrt_roundtrip() {
        let samples = [
            C64::new(4.0, 0.0),
            C64::new(0.0, 2.0),
            C64::new(-1.0, 0.0),
            C64::new(-3.0, -4.0),
            C64::new(1e-9, 7.0),
        ];
        for z in samples {
            let r = z.sqrt();
            assert!((r * r).approx_eq(z, 1e-10), "sqrt({z}) = {r}");
            assert!(r.re >= 0.0, "principal branch violated for {z}");
        }
        assert_eq!(ZERO.sqrt(), ZERO);
    }

    #[test]
    fn sqrt_of_negative_real_is_positive_imaginary() {
        let r = C64::real(-9.0).sqrt();
        assert!(r.approx_eq(C64::imag(3.0), TOL));
    }

    #[test]
    fn recip_inverse() {
        let z = C64::new(2.0, -7.0);
        assert!((z * z.recip()).approx_eq(ONE, TOL));
    }

    #[test]
    fn arg_quadrants() {
        assert!((C64::new(1.0, 0.0).arg() - 0.0).abs() < TOL);
        assert!((C64::new(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < TOL);
        assert!((C64::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < TOL);
        assert!((C64::new(0.0, -1.0).arg() + std::f64::consts::FRAC_PI_2).abs() < TOL);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        let c = C64::new(-0.5, 0.25);
        assert!(a.mul_add(b, c).approx_eq(a * b + c, TOL));
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [C64::new(1.0, 1.0), C64::new(2.0, -1.0), C64::new(0.5, 0.0)];
        let s: C64 = xs.iter().copied().sum();
        assert!(s.approx_eq(C64::new(3.5, 0.0), TOL));
        let p: C64 = xs.iter().copied().product();
        assert!(p.approx_eq(
            C64::new(1.0, 1.0) * C64::new(2.0, -1.0) * C64::new(0.5, 0.0),
            TOL
        ));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(format!("{:?}", C64::new(0.0, 0.0)), "0+0i");
    }

    #[test]
    fn assign_ops() {
        let mut z = C64::new(1.0, 1.0);
        z += C64::new(1.0, 0.0);
        assert_eq!(z, C64::new(2.0, 1.0));
        z -= C64::new(0.0, 1.0);
        assert_eq!(z, C64::new(2.0, 0.0));
        z *= C64::new(0.0, 1.0);
        assert_eq!(z, C64::new(0.0, 2.0));
        z /= C64::new(0.0, 2.0);
        assert!(z.approx_eq(ONE, TOL));
        z *= 3.0;
        assert!(z.approx_eq(C64::real(3.0), TOL));
    }
}
