//! Minimal complex arithmetic for the contour Kepler solver.
//!
//! The "Kepler's Goat Herd" solver (Philcox, Goodman & Slepian 2021; the
//! paper's propagation backend, §IV-B) evaluates Kepler's function on a
//! circular contour in the complex plane. Only `+ - * /`, `exp(iθ)` and
//! `sin`/`cos` of complex arguments are needed, so we implement exactly
//! those instead of pulling in `num-complex`.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + i·im` over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    #[inline]
    pub const fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Complex {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Complex sine: `sin(x + iy) = sin x cosh y + i cos x sinh y`.
    #[inline]
    pub fn sin(self) -> Complex {
        let (sx, cx) = self.re.sin_cos();
        Complex::new(sx * self.im.cosh(), cx * self.im.sinh())
    }

    /// Complex cosine: `cos(x + iy) = cos x cosh y − i sin x sinh y`.
    #[inline]
    pub fn cos(self) -> Complex {
        let (sx, cx) = self.re.sin_cos();
        Complex::new(cx * self.im.cosh(), -sx * self.im.sinh())
    }

    /// True if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sq();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Complex {
        Complex::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn close(a: Complex, b: Complex, eps: f64) -> bool {
        (a - b).abs() <= eps
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::real(-1.0));
    }

    #[test]
    fn cis_pi_is_minus_one() {
        assert!(close(Complex::cis(PI), Complex::real(-1.0), 1e-15));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(3.0, -2.0);
        let b = Complex::new(-1.5, 4.0);
        assert!(close((a * b) / b, a, 1e-12));
    }

    #[test]
    fn complex_sin_matches_real_sin_on_real_axis() {
        for x in [-2.0, -0.5, 0.0, 0.7, 3.1] {
            let s = Complex::real(x).sin();
            assert!((s.re - x.sin()).abs() < 1e-15);
            assert_eq!(s.im, 0.0);
        }
    }

    #[test]
    fn sin_squared_plus_cos_squared_is_one() {
        let z = Complex::new(0.8, 0.3);
        let s = z.sin();
        let c = z.cos();
        let id = s * s + c * c;
        assert!(close(id, Complex::ONE, 1e-12));
    }

    proptest! {
        #[test]
        fn cis_has_unit_magnitude(theta in -100.0..100.0f64) {
            prop_assert!((Complex::cis(theta).abs() - 1.0).abs() < 1e-12);
        }

        #[test]
        fn conjugate_multiplication_gives_norm(re in -1e3..1e3f64, im in -1e3..1e3f64) {
            let z = Complex::new(re, im);
            let p = z * Complex::new(re, -im);
            prop_assert!((p.re - z.norm_sq()).abs() <= 1e-9 * z.norm_sq().max(1.0));
            prop_assert!(p.im.abs() <= 1e-9 * z.norm_sq().max(1.0));
        }

        #[test]
        fn addition_is_commutative(a in -1e6..1e6f64, b in -1e6..1e6f64,
                                   c in -1e6..1e6f64, d in -1e6..1e6f64) {
            let x = Complex::new(a, b);
            let y = Complex::new(c, d);
            prop_assert_eq!(x + y, y + x);
        }
    }
}
