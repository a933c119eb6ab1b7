//! Three-dimensional vectors over `f64`.
//!
//! Deliberately small: only the operations the astrodynamics and grid code
//! actually need. `Vec3` is `Copy`, 24 bytes, and has no invariants, so the
//! screeners can keep satellite positions in plain `Vec<Vec3>` arrays
//! (structure-of-arrays style) and hand slices of them to rayon.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A vector in ℝ³, used for positions (km) and velocities (km/s).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Squared Euclidean norm. Preferred in hot paths (no sqrt).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn dist_sq(self, rhs: Vec3) -> f64 {
        (self - rhs).norm_sq()
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, rhs: Vec3) -> f64 {
        self.dist_sq(rhs).sqrt()
    }

    /// Unit vector in the same direction.
    ///
    /// Returns `None` for vectors whose norm is not a strictly positive
    /// finite number, rather than silently producing NaNs.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }

    /// Angle between two vectors in `[0, π]`.
    ///
    /// Uses the `atan2(‖a×b‖, a·b)` form, which is numerically stable for
    /// nearly parallel and nearly antiparallel vectors (important for the
    /// coplanarity filter, which compares orbit normals that are often
    /// almost identical).
    pub fn angle_to(self, rhs: Vec3) -> f64 {
        let cross = self.cross(rhs).norm();
        let dot = self.dot(rhs);
        cross.atan2(dot)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() <= eps, "expected {a} ≈ {b} (eps {eps})");
    }

    #[test]
    fn dot_of_orthogonal_axes_is_zero() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::Y.dot(Vec3::Z), 0.0);
        assert_eq!(Vec3::Z.dot(Vec3::X), 0.0);
    }

    #[test]
    fn cross_follows_right_hand_rule() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn norm_of_unit_vectors() {
        assert_eq!(Vec3::X.norm(), 1.0);
        assert_eq!(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0);
    }

    #[test]
    fn normalized_rejects_zero_and_nonfinite() {
        assert!(Vec3::ZERO.normalized().is_none());
        assert!(Vec3::new(f64::NAN, 0.0, 0.0).normalized().is_none());
        assert!(Vec3::new(f64::INFINITY, 0.0, 0.0).normalized().is_none());
        let n = Vec3::new(0.0, 0.0, -2.0).normalized().unwrap();
        assert_eq!(n, -Vec3::Z);
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        assert_close(
            Vec3::X.angle_to(Vec3::Y),
            std::f64::consts::FRAC_PI_2,
            1e-15,
        );
        assert_close(Vec3::X.angle_to(-Vec3::X), std::f64::consts::PI, 1e-15);
        assert_close(Vec3::X.angle_to(Vec3::X), 0.0, 1e-15);
    }

    #[test]
    fn angle_is_stable_for_nearly_parallel_vectors() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(1.0, 1e-9, 0.0);
        let ang = a.angle_to(b);
        assert_close(ang, 1e-9, 1e-15);
    }

    fn arb_vec3() -> impl Strategy<Value = Vec3> {
        let c = -1e6..1e6f64;
        (c.clone(), c.clone(), c).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn cross_is_orthogonal_to_operands(a in arb_vec3(), b in arb_vec3()) {
            let c = a.cross(b);
            // Tolerance scales with magnitudes involved.
            let scale = (a.norm() * b.norm()).max(1.0);
            prop_assert!(c.dot(a).abs() <= 1e-6 * scale * a.norm().max(1.0));
            prop_assert!(c.dot(b).abs() <= 1e-6 * scale * b.norm().max(1.0));
        }

        #[test]
        fn triangle_inequality(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn dot_is_commutative(a in arb_vec3(), b in arb_vec3()) {
            prop_assert_eq!(a.dot(b), b.dot(a));
        }

        #[test]
        fn cross_is_anticommutative(a in arb_vec3(), b in arb_vec3()) {
            let ab = a.cross(b);
            let ba = b.cross(a);
            prop_assert_eq!(ab, -ba);
        }

        #[test]
        fn normalized_has_unit_norm(a in arb_vec3()) {
            if let Some(n) = a.normalized() {
                prop_assert!((n.norm() - 1.0).abs() < 1e-12);
            }
        }

        #[test]
        fn dist_is_symmetric(a in arb_vec3(), b in arb_vec3()) {
            prop_assert_eq!(a.dist(b), b.dist(a));
        }
    }
}
