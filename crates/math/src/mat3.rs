//! 3×3 matrices, used for the perifocal → geocentric-equatorial rotation.
//!
//! The propagator precomputes one rotation matrix per satellite (part of the
//! "Kepler solver data" `a_k` in the paper's memory model, §V-B) so the hot
//! per-sample path is a single matrix–vector product.

use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::ops::Mul;

/// Row-major 3×3 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    pub rows: [[f64; 3]; 3],
}

impl Mat3 {
    pub const IDENTITY: Mat3 = Mat3 {
        rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Build from three column vectors.
    pub fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Mat3 {
        Mat3 {
            rows: [[c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z]],
        }
    }

    /// Rotation about the X axis by `angle` radians (right-handed).
    pub fn rot_x(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3 {
            rows: [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]],
        }
    }

    /// Rotation about the Z axis by `angle` radians (right-handed).
    pub fn rot_z(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3 {
            rows: [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Matrix transpose. For pure rotations this is the inverse.
    pub fn transpose(self) -> Mat3 {
        let r = self.rows;
        Mat3 {
            rows: [
                [r[0][0], r[1][0], r[2][0]],
                [r[0][1], r[1][1], r[2][1]],
                [r[0][2], r[1][2], r[2][2]],
            ],
        }
    }

    /// Row `i` as a vector.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.rows[i][0], self.rows[i][1], self.rows[i][2])
    }

    /// Column `j` as a vector.
    #[inline]
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.rows[0][j], self.rows[1][j], self.rows[2][j])
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul<Mat3> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        Mat3::from_cols(self * rhs.col(0), self * rhs.col(1), self * rhs.col(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn assert_vec_close(a: Vec3, b: Vec3, eps: f64) {
        assert!(a.dist(b) <= eps, "expected {a:?} ≈ {b:?}");
    }

    #[test]
    fn identity_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY * v, v);
    }

    #[test]
    fn rot_z_quarter_turn_maps_x_to_y() {
        assert_vec_close(Mat3::rot_z(FRAC_PI_2) * Vec3::X, Vec3::Y, 1e-15);
        assert_vec_close(Mat3::rot_z(PI) * Vec3::X, -Vec3::X, 1e-15);
    }

    #[test]
    fn rot_x_quarter_turn_maps_y_to_z() {
        assert_vec_close(Mat3::rot_x(FRAC_PI_2) * Vec3::Y, Vec3::Z, 1e-15);
    }

    #[test]
    fn rotation_determinant_is_one() {
        let m = Mat3::rot_z(0.37) * Mat3::rot_x(1.2) * Mat3::rot_z(-2.4);
        // The determinant as the scalar triple product of the rows.
        let det = m.row(0).cross(m.row(1)).dot(m.row(2));
        assert!((det - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_of_rotation_is_inverse() {
        let m = Mat3::rot_z(0.9) * Mat3::rot_x(0.4);
        let prod = m * m.transpose();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.rows[i][j] - expect).abs() < 1e-12);
            }
        }
    }

    proptest! {
        #[test]
        fn rotations_preserve_norm(angle in -10.0..10.0f64, x in -1e3..1e3f64,
                                   y in -1e3..1e3f64, z in -1e3..1e3f64) {
            let v = Vec3::new(x, y, z);
            let m = Mat3::rot_z(angle) * Mat3::rot_x(angle * 0.5);
            prop_assert!(((m * v).norm() - v.norm()).abs() < 1e-6 * v.norm().max(1.0));
        }

        #[test]
        fn matrix_product_matches_composition(a in -6.3..6.3f64, b in -6.3..6.3f64,
                                              x in -10.0..10.0f64, y in -10.0..10.0f64) {
            let v = Vec3::new(x, y, 1.0);
            let lhs = (Mat3::rot_z(a) * Mat3::rot_x(b)) * v;
            let rhs = Mat3::rot_z(a) * (Mat3::rot_x(b) * v);
            prop_assert!(lhs.dist(rhs) < 1e-9);
        }
    }
}
