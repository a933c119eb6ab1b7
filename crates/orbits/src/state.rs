//! Cartesian orbital state.

use kessler_math::Vec3;
use serde::{Deserialize, Serialize};

/// Position and velocity in the geocentric-equatorial (ECI) frame.
/// Position in km, velocity in km/s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CartesianState {
    pub position: Vec3,
    pub velocity: Vec3,
}

impl CartesianState {
    pub const fn new(position: Vec3, velocity: Vec3) -> CartesianState {
        CartesianState { position, velocity }
    }

    /// Specific angular momentum `h = r × v` (km²/s).
    pub fn angular_momentum(&self) -> Vec3 {
        self.position.cross(self.velocity)
    }

    /// Specific orbital energy `v²/2 − μ/r` (km²/s²).
    pub fn specific_energy(&self, mu: f64) -> f64 {
        0.5 * self.velocity.norm_sq() - mu / self.position.norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::MU_EARTH;

    #[test]
    fn circular_orbit_energy_matches_vis_viva() {
        // Circular orbit at radius r: v = √(μ/r), ε = −μ/(2r).
        let r = 7_000.0;
        let v = (MU_EARTH / r).sqrt();
        let s = CartesianState::new(Vec3::new(r, 0.0, 0.0), Vec3::new(0.0, v, 0.0));
        let eps = s.specific_energy(MU_EARTH);
        assert!((eps - (-MU_EARTH / (2.0 * r))).abs() < 1e-9);
    }

    #[test]
    fn angular_momentum_is_perpendicular_to_orbit_plane() {
        let s = CartesianState::new(Vec3::new(7e3, 0.0, 0.0), Vec3::new(0.0, 7.5, 0.0));
        let h = s.angular_momentum();
        assert_eq!(h.normalized().unwrap(), Vec3::Z);
        assert!((h.norm() - 7e3 * 7.5).abs() < 1e-9);
    }
}
