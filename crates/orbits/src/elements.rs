//! Classical Kepler elements (Fig. 7/8 and Table II of the paper).

use crate::constants::MU_EARTH;
use kessler_math::angles::wrap_tau;
use serde::{Deserialize, Serialize};

/// The six classical orbital elements describing an elliptical Earth orbit
/// and the position of a satellite on it at a reference epoch.
///
/// Angles are radians; lengths are kilometres. The anomaly stored here is
/// the **mean anomaly at epoch** — the paper's population generator draws
/// the mean anomaly uniformly and derives the true anomaly from it
/// (Table II), and mean anomaly is the quantity that advances linearly in
/// time, which is what the propagator needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeplerElements {
    /// Semi-major axis `a` (km), strictly positive for elliptical orbits.
    pub semi_major_axis: f64,
    /// Eccentricity `e` in `[0, 1)`.
    pub eccentricity: f64,
    /// Inclination `i` in `[0, π]`.
    pub inclination: f64,
    /// Right ascension of the ascending node `Ω` in `[0, 2π)`.
    pub raan: f64,
    /// Argument of perigee `ω` in `[0, 2π)`.
    pub arg_perigee: f64,
    /// Mean anomaly `M₀` at epoch, `[0, 2π)`.
    pub mean_anomaly: f64,
}

/// Validation failures for a set of elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementsError {
    NonPositiveSemiMajorAxis,
    EccentricityOutOfRange,
    InclinationOutOfRange,
    NonFinite,
}

impl std::fmt::Display for ElementsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElementsError::NonPositiveSemiMajorAxis => {
                write!(f, "semi-major axis must be strictly positive")
            }
            ElementsError::EccentricityOutOfRange => {
                write!(f, "eccentricity must lie in [0, 1) for closed orbits")
            }
            ElementsError::InclinationOutOfRange => {
                write!(f, "inclination must lie in [0, π]")
            }
            ElementsError::NonFinite => write!(f, "element values must be finite"),
        }
    }
}

impl std::error::Error for ElementsError {}

impl KeplerElements {
    /// Construct a validated element set. Node, perigee and anomaly angles
    /// are wrapped into `[0, 2π)`.
    pub fn new(
        semi_major_axis: f64,
        eccentricity: f64,
        inclination: f64,
        raan: f64,
        arg_perigee: f64,
        mean_anomaly: f64,
    ) -> Result<KeplerElements, ElementsError> {
        let all = [
            semi_major_axis,
            eccentricity,
            inclination,
            raan,
            arg_perigee,
            mean_anomaly,
        ];
        if all.iter().any(|v| !v.is_finite()) {
            return Err(ElementsError::NonFinite);
        }
        if semi_major_axis <= 0.0 {
            return Err(ElementsError::NonPositiveSemiMajorAxis);
        }
        if !(0.0..1.0).contains(&eccentricity) {
            return Err(ElementsError::EccentricityOutOfRange);
        }
        if !(0.0..=std::f64::consts::PI).contains(&inclination) {
            return Err(ElementsError::InclinationOutOfRange);
        }
        Ok(KeplerElements {
            semi_major_axis,
            eccentricity,
            inclination,
            raan: wrap_tau(raan),
            arg_perigee: wrap_tau(arg_perigee),
            mean_anomaly: wrap_tau(mean_anomaly),
        })
    }

    /// Mean motion `n = √(μ/a³)` in rad/s.
    #[inline]
    pub fn mean_motion(&self) -> f64 {
        (MU_EARTH / self.semi_major_axis.powi(3)).sqrt()
    }

    /// Orbital period `T = 2π/n` in seconds.
    #[inline]
    pub fn period(&self) -> f64 {
        std::f64::consts::TAU / self.mean_motion()
    }

    /// Perigee radius `a(1−e)` in km (distance from Earth's centre).
    #[inline]
    pub fn perigee_radius(&self) -> f64 {
        self.semi_major_axis * (1.0 - self.eccentricity)
    }

    /// Apogee radius `a(1+e)` in km.
    #[inline]
    pub fn apogee_radius(&self) -> f64 {
        self.semi_major_axis * (1.0 + self.eccentricity)
    }

    /// Semi-latus rectum `p = a(1−e²)` in km.
    #[inline]
    pub fn semi_latus_rectum(&self) -> f64 {
        self.semi_major_axis * (1.0 - self.eccentricity * self.eccentricity)
    }

    /// Mean anomaly at epoch + `dt` seconds, wrapped to `[0, 2π)`.
    #[inline]
    pub fn mean_anomaly_at(&self, dt: f64) -> f64 {
        wrap_tau(self.mean_anomaly + self.mean_motion() * dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{PI, TAU};

    fn leo() -> KeplerElements {
        KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 2.0, 3.0).unwrap()
    }

    #[test]
    fn valid_elements_are_accepted() {
        assert!(KeplerElements::new(6_800.0, 0.0, 0.0, 0.0, 0.0, 0.0).is_ok());
        assert!(KeplerElements::new(42_164.0, 0.99, PI, 6.0, 6.0, 6.0).is_ok());
    }

    #[test]
    fn invalid_elements_are_rejected() {
        assert_eq!(
            KeplerElements::new(0.0, 0.0, 0.0, 0.0, 0.0, 0.0).unwrap_err(),
            ElementsError::NonPositiveSemiMajorAxis
        );
        assert_eq!(
            KeplerElements::new(7e3, 1.0, 0.0, 0.0, 0.0, 0.0).unwrap_err(),
            ElementsError::EccentricityOutOfRange
        );
        assert_eq!(
            KeplerElements::new(7e3, -0.1, 0.0, 0.0, 0.0, 0.0).unwrap_err(),
            ElementsError::EccentricityOutOfRange
        );
        assert_eq!(
            KeplerElements::new(7e3, 0.1, 3.3, 0.0, 0.0, 0.0).unwrap_err(),
            ElementsError::InclinationOutOfRange
        );
        assert_eq!(
            KeplerElements::new(f64::NAN, 0.1, 0.3, 0.0, 0.0, 0.0).unwrap_err(),
            ElementsError::NonFinite
        );
    }

    #[test]
    fn angles_are_wrapped_on_construction() {
        let e = KeplerElements::new(7e3, 0.0, 0.0, TAU + 1.0, -1.0, 3.0 * TAU).unwrap();
        assert!((e.raan - 1.0).abs() < 1e-12);
        assert!((e.arg_perigee - (TAU - 1.0)).abs() < 1e-12);
        assert!(e.mean_anomaly.abs() < 1e-9);
    }

    #[test]
    fn leo_period_is_about_97_minutes() {
        // a = 7000 km → T ≈ 5828 s.
        let t = leo().period();
        assert!((t - 5_828.0).abs() < 10.0, "T = {t}");
    }

    #[test]
    fn apsides_bracket_semi_major_axis() {
        let e = leo();
        assert!(e.perigee_radius() < e.semi_major_axis);
        assert!(e.apogee_radius() > e.semi_major_axis);
        assert!((e.perigee_radius() + e.apogee_radius() - 2.0 * e.semi_major_axis).abs() < 1e-9);
    }

    #[test]
    fn mean_anomaly_advances_linearly() {
        let e = leo();
        let quarter = e.period() / 4.0;
        let m = e.mean_anomaly_at(quarter);
        assert!((m - wrap_tau(e.mean_anomaly + PI / 2.0)).abs() < 1e-9);
        // A full period returns to the epoch anomaly.
        let full = e.mean_anomaly_at(e.period());
        assert!((full - e.mean_anomaly).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn derived_quantities_are_consistent(
            a in 6_600.0..45_000.0f64,
            ecc in 0.0..0.95f64,
            inc in 0.0..PI,
        ) {
            let e = KeplerElements::new(a, ecc, inc, 0.0, 0.0, 0.0).unwrap();
            prop_assert!(e.period() > 0.0);
            prop_assert!(e.perigee_radius() <= e.apogee_radius());
            prop_assert!(e.semi_latus_rectum() <= a);
        }
    }
}
