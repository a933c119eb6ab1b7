//! SGP4 — the near-Earth analytical propagator behind every TLE.
//!
//! The paper's population model is *derived from* a TLE catalog (§V-A) but
//! propagates with pure two-body Kepler dynamics, which is exact for its
//! synthetic elements. Real TLE elements, however, are **SGP4 mean
//! elements**: interpreting them with any other propagator biases the
//! trajectory by kilometres within hours. For the `tle_screening` use case
//! this module implements SGP4 from scratch — the near-Earth variant of
//! the classical Spacetrack Report #3 algorithm (Hoots & Roehrich 1980)
//! with the Brouwer mean-motion recovery, atmospheric-drag secular terms,
//! long- and short-period periodics, in the TEME frame and WGS-72
//! constants the operational system standardised on.
//!
//! Deep-space orbits (period ≥ 225 min: GEO, Molniya) need the SDP4
//! extension and are rejected with [`Sgp4Error::DeepSpace`].
//!
//! Validation: `crates/orbits/oracle` cross-checks positions and velocities
//! against the field-tested `sgp4` crate. It is a package outside this
//! workspace because that crate comes from the registry (DESIGN.md §6).

use crate::state::CartesianState;
use kessler_math::Vec3;

// WGS-72 constants (the SGP4 standard set).
/// Earth radius, km.
pub const XKMPER: f64 = 6378.135;
/// √(μ) in (earth radii)^1.5 / min.
pub const XKE: f64 = 7.436_691_613_317_342e-2;
const J2: f64 = 1.082_616e-3;
const J3: f64 = -2.538_81e-6;
const J4: f64 = -1.655_97e-6;
const CK2: f64 = 0.5 * J2;
const CK4: f64 = -0.375 * J4;
/// (120 − 78) km in earth radii, to the 4th power.
const QOMS2T: f64 = 1.880_279_159_015_271e-9;
/// 1 + 78 km in earth radii.
const S0: f64 = 1.012_229_28;

/// SGP4 initialisation / propagation errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sgp4Error {
    /// Orbital period ≥ 225 minutes: needs the SDP4 deep-space extension.
    DeepSpace { period_min: f64 },
    /// Eccentricity outside SGP4's valid range.
    BadEccentricity { e: f64 },
    /// Non-positive mean motion.
    BadMeanMotion,
    /// The drag model collapsed the orbit (decay) at the requested time.
    Decayed { tsince_min: f64 },
}

impl std::fmt::Display for Sgp4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sgp4Error::DeepSpace { period_min } => write!(
                f,
                "period {period_min:.1} min ≥ 225 min requires SDP4 (deep space)"
            ),
            Sgp4Error::BadEccentricity { e } => write!(f, "eccentricity {e} out of range"),
            Sgp4Error::BadMeanMotion => write!(f, "mean motion must be positive"),
            Sgp4Error::Decayed { tsince_min } => {
                write!(f, "satellite decayed before t = {tsince_min} min")
            }
        }
    }
}

impl std::error::Error for Sgp4Error {}

/// TLE mean elements as SGP4 consumes them.
#[derive(Debug, Clone, Copy)]
pub struct MeanElements {
    /// Mean motion, revolutions per day (Kozai convention, as on line 2).
    pub mean_motion_rev_per_day: f64,
    /// Eccentricity.
    pub eccentricity: f64,
    /// Inclination, rad.
    pub inclination: f64,
    /// RAAN, rad.
    pub raan: f64,
    /// Argument of perigee, rad.
    pub arg_perigee: f64,
    /// Mean anomaly, rad.
    pub mean_anomaly: f64,
    /// B* drag term, (earth radii)⁻¹.
    pub bstar: f64,
}

impl From<&crate::elements::KeplerElements> for MeanElements {
    fn from(el: &crate::elements::KeplerElements) -> MeanElements {
        MeanElements {
            mean_motion_rev_per_day: 86_400.0 / el.period(),
            eccentricity: el.eccentricity,
            inclination: el.inclination,
            raan: el.raan,
            arg_perigee: el.arg_perigee,
            mean_anomaly: el.mean_anomaly,
            bstar: 0.0,
        }
    }
}

/// Initialised SGP4 propagator for one satellite.
#[derive(Debug, Clone)]
pub struct Sgp4 {
    // Epoch elements.
    e0: f64,
    i0: f64,
    raan0: f64,
    argp0: f64,
    m0: f64,
    bstar: f64,
    // Recovered Brouwer elements.
    xnodp: f64,
    aodp: f64,
    // Trig caches.
    cosio: f64,
    sinio: f64,
    x3thm1: f64,
    x1mth2: f64,
    x7thm1: f64,
    // Drag model.
    isimp: bool,
    eta: f64,
    c1: f64,
    c4: f64,
    c5: f64,
    d2: f64,
    d3: f64,
    d4: f64,
    t2cof: f64,
    t3cof: f64,
    t4cof: f64,
    t5cof: f64,
    // Secular rates.
    xmdot: f64,
    omgdot: f64,
    xnodot: f64,
    xnodcf: f64,
    omgcof: f64,
    xmcof: f64,
    // Long-period coefficients.
    xlcof: f64,
    aycof: f64,
    delmo: f64,
    sinmo: f64,
}

impl Sgp4 {
    /// Initialise from TLE mean elements.
    pub fn new(el: &MeanElements) -> Result<Sgp4, Sgp4Error> {
        if el.mean_motion_rev_per_day <= 0.0 {
            return Err(Sgp4Error::BadMeanMotion);
        }
        let e0 = el.eccentricity;
        if !(0.0..1.0).contains(&e0) {
            return Err(Sgp4Error::BadEccentricity { e: e0 });
        }
        let period_min = 1_440.0 / el.mean_motion_rev_per_day;
        if period_min >= 225.0 {
            return Err(Sgp4Error::DeepSpace { period_min });
        }

        // Kozai mean motion in rad/min.
        let xno = el.mean_motion_rev_per_day * std::f64::consts::TAU / 1_440.0;
        let i0 = el.inclination;
        let cosio = i0.cos();
        let sinio = i0.sin();
        let theta2 = cosio * cosio;
        let x3thm1 = 3.0 * theta2 - 1.0;
        let betao2 = 1.0 - e0 * e0;
        let betao = betao2.sqrt();

        // Brouwer mean-motion recovery (un-Kozai).
        let a1 = (XKE / xno).powf(2.0 / 3.0);
        let del1 = 1.5 * CK2 * x3thm1 / (a1 * a1 * betao * betao2);
        let ao = a1 * (1.0 - del1 * (1.0 / 3.0 + del1 * (1.0 + 134.0 / 81.0 * del1)));
        let delo = 1.5 * CK2 * x3thm1 / (ao * ao * betao * betao2);
        let xnodp = xno / (1.0 + delo);
        // Vallado's revision recomputes the semi-major axis from the
        // un-Kozai'd mean motion (the classic STR#3 `ao/(1−δ₀)` differs in
        // the second order; operational SGP4 — and our oracle — use this).
        let aodp = (XKE / xnodp).powf(2.0 / 3.0);

        // Perigee-dependent atmosphere boundary.
        let perigee_km = (aodp * (1.0 - e0) - 1.0) * XKMPER;
        let (s4, qoms24) = if perigee_km < 156.0 {
            let s4 = if perigee_km < 98.0 {
                20.0
            } else {
                perigee_km - 78.0
            };
            let qoms24 = ((120.0 - s4) / XKMPER).powi(4);
            (s4 / XKMPER + 1.0, qoms24)
        } else {
            (S0, QOMS2T)
        };

        let pinvsq = 1.0 / (aodp * aodp * betao2 * betao2);
        let tsi = 1.0 / (aodp - s4);
        let eta = aodp * e0 * tsi;
        let etasq = eta * eta;
        let eeta = e0 * eta;
        let psisq = (1.0 - etasq).abs();
        let coef = qoms24 * tsi.powi(4);
        let coef1 = coef / psisq.powf(3.5);
        let c2 = coef1
            * xnodp
            * (aodp * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
                + 0.75 * CK2 * tsi / psisq * x3thm1 * (8.0 + 3.0 * etasq * (8.0 + etasq)));
        let c1 = el.bstar * c2;
        let a3ovk2 = -J3 / CK2;
        let c3 = if e0 > 1.0e-4 {
            coef * tsi * a3ovk2 * xnodp * sinio / e0
        } else {
            0.0
        };
        let x1mth2 = 1.0 - theta2;
        let c4 = 2.0
            * xnodp
            * coef1
            * aodp
            * betao2
            * (eta * (2.0 + 0.5 * etasq) + e0 * (0.5 + 2.0 * etasq)
                - 2.0 * CK2 * tsi / (aodp * psisq)
                    * (-3.0 * x3thm1 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                        + 0.75
                            * x1mth2
                            * (2.0 * etasq - eeta * (1.0 + etasq))
                            * (2.0 * el.arg_perigee).cos()));
        let c5 = 2.0 * coef1 * aodp * betao2 * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);

        let theta4 = theta2 * theta2;
        let temp1 = 3.0 * CK2 * pinvsq * xnodp;
        let temp2 = temp1 * CK2 * pinvsq;
        let temp3 = 1.25 * CK4 * pinvsq * pinvsq * xnodp;
        let xmdot = xnodp
            + 0.5 * temp1 * betao * x3thm1
            + 0.0625 * temp2 * betao * (13.0 - 78.0 * theta2 + 137.0 * theta4);
        let x1m5th = 1.0 - 5.0 * theta2;
        let omgdot = -0.5 * temp1 * x1m5th
            + 0.0625 * temp2 * (7.0 - 114.0 * theta2 + 395.0 * theta4)
            + temp3 * (3.0 - 36.0 * theta2 + 49.0 * theta4);
        let xhdot1 = -temp1 * cosio;
        let xnodot = xhdot1
            + (0.5 * temp2 * (4.0 - 19.0 * theta2) + 2.0 * temp3 * (3.0 - 7.0 * theta2)) * cosio;
        let omgcof = el.bstar * c3 * el.arg_perigee.cos();
        let xmcof = if e0 > 1.0e-4 {
            -2.0 / 3.0 * coef * el.bstar / eeta
        } else {
            0.0
        };
        let xnodcf = 3.5 * betao2 * xhdot1 * c1;
        let t2cof = 1.5 * c1;
        let xlcof = 0.125 * a3ovk2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio);
        let aycof = 0.25 * a3ovk2 * sinio;
        let delmo = (1.0 + eta * el.mean_anomaly.cos()).powi(3);
        let sinmo = el.mean_anomaly.sin();
        let x7thm1 = 7.0 * theta2 - 1.0;

        // Simple-drag flag for very low perigees (< 220 km).
        let isimp = aodp * (1.0 - e0) < 220.0 / XKMPER + 1.0;
        let (d2, d3, d4, t3cof, t4cof, t5cof) = if isimp {
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        } else {
            let c1sq = c1 * c1;
            let d2 = 4.0 * aodp * tsi * c1sq;
            let temp = d2 * tsi * c1 / 3.0;
            let d3 = (17.0 * aodp + s4) * temp;
            let d4 = 0.5 * temp * aodp * tsi * (221.0 * aodp + 31.0 * s4) * c1;
            let t3cof = d2 + 2.0 * c1sq;
            let t4cof = 0.25 * (3.0 * d3 + c1 * (12.0 * d2 + 10.0 * c1sq));
            let t5cof =
                0.2 * (3.0 * d4 + 12.0 * c1 * d3 + 6.0 * d2 * d2 + 15.0 * c1sq * (2.0 * d2 + c1sq));
            (d2, d3, d4, t3cof, t4cof, t5cof)
        };

        Ok(Sgp4 {
            e0,
            i0,
            raan0: el.raan,
            argp0: el.arg_perigee,
            m0: el.mean_anomaly,
            bstar: el.bstar,
            xnodp,
            aodp,
            cosio,
            sinio,
            x3thm1,
            x1mth2,
            x7thm1,
            isimp,
            eta,
            c1,
            c4,
            c5,
            d2,
            d3,
            d4,
            t2cof,
            t3cof,
            t4cof,
            t5cof,
            xmdot,
            omgdot,
            xnodot,
            xnodcf,
            omgcof,
            xmcof,
            xlcof,
            aycof,
            delmo,
            sinmo,
        })
    }

    /// Semi-major axis recovered at epoch (km).
    pub fn semi_major_axis_km(&self) -> f64 {
        self.aodp * XKMPER
    }

    /// Propagate to `tsince` minutes past the TLE epoch. Returns position
    /// (km) and velocity (km/s) in the TEME frame.
    pub fn propagate(&self, tsince_min: f64) -> Result<CartesianState, Sgp4Error> {
        let t = tsince_min;

        // --- Secular gravity + drag. ---
        let xmdf = self.m0 + self.xmdot * t;
        let omgadf = self.argp0 + self.omgdot * t;
        let xnoddf = self.raan0 + self.xnodot * t;
        let mut omega = omgadf;
        let mut xmp = xmdf;
        let tsq = t * t;
        let xnode = xnoddf + self.xnodcf * tsq;
        let mut tempa = 1.0 - self.c1 * t;
        let mut tempe = self.bstar * self.c4 * t;
        let mut templ = self.t2cof * tsq;
        if !self.isimp {
            let delomg = self.omgcof * t;
            let delm = self.xmcof * ((1.0 + self.eta * xmdf.cos()).powi(3) - self.delmo);
            let temp = delomg + delm;
            xmp = xmdf + temp;
            omega = omgadf - temp;
            let tcube = tsq * t;
            let tfour = t * tcube;
            tempa -= self.d2 * tsq + self.d3 * tcube + self.d4 * tfour;
            tempe += self.bstar * self.c5 * (xmp.sin() - self.sinmo);
            templ += self.t3cof * tcube + self.t4cof * tfour + tfour * t * self.t5cof;
        }
        let a = self.aodp * tempa * tempa;
        if a < 1.0 {
            return Err(Sgp4Error::Decayed { tsince_min });
        }
        let e = self.e0 - tempe;
        if !(-0.001..1.0).contains(&e) {
            return Err(Sgp4Error::Decayed { tsince_min });
        }
        let e = e.max(1.0e-6);
        let xl = xmp + omega + xnode + self.xnodp * templ;
        let xn = XKE / a.powf(1.5);

        // --- Long-period periodics. ---
        let axn = e * omega.cos();
        let temp = 1.0 / (a * (1.0 - e * e));
        let xll = temp * self.xlcof * axn;
        let aynl = temp * self.aycof;
        let xlt = xl + xll;
        let ayn = e * omega.sin() + aynl;

        // --- Kepler's equation for (E + ω). ---
        let capu = (xlt - xnode).rem_euclid(std::f64::consts::TAU);
        let mut epw = capu;
        let (mut sinepw, mut cosepw) = (0.0, 0.0);
        let (mut ecose, mut esine) = (0.0, 0.0);
        for _ in 0..10 {
            sinepw = epw.sin();
            cosepw = epw.cos();
            ecose = axn * cosepw + ayn * sinepw;
            esine = axn * sinepw - ayn * cosepw;
            let f = capu - epw + esine;
            if f.abs() < 1.0e-12 {
                break;
            }
            let fdot = 1.0 - ecose;
            let mut delta = f / fdot;
            // Standard SGP4 safeguard: cap the first correction at 0.95.
            if delta.abs() > 0.95 {
                delta = 0.95 * delta.signum();
            }
            epw += delta;
        }

        // --- Short-period preliminary quantities. ---
        let elsq = axn * axn + ayn * ayn;
        let pl = a * (1.0 - elsq);
        if pl < 0.0 {
            return Err(Sgp4Error::Decayed { tsince_min });
        }
        let r = a * (1.0 - ecose);
        let invr = 1.0 / r;
        let rdot = XKE * a.sqrt() * esine * invr;
        let rfdot = XKE * pl.sqrt() * invr;
        let betal = (1.0 - elsq).sqrt();
        let temp3 = esine / (1.0 + betal);
        let cosu = a * invr * (cosepw - axn + ayn * temp3);
        let sinu = a * invr * (sinepw - ayn - axn * temp3);
        let u = sinu.atan2(cosu);
        let sin2u = 2.0 * sinu * cosu;
        let cos2u = 2.0 * cosu * cosu - 1.0;
        let temp = 1.0 / pl;
        let temp1 = CK2 * temp;
        let temp2 = temp1 * temp;

        // --- Short-period periodics. ---
        let rk = r * (1.0 - 1.5 * temp2 * betal * self.x3thm1) + 0.5 * temp1 * self.x1mth2 * cos2u;
        let uk = u - 0.25 * temp2 * self.x7thm1 * sin2u;
        let xnodek = xnode + 1.5 * temp2 * self.cosio * sin2u;
        let xinck = self.i0 + 1.5 * temp2 * self.cosio * self.sinio * cos2u;
        let rdotk = rdot - xn * temp1 * self.x1mth2 * sin2u;
        let rfdotk = rfdot + xn * temp1 * (self.x1mth2 * cos2u + 1.5 * self.x3thm1);

        // --- Orientation vectors and unit conversion. ---
        let (sin_uk, cos_uk) = uk.sin_cos();
        let (sin_nodek, cos_nodek) = xnodek.sin_cos();
        let (sin_inck, cos_inck) = xinck.sin_cos();
        let m = Vec3::new(-sin_nodek * cos_inck, cos_nodek * cos_inck, sin_inck);
        let n = Vec3::new(cos_nodek, sin_nodek, 0.0);
        let u_vec = m * sin_uk + n * cos_uk;
        let v_vec = m * cos_uk - n * sin_uk;

        Ok(CartesianState {
            position: u_vec * (rk * XKMPER),
            velocity: (u_vec * rdotk + v_vec * rfdotk) * (XKMPER / 60.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_space_orbits_are_rejected() {
        // A GEO-period element set (mean motion ~1 rev/day).
        let mean = MeanElements {
            mean_motion_rev_per_day: 1.0027,
            eccentricity: 0.0002,
            inclination: 0.01,
            raan: 1.0,
            arg_perigee: 2.0,
            mean_anomaly: 3.0,
            bstar: 0.0,
        };
        assert!(matches!(Sgp4::new(&mean), Err(Sgp4Error::DeepSpace { .. })));
    }

    #[test]
    fn invalid_elements_are_rejected() {
        let mut mean = MeanElements {
            mean_motion_rev_per_day: 15.0,
            eccentricity: 0.001,
            inclination: 0.9,
            raan: 0.0,
            arg_perigee: 0.0,
            mean_anomaly: 0.0,
            bstar: 0.0,
        };
        mean.eccentricity = 1.5;
        assert!(matches!(
            Sgp4::new(&mean),
            Err(Sgp4Error::BadEccentricity { .. })
        ));
        mean.eccentricity = 0.001;
        mean.mean_motion_rev_per_day = 0.0;
        assert!(matches!(Sgp4::new(&mean), Err(Sgp4Error::BadMeanMotion)));
    }

    #[test]
    fn zero_bstar_reduces_to_j2_like_motion() {
        // Without drag, the radius must stay bounded within the osculating
        // apsides over many revolutions.
        let mean = MeanElements {
            mean_motion_rev_per_day: 15.5,
            eccentricity: 0.001,
            inclination: 0.9,
            raan: 1.0,
            arg_perigee: 2.0,
            mean_anomaly: 3.0,
            bstar: 0.0,
        };
        let prop = Sgp4::new(&mean).unwrap();
        let a_km = prop.semi_major_axis_km();
        for k in 0..100 {
            let state = prop.propagate(k as f64 * 14.4).unwrap();
            let r = state.position.norm();
            assert!(
                (r - a_km).abs() < 0.01 * a_km,
                "r = {r} km vs a = {a_km} km at sample {k}"
            );
        }
    }
}
