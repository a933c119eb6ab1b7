//! Oracle for `kessler_orbits::sgp4`: the same TLEs propagated by the
//! from-scratch implementation and by the field-tested `sgp4` crate must
//! agree to a millimetre. The `sgp4` crate comes from the crates.io
//! registry, which the main workspace never needs; hence this package of
//! its own, run by CI only.

#[cfg(test)]
mod tests {
    use kessler_math::Vec3;
    use kessler_orbits::sgp4::{MeanElements, Sgp4};

    /// Minimal test-local TLE field extraction (the full parser lives in
    /// `kessler-population`, which depends on this crate).
    fn parse_tle_for_tests(line1: &str, line2: &str) -> MeanElements {
        let f = |line: &str, a: usize, b: usize| -> f64 {
            line[a..b].trim().parse().expect("numeric TLE field")
        };
        // B*: mantissa ±XXXXX and signed exponent, columns 54–61 of line 1.
        let raw = line1[53..61].trim();
        let (mantissa, exponent) = raw.split_at(raw.len() - 2);
        let mantissa: f64 = format!("0.{}", mantissa.trim_start_matches(['+', '-']))
            .parse()
            .expect("bstar mantissa");
        let sign = if raw.starts_with('-') { -1.0 } else { 1.0 };
        let exp: i32 = exponent.parse().expect("bstar exponent");
        let bstar = sign * mantissa * 10f64.powi(exp);
        MeanElements {
            mean_motion_rev_per_day: f(line2, 52, 63),
            eccentricity: format!("0.{}", line2[26..33].trim()).parse().unwrap(),
            inclination: f(line2, 8, 16).to_radians(),
            raan: f(line2, 17, 25).to_radians(),
            arg_perigee: f(line2, 34, 42).to_radians(),
            mean_anomaly: f(line2, 43, 51).to_radians(),
            bstar,
        }
    }

    /// Oracle comparison: our SGP4 vs the field-tested `sgp4` crate.
    fn compare_with_oracle(name: &str, line1: &str, line2: &str, times_min: &[f64], tol_km: f64) {
        let oracle_elements =
            sgp4::Elements::from_tle(Some(name.to_string()), line1.as_bytes(), line2.as_bytes())
                .expect("oracle parses the TLE");
        // AFSPC-compatibility mode: the operational constant set our
        // implementation (and the official SGP4 verification baseline)
        // uses; the crate's default mode applies Vallado's "improved"
        // tweaks, which differ by tens of metres.
        let oracle = sgp4::Constants::from_elements_afspc_compatibility_mode(&oracle_elements)
            .expect("oracle initialises");

        let mean = parse_tle_for_tests(line1, line2);
        let ours = Sgp4::new(&mean).expect("our SGP4 initialises");

        for &t in times_min {
            let oracle_state = oracle
                .propagate(sgp4::MinutesSinceEpoch(t))
                .expect("oracle propagates");
            let our_state = ours.propagate(t).expect("our SGP4 propagates");
            let op = Vec3::new(
                oracle_state.position[0],
                oracle_state.position[1],
                oracle_state.position[2],
            );
            let ov = Vec3::new(
                oracle_state.velocity[0],
                oracle_state.velocity[1],
                oracle_state.velocity[2],
            );
            let dp = our_state.position.dist(op);
            let dv = our_state.velocity.dist(ov);
            assert!(
                dp < tol_km,
                "{name} @ t = {t} min: position off by {dp} km\nours:   {:?}\noracle: {op:?}",
                our_state.position
            );
            assert!(
                dv < tol_km / 60.0,
                "{name} @ t = {t} min: velocity off by {dv} km/s"
            );
        }
    }

    const ISS_L1: &str = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
    const ISS_L2: &str = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

    // A Starlink-class TLE (synthetic but format-valid; checksum computed).
    const SL_L1: &str = "1 44238U 19029D   21060.50000000  .00001000  00000-0  70000-4 0  9998";
    const SL_L2: &str = "2 44238  52.9970 150.0000 0001500  90.0000 270.0000 15.05600000100003";

    #[test]
    fn matches_the_oracle_on_the_iss() {
        compare_with_oracle(
            "ISS",
            ISS_L1,
            ISS_L2,
            &[0.0, 10.0, 90.0, 360.0, 1440.0, 4320.0],
            1e-6,
        );
    }

    #[test]
    fn matches_the_oracle_on_a_starlink_class_orbit() {
        compare_with_oracle(
            "STARLINK-CLASS",
            SL_L1,
            SL_L2,
            &[0.0, 45.0, 720.0, 2880.0],
            1e-6,
        );
    }

    #[test]
    fn matches_the_oracle_on_an_eccentric_low_perigee_orbit() {
        // e ≈ 0.19, perigee ~ 400 km: exercises the s4 atmosphere branch
        // boundary and the non-trivial drag terms.
        let l1 = "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
        let l2 = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";
        // Period ≈ 133 min < 225: near-Earth. (This is the classic
        // Vanguard-1 verification case from the SGP4 test suite.)
        compare_with_oracle("VANGUARD-1", l1, l2, &[0.0, 120.0, 360.0, 1440.0], 1e-6);
    }
}
