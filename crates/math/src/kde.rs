//! Two-dimensional Gaussian kernel density estimation.
//!
//! The paper's synthetic population (§V-A, Fig. 9) draws (semi-major axis,
//! eccentricity) pairs from a *bivariate KDE* of the real 2021 satellite
//! catalog. We implement the estimator ourselves: given anchor points, the
//! density is a mixture of axis-aligned Gaussian kernels whose bandwidths
//! follow Scott's rule; sampling picks a random anchor and perturbs it by
//! the kernel.

use rand_like::UniformSource;

/// Minimal abstraction over a uniform random source so this crate does not
/// depend on `rand` itself (the population crate adapts `rand::Rng` to it).
pub mod rand_like {
    /// Source of uniform variates in `[0, 1)`.
    pub trait UniformSource {
        fn next_uniform(&mut self) -> f64;
    }
}

/// A bivariate Gaussian KDE over anchor points `(x, y)`.
#[derive(Debug, Clone)]
pub struct Kde2d {
    anchors: Vec<(f64, f64)>,
    bandwidth: (f64, f64),
}

impl Kde2d {
    /// Build a KDE with bandwidths from Scott's rule:
    /// `h_j = σ_j · n^(−1/6)` for 2-D data.
    ///
    /// Returns `None` if fewer than 2 anchors are supplied or a marginal has
    /// zero variance (bandwidth would degenerate); callers with degenerate
    /// data should use [`Kde2d::with_bandwidth`].
    pub fn from_anchors(anchors: Vec<(f64, f64)>) -> Option<Kde2d> {
        if anchors.len() < 2 {
            return None;
        }
        let n = anchors.len() as f64;
        let mean_x = anchors.iter().map(|a| a.0).sum::<f64>() / n;
        let mean_y = anchors.iter().map(|a| a.1).sum::<f64>() / n;
        let var_x = anchors.iter().map(|a| (a.0 - mean_x).powi(2)).sum::<f64>() / n;
        let var_y = anchors.iter().map(|a| (a.1 - mean_y).powi(2)).sum::<f64>() / n;
        if var_x <= 0.0 || var_y <= 0.0 {
            return None;
        }
        let factor = n.powf(-1.0 / 6.0);
        Some(Kde2d {
            anchors,
            bandwidth: (var_x.sqrt() * factor, var_y.sqrt() * factor),
        })
    }

    /// Build a KDE with explicit kernel bandwidths.
    pub fn with_bandwidth(anchors: Vec<(f64, f64)>, hx: f64, hy: f64) -> Option<Kde2d> {
        if anchors.is_empty() || hx <= 0.0 || hy <= 0.0 {
            return None;
        }
        Some(Kde2d {
            anchors,
            bandwidth: (hx, hy),
        })
    }

    pub fn bandwidth(&self) -> (f64, f64) {
        self.bandwidth
    }

    /// Evaluate the density at `(x, y)`.
    pub fn density(&self, x: f64, y: f64) -> f64 {
        let (hx, hy) = self.bandwidth;
        let norm = 1.0 / (self.anchors.len() as f64 * std::f64::consts::TAU * hx * hy);
        let sum: f64 = self
            .anchors
            .iter()
            .map(|&(ax, ay)| {
                let dx = (x - ax) / hx;
                let dy = (y - ay) / hy;
                (-0.5 * (dx * dx + dy * dy)).exp()
            })
            .sum();
        norm * sum
    }

    /// Draw one sample: pick an anchor uniformly, then add Gaussian kernel
    /// noise (Box–Muller from two uniforms).
    pub fn sample<R: UniformSource>(&self, rng: &mut R) -> (f64, f64) {
        let idx =
            ((rng.next_uniform() * self.anchors.len() as f64) as usize).min(self.anchors.len() - 1);
        let (ax, ay) = self.anchors[idx];
        let (gx, gy) = gaussian_pair(rng);
        (ax + self.bandwidth.0 * gx, ay + self.bandwidth.1 * gy)
    }
}

/// Two independent standard normal variates via Box–Muller.
pub fn gaussian_pair<R: UniformSource>(rng: &mut R) -> (f64, f64) {
    // Guard against u1 == 0 (ln 0 = -inf).
    let mut u1 = rng.next_uniform();
    if u1 <= f64::MIN_POSITIVE {
        u1 = f64::MIN_POSITIVE;
    }
    let u2 = rng.next_uniform();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::rand_like::UniformSource;
    use super::*;

    /// Deterministic xorshift-based uniform source for tests.
    struct TestRng(u64);

    impl UniformSource for TestRng {
        fn next_uniform(&mut self) -> f64 {
            // xorshift64*
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            let v = x.wrapping_mul(0x2545F4914F6CDD1D);
            (v >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn cluster_anchors() -> Vec<(f64, f64)> {
        // Two clusters at (0,0) and (10,10).
        let mut v = Vec::new();
        for i in 0..50 {
            let o = (i as f64) * 0.01;
            v.push((o, -o));
            v.push((10.0 + o, 10.0 - o));
        }
        v
    }

    #[test]
    fn from_anchors_requires_two_points_and_variance() {
        assert!(Kde2d::from_anchors(vec![(1.0, 2.0)]).is_none());
        assert!(Kde2d::from_anchors(vec![(1.0, 2.0), (1.0, 3.0)]).is_none()); // zero x-variance
        assert!(Kde2d::from_anchors(vec![(1.0, 2.0), (2.0, 3.0)]).is_some());
    }

    #[test]
    fn with_bandwidth_validates_inputs() {
        assert!(Kde2d::with_bandwidth(vec![], 1.0, 1.0).is_none());
        assert!(Kde2d::with_bandwidth(vec![(0.0, 0.0)], 0.0, 1.0).is_none());
        assert!(Kde2d::with_bandwidth(vec![(0.0, 0.0)], 1.0, 1.0).is_some());
    }

    #[test]
    fn density_peaks_at_clusters() {
        let kde = Kde2d::from_anchors(cluster_anchors()).unwrap();
        let at_cluster = kde.density(0.25, -0.25);
        let between = kde.density(5.0, 5.0);
        assert!(
            at_cluster > 10.0 * between,
            "cluster density {at_cluster} should dominate mid-point {between}"
        );
    }

    #[test]
    fn density_integrates_to_roughly_one() {
        // Coarse Riemann sum over a generous bounding box.
        let kde = Kde2d::with_bandwidth(vec![(0.0, 0.0), (2.0, 1.0)], 0.5, 0.5).unwrap();
        let (mut sum, step) = (0.0, 0.05);
        let mut x = -5.0;
        while x < 7.0 {
            let mut y = -5.0;
            while y < 6.0 {
                sum += kde.density(x, y) * step * step;
                y += step;
            }
            x += step;
        }
        assert!((sum - 1.0).abs() < 0.02, "integral ≈ {sum}");
    }

    #[test]
    fn samples_concentrate_near_anchors() {
        // Explicit narrow bandwidth: with Scott's rule the two clusters 14
        // units apart inflate σ and the kernels legitimately overlap.
        let kde = Kde2d::with_bandwidth(cluster_anchors(), 0.5, 0.5).unwrap();
        let mut rng = TestRng(0x9E3779B97F4A7C15);
        let mut near = 0usize;
        let total = 2000;
        for _ in 0..total {
            let (x, y) = kde.sample(&mut rng);
            let d0 = ((x - 0.25).powi(2) + (y + 0.25).powi(2)).sqrt();
            let d1 = ((x - 10.25).powi(2) + (y - 9.75).powi(2)).sqrt();
            if d0 < 3.0 || d1 < 3.0 {
                near += 1;
            }
        }
        assert!(
            near > total * 9 / 10,
            "only {near}/{total} samples near clusters"
        );
    }

    #[test]
    fn gaussian_pair_has_zero_mean_unit_variance() {
        let mut rng = TestRng(42);
        let n = 20_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let (a, b) = gaussian_pair(&mut rng);
            sum += a + b;
            sum_sq += a * a + b * b;
        }
        let count = (2 * n) as f64;
        let mean = sum / count;
        let var = sum_sq / count - mean * mean;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }
}
