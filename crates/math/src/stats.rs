//! Power-law model fitting.
//!
//! The paper calibrates the conjunction hash-map size with an Extra-P model
//! (Eq. 3/4): `c' ≈ K · n^α · s^β · t^γ · d^δ`. We reproduce that workflow
//! with an in-repo multivariate log–log least-squares fit
//! ([`fit_power_law`]).

use serde::{Deserialize, Serialize};

/// Result of a multivariate power-law fit `y = K · Π xᵢ^eᵢ`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerLawFit {
    /// Multiplicative constant `K`.
    pub coefficient: f64,
    /// One exponent per predictor column.
    pub exponents: Vec<f64>,
    /// Coefficient of determination in log space.
    pub r_squared: f64,
}

impl PowerLawFit {
    /// Evaluate the fitted model at a predictor vector.
    pub fn predict(&self, xs: &[f64]) -> f64 {
        assert_eq!(xs.len(), self.exponents.len());
        self.coefficient
            * xs.iter()
                .zip(&self.exponents)
                .map(|(&x, &e)| x.powf(e))
                .product::<f64>()
    }
}

/// Fit `y = K · Π xᵢ^eᵢ` by ordinary least squares in log space.
///
/// `rows` holds one predictor vector per observation (all strictly positive);
/// `ys` the matching responses (strictly positive). Returns `None` when the
/// system is degenerate (too few observations or a singular normal matrix).
pub fn fit_power_law(rows: &[Vec<f64>], ys: &[f64]) -> Option<PowerLawFit> {
    let n = rows.len();
    if n == 0 || n != ys.len() {
        return None;
    }
    let k = rows[0].len();
    if rows.iter().any(|r| r.len() != k) || n < k + 1 {
        return None;
    }
    if rows.iter().flatten().any(|&x| x <= 0.0) || ys.iter().any(|&y| y <= 0.0) {
        return None;
    }

    // Design matrix: [1, ln x₁, …, ln x_k]; response: ln y.
    let dim = k + 1;
    let mut ata = vec![vec![0.0f64; dim]; dim];
    let mut atb = vec![0.0f64; dim];
    let log_row = |r: &Vec<f64>| -> Vec<f64> {
        let mut v = Vec::with_capacity(dim);
        v.push(1.0);
        v.extend(r.iter().map(|x| x.ln()));
        v
    };
    for (r, &y) in rows.iter().zip(ys) {
        let lr = log_row(r);
        let ly = y.ln();
        for i in 0..dim {
            for j in 0..dim {
                ata[i][j] += lr[i] * lr[j];
            }
            atb[i] += lr[i] * ly;
        }
    }

    let beta = solve_gauss(&mut ata, &mut atb)?;

    // R² in log space.
    let mean_ly = ys.iter().map(|y| y.ln()).sum::<f64>() / n as f64;
    let mut ss_tot = 0.0;
    let mut ss_res = 0.0;
    for (r, &y) in rows.iter().zip(ys) {
        let lr = log_row(r);
        let pred: f64 = lr.iter().zip(&beta).map(|(a, b)| a * b).sum();
        let ly = y.ln();
        ss_tot += (ly - mean_ly) * (ly - mean_ly);
        ss_res += (ly - pred) * (ly - pred);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };

    Some(PowerLawFit {
        coefficient: beta[0].exp(),
        exponents: beta[1..].to_vec(),
        r_squared,
    })
}

/// Solve `A x = b` in place by Gaussian elimination with partial pivoting.
/// Returns `None` for (numerically) singular systems.
fn solve_gauss(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot = &pivot_rows[col];
            for (x, &p) in rest[0].iter_mut().zip(pivot.iter()).skip(col) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_recovers_exact_model() {
        // y = 3.5 · a² · b^0.5
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for a in [1.0f64, 2.0, 4.0, 8.0] {
            for b in [1.0f64, 9.0, 16.0] {
                rows.push(vec![a, b]);
                ys.push(3.5 * a * a * b.sqrt());
            }
        }
        let fit = fit_power_law(&rows, &ys).unwrap();
        assert!((fit.coefficient - 3.5).abs() < 1e-9);
        assert!((fit.exponents[0] - 2.0).abs() < 1e-9);
        assert!((fit.exponents[1] - 0.5).abs() < 1e-9);
        assert!(fit.r_squared > 0.999_999);
        assert!((fit.predict(&[3.0, 4.0]) - 3.5 * 9.0 * 2.0).abs() < 1e-6);
    }

    #[test]
    fn power_law_rejects_nonpositive_inputs() {
        assert!(fit_power_law(&[vec![1.0], vec![-2.0], vec![1.0]], &[1.0, 2.0, 3.0]).is_none());
        assert!(fit_power_law(&[vec![1.0], vec![2.0], vec![3.0]], &[1.0, 0.0, 3.0]).is_none());
    }

    #[test]
    fn power_law_rejects_underdetermined() {
        assert!(fit_power_law(&[vec![1.0, 2.0]], &[3.0]).is_none());
    }

    #[test]
    fn paper_model_shape_is_recoverable() {
        // Generate data from the paper's grid-variant model (Eq. 3) and
        // check the fit recovers the exponents.
        let k = 2.32e-9;
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for n in [2000.0f64, 8000.0, 32000.0] {
            for s in [1.0f64, 4.0, 9.0] {
                for t in [600.0f64, 3600.0] {
                    for d in [1.0f64, 2.0, 5.0] {
                        rows.push(vec![n, s, t, d]);
                        ys.push(k * n * n * s.powf(4.0 / 3.0) * t * d.powf(7.0 / 4.0));
                    }
                }
            }
        }
        let fit = fit_power_law(&rows, &ys).unwrap();
        assert!((fit.exponents[0] - 2.0).abs() < 1e-6);
        assert!((fit.exponents[1] - 4.0 / 3.0).abs() < 1e-6);
        assert!((fit.exponents[2] - 1.0).abs() < 1e-6);
        assert!((fit.exponents[3] - 7.0 / 4.0).abs() < 1e-6);
    }
}
