//! Scaling-law fits: `y = a·x^b` via least squares on `(ln x, ln y)`.
//!
//! Experiment E3 fits the Radio MIS step count against `log n` and checks
//! the exponent is ≈ 3 (Theorem 14's `O(log³ n)`); E8 fits broadcast time
//! against `D` per family.

use serde::{Deserialize, Serialize};

/// A fitted power law `y ≈ a·x^b`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerLawFit {
    /// Multiplier `a`.
    pub a: f64,
    /// Exponent `b`.
    pub b: f64,
    /// Coefficient of determination on the log–log scale.
    pub r_squared: f64,
}

/// Fits `y = a·x^b` by ordinary least squares on logs.
///
/// Pairs with non-positive coordinates are skipped (logs undefined).
/// Returns `None` with fewer than two usable points or zero variance in `x`.
pub fn fit_power_law(points: &[(f64, f64)]) -> Option<PowerLawFit> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0 && x.is_finite() && y.is_finite())
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let intercept = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = logs.iter().map(|(x, y)| (y - (intercept + b * x)).powi(2)).sum();
    let r_squared = if ss_tot <= 1e-12 { 1.0 } else { 1.0 - ss_res / ss_tot };
    Some(PowerLawFit { a: intercept.exp(), b, r_squared })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law_recovered() {
        let pts: Vec<(f64, f64)> =
            (1..20).map(|i| (i as f64, 3.0 * (i as f64).powf(2.5))).collect();
        let fit = fit_power_law(&pts).unwrap();
        assert!((fit.b - 2.5).abs() < 1e-9, "b = {}", fit.b);
        assert!((fit.a - 3.0).abs() < 1e-6, "a = {}", fit.a);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn noisy_fit_reasonable() {
        // Deterministic "noise": ±10% alternating.
        let pts: Vec<(f64, f64)> = (1..40)
            .map(|i| {
                let x = i as f64;
                let noise = if i % 2 == 0 { 1.1 } else { 0.9 };
                (x, 5.0 * x.powf(3.0) * noise)
            })
            .collect();
        let fit = fit_power_law(&pts).unwrap();
        assert!((fit.b - 3.0).abs() < 0.1, "b = {}", fit.b);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(fit_power_law(&[]).is_none());
        assert!(fit_power_law(&[(1.0, 2.0)]).is_none());
        assert!(fit_power_law(&[(1.0, 2.0), (1.0, 3.0)]).is_none()); // zero x-variance
        assert!(fit_power_law(&[(0.0, 2.0), (-1.0, 3.0)]).is_none()); // no positive points
    }

    #[test]
    fn skips_nonpositive_points() {
        let mut pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i as f64).powi(2))).collect();
        pts.push((0.0, 5.0));
        pts.push((3.0, -1.0));
        let fit = fit_power_law(&pts).unwrap();
        assert!((fit.b - 2.0).abs() < 1e-9);
    }
}
