//! Linear-fit primitives for model training.
//!
//! The paper constructs its power model "as a linear fit of measured DPC,
//! minimizing the absolute-value error between the measured power and
//! estimated power". [`least_absolute`] implements that L1 criterion via
//! iteratively reweighted least squares (IRLS); [`least_squares`] provides
//! the ordinary L2 fit for comparison.

/// A fitted line `y = slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
}

impl LinearFit {
    /// Evaluates the fit at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least-squares fit. Returns `None` with fewer than two points or
/// zero x-variance.
pub fn least_squares(points: &[(f64, f64)]) -> Option<LinearFit> {
    weighted_least_squares(points, None)
}

fn weighted_least_squares(points: &[(f64, f64)], weights: Option<&[f64]>) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let w = |i: usize| weights.map_or(1.0, |w| w[i]);
    let sw: f64 = (0..points.len()).map(w).sum();
    if sw <= 0.0 {
        return None;
    }
    let mx = points.iter().enumerate().map(|(i, p)| w(i) * p.0).sum::<f64>() / sw;
    let my = points.iter().enumerate().map(|(i, p)| w(i) * p.1).sum::<f64>() / sw;
    let sxx: f64 = points.iter().enumerate().map(|(i, p)| w(i) * (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().enumerate().map(|(i, p)| w(i) * (p.0 - mx) * (p.1 - my)).sum();
    // Degeneracy must be judged relative to the x magnitude: an x-spread
    // below ~1e-12 of the raw x scale is indistinguishable from rounding
    // noise, while an absolute cutoff misreads genuinely tiny scales as
    // degenerate and (symmetrically) trusts spreads that huge scales cannot
    // actually resolve. A non-finite moment means the inputs were unusable.
    let sqx: f64 = points.iter().enumerate().map(|(i, p)| w(i) * p.0 * p.0).sum();
    if !sxx.is_finite() || sxx <= sqx * 1e-24 {
        return None;
    }
    let slope = sxy / sxx;
    Some(LinearFit { slope, intercept: my - slope * mx })
}

/// Relative slope/intercept movement below which an IRLS step counts as
/// converged. Tight enough that early exit cannot shift a trained model at
/// any magnitude the fit reports.
const IRLS_CONVERGENCE: f64 = 1e-12;

/// Least-absolute-deviations fit via IRLS (the paper's fitting criterion).
///
/// Starts from the L2 solution and reweights each point by the inverse of
/// its current absolute residual, stopping early once an iteration moves
/// both coefficients by less than `IRLS_CONVERGENCE` (relative): from a
/// fixed point the reweighting reproduces the same solution, so further
/// iterations are pure waste. `iterations` is the cap for fits that keep
/// oscillating. Returns `None` under the same conditions as
/// [`least_squares`].
pub fn least_absolute(points: &[(f64, f64)], iterations: usize) -> Option<LinearFit> {
    let mut fit = least_squares(points)?;
    let mut weights = vec![1.0; points.len()];
    for _ in 0..iterations {
        for (i, &(x, y)) in points.iter().enumerate() {
            let residual = (y - fit.predict(x)).abs();
            // Huber-style floor keeps weights finite near zero residual.
            weights[i] = 1.0 / residual.max(1e-6);
        }
        match weighted_least_squares(points, Some(&weights)) {
            Some(next) => {
                let slope_moved = (next.slope - fit.slope).abs()
                    > IRLS_CONVERGENCE * fit.slope.abs().max(1.0);
                let intercept_moved = (next.intercept - fit.intercept).abs()
                    > IRLS_CONVERGENCE * fit.intercept.abs().max(1.0);
                fit = next;
                if !slope_moved && !intercept_moved {
                    break;
                }
            }
            None => break,
        }
    }
    Some(fit)
}

/// Mean absolute error of `fit` over `points`.
pub fn mean_absolute_error(fit: &LinearFit, points: &[(f64, f64)]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(|&(x, y)| (y - fit.predict(x)).abs()).sum::<f64>() / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let points: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let l2 = least_squares(&points).unwrap();
        assert!((l2.slope - 3.0).abs() < 1e-9);
        assert!((l2.intercept - 2.0).abs() < 1e-9);
        let l1 = least_absolute(&points, 20).unwrap();
        assert!((l1.slope - 3.0).abs() < 1e-6);
        assert!((l1.intercept - 2.0).abs() < 1e-6);
    }

    #[test]
    fn l1_fit_resists_outliers_better_than_l2() {
        // 9 points on y = 2x, one wild outlier at the high-leverage end.
        let mut points: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 2.0 * i as f64)).collect();
        points.push((9.0, 100.0));
        let l2 = least_squares(&points).unwrap();
        let l1 = least_absolute(&points, 50).unwrap();
        assert!((l1.slope - 2.0).abs() < (l2.slope - 2.0).abs());
        assert!(
            mean_absolute_error(&l1, &points) <= mean_absolute_error(&l2, &points) + 1e-9,
            "L1 fit should not have worse MAE"
        );
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(least_squares(&[]).is_none());
        assert!(least_squares(&[(1.0, 1.0)]).is_none());
        assert!(least_squares(&[(2.0, 1.0), (2.0, 3.0)]).is_none(), "zero x-variance");
        assert!(least_absolute(&[(2.0, 1.0), (2.0, 3.0)], 5).is_none());
    }

    #[test]
    fn degeneracy_is_judged_relative_to_x_scale() {
        // Tiny scale: an absolute 1e-12 cutoff would misread this genuine
        // micro-scale spread (sxx ≈ 5e-13) as degenerate.
        let tiny: Vec<(f64, f64)> =
            (0..8).map(|i| (1e-6 + 5e-7 * i as f64, 3.0 * (1e-6 + 5e-7 * i as f64) + 2.0)).collect();
        let fit = least_squares(&tiny).expect("micro-scale spread is a real fit");
        assert!((fit.slope - 3.0).abs() < 1e-6);
        // Huge scale: a unit spread at x ≈ 1e9 is far above rounding noise
        // and must fit (large-DPC-window analogue).
        let huge: Vec<(f64, f64)> =
            (0..8).map(|i| (1e9 + i as f64, 2.0 * i as f64 + 7.0)).collect();
        let fit = least_squares(&huge).expect("unit spread at 1e9 is a real fit");
        assert!((fit.slope - 2.0).abs() < 1e-4);
        // Zero spread stays degenerate at every magnitude.
        assert!(least_squares(&[(1e-6, 1.0), (1e-6, 3.0)]).is_none());
        assert!(least_squares(&[(1e9, 1.0), (1e9, 3.0)]).is_none());
        // Spread below the representable resolution of the magnitude is
        // rounding noise, not signal.
        assert!(least_squares(&[(1e9, 1.0), (1e9 + 1e-7, 3.0), (1e9, 2.0)]).is_none());
    }

    #[test]
    fn non_finite_inputs_are_degenerate() {
        assert!(least_squares(&[(f64::NAN, 1.0), (2.0, 3.0)]).is_none());
        assert!(least_squares(&[(f64::INFINITY, 1.0), (2.0, 3.0)]).is_none());
    }

    #[test]
    fn converged_irls_is_unchanged_by_extra_iterations() {
        let mut points: Vec<(f64, f64)> = (1..12).map(|i| (i as f64, 2.0 * i as f64)).collect();
        points.push((11.0, 60.0));
        let short = least_absolute(&points, 50).unwrap();
        let long = least_absolute(&points, 5000).unwrap();
        // Bit-identical, not merely close: after convergence the
        // reweighting is a fixed point, so the iteration cap is inert.
        assert_eq!(short.slope.to_bits(), long.slope.to_bits());
        assert_eq!(short.intercept.to_bits(), long.intercept.to_bits());
    }

    #[test]
    fn error_metrics() {
        let fit = LinearFit { slope: 1.0, intercept: 0.0 };
        let points = [(0.0, 1.0), (1.0, 1.0), (2.0, 2.0)];
        assert!((mean_absolute_error(&fit, &points) - (1.0 + 0.0 + 0.0) / 3.0).abs() < 1e-12);
        assert_eq!(mean_absolute_error(&fit, &[]), 0.0);
    }
}
