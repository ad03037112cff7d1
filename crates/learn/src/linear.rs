//! Ordinary least squares / ridge linear regression.
//!
//! The model SystemD trains "when the KPI objective is a continuous
//! variable (e.g., sales)". Its driver importances are the standardized
//! regression coefficients, which live on the paper's `[-1, 1]` scale.

use crate::linalg::{lstsq, Matrix};
use crate::model::{
    check_batch_shape, check_targets, LearnError, MatrixView, Predictor, Regressor,
};
use crate::overlay::overlay_linear_terms;

/// Linear regression with an intercept, optional L2 (ridge) penalty.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    /// Ridge penalty λ ≥ 0; 0 gives plain OLS. The intercept is never
    /// penalized.
    pub alpha: f64,
    fitted: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    intercept: f64,
    coefficients: Vec<f64>,
    standardized: Vec<f64>,
    /// Training R².
    r2: f64,
}

impl Default for LinearRegression {
    fn default() -> Self {
        LinearRegression::new()
    }
}

impl LinearRegression {
    /// Plain OLS.
    pub fn new() -> Self {
        LinearRegression {
            alpha: 0.0,
            fitted: None,
        }
    }

    /// Ridge regression with penalty `alpha`.
    pub fn ridge(alpha: f64) -> Self {
        LinearRegression {
            alpha: alpha.max(0.0),
            fitted: None,
        }
    }

    fn fitted(&self) -> Result<&Fitted, LearnError> {
        self.fitted.as_ref().ok_or(LearnError::NotFitted)
    }

    /// Fitted intercept.
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before [`Regressor::fit`].
    pub fn intercept(&self) -> Result<f64, LearnError> {
        Ok(self.fitted()?.intercept)
    }

    /// Fitted raw coefficients (one per feature).
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before [`Regressor::fit`].
    pub fn coefficients(&self) -> Result<&[f64], LearnError> {
        Ok(&self.fitted()?.coefficients)
    }

    /// Standardized coefficients `βⱼ·σ(xⱼ)/σ(y)` — the `[-1, 1]`-scale
    /// driver importances of the paper's Driver Importance View
    /// (clamped, since collinearity can push them slightly past ±1).
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before [`Regressor::fit`].
    pub fn standardized_coefficients(&self) -> Result<&[f64], LearnError> {
        Ok(&self.fitted()?.standardized)
    }

    /// Coefficient of determination on the training data.
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before [`Regressor::fit`].
    pub fn training_r2(&self) -> Result<f64, LearnError> {
        Ok(self.fitted()?.r2)
    }
}

fn std_of(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

impl Regressor for LinearRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), LearnError> {
        check_targets(x, y)?;
        if x.n_rows() == 0 {
            return Err(LearnError::Invalid("cannot fit on zero rows".to_owned()));
        }
        let design = x.with_intercept_column();
        let p = design.n_cols();
        let beta = if self.alpha > 0.0 {
            // Ridge via row augmentation: append sqrt(λ)·e_j rows for each
            // non-intercept column, with zero targets.
            let n = design.n_rows();
            let extra = p - 1;
            let mut aug = Matrix::zeros(n + extra, p);
            for i in 0..n {
                for j in 0..p {
                    aug.set(i, j, design.get(i, j));
                }
            }
            let s = self.alpha.sqrt();
            for j in 1..p {
                aug.set(n + j - 1, j, s);
            }
            let mut rhs = y.to_vec();
            rhs.extend(std::iter::repeat_n(0.0, extra));
            lstsq(&aug, &rhs)?
        } else {
            lstsq(&design, y)?
        };
        let intercept = beta[0];
        let coefficients = beta[1..].to_vec();

        // Standardized coefficients for the importance view.
        let sy = std_of(y);
        let standardized: Vec<f64> = (0..x.n_cols())
            .map(|j| {
                if sy == 0.0 {
                    0.0
                } else {
                    (coefficients[j] * std_of(&x.col(j)) / sy).clamp(-1.0, 1.0)
                }
            })
            .collect();

        // Training R².
        let fitted_vals = design.matvec(&beta)?;
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let ss_res: f64 = y
            .iter()
            .zip(&fitted_vals)
            .map(|(yi, fi)| (yi - fi) * (yi - fi))
            .sum();
        let ss_tot: f64 = y.iter().map(|yi| (yi - mean_y) * (yi - mean_y)).sum();
        let r2 = if ss_tot == 0.0 {
            if ss_res == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - ss_res / ss_tot
        };

        self.fitted = Some(Fitted {
            intercept,
            coefficients,
            standardized,
            r2,
        });
        Ok(())
    }
}

impl Predictor for LinearRegression {
    fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        let f = self.fitted()?;
        if x.len() != f.coefficients.len() {
            return Err(LearnError::Shape(format!(
                "row has {} features, model expects {}",
                x.len(),
                f.coefficients.len()
            )));
        }
        Ok(f.intercept
            + f.coefficients
                .iter()
                .zip(x)
                .map(|(b, v)| b * v)
                .sum::<f64>())
    }

    fn n_features(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.coefficients.len())
    }

    /// Batched override: one fit/shape check per call instead of per
    /// row; direct row-major dots for dense input; vectorized
    /// column-accumulation for overlays (override columns are read as
    /// contiguous slices, untouched columns stride the shared base — no
    /// per-row gather copies). Both paths add terms in the exact
    /// left-to-right order of [`Predictor::predict_row`], so results
    /// are bit-identical to the row-by-row path.
    fn predict_batch(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), LearnError> {
        let f = self.fitted()?;
        check_batch_shape(f.coefficients.len(), &x, out)?;
        match x {
            MatrixView::Dense(m) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = f.intercept
                        + f.coefficients
                            .iter()
                            .zip(m.row(i))
                            .map(|(b, v)| b * v)
                            .sum::<f64>();
                }
            }
            MatrixView::Overlay(o) => {
                overlay_linear_terms(&f.coefficients, o, out);
                for slot in out.iter_mut() {
                    // IEEE addition is commutative, so this matches the
                    // row path's `intercept + sum` bit for bit.
                    *slot += f.intercept;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::ColumnOverlay;

    fn line_data() -> (Matrix, Vec<f64>) {
        // y = 3 + 2*x1 - 1*x2, exact.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn recovers_exact_coefficients() {
        let (x, y) = line_data();
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        assert!((m.intercept().unwrap() - 3.0).abs() < 1e-8);
        let c = m.coefficients().unwrap();
        assert!((c[0] - 2.0).abs() < 1e-8);
        assert!((c[1] + 1.0).abs() < 1e-8);
        assert!((m.training_r2().unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn predictions_match_formula() {
        let (x, y) = line_data();
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        let p = m.predict_row(&[10.0, 2.0]).unwrap();
        assert!((p - (3.0 + 20.0 - 2.0)).abs() < 1e-8);
        assert!(m.predict_row(&[1.0]).is_err());
        let preds = m.predict_matrix(&x).unwrap();
        for (pi, yi) in preds.iter().zip(&y) {
            assert!((pi - yi).abs() < 1e-8);
        }
    }

    #[test]
    fn not_fitted_errors() {
        let m = LinearRegression::new();
        assert_eq!(m.predict_row(&[1.0]).unwrap_err(), LearnError::NotFitted);
        assert_eq!(m.intercept().unwrap_err(), LearnError::NotFitted);
        assert_eq!(m.coefficients().unwrap_err(), LearnError::NotFitted);
        assert_eq!(
            m.standardized_coefficients().unwrap_err(),
            LearnError::NotFitted
        );
        assert_eq!(m.training_r2().unwrap_err(), LearnError::NotFitted);
    }

    #[test]
    fn shape_errors() {
        let (x, _) = line_data();
        let mut m = LinearRegression::new();
        assert!(m.fit(&x, &[1.0, 2.0]).is_err());
        assert!(m.fit(&Matrix::zeros(0, 2), &[]).is_err());
    }

    #[test]
    fn standardized_coefficients_reflect_importance_order() {
        // x0 has large effect on y; x1 has tiny effect; both unit-ish scale.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let a = (i % 10) as f64;
                let b = (i % 7) as f64;
                vec![a, b]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 5.0 * r[0] + 0.1 * r[1]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        let s = m.standardized_coefficients().unwrap();
        assert!(s[0] > s[1].abs() * 5.0);
        assert!(s.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn standardized_handles_constant_target() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![4.0, 4.0, 4.0];
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        assert_eq!(m.standardized_coefficients().unwrap(), &[0.0]);
        assert_eq!(m.training_r2().unwrap(), 1.0, "constant fit is perfect");
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let (x, y) = line_data();
        let mut ols = LinearRegression::new();
        ols.fit(&x, &y).unwrap();
        let mut ridge = LinearRegression::ridge(1000.0);
        ridge.fit(&x, &y).unwrap();
        let c_ols = ols.coefficients().unwrap()[0].abs();
        let c_ridge = ridge.coefficients().unwrap()[0].abs();
        assert!(c_ridge < c_ols, "ridge should shrink: {c_ridge} vs {c_ols}");
        // Negative alpha is treated as zero.
        assert_eq!(LinearRegression::ridge(-5.0).alpha, 0.0);
    }

    #[test]
    fn batch_is_bit_identical_to_row_path() {
        let (x, y) = line_data();
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        // Dense batch == per-row, bit for bit.
        let mut out = vec![0.0; x.n_rows()];
        m.predict_batch((&x).into(), &mut out).unwrap();
        for (i, &p) in out.iter().enumerate() {
            assert!(p.to_bits() == m.predict_row(x.row(i)).unwrap().to_bits());
        }
        // Overlay batch == per-row on the materialized matrix.
        let mut overlay = ColumnOverlay::new(&x);
        overlay.map_col(0, |v| v * 1.4).expect("column 0 exists");
        let dense = overlay.to_matrix();
        m.predict_batch((&overlay).into(), &mut out).unwrap();
        for (i, &p) in out.iter().enumerate() {
            assert!(p.to_bits() == m.predict_row(dense.row(i)).unwrap().to_bits());
        }
        // Unfitted models still fail loudly.
        let un = LinearRegression::new();
        assert!(un.predict_batch((&x).into(), &mut out).is_err());
    }

    #[test]
    fn collinear_features_dont_crash() {
        // Perfectly collinear: x2 = 2*x1.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 3.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = LinearRegression::new();
        m.fit(&x, &y).unwrap();
        // Fitted values must still be correct even if coefficients are not
        // unique.
        let preds = m.predict_matrix(&x).unwrap();
        for (p, yi) in preds.iter().zip(&y) {
            assert!((p - yi).abs() < 1e-6);
        }
    }
}
