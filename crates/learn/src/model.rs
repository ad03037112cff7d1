//! Model traits and the shared error type.

use crate::delta::LeafTable;
use crate::linalg::Matrix;
use crate::overlay::ColumnOverlay;
use std::fmt;

/// Errors from model fitting, prediction, and linear algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// Dimension/shape mismatch.
    Shape(String),
    /// Numerical failure (singular matrix, non-convergence, ...).
    Numeric(String),
    /// Invalid hyperparameter or input data.
    Invalid(String),
    /// Model used before fitting.
    NotFitted,
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::Shape(m) => write!(f, "shape error: {m}"),
            LearnError::Numeric(m) => write!(f, "numeric error: {m}"),
            LearnError::Invalid(m) => write!(f, "invalid input: {m}"),
            LearnError::NotFitted => write!(f, "model has not been fitted"),
        }
    }
}

impl std::error::Error for LearnError {}

/// A borrowed feature matrix in either representation: a dense
/// [`Matrix`] or a copy-on-write [`ColumnOverlay`].
///
/// This is the input type of [`Predictor::predict_batch`]. Being a
/// concrete enum (rather than a generic) keeps `Predictor` object-safe,
/// while letting each model family branch once per *batch* instead of
/// once per element.
#[derive(Clone, Copy, Debug)]
pub enum MatrixView<'a> {
    /// A dense row-major matrix.
    Dense(&'a Matrix),
    /// A base matrix with overridden columns.
    Overlay(&'a ColumnOverlay<'a>),
}

impl MatrixView<'_> {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        match self {
            MatrixView::Dense(m) => m.n_rows(),
            MatrixView::Overlay(o) => o.n_rows(),
        }
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        match self {
            MatrixView::Dense(m) => m.n_cols(),
            MatrixView::Overlay(o) => o.n_cols(),
        }
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            MatrixView::Dense(m) => m.get(i, j),
            MatrixView::Overlay(o) => o.get(i, j),
        }
    }

    /// Copy row `i` into `buf` (length `n_cols`).
    #[inline]
    pub fn gather_row(&self, i: usize, buf: &mut [f64]) {
        match self {
            MatrixView::Dense(m) => buf.copy_from_slice(m.row(i)),
            MatrixView::Overlay(o) => o.gather_row(i, buf),
        }
    }
}

impl<'a> From<&'a Matrix> for MatrixView<'a> {
    fn from(m: &'a Matrix) -> MatrixView<'a> {
        MatrixView::Dense(m)
    }
}

impl<'a> From<&'a ColumnOverlay<'a>> for MatrixView<'a> {
    fn from(o: &'a ColumnOverlay<'a>) -> MatrixView<'a> {
        MatrixView::Overlay(o)
    }
}

/// Shared input validation for [`Predictor::predict_batch`].
pub(crate) fn check_batch_shape(
    n_features: usize,
    x: &MatrixView<'_>,
    out: &[f64],
) -> Result<(), LearnError> {
    if x.n_cols() != n_features {
        return Err(LearnError::Shape(format!(
            "model expects {} features, matrix has {} columns",
            n_features,
            x.n_cols()
        )));
    }
    if out.len() != x.n_rows() {
        return Err(LearnError::Shape(format!(
            "output buffer of {} slots for {} rows",
            out.len(),
            x.n_rows()
        )));
    }
    Ok(())
}

/// A fitted model that maps a feature row to a single score.
///
/// For regressors the score is the prediction; for classifiers it is the
/// probability of the positive class (class 1). This is the interface the
/// KPI evaluator, Shapley estimator, and optimizers consume — they do not
/// care which model family produced the score.
pub trait Predictor: Send + Sync {
    /// Score a single feature row.
    ///
    /// # Errors
    /// [`LearnError::Shape`] if the row length differs from the number of
    /// features the model was fitted on.
    fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError>;

    /// Number of features the model expects.
    fn n_features(&self) -> usize;

    /// Score every row of a dense matrix or column overlay into `out`.
    ///
    /// The default implementation gathers each row and delegates to
    /// [`Predictor::predict_row`]; model families override it with
    /// batched (and, for forests, parallel) implementations that are
    /// **bit-identical** to the row-by-row path.
    ///
    /// # Errors
    /// [`LearnError::Shape`] on column-count or output-length mismatch.
    fn predict_batch(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), LearnError> {
        check_batch_shape(self.n_features(), &x, out)?;
        match x {
            MatrixView::Dense(m) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = self.predict_row(m.row(i))?;
                }
            }
            MatrixView::Overlay(o) => {
                let mut buf = vec![0.0; o.n_cols()];
                for (i, slot) in out.iter_mut().enumerate() {
                    o.gather_row(i, &mut buf);
                    *slot = self.predict_row(&buf)?;
                }
            }
        }
        Ok(())
    }

    /// The leaf each tree sends every row of `x` to, which
    /// [`Predictor::predict_delta`] reuses on overlays of `x` that move
    /// one column. `None` (the default) when the model is not a tree
    /// ensemble, or has a tree of more than
    /// [`LeafTable::MAX_TREE_NODES`] nodes.
    fn leaf_table(&self, x: &Matrix) -> Option<LeafTable> {
        let _ = x;
        None
    }

    /// Score `x`, an overlay of the matrix `table` was built from, into
    /// `out`, bit-identically to [`Predictor::predict_batch`].
    ///
    /// When `x` replaces exactly one column, tree ensembles keep each
    /// (row, tree) pair's table leaf wherever the moved value cannot
    /// send the row elsewhere and walk only the other pairs (see
    /// [`crate::delta`]). The default, and any other overlay or a
    /// table of another shape, scores through `predict_batch`.
    /// `table` must come from this model's [`Predictor::leaf_table`]
    /// on `x.base()`. The table also keeps the leaves of its last
    /// one-driver view for the next one, so a call that breaks this
    /// can spoil later calls on the same table too.
    ///
    /// # Errors
    /// [`LearnError::Shape`] on column-count or output-length mismatch.
    fn predict_delta(
        &self,
        table: &LeafTable,
        x: &ColumnOverlay<'_>,
        out: &mut [f64],
    ) -> Result<(), LearnError> {
        let _ = table;
        self.predict_batch(MatrixView::Overlay(x), out)
    }

    /// Score every row of a matrix.
    ///
    /// # Errors
    /// [`LearnError::Shape`] on column-count mismatch.
    fn predict_matrix(&self, x: &Matrix) -> Result<Vec<f64>, LearnError> {
        let mut out = vec![0.0; x.n_rows()];
        self.predict_batch(MatrixView::Dense(x), &mut out)?;
        Ok(out)
    }
}

/// A regression model fit on `(X, y)` with continuous `y`.
pub trait Regressor: Predictor {
    /// Fit the model in place.
    ///
    /// # Errors
    /// [`LearnError`] on shape/numeric problems.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), LearnError>;
}

/// A binary classifier fit on `(X, y)` with `y ∈ {0, 1}`.
pub trait Classifier: Predictor {
    /// Fit the model in place.
    ///
    /// # Errors
    /// [`LearnError`] on shape/numeric problems.
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), LearnError>;

    /// Probability of class 1 for one row.
    ///
    /// # Errors
    /// [`LearnError::Shape`] on feature-count mismatch.
    fn predict_proba_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        self.predict_row(x)
    }

    /// Hard 0/1 prediction at the 0.5 threshold.
    ///
    /// # Errors
    /// [`LearnError::Shape`] on feature-count mismatch.
    fn predict_class_row(&self, x: &[f64]) -> Result<u8, LearnError> {
        Ok(u8::from(self.predict_proba_row(x)? >= 0.5))
    }
}

/// Validate that `y` contains only 0/1 labels and matches `x`'s row count.
pub(crate) fn check_binary_labels(x: &Matrix, y: &[u8]) -> Result<(), LearnError> {
    if y.len() != x.n_rows() {
        return Err(LearnError::Shape(format!(
            "{} labels for {} rows",
            y.len(),
            x.n_rows()
        )));
    }
    if let Some(&bad) = y.iter().find(|&&v| v > 1) {
        return Err(LearnError::Invalid(format!(
            "binary classifier requires 0/1 labels, found {bad}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstModel(f64, usize);

    impl Predictor for ConstModel {
        fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
            if x.len() != self.1 {
                return Err(LearnError::Shape("bad row".into()));
            }
            Ok(self.0)
        }
        fn n_features(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn predict_matrix_checks_columns() {
        let m = ConstModel(0.7, 2);
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.predict_matrix(&x).unwrap(), vec![0.7, 0.7]);
        let bad = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(m.predict_matrix(&bad).is_err());
    }

    #[test]
    fn error_display() {
        assert!(LearnError::NotFitted
            .to_string()
            .contains("not been fitted"));
        assert!(LearnError::Shape("x".into()).to_string().contains("shape"));
        assert!(LearnError::Numeric("x".into())
            .to_string()
            .contains("numeric"));
        assert!(LearnError::Invalid("x".into())
            .to_string()
            .contains("invalid"));
    }

    #[test]
    fn default_predict_batch_matches_row_path_on_views() {
        struct SumModel;
        impl Predictor for SumModel {
            fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
                Ok(x.iter().sum())
            }
            fn n_features(&self) -> usize {
                2
            }
        }
        let m = SumModel;
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut out = vec![0.0; 2];
        m.predict_batch(MatrixView::Dense(&x), &mut out).unwrap();
        assert_eq!(out, vec![3.0, 7.0]);

        let mut overlay = ColumnOverlay::new(&x);
        overlay.set_col(1, vec![20.0, 40.0]).unwrap();
        m.predict_batch((&overlay).into(), &mut out).unwrap();
        assert_eq!(out, vec![21.0, 43.0]);

        // Shape errors: wrong column count, wrong output length.
        let narrow = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let mut one = vec![0.0; 1];
        assert!(m.predict_batch((&narrow).into(), &mut one).is_err());
        let mut short = vec![0.0; 1];
        assert!(m.predict_batch((&x).into(), &mut short).is_err());
    }

    #[test]
    fn matrix_view_accessors() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = MatrixView::from(&x);
        assert_eq!(v.n_rows(), 2);
        assert_eq!(v.n_cols(), 2);
        assert_eq!(v.get(1, 0), 3.0);
        let mut buf = vec![0.0; 2];
        v.gather_row(0, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0]);
    }

    #[test]
    fn binary_label_validation() {
        let x = Matrix::zeros(2, 1);
        assert!(check_binary_labels(&x, &[0, 1]).is_ok());
        assert!(check_binary_labels(&x, &[0]).is_err());
        assert!(check_binary_labels(&x, &[0, 2]).is_err());
    }
}
