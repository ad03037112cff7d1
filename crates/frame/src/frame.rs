//! The [`Frame`] table type.

use crate::column::Column;
use crate::error::{FrameError, Result};
use crate::value::{DType, Value};

/// An in-memory table: an ordered collection of equal-length named columns.
///
/// `Frame` is the unit of data every SystemD view operates on — the table
/// view (Figure 2 B), the perturbation engine, and model training all
/// consume frames.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    columns: Vec<Column>,
    n_rows: usize,
}

impl Frame {
    /// An empty frame with no columns and no rows.
    pub fn new() -> Self {
        Frame::default()
    }

    /// Build a frame from columns, validating equal lengths and unique names.
    ///
    /// # Errors
    /// [`FrameError::DuplicateColumn`] or [`FrameError::LengthMismatch`].
    pub fn from_columns(columns: Vec<Column>) -> Result<Self> {
        let mut frame = Frame::new();
        for c in columns {
            frame.push_column(c)?;
        }
        Ok(frame)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the frame has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// Dtypes in declaration order.
    pub fn dtypes(&self) -> Vec<DType> {
        self.columns.iter().map(Column::dtype).collect()
    }

    /// Borrow all columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// Whether a column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.column_index(name).is_some()
    }

    /// Borrow a column by name.
    ///
    /// # Errors
    /// [`FrameError::UnknownColumn`].
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.column_index(name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| FrameError::UnknownColumn(name.to_owned()))
    }

    /// Mutably borrow a column by name.
    ///
    /// # Errors
    /// [`FrameError::UnknownColumn`].
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        let i = self
            .column_index(name)
            .ok_or_else(|| FrameError::UnknownColumn(name.to_owned()))?;
        Ok(&mut self.columns[i])
    }

    /// Append a column.
    ///
    /// The first column fixes the frame's row count; later columns must
    /// match it.
    ///
    /// # Errors
    /// [`FrameError::DuplicateColumn`] or [`FrameError::LengthMismatch`].
    pub fn push_column(&mut self, column: Column) -> Result<()> {
        if self.has_column(column.name()) {
            return Err(FrameError::DuplicateColumn(column.name().to_owned()));
        }
        if self.columns.is_empty() {
            self.n_rows = column.len();
        } else if column.len() != self.n_rows {
            return Err(FrameError::LengthMismatch {
                column: column.name().to_owned(),
                expected: self.n_rows,
                actual: column.len(),
            });
        }
        self.columns.push(column);
        Ok(())
    }

    /// Replace an existing column (same name) or append a new one.
    ///
    /// # Errors
    /// [`FrameError::LengthMismatch`] if the length disagrees.
    pub fn set_column(&mut self, column: Column) -> Result<()> {
        match self.column_index(column.name()) {
            Some(i) => {
                if !self.columns.is_empty() && column.len() != self.n_rows {
                    return Err(FrameError::LengthMismatch {
                        column: column.name().to_owned(),
                        expected: self.n_rows,
                        actual: column.len(),
                    });
                }
                self.columns[i] = column;
                Ok(())
            }
            None => self.push_column(column),
        }
    }

    /// Remove and return a column.
    ///
    /// # Errors
    /// [`FrameError::UnknownColumn`].
    pub fn remove_column(&mut self, name: &str) -> Result<Column> {
        let i = self
            .column_index(name)
            .ok_or_else(|| FrameError::UnknownColumn(name.to_owned()))?;
        let col = self.columns.remove(i);
        if self.columns.is_empty() {
            self.n_rows = 0;
        }
        Ok(col)
    }

    /// Rename a column.
    ///
    /// # Errors
    /// [`FrameError::UnknownColumn`] / [`FrameError::DuplicateColumn`].
    pub fn rename_column(&mut self, old: &str, new: &str) -> Result<()> {
        if old != new && self.has_column(new) {
            return Err(FrameError::DuplicateColumn(new.to_owned()));
        }
        self.column_mut(old)?.set_name(new);
        Ok(())
    }

    /// New frame containing only the named columns, in the given order.
    ///
    /// # Errors
    /// [`FrameError::UnknownColumn`].
    pub fn select(&self, names: &[&str]) -> Result<Frame> {
        let mut out = Frame::new();
        for &n in names {
            out.push_column(self.column(n)?.clone())?;
        }
        // A projection of zero columns still describes the same rows.
        if names.is_empty() {
            out.n_rows = self.n_rows;
        }
        Ok(out)
    }

    /// New frame without the named columns (unknown names are errors).
    ///
    /// # Errors
    /// [`FrameError::UnknownColumn`].
    pub fn drop_columns(&self, names: &[&str]) -> Result<Frame> {
        for &n in names {
            if !self.has_column(n) {
                return Err(FrameError::UnknownColumn(n.to_owned()));
            }
        }
        let keep: Vec<&str> = self
            .columns
            .iter()
            .map(Column::name)
            .filter(|n| !names.contains(n))
            .collect();
        self.select(&keep)
    }

    /// Fetch a row as `(name, value)` pairs.
    ///
    /// # Errors
    /// [`FrameError::RowOutOfBounds`].
    pub fn row(&self, i: usize) -> Result<Vec<(String, Value)>> {
        if i >= self.n_rows {
            return Err(FrameError::RowOutOfBounds {
                row: i,
                n_rows: self.n_rows,
            });
        }
        self.columns
            .iter()
            .map(|c| Ok((c.name().to_owned(), c.get(i)?)))
            .collect()
    }

    /// Select rows by index across all columns (repeats/reorders allowed).
    ///
    /// # Errors
    /// [`FrameError::RowOutOfBounds`].
    pub fn take(&self, indices: &[usize]) -> Result<Frame> {
        let mut out = Frame::new();
        for c in &self.columns {
            out.push_column(c.take(indices)?)?;
        }
        if self.columns.is_empty() {
            out.n_rows = 0;
        }
        Ok(out)
    }

    /// Keep rows where the mask is true.
    ///
    /// # Errors
    /// [`FrameError::LengthMismatch`] on mask length.
    pub fn filter(&self, mask: &[bool]) -> Result<Frame> {
        if mask.len() != self.n_rows {
            return Err(FrameError::LengthMismatch {
                column: "<mask>".to_owned(),
                expected: self.n_rows,
                actual: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.take(&indices)
    }

    /// Contiguous row slice `[start, end)`, clamped.
    pub fn slice(&self, start: usize, end: usize) -> Frame {
        let mut out = Frame::new();
        for c in &self.columns {
            out.push_column(c.slice(start, end))
                .expect("slice preserves lengths");
        }
        out
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Frame {
        self.slice(0, n)
    }

    /// Append the rows of `other`. Schemas (names and dtypes, in order)
    /// must match exactly.
    ///
    /// # Errors
    /// [`FrameError::InvalidOperation`] on schema mismatch.
    pub fn vstack(&self, other: &Frame) -> Result<Frame> {
        if self.column_names() != other.column_names() || self.dtypes() != other.dtypes() {
            return Err(FrameError::InvalidOperation(
                "vstack requires identical schemas".to_owned(),
            ));
        }
        let mut out = Frame::new();
        for (a, b) in self.columns.iter().zip(other.columns.iter()) {
            let values: Vec<Value> = a.iter().chain(b.iter()).collect();
            out.push_column(Column::from_values(a.name(), &values)?)?;
        }
        Ok(out)
    }

    /// Extract the named numeric columns as a row-major matrix
    /// (`n_rows × names.len()`), coercing ints/bools to floats.
    ///
    /// This is the hand-off point to the `whatif-learn` model layer.
    ///
    /// # Errors
    /// [`FrameError::TypeMismatch`] for non-numeric columns or any null.
    pub fn numeric_matrix(&self, names: &[&str]) -> Result<Vec<f64>> {
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(names.len());
        for &n in names {
            let col = self.column(n)?;
            if col.null_count() > 0 {
                return Err(FrameError::TypeMismatch {
                    column: n.to_owned(),
                    expected: "numeric without nulls",
                    actual: "nullable",
                });
            }
            cols.push(col.to_f64_lossy()?);
        }
        let mut out = Vec::with_capacity(self.n_rows * names.len());
        for i in 0..self.n_rows {
            for c in &cols {
                out.push(c[i]);
            }
        }
        Ok(out)
    }

    /// Render the frame as aligned text (for examples and the repro CLI).
    /// At most `max_rows` rows are shown.
    pub fn to_display_string(&self, max_rows: usize) -> String {
        use std::fmt::Write as _;
        let shown = self.n_rows.min(max_rows);
        let mut widths: Vec<usize> = self
            .columns
            .iter()
            .map(|c| c.name().chars().count())
            .collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.get(i).map(|v| v.to_string()).unwrap_or_default())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.chars().count());
            }
            cells.push(row);
        }
        let mut s = String::new();
        for (j, c) in self.columns.iter().enumerate() {
            let _ = write!(s, "{:>width$}  ", c.name(), width = widths[j]);
        }
        s.push('\n');
        for row in &cells {
            for (j, cell) in row.iter().enumerate() {
                let _ = write!(s, "{:>width$}  ", cell, width = widths[j]);
            }
            s.push('\n');
        }
        if shown < self.n_rows {
            let _ = writeln!(s, "... ({} more rows)", self.n_rows - shown);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::from_columns(vec![
            Column::from_f64("x", vec![1.0, 2.0, 3.0, 4.0]),
            Column::from_i64("k", vec![10, 20, 30, 40]),
            Column::from_str_values("s", vec!["a", "b", "c", "d"]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_enforces_invariants() {
        let mut f = Frame::new();
        assert!(f.is_empty());
        f.push_column(Column::from_f64("x", vec![1.0])).unwrap();
        assert_eq!(f.n_rows(), 1);
        let err = f.push_column(Column::from_f64("x", vec![2.0]));
        assert!(matches!(err, Err(FrameError::DuplicateColumn(_))));
        let err = f.push_column(Column::from_f64("y", vec![1.0, 2.0]));
        assert!(matches!(err, Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn select_and_drop() {
        let f = sample();
        let sel = f.select(&["s", "x"]).unwrap();
        assert_eq!(sel.column_names(), vec!["s", "x"]);
        assert_eq!(sel.n_rows(), 4);
        assert!(f.select(&["nope"]).is_err());

        let d = f.drop_columns(&["k"]).unwrap();
        assert_eq!(d.column_names(), vec!["x", "s"]);
        assert!(f.drop_columns(&["nope"]).is_err());

        let empty_sel = f.select(&[]).unwrap();
        assert_eq!(empty_sel.n_cols(), 0);
        assert_eq!(empty_sel.n_rows(), 4, "projection keeps row count");
    }

    #[test]
    fn row_access() {
        let f = sample();
        let row = f.row(1).unwrap();
        assert_eq!(row[0], ("x".to_owned(), Value::Float(2.0)));
        assert_eq!(row[2], ("s".to_owned(), Value::Str("b".into())));
        assert!(f.row(4).is_err());
    }

    #[test]
    fn take_filter_slice_head() {
        let f = sample();
        let t = f.take(&[3, 0]).unwrap();
        assert_eq!(t.column("k").unwrap().i64_values().unwrap(), &[40, 10]);

        let fl = f.filter(&[false, true, false, true]).unwrap();
        assert_eq!(fl.n_rows(), 2);
        assert!(f.filter(&[true]).is_err());

        assert_eq!(f.slice(1, 3).n_rows(), 2);
        assert_eq!(f.head(2).n_rows(), 2);
        assert_eq!(f.head(99).n_rows(), 4);
    }

    #[test]
    fn set_remove_rename() {
        let mut f = sample();
        f.set_column(Column::from_f64("x", vec![9.0, 8.0, 7.0, 6.0]))
            .unwrap();
        assert_eq!(f.column("x").unwrap().f64_values().unwrap()[0], 9.0);
        assert!(f.set_column(Column::from_f64("x", vec![1.0])).is_err());

        f.rename_column("x", "xx").unwrap();
        assert!(f.has_column("xx"));
        assert!(f.rename_column("xx", "k").is_err());
        assert!(f.rename_column("ghost", "g").is_err());

        let c = f.remove_column("xx").unwrap();
        assert_eq!(c.name(), "xx");
        assert_eq!(f.n_cols(), 2);
        assert!(f.remove_column("xx").is_err());
    }

    #[test]
    fn removing_last_column_resets_rows() {
        let mut f = Frame::from_columns(vec![Column::from_f64("x", vec![1.0, 2.0])]).unwrap();
        f.remove_column("x").unwrap();
        assert_eq!(f.n_rows(), 0);
        // New column of different length is now acceptable.
        f.push_column(Column::from_f64("y", vec![1.0, 2.0, 3.0]))
            .unwrap();
        assert_eq!(f.n_rows(), 3);
    }

    #[test]
    fn vstack_appends_rows() {
        let a = sample();
        let b = sample();
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.n_rows(), 8);
        assert_eq!(
            v.column("s").unwrap().get(4).unwrap(),
            Value::Str("a".into())
        );

        let mismatched = Frame::from_columns(vec![Column::from_f64("x", vec![1.0])]).unwrap();
        assert!(a.vstack(&mismatched).is_err());
    }

    #[test]
    fn numeric_matrix_is_row_major() {
        let f = sample();
        let m = f.numeric_matrix(&["x", "k"]).unwrap();
        assert_eq!(m, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        assert!(f.numeric_matrix(&["s"]).is_err());
        let nullable = Frame::from_columns(vec![Column::from_f64_opt(
            "n",
            vec![Some(1.0), None, Some(3.0), Some(4.0)],
        )])
        .unwrap();
        assert!(nullable.numeric_matrix(&["n"]).is_err());
    }

    #[test]
    fn display_string_truncates() {
        let f = sample();
        let s = f.to_display_string(2);
        assert!(s.contains("more rows"));
        assert!(s.contains('x'));
        let full = f.to_display_string(10);
        assert!(!full.contains("more rows"));
    }
}
