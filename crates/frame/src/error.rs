//! Error types for frame operations.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FrameError>;

/// Errors produced by frame construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// A column with this name already exists in the frame.
    DuplicateColumn(String),
    /// No column with this name exists in the frame.
    UnknownColumn(String),
    /// A column's length disagrees with the frame's row count.
    LengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Length the frame expected.
        expected: usize,
        /// Length the column actually has.
        actual: usize,
    },
    /// An operation required a different column type.
    TypeMismatch {
        /// Name of the offending column.
        column: String,
        /// Human-readable expectation, e.g. `"f64"`.
        expected: &'static str,
        /// The column's actual dtype.
        actual: &'static str,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// The requested row.
        row: usize,
        /// The number of rows available.
        n_rows: usize,
    },
    /// CSV parsing failed.
    Csv {
        /// 1-based line number of the failure, when known.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An operation's inputs do not fit together, e.g. `vstack` of
    /// frames with different schemas.
    InvalidOperation(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::DuplicateColumn(name) => {
                write!(f, "duplicate column name: {name:?}")
            }
            FrameError::UnknownColumn(name) => write!(f, "unknown column: {name:?}"),
            FrameError::LengthMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "column {column:?} has length {actual} but the frame has {expected} rows"
            ),
            FrameError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "column {column:?} has dtype {actual} but {expected} was required"
            ),
            FrameError::RowOutOfBounds { row, n_rows } => {
                write!(
                    f,
                    "row index {row} out of bounds for frame with {n_rows} rows"
                )
            }
            FrameError::Csv { line, message } => {
                write!(f, "csv error at line {line}: {message}")
            }
            FrameError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = FrameError::DuplicateColumn("x".into());
        assert_eq!(e.to_string(), "duplicate column name: \"x\"");
        let e = FrameError::UnknownColumn("y".into());
        assert_eq!(e.to_string(), "unknown column: \"y\"");
        let e = FrameError::LengthMismatch {
            column: "z".into(),
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("length 2"));
        assert!(e.to_string().contains("3 rows"));
        let e = FrameError::TypeMismatch {
            column: "w".into(),
            expected: "f64",
            actual: "str",
        };
        assert!(e.to_string().contains("f64"));
        let e = FrameError::RowOutOfBounds { row: 9, n_rows: 3 };
        assert!(e.to_string().contains('9'));
        let e = FrameError::Csv {
            line: 4,
            message: "bad quote".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&FrameError::InvalidOperation("boom".into()));
    }
}
