//! # whatif-frame
//!
//! A from-scratch, in-memory **columnar dataframe** substrate for the
//! SystemD what-if analysis reproduction (CIDR 2022).
//!
//! SystemD's premise is that business users ask what-if questions of a
//! model instead of slicing and dicing tables by hand, so this crate
//! only holds and loads the tables the models train on:
//!
//! * [`Frame`] — a named collection of equal-length [`Column`]s.
//! * [`Column`] — typed storage (`f64`, `i64`, `bool`, `String`) with an
//!   optional validity mask for nulls.
//! * [`csv`] — RFC-4180-ish CSV reader/writer with type inference.
//!
//! ## Quick example
//!
//! ```
//! use whatif_frame::{Column, Frame};
//!
//! let mut f = Frame::new();
//! f.push_column(Column::from_f64("spend", vec![10.0, 20.0, 30.0])).unwrap();
//! f.push_column(Column::from_f64("sales", vec![100.0, 180.0, 260.0])).unwrap();
//!
//! // Keep the rows with spend > 15.
//! let spend = f.column("spend").unwrap().f64_values().unwrap();
//! let mask: Vec<bool> = spend.iter().map(|&s| s > 15.0).collect();
//! let big = f.filter(&mask).unwrap();
//! assert_eq!(big.n_rows(), 2);
//!
//! // The model layer's hand-off: a row-major numeric matrix.
//! assert_eq!(big.numeric_matrix(&["spend", "sales"]).unwrap(), [20.0, 180.0, 30.0, 260.0]);
//! ```

pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod value;

pub use column::{Column, ColumnData};
pub use error::{FrameError, Result};
pub use frame::Frame;
pub use value::{DType, Value};
