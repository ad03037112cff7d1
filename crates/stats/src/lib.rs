//! # whatif-stats
//!
//! Descriptive and correlation statistics substrate for the SystemD
//! what-if reproduction (CIDR 2022).
//!
//! The paper cross-checks model-derived driver importances "using
//! traditional measures such as Shapley, Pearson, and Spearman rank"
//! (§2 E). This crate provides those traditional measures plus the
//! sampling utilities the rest of the workspace builds on:
//!
//! * [`correlation`] — Pearson and tie-corrected Spearman coefficients,
//!   covariance, correlation matrices.
//! * [`rank`] — average-rank assignment (shared with Spearman) and rank
//!   agreement metrics (Kendall tau, top-k overlap) used to *verify* that
//!   different importance measures tell the same story.
//! * [`describe`] — streaming mean/variance (Welford), moments.
//! * [`mod@quantile`] — quantiles with linear interpolation, histograms.
//! * [`sampling`] — seeded bootstrap / permutation / reservoir sampling.
//! * [`distributions`] — normal/lognormal/Poisson samplers built on
//!   `rand` uniforms (Box–Muller, Knuth), used by `whatif-datagen`.

pub mod correlation;
pub mod describe;
pub mod distributions;
pub mod histogram;
pub mod quantile;
pub mod rank;
pub mod sampling;

pub use correlation::{covariance, pearson, pearson_matrix, spearman};
pub use describe::{mean, std_dev, variance, RunningStats};
pub use histogram::{quantile_run_bins, Histogram};
pub use quantile::{median, quantile};
pub use rank::{average_ranks, kendall_tau, top_k_overlap};
