//! # whatif-optim
//!
//! Black-box optimization substrate for the SystemD what-if reproduction
//! (CIDR 2022).
//!
//! The paper's Goal Inversion view "uses Scikit-Optimize's Bayesian
//! optimizer to learn values of the drivers that attain the desired KPI
//! value (maximum, minimum, or target)" (§2 I). This crate reimplements
//! that optimizer — a Gaussian-process surrogate with Expected
//! Improvement — plus the baselines the benchmark harness compares it
//! against:
//!
//! * [`bayes::BayesianOptimizer`] — GP surrogate (RBF or Matérn-5/2
//!   kernel) + EI/LCB acquisition, the scikit-optimize `gp_minimize`
//!   analogue.
//! * [`random_search`] / [`grid`] — the standard derivative-free
//!   baselines.
//! * [`nelder_mead`] — local simplex search.
//! * [`goal_seek`] — 1-D bisection/Brent root finding, the "Excel Goal
//!   Seek" baseline the paper cites from spreadsheet practice.
//!
//! Everything minimizes; wrap with [`objective::NegatedObjective`] to
//! maximize. All optimizers respect box [`bounds::Bounds`] natively —
//! the paper's per-driver low/high constraints.

pub mod acquisition;
pub mod bayes;
pub mod bounds;
pub mod goal_seek;
pub mod gp;
pub mod grid;
pub mod nelder_mead;
pub mod objective;
pub mod random_search;
pub mod result;

pub use bayes::{BayesConfig, BayesianOptimizer};
pub use bounds::Bounds;
pub use objective::{FnObjective, NegatedObjective, Objective, OptimError};
pub use result::OptimResult;
