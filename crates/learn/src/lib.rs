//! # whatif-learn
//!
//! From-scratch machine-learning substrate for the SystemD what-if
//! reproduction (CIDR 2022).
//!
//! The paper trains "linear regression models when the KPI objective is a
//! continuous variable ... and classifiers when the KPI objective is a
//! discrete variable" (scikit-learn in the original), and reads driver
//! importances off the fitted models. This crate supplies those model
//! families and the importance machinery:
//!
//! * [`linalg`] — dense row-major [`linalg::Matrix`], Householder QR
//!   least squares, Cholesky factorization (also used by the Gaussian
//!   process in `whatif-optim`).
//! * [`linear`] — OLS / ridge linear regression with standardized
//!   coefficients (the paper's `[-1, 1]` importance scores).
//! * [`logistic`] — logistic regression via IRLS (Newton) — an
//!   interpretable classifier baseline.
//! * [`tree`] / [`forest`] — CART decision trees and bootstrap random
//!   forests with impurity feature importances and out-of-bag scoring.
//!   Every tree family is one type generic over a KPI-kind tag
//!   ([`Binary`] or [`Continuous`]): [`DecisionTree`], [`RandomForest`]
//!   and [`binned::Gbdt`], with the classifier and regressor names as
//!   aliases (`RandomForestClassifier = RandomForest<Binary>`, ...), and
//!   every ensemble predicts through one shared surface in [`forest`].
//!   Training uses presorted split finding
//!   (root-level per-feature sort columns partitioned stably down the
//!   tree, no per-node sorts or allocations); fitted trees are stored
//!   flattened (struct-of-arrays, u32 indices, leaf sentinel) and
//!   batch prediction is tree-major blocked for cache locality — both
//!   bit-identical to the seed CART, which the test suite keeps as an
//!   oracle (see `docs/FOREST.md`). Forest training is parallelized
//!   with std scoped threads.
//! * [`delta`] — delta prediction for views that move one driver: a
//!   per-model [`delta::LeafTable`] of training-matrix leaves, walking
//!   only the (row, tree) pairs a move can change.
//! * [`pool`] — the parked worker threads every prediction fan-out
//!   runs on.
//! * [`binned`] — the histogram-binned training tier
//!   ([`tree::Trainer::Binned`]): per-forest ≤256-bucket quantile
//!   quantization, O(bins) split scans over per-node histograms, and
//!   gradient-boosted ensembles ([`binned::Gbdt`]) on the same
//!   machinery. Deterministic, but approximate — its contract is
//!   accuracy-within-ε, not bit-identity. The same histogram grower
//!   also grows the exact tier's Gini forests, bit-identically, when
//!   every feature has at most 256 distinct values.
//! * [`overlay`] — copy-on-write [`overlay::ColumnOverlay`] matrix
//!   views, the zero-clone substrate of bulk scenario evaluation
//!   (paired with [`model::Predictor::predict_batch`]).
//! * [`metrics`] — accuracy, F1, ROC-AUC, log-loss, R², RMSE, ...
//! * [`shapley`] — Monte-Carlo permutation Shapley values (one of the
//!   paper's three verification measures).
//! * [`split`] — train/test split and k-fold cross-validation.

pub mod binned;
pub mod delta;
pub mod forest;
pub mod linalg;
pub mod linear;
pub mod logistic;
pub mod metrics;
pub mod model;
pub mod overlay;
pub mod pool;
pub mod shapley;
pub mod split;
pub mod tree;

pub use binned::{Gbdt, GbdtClassifier, GbdtConfig, GbdtRegressor};
pub use delta::LeafTable;
pub use forest::{RandomForest, RandomForestClassifier, RandomForestRegressor};
pub use linalg::Matrix;
pub use linear::LinearRegression;
pub use logistic::LogisticRegression;
pub use model::{Binary, Classifier, Continuous, LearnError, MatrixView, Predictor, Regressor};
pub use overlay::ColumnOverlay;
pub use tree::{DecisionTree, DecisionTreeClassifier, DecisionTreeRegressor, Trainer};
