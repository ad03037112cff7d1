//! The JSON view protocol: requests a frontend sends, responses the
//! backend packs. Each [`Request`]/[`Response`] variant maps to an
//! annotated view of the paper's Figure 2.
//!
//! # Wire versions
//!
//! * **v1** (legacy): a bare [`Request`] per line, answered by a bare
//!   [`Response`]. Errors are [`Response::Error`] values.
//! * **v2**: an [`Envelope`] `{id, version, body}` per line, answered by
//!   a [`Reply`] `{id, result | error}`. Errors always carry a typed
//!   [`ErrorCode`]. v2 adds [`Request::Batch`], which executes a whole
//!   view pipeline in one round trip; within a batch,
//!   [`CURRENT_SESSION`] refers to the session created earlier in the
//!   same batch.
//!
//! Servers accept both framings on the same connection and answer in
//! the framing of each request (see `docs/PROTOCOL.md`).

use serde::{Deserialize, Serialize};
use whatif_cache::{CacheStats, StoreStats};
use whatif_core::bulk::{ScenarioOutcome, ScenarioSpec};
use whatif_core::goal::{Goal, OptimizerChoice};
use whatif_core::importance::{DriverImportance, VerificationReport};
use whatif_core::model_backend::ModelConfig;
use whatif_core::perturbation::Perturbation;
use whatif_core::scenario::Scenario;
use whatif_core::sensitivity::{ComparisonCurve, PerDataSensitivity, SensitivityResult};
use whatif_core::spec::SpecOutcome;
use whatif_core::{CoreError, DriverConstraint, ErrorCode, GoalInversionResult};
use whatif_frame::Value;
use whatif_obs::MetricsSnapshot;

/// The current wire protocol version. v3 adds the binary columnar
/// framing (`whatif-wire`); v2 JSON envelopes and v1 bare requests
/// remain accepted on the same socket.
pub const PROTOCOL_VERSION: u32 = 3;

/// Sentinel session id usable inside a [`Request::Batch`]: it resolves
/// to the session created by the most recent `LoadUseCase`/`LoadCsv`
/// step of the same batch, letting one round trip drive
/// load → kpi → train → analyze without knowing the id up front.
pub const CURRENT_SESSION: u64 = u64::MAX;

/// The built-in business use cases (view A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UseCase {
    /// U1: media spend → sales.
    MarketingMix,
    /// U2: customer activities → 6-month retention.
    CustomerRetention,
    /// U3: prospect activities → deal closing.
    DealClosing,
}

impl UseCase {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            UseCase::MarketingMix => "Marketing Mix Modeling",
            UseCase::CustomerRetention => "Customer Retention Analysis",
            UseCase::DealClosing => "Deal Closing Analysis",
        }
    }

    /// All use cases.
    pub fn all() -> [UseCase; 3] {
        [
            UseCase::MarketingMix,
            UseCase::CustomerRetention,
            UseCase::DealClosing,
        ]
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// List the available use cases (view A).
    ListUseCases,
    /// Create a session on a generated use-case dataset (view A).
    LoadUseCase {
        /// Which use case.
        use_case: UseCase,
        /// Rows/days to generate (use-case-appropriate default if
        /// `None`).
        n_rows: Option<usize>,
        /// Generator seed (default 7).
        seed: Option<u64>,
    },
    /// Create a session from inline CSV text (custom data path).
    LoadCsv {
        /// CSV content with a header row.
        csv: String,
    },
    /// Fetch the tabulated dataset (view B).
    TableView {
        /// Session id.
        session: u64,
        /// Maximum rows to return.
        max_rows: usize,
    },
    /// Select the KPI objective (view C).
    SelectKpi {
        /// Session id.
        session: u64,
        /// KPI column name.
        kpi: String,
    },
    /// Fetch / filter the driver list (view D). `drivers = None` keeps
    /// the current selection.
    SelectDrivers {
        /// Session id.
        session: u64,
        /// New driver selection, or `None` to just read it back.
        drivers: Option<Vec<String>>,
    },
    /// Train (or retrain) the model backing the session.
    Train {
        /// Session id.
        session: u64,
        /// Model configuration (default when `None`).
        config: Option<ModelConfig>,
    },
    /// Driver importance view (E).
    DriverImportanceView {
        /// Session id.
        session: u64,
        /// Also run the Shapley/Pearson/Spearman verification.
        verify: bool,
    },
    /// Sensitivity view (F/G/H): KPI on original vs perturbed data.
    SensitivityView {
        /// Session id.
        session: u64,
        /// Perturbations from the perturbation view (G).
        perturbations: Vec<Perturbation>,
    },
    /// Comparison analysis (H): per-driver KPI trends.
    ComparisonView {
        /// Session id.
        session: u64,
        /// Percentage sweep.
        percentages: Vec<f64>,
    },
    /// Per-data analysis (H): one data point.
    PerDataView {
        /// Session id.
        session: u64,
        /// Row index.
        row: usize,
        /// Perturbations for that row.
        perturbations: Vec<Perturbation>,
    },
    /// Goal inversion / constrained analysis view (I).
    GoalInversionView {
        /// Session id.
        session: u64,
        /// KPI goal.
        goal: Goal,
        /// Constraints from the perturbation view (G).
        constraints: Vec<DriverConstraint>,
        /// Optimizer choice (Bayesian default when `None`).
        optimizer: Option<OptimizerChoice>,
        /// Optimizer seed.
        seed: u64,
    },
    /// Evaluate N heterogeneous scenarios in one round trip (v2): each
    /// is priced in parallel through copy-on-write overlays and batched
    /// prediction, and optionally recorded in the session's scenario
    /// ledger in the same call.
    EvaluateScenarios {
        /// Session id.
        session: u64,
        /// The scenarios to price.
        scenarios: Vec<ScenarioSpec>,
        /// Record every outcome in the scenario ledger.
        #[serde(default)]
        record: bool,
        /// Worker threads (server default when `None`).
        #[serde(default)]
        n_threads: Option<usize>,
    },
    /// Record the most recent sensitivity/goal result as a named
    /// scenario (options as first-class citizens).
    RecordScenario {
        /// Session id.
        session: u64,
        /// Scenario name.
        name: String,
    },
    /// List recorded scenarios, ranked by uplift.
    ListScenarios {
        /// Session id.
        session: u64,
    },
    /// Drop a session and free its state.
    CloseSession {
        /// Session id.
        session: u64,
    },
    /// Accounting snapshot of the process-wide result cache (v2):
    /// hits, misses, insertions, evictions, live entries/bytes,
    /// capacity, enablement.
    CacheStats,
    /// Reconfigure the process-wide result cache (v2). Omitted fields
    /// keep their current value; the reply is the post-change
    /// [`Response::CacheStats`] snapshot. Shrinking the capacity evicts
    /// immediately; disabling makes the cache transparent (every
    /// analysis recomputes) while retaining entries for instant
    /// re-warm.
    ConfigureCache {
        /// New byte budget, if changing.
        #[serde(default)]
        capacity_bytes: Option<u64>,
        /// New enablement, if changing.
        #[serde(default)]
        enabled: Option<bool>,
    },
    /// Accounting snapshot of the process-wide trained-model store
    /// (v2): trainings avoided (hits) vs performed (misses), live
    /// entries, how many are currently referenced by sessions, bytes,
    /// capacity, evictions. See `docs/PROTOCOL.md` for the sharing
    /// semantics.
    ModelStoreStats,
    /// One point-in-time snapshot of every process metric: per-request
    /// latency histograms, per-stage timing breakdowns, error-code
    /// counters, network/v3 byte totals, and the cache/store stats as
    /// registered metrics. Answered by [`Response::Metrics`].
    MetricsSnapshot,
    /// The same snapshot rendered as Prometheus plaintext exposition,
    /// answered by [`Response::MetricsText`] — suitable for piping
    /// straight into a scrape file.
    MetricsPrometheus,
    /// Stop the TCP server (connection-level; in-process dispatch
    /// answers with an acknowledgement).
    Shutdown,
    /// Execute the steps in order within one round trip (v2). Steps may
    /// use [`CURRENT_SESSION`] to reference the session created earlier
    /// in the batch; execution stops at the first failing step. The
    /// response is [`Response::Batch`] with one [`Reply`] per executed
    /// step. Batches do not nest.
    Batch(Vec<Request>),
}

/// Stable request-type identity for metrics: one slot per [`Request`]
/// variant, with a snake_case label used in metric names
/// (`req.{label}.count`, `req.{label}.latency_us`, …).
///
/// Discriminants are contiguous from zero in [`RequestKind::ALL`]
/// order, so `kind as usize` indexes pre-registered instrument arrays
/// without hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
#[allow(missing_docs)] // mirrors Request variant-for-variant
pub enum RequestKind {
    ListUseCases = 0,
    LoadUseCase,
    LoadCsv,
    TableView,
    SelectKpi,
    SelectDrivers,
    Train,
    DriverImportanceView,
    SensitivityView,
    ComparisonView,
    PerDataView,
    GoalInversionView,
    EvaluateScenarios,
    RecordScenario,
    ListScenarios,
    CloseSession,
    CacheStats,
    ConfigureCache,
    ModelStoreStats,
    MetricsSnapshot,
    MetricsPrometheus,
    Shutdown,
    Batch,
}

impl RequestKind {
    /// Number of request kinds.
    pub const COUNT: usize = 23;

    /// Every kind, in declaration order; `ALL[kind as usize] == kind`.
    pub const ALL: [RequestKind; RequestKind::COUNT] = [
        RequestKind::ListUseCases,
        RequestKind::LoadUseCase,
        RequestKind::LoadCsv,
        RequestKind::TableView,
        RequestKind::SelectKpi,
        RequestKind::SelectDrivers,
        RequestKind::Train,
        RequestKind::DriverImportanceView,
        RequestKind::SensitivityView,
        RequestKind::ComparisonView,
        RequestKind::PerDataView,
        RequestKind::GoalInversionView,
        RequestKind::EvaluateScenarios,
        RequestKind::RecordScenario,
        RequestKind::ListScenarios,
        RequestKind::CloseSession,
        RequestKind::CacheStats,
        RequestKind::ConfigureCache,
        RequestKind::ModelStoreStats,
        RequestKind::MetricsSnapshot,
        RequestKind::MetricsPrometheus,
        RequestKind::Shutdown,
        RequestKind::Batch,
    ];

    /// Stable snake_case label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::ListUseCases => "list_use_cases",
            RequestKind::LoadUseCase => "load_use_case",
            RequestKind::LoadCsv => "load_csv",
            RequestKind::TableView => "table_view",
            RequestKind::SelectKpi => "select_kpi",
            RequestKind::SelectDrivers => "select_drivers",
            RequestKind::Train => "train",
            RequestKind::DriverImportanceView => "driver_importance_view",
            RequestKind::SensitivityView => "sensitivity_view",
            RequestKind::ComparisonView => "comparison_view",
            RequestKind::PerDataView => "per_data_view",
            RequestKind::GoalInversionView => "goal_inversion_view",
            RequestKind::EvaluateScenarios => "evaluate_scenarios",
            RequestKind::RecordScenario => "record_scenario",
            RequestKind::ListScenarios => "list_scenarios",
            RequestKind::CloseSession => "close_session",
            RequestKind::CacheStats => "cache_stats",
            RequestKind::ConfigureCache => "configure_cache",
            RequestKind::ModelStoreStats => "model_store_stats",
            RequestKind::MetricsSnapshot => "metrics_snapshot",
            RequestKind::MetricsPrometheus => "metrics_prometheus",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Batch => "batch",
        }
    }
}

impl Request {
    /// This request's metrics identity.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::ListUseCases => RequestKind::ListUseCases,
            Request::LoadUseCase { .. } => RequestKind::LoadUseCase,
            Request::LoadCsv { .. } => RequestKind::LoadCsv,
            Request::TableView { .. } => RequestKind::TableView,
            Request::SelectKpi { .. } => RequestKind::SelectKpi,
            Request::SelectDrivers { .. } => RequestKind::SelectDrivers,
            Request::Train { .. } => RequestKind::Train,
            Request::DriverImportanceView { .. } => RequestKind::DriverImportanceView,
            Request::SensitivityView { .. } => RequestKind::SensitivityView,
            Request::ComparisonView { .. } => RequestKind::ComparisonView,
            Request::PerDataView { .. } => RequestKind::PerDataView,
            Request::GoalInversionView { .. } => RequestKind::GoalInversionView,
            Request::EvaluateScenarios { .. } => RequestKind::EvaluateScenarios,
            Request::RecordScenario { .. } => RequestKind::RecordScenario,
            Request::ListScenarios { .. } => RequestKind::ListScenarios,
            Request::CloseSession { .. } => RequestKind::CloseSession,
            Request::CacheStats => RequestKind::CacheStats,
            Request::ConfigureCache { .. } => RequestKind::ConfigureCache,
            Request::ModelStoreStats => RequestKind::ModelStoreStats,
            Request::MetricsSnapshot => RequestKind::MetricsSnapshot,
            Request::MetricsPrometheus => RequestKind::MetricsPrometheus,
            Request::Shutdown => RequestKind::Shutdown,
            Request::Batch(_) => RequestKind::Batch,
        }
    }
}

/// A column descriptor in the table view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnInfo {
    /// Column name.
    pub name: String,
    /// Dtype name (`f64`, `i64`, `bool`, `str`).
    pub dtype: String,
    /// Number of nulls.
    pub null_count: usize,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Available use cases with labels.
    UseCases(Vec<(UseCase, String)>),
    /// A session was created.
    SessionCreated {
        /// Session id to use in subsequent requests.
        session: u64,
        /// Row count of the loaded dataset.
        n_rows: usize,
        /// Column descriptors.
        columns: Vec<ColumnInfo>,
        /// Suggested KPI for the use case, when known.
        suggested_kpi: Option<String>,
    },
    /// Table rows (view B): column names plus row-major cells.
    Table {
        /// Column names.
        columns: Vec<String>,
        /// Rows of dynamically-typed values.
        rows: Vec<Vec<Value>>,
        /// Total rows in the dataset (may exceed `rows.len()`).
        total_rows: usize,
    },
    /// KPI accepted (view C).
    KpiSelected {
        /// The KPI column.
        kpi: String,
        /// `"continuous"` or `"binary"`.
        kind: String,
    },
    /// Current driver selection (view D).
    Drivers {
        /// Selected drivers.
        selected: Vec<String>,
    },
    /// Model trained (or shared from the process-wide model store).
    Trained {
        /// Resolved model family.
        kind: String,
        /// Holdout confidence.
        confidence: f64,
        /// KPI on the original data.
        baseline_kpi: f64,
        /// True when this request trained nothing: an identical
        /// training request (same data digest, KPI, drivers, and
        /// behavior-relevant config) had already been trained
        /// process-wide, and this session now shares that model.
        /// Defaults to `false` so pre-store readers and writers
        /// interoperate.
        #[serde(default)]
        shared: bool,
    },
    /// Driver importance payload (view E).
    Importance {
        /// Importance scores.
        importance: DriverImportance,
        /// Optional verification report.
        verification: Option<VerificationReport>,
    },
    /// Sensitivity payload (view H).
    Sensitivity(SensitivityResult),
    /// Comparison payload (view H).
    Comparison(Vec<ComparisonCurve>),
    /// Per-data payload (view H).
    PerData(PerDataSensitivity),
    /// Goal inversion payload (view I).
    GoalInversion(GoalInversionResult),
    /// Scenario recorded with this id.
    ScenarioRecorded {
        /// Ledger id.
        id: u64,
    },
    /// Bulk scenario outcomes (one per requested scenario, in input
    /// order), plus their ledger ids when recording was requested.
    ScenariosEvaluated {
        /// Priced outcomes, in input order.
        outcomes: Vec<ScenarioOutcome>,
        /// Ledger ids aligned with `outcomes`; empty unless the request
        /// set `record`.
        recorded_ids: Vec<u64>,
    },
    /// Scenario listing, ranked by uplift.
    Scenarios(Vec<Scenario>),
    /// Result-cache accounting (answer to [`Request::CacheStats`] and
    /// [`Request::ConfigureCache`]).
    CacheStats(CacheStats),
    /// Trained-model-store accounting (answer to
    /// [`Request::ModelStoreStats`]).
    ModelStoreStats(StoreStats),
    /// Process metrics snapshot (answer to [`Request::MetricsSnapshot`]).
    Metrics(MetricsSnapshot),
    /// Prometheus plaintext rendering of the metrics snapshot (answer
    /// to [`Request::MetricsPrometheus`]).
    MetricsText(String),
    /// Session closed.
    SessionClosed,
    /// Shutdown acknowledged.
    ShuttingDown,
    /// Per-step replies of a [`Request::Batch`], in execution order.
    Batch(Vec<Reply>),
    /// Any failure, with a typed code.
    Error(ApiError),
}

impl Response {
    /// Build an error response from any error type (legacy helper; the
    /// code defaults to [`ErrorCode::Internal`]).
    pub fn error(e: impl std::fmt::Display) -> Response {
        Response::Error(ApiError::new(ErrorCode::Internal, e.to_string()))
    }

    /// True if this is an error response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// The typed error, when this is an error response.
    pub fn as_error(&self) -> Option<&ApiError> {
        match self {
            Response::Error(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecOutcome> for Response {
    fn from(outcome: SpecOutcome) -> Response {
        match outcome {
            SpecOutcome::Importance {
                importance,
                verification,
            } => Response::Importance {
                importance,
                verification,
            },
            SpecOutcome::Sensitivity(s) => Response::Sensitivity(s),
            SpecOutcome::Comparison(c) => Response::Comparison(c),
            SpecOutcome::PerData(p) => Response::PerData(p),
            SpecOutcome::GoalInversion(g) => Response::GoalInversion(g),
            SpecOutcome::Scenarios(outcomes) => Response::ScenariosEvaluated {
                outcomes,
                recorded_ids: Vec::new(),
            },
        }
    }
}

/// A structured failure: machine-readable code plus human message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiError {
    /// Typed category clients can branch on.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// An error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// A malformed-request error.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::BadRequest, message)
    }

    /// The request referenced an unknown session.
    pub fn unknown_session(id: u64) -> ApiError {
        ApiError::new(ErrorCode::UnknownSession, format!("unknown session {id}"))
    }

    /// The session has no trained model yet.
    pub fn not_trained() -> ApiError {
        ApiError::new(ErrorCode::NotTrained, "no model trained; send Train first")
    }

    /// The request's deadline expired before a reply was produced.
    pub fn deadline_exceeded(budget_ms: u64) -> ApiError {
        ApiError::new(
            ErrorCode::DeadlineExceeded,
            format!("deadline of {budget_ms}ms exceeded"),
        )
    }

    /// The server shed this request instead of queueing it.
    pub fn overloaded(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorCode::Overloaded, message)
    }
}

impl From<CoreError> for ApiError {
    fn from(e: CoreError) -> ApiError {
        ApiError::new(e.code(), e.to_string())
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// A v2 request frame: id for correlation, version for evolution, the
/// [`Request`] as body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed on the [`Reply`].
    pub id: u64,
    /// Protocol version (defaults to [`PROTOCOL_VERSION`] when absent).
    #[serde(default = "default_version")]
    pub version: u32,
    /// The request to execute.
    pub body: Request,
    /// Optional client-chosen trace id, echoed verbatim on the
    /// [`Reply`] and stamped into server-side slow-query log lines.
    /// Unlike `id` (a per-connection correlation counter), a trace id
    /// follows one user interaction across systems.
    #[serde(default)]
    pub trace_id: Option<String>,
    /// Optional per-request deadline budget in milliseconds, measured
    /// from the moment the server starts dispatching. Absent (`None`)
    /// means no deadline — exactly how every pre-deadline client
    /// behaves, since serde defaults the field. `Some(0)` is an
    /// already-expired deadline and fails immediately with
    /// [`ErrorCode::DeadlineExceeded`].
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

fn default_version() -> u32 {
    PROTOCOL_VERSION
}

impl Envelope {
    /// A v2 envelope around `body`.
    pub fn new(id: u64, body: Request) -> Envelope {
        Envelope {
            id,
            version: PROTOCOL_VERSION,
            body,
            trace_id: None,
            deadline_ms: None,
        }
    }

    /// Attach a trace id (builder style).
    pub fn with_trace(mut self, trace_id: impl Into<String>) -> Envelope {
        self.trace_id = Some(trace_id.into());
        self
    }

    /// Attach a deadline budget in milliseconds (builder style).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Envelope {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// A v2 response frame: exactly one of `result` / `error` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// The correlation id of the request this answers.
    pub id: u64,
    /// The successful response, when the request succeeded.
    #[serde(default)]
    pub result: Option<Response>,
    /// The failure, when it did not.
    #[serde(default)]
    pub error: Option<ApiError>,
    /// Whether an analysis result was served *entirely* from the
    /// server's result cache (v2 marker; composite analyses report
    /// `true` only when every constituent evaluation hit). Always
    /// `false` for non-analysis responses and on errors.
    #[serde(default)]
    pub cached: bool,
    /// The request envelope's trace id, echoed verbatim (absent when
    /// the request carried none).
    #[serde(default)]
    pub trace_id: Option<String>,
}

impl Reply {
    /// A success reply (not served from cache).
    pub fn ok(id: u64, result: Response) -> Reply {
        Reply {
            id,
            result: Some(result),
            error: None,
            cached: false,
            trace_id: None,
        }
    }

    /// A failure reply.
    pub fn fail(id: u64, error: ApiError) -> Reply {
        Reply {
            id,
            result: None,
            error: Some(error),
            cached: false,
            trace_id: None,
        }
    }

    /// Set the cache marker (builder style).
    pub fn with_cached(mut self, cached: bool) -> Reply {
        self.cached = cached;
        self
    }

    /// Set the echoed trace id (builder style).
    pub fn with_trace(mut self, trace_id: Option<String>) -> Reply {
        self.trace_id = trace_id;
        self
    }

    /// True if this reply carries an error.
    pub fn is_error(&self) -> bool {
        self.error.is_some()
    }

    /// Unpack into a `Result`, treating a malformed empty reply as an
    /// internal error.
    pub fn into_result(self) -> Result<Response, ApiError> {
        match (self.result, self.error) {
            (_, Some(e)) => Err(e),
            (Some(r), None) => Ok(r),
            (None, None) => Err(ApiError::new(
                ErrorCode::Internal,
                "reply carried neither result nor error",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_case_labels() {
        assert_eq!(UseCase::MarketingMix.label(), "Marketing Mix Modeling");
        assert_eq!(UseCase::all().len(), 3);
    }

    #[test]
    fn request_json_roundtrip() {
        let reqs = vec![
            Request::ListUseCases,
            Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(100),
                seed: None,
            },
            Request::SelectKpi {
                session: 1,
                kpi: "Deal Closed?".into(),
            },
            Request::SensitivityView {
                session: 1,
                perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
            },
            Request::EvaluateScenarios {
                session: 1,
                scenarios: vec![ScenarioSpec::new(
                    "ome +40%",
                    whatif_core::PerturbationSet::new(vec![Perturbation::percentage(
                        "Open Marketing Email",
                        40.0,
                    )]),
                )],
                record: true,
                n_threads: Some(8),
            },
            Request::CacheStats,
            Request::ConfigureCache {
                capacity_bytes: Some(1 << 20),
                enabled: Some(false),
            },
            Request::ModelStoreStats,
            Request::Shutdown,
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(r, back);
        }
    }

    #[test]
    fn configure_cache_fields_default_to_none() {
        let req: Request = serde_json::from_str(r#"{"ConfigureCache": {}}"#).unwrap();
        assert_eq!(
            req,
            Request::ConfigureCache {
                capacity_bytes: None,
                enabled: None,
            }
        );
        let req: Request =
            serde_json::from_str(r#"{"ConfigureCache": {"enabled": true}}"#).unwrap();
        assert_eq!(
            req,
            Request::ConfigureCache {
                capacity_bytes: None,
                enabled: Some(true),
            }
        );
    }

    #[test]
    fn train_config_trainer_fields_default_for_old_clients() {
        use whatif_core::model_backend::{ModelKind, TrainerTier};
        // A pre-binned-tier client omits `trainer` and `n_bins`: the
        // request parses with the exact tier at 256 bins, so existing
        // wire clients keep their bit-identical training behavior.
        let req: Request = serde_json::from_str(
            r#"{"Train": {"session": 1, "config": {
                "kind": "RandomForest", "n_trees": 10, "max_depth": 6,
                "seed": 0, "max_features": null, "n_threads": 2,
                "holdout_fraction": 0.2}}}"#,
        )
        .unwrap();
        let Request::Train {
            config: Some(config),
            ..
        } = req
        else {
            panic!("expected Train with config");
        };
        assert_eq!(config.trainer, TrainerTier::Exact);
        assert_eq!(config.n_bins, 256);
        // The new fields and the Gbdt family round-trip.
        let cfg = ModelConfig {
            kind: ModelKind::Gbdt,
            trainer: TrainerTier::Binned,
            n_bins: 64,
            ..ModelConfig::default()
        };
        let req = Request::Train {
            session: 2,
            config: Some(cfg),
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(
            json.contains("\"Binned\"") && json.contains("\"Gbdt\""),
            "{json}"
        );
        assert_eq!(req, serde_json::from_str::<Request>(&json).unwrap());
    }

    #[test]
    fn cache_stats_response_roundtrips() {
        let resp = Response::CacheStats(CacheStats {
            hits: 9,
            misses: 3,
            insertions: 3,
            evictions: 1,
            entries: 2,
            bytes: 208,
            capacity_bytes: 1 << 20,
            enabled: true,
            oversized_skips: 4,
        });
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(resp, serde_json::from_str::<Response>(&json).unwrap());
    }

    #[test]
    fn model_store_stats_response_roundtrips() {
        let resp = Response::ModelStoreStats(StoreStats {
            hits: 7,
            misses: 2,
            build_failures: 1,
            entries: 2,
            referenced: 1,
            bytes: 4096,
            capacity_bytes: 256 << 20,
            evictions: 0,
        });
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(resp, serde_json::from_str::<Response>(&json).unwrap());
    }

    #[test]
    fn trained_shared_marker_defaults_false_and_roundtrips() {
        // A pre-store writer omits `shared`: it parses as false.
        let legacy: Response = serde_json::from_str(
            r#"{"Trained": {"kind": "linear", "confidence": 0.9, "baseline_kpi": 1.5}}"#,
        )
        .unwrap();
        assert_eq!(
            legacy,
            Response::Trained {
                kind: "linear".into(),
                confidence: 0.9,
                baseline_kpi: 1.5,
                shared: false,
            }
        );
        // And the marker survives a roundtrip when set.
        let shared = Response::Trained {
            kind: "linear".into(),
            confidence: 0.9,
            baseline_kpi: 1.5,
            shared: true,
        };
        let json = serde_json::to_string(&shared).unwrap();
        assert!(json.contains("\"shared\":true"), "{json}");
        assert_eq!(shared, serde_json::from_str::<Response>(&json).unwrap());
    }

    #[test]
    fn reply_cached_marker_defaults_false_and_roundtrips() {
        // A v2 reply without the marker (older writer) parses as
        // uncached.
        let legacy: Reply =
            serde_json::from_str("{\"id\": 1, \"result\": \"SessionClosed\"}").unwrap();
        assert!(!legacy.cached);
        // The marker survives a roundtrip.
        let cached = Reply::ok(4, Response::SessionClosed).with_cached(true);
        let json = serde_json::to_string(&cached).unwrap();
        assert!(json.contains("\"cached\":true"), "{json}");
        assert_eq!(cached, serde_json::from_str::<Reply>(&json).unwrap());
    }

    #[test]
    fn response_json_roundtrip() {
        let resp = Response::KpiSelected {
            kpi: "Sales".into(),
            kind: "continuous".into(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(resp, serde_json::from_str::<Response>(&json).unwrap());
        assert!(Response::error("boom").is_error());
        assert!(!resp.is_error());

        let resp = Response::ScenariosEvaluated {
            outcomes: vec![ScenarioOutcome {
                name: "s".into(),
                perturbations: whatif_core::PerturbationSet::new(vec![Perturbation::absolute(
                    "Call", 2.0,
                )]),
                kpi: 0.5,
                baseline_kpi: 0.42,
            }],
            recorded_ids: vec![3],
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(resp, serde_json::from_str::<Response>(&json).unwrap());
    }

    #[test]
    fn evaluate_scenarios_record_defaults_to_false() {
        // A v2 client can omit `record` and `n_threads`.
        let json = r#"{"EvaluateScenarios": {"session": 4, "scenarios": []}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(
            req,
            Request::EvaluateScenarios {
                session: 4,
                scenarios: vec![],
                record: false,
                n_threads: None,
            }
        );
    }

    #[test]
    fn unknown_future_fields_are_tolerated() {
        // Snapshot of a hypothetical v4 reply line: extra envelope
        // fields must not break an older client. (`trace_id` used to be
        // the unknown-field fixture here; it is a real field now, so
        // the hypothetical future field is `span_id`.)
        let json =
            r#"{"id":7,"result":"ShuttingDown","cached":false,"server_epoch":123,"span_id":"abc"}"#;
        let reply: Reply = serde_json::from_str(json).unwrap();
        assert_eq!(reply.id, 7);
        assert_eq!(reply.result, Some(Response::ShuttingDown));
        assert!(!reply.cached);
        assert_eq!(reply.trace_id, None);

        // A tagged enum finds its variant even with unknown siblings.
        let json = r#"{"debug_hint":"added-in-v4","SessionClosed":null}"#;
        let resp: Response = serde_json::from_str(json).unwrap();
        assert_eq!(resp, Response::SessionClosed);

        // Unknown fields inside a variant's struct body are skipped.
        let json = r#"{"TableView": {"session": 3, "max_rows": 5, "page_token": "xyz"}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(
            req,
            Request::TableView {
                session: 3,
                max_rows: 5
            }
        );

        // A map with *no* known tag is still an unknown variant, not a
        // silent success.
        assert!(serde_json::from_str::<Response>(r#"{"NotARealVariant":1}"#).is_err());

        // Two known variant keys in one map are ambiguous — rejected,
        // not resolved by whichever key happens to iterate first.
        assert!(
            serde_json::from_str::<Request>(r#"{"Shutdown":null,"ListUseCases":null}"#).is_err()
        );
        // ...even when unknown siblings ride along.
        assert!(serde_json::from_str::<Response>(
            r#"{"debug_hint":"v4","SessionClosed":null,"ShuttingDown":null}"#
        )
        .is_err());
    }

    #[test]
    fn envelope_and_reply_roundtrip() {
        let env = Envelope::new(42, Request::ListUseCases);
        let json = serde_json::to_string(&env).unwrap();
        assert!(json.contains("\"id\":42"));
        assert!(json.contains("\"version\":3"));
        assert_eq!(env, serde_json::from_str::<Envelope>(&json).unwrap());

        // Version defaults to the current protocol version when absent.
        let bare: Envelope =
            serde_json::from_str("{\"id\": 3, \"body\": \"ListUseCases\"}").unwrap();
        assert_eq!(bare.version, PROTOCOL_VERSION);

        let ok = Reply::ok(1, Response::SessionClosed);
        let back: Reply = serde_json::from_str(&serde_json::to_string(&ok).unwrap()).unwrap();
        assert_eq!(ok, back);
        assert!(!back.is_error());
        assert_eq!(back.into_result().unwrap(), Response::SessionClosed);

        let fail = Reply::fail(2, ApiError::unknown_session(9));
        let back: Reply = serde_json::from_str(&serde_json::to_string(&fail).unwrap()).unwrap();
        assert!(back.is_error());
        assert_eq!(
            back.into_result().unwrap_err().code,
            ErrorCode::UnknownSession
        );
    }

    #[test]
    fn trace_id_roundtrips_when_present() {
        // Envelope side: the field parses and serializes verbatim.
        let env = Envelope::new(9, Request::ListUseCases).with_trace("ui-slider-17");
        let json = serde_json::to_string(&env).unwrap();
        assert!(json.contains("\"trace_id\":\"ui-slider-17\""), "{json}");
        assert_eq!(env, serde_json::from_str::<Envelope>(&json).unwrap());

        // Reply side: the echo survives a roundtrip.
        let reply = Reply::ok(9, Response::SessionClosed).with_trace(Some("ui-slider-17".into()));
        let json = serde_json::to_string(&reply).unwrap();
        assert!(json.contains("\"trace_id\":\"ui-slider-17\""), "{json}");
        assert_eq!(reply, serde_json::from_str::<Reply>(&json).unwrap());
    }

    #[test]
    fn trace_id_defaults_to_none_when_absent() {
        // A pre-trace client omits the field entirely.
        let env: Envelope = serde_json::from_str(r#"{"id":3,"body":"ListUseCases"}"#).unwrap();
        assert_eq!(env.trace_id, None);
        let reply: Reply = serde_json::from_str(r#"{"id":3,"result":"SessionClosed"}"#).unwrap();
        assert_eq!(reply.trace_id, None);
        // And an explicit null is the same as absent.
        let env: Envelope =
            serde_json::from_str(r#"{"id":3,"body":"ListUseCases","trace_id":null}"#).unwrap();
        assert_eq!(env.trace_id, None);
    }

    #[test]
    fn deadline_ms_defaults_to_none_for_old_clients() {
        // A pre-deadline client omits the field entirely: it must parse
        // and behave exactly as before — no deadline.
        let env: Envelope = serde_json::from_str(r#"{"id":3,"body":"ListUseCases"}"#).unwrap();
        assert_eq!(env.deadline_ms, None);
        // Explicit null is the same as absent.
        let env: Envelope =
            serde_json::from_str(r#"{"id":3,"body":"ListUseCases","deadline_ms":null}"#).unwrap();
        assert_eq!(env.deadline_ms, None);
        // And a deadline-carrying envelope round-trips.
        let env = Envelope::new(4, Request::ListUseCases).with_deadline_ms(750);
        let json = serde_json::to_string(&env).unwrap();
        assert!(json.contains("\"deadline_ms\":750"), "{json}");
        assert_eq!(env, serde_json::from_str::<Envelope>(&json).unwrap());
    }

    #[test]
    fn metrics_requests_and_responses_roundtrip() {
        for req in [Request::MetricsSnapshot, Request::MetricsPrometheus] {
            let json = serde_json::to_string(&req).unwrap();
            assert_eq!(req, serde_json::from_str::<Request>(&json).unwrap());
        }
        let resp = Response::Metrics(MetricsSnapshot {
            counters: vec![whatif_obs::CounterValue {
                name: "requests_total".into(),
                value: 12,
            }],
            gauges: vec![whatif_obs::GaugeValue {
                name: "sessions_open".into(),
                value: 1,
            }],
            histograms: vec![],
        });
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(resp, serde_json::from_str::<Response>(&json).unwrap());
        let text = Response::MetricsText("whatif_requests_total 12\n".into());
        let json = serde_json::to_string(&text).unwrap();
        assert_eq!(text, serde_json::from_str::<Response>(&json).unwrap());
    }

    #[test]
    fn request_kind_slots_are_contiguous_with_unique_labels() {
        for (i, kind) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "slot mismatch for {kind:?}");
        }
        let mut labels: Vec<&str> = RequestKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RequestKind::COUNT, "labels must be unique");
        // Spot-check the Request → kind mapping.
        assert_eq!(Request::ListUseCases.kind(), RequestKind::ListUseCases);
        assert_eq!(Request::Batch(vec![]).kind(), RequestKind::Batch);
        assert_eq!(
            Request::MetricsSnapshot.kind(),
            RequestKind::MetricsSnapshot
        );
        assert_eq!(
            Request::CloseSession { session: 1 }.kind(),
            RequestKind::CloseSession
        );
    }

    #[test]
    fn batch_request_roundtrips() {
        let req = Request::Batch(vec![
            Request::ListUseCases,
            Request::SelectKpi {
                session: CURRENT_SESSION,
                kpi: "Sales".into(),
            },
        ]);
        let json = serde_json::to_string(&req).unwrap();
        assert_eq!(req, serde_json::from_str::<Request>(&json).unwrap());
        let resp = Response::Batch(vec![
            Reply::ok(1, Response::SessionClosed),
            Reply::fail(1, ApiError::not_trained()),
        ]);
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(resp, serde_json::from_str::<Response>(&json).unwrap());
    }

    #[test]
    fn error_responses_keep_a_message_field_for_v1_readers() {
        // v1 clients read `message` out of `{"Error": {...}}`; the v2
        // ApiError payload is a superset of the legacy shape.
        let json = serde_json::to_string(&Response::error("boom")).unwrap();
        assert!(json.contains("\"Error\""), "{json}");
        assert!(json.contains("\"message\":\"boom\""), "{json}");
        assert!(json.contains("\"code\""), "{json}");
    }

    #[test]
    fn every_error_code_has_a_stable_wire_form() {
        // Snapshot of the serialized form of each code: renaming a
        // variant is a wire-protocol break and must fail review.
        let expected = [
            (ErrorCode::BadRequest, "\"BadRequest\""),
            (ErrorCode::UnknownSession, "\"UnknownSession\""),
            (ErrorCode::NoKpi, "\"NoKpi\""),
            (ErrorCode::NotTrained, "\"NotTrained\""),
            (ErrorCode::Config, "\"Config\""),
            (ErrorCode::Data, "\"Data\""),
            (ErrorCode::Model, "\"Model\""),
            (ErrorCode::Optim, "\"Optim\""),
            (ErrorCode::Spec, "\"Spec\""),
            (ErrorCode::Internal, "\"Internal\""),
            (ErrorCode::DeadlineExceeded, "\"DeadlineExceeded\""),
            (ErrorCode::Overloaded, "\"Overloaded\""),
        ];
        assert_eq!(
            expected.len(),
            ErrorCode::all().len(),
            "snapshot covers every code"
        );
        for (code, wire) in expected {
            assert_eq!(serde_json::to_string(&code).unwrap(), wire);
            assert_eq!(serde_json::from_str::<ErrorCode>(wire).unwrap(), code);
        }
    }

    #[test]
    fn hostile_nesting_is_a_decode_error_not_a_stack_overflow() {
        const LEVELS: usize = 100_000;
        let half = 1 << 19;
        let hostile = [
            "[".repeat(1 << 20),
            format!(
                "{}\"ListUseCases\"{}",
                "{\"Batch\":[".repeat(LEVELS),
                "]}".repeat(LEVELS)
            ),
            format!(
                "{{\"id\":3,\"body\":\"ListUseCases\",\"pad\":{}{}}}",
                "[".repeat(half),
                "]".repeat(half)
            ),
        ];
        for doc in &hostile {
            assert!(serde_json::from_str::<Request>(doc).is_err());
            assert!(serde_json::from_str::<Envelope>(doc).is_err());
            assert!(serde_json::from_str::<serde::Value>(doc).is_err());
        }
        // Just inside the bound, a batch still decodes.
        let levels = serde::MAX_DEPTH / 2;
        let deepest = format!(
            "{}\"ListUseCases\"{}",
            "{\"Batch\":[".repeat(levels),
            "]}".repeat(levels)
        );
        assert!(serde_json::from_str::<Request>(&deepest).is_ok());
    }

    #[test]
    fn api_error_display_and_conversion() {
        let e = ApiError::new(ErrorCode::NoKpi, "pick a KPI");
        assert_eq!(e.to_string(), "[no_kpi] pick a KPI");
        let e: ApiError = CoreError::NoKpi.into();
        assert_eq!(e.code, ErrorCode::NoKpi);
        let e: ApiError = CoreError::Config("bad".into()).into();
        assert_eq!(e.code, ErrorCode::Config);
        assert!(e.message.contains("bad"));
    }
}
