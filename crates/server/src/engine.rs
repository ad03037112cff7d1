//! The transport-agnostic dispatch facade.
//!
//! [`Engine`] owns the sharded session registry and executes
//! [`Request`]s into [`Response`]s with typed [`ApiError`] failures.
//! Every request runs through one crate-private `Engine::execute`,
//! whichever way it arrives:
//!
//! * v1/v2 JSON lines from the TCP layer (`crate::tcp`) via
//!   [`Engine::dispatch_line`],
//! * v3 frames (`crate::v3`), which call `execute` directly with the
//!   frame's id and deadline,
//! * in-process callers and tests via [`Engine::handle`] /
//!   [`Engine::handle_envelope`].
//!
//! `execute` times and counts the request under its kind, runs a batch
//! step by step, and puts every other request behind one guard —
//! deadline check, heavy-request admission, the `engine.dispatch` fault
//! point, panic isolation — around a single `match` over [`Request`].
//!
//! Analysis variants delegate to
//! [`whatif_core::spec::AnalysisSpec::execute`], so the declarative
//! spec path and the interactive protocol run the exact same code.

use crate::obs::EngineObs;
use crate::protocol::{
    ApiError, ColumnInfo, Envelope, Reply, Request, RequestKind, Response, UseCase,
    CURRENT_SESSION, PROTOCOL_VERSION,
};
use crate::registry::Registry;
use std::sync::atomic::{AtomicUsize, Ordering};
use whatif_core::cached::EvalCache;
use whatif_core::kpi::KpiKind;
use whatif_core::model_backend::SharedModel;
use whatif_core::scenario::ScenarioLedger;
use whatif_core::session::Session;
use whatif_core::spec::AnalysisSpec;
use whatif_core::store::ModelStore;
use whatif_core::{ErrorCode, ModelKind, SpecOutcome};
use whatif_datagen::{deal_closing, marketing_mix, retention};
use whatif_frame::Frame;
use whatif_obs::span::{self, Stage};
use whatif_obs::{clock, MetricsSnapshot};

/// Default cap on concurrently executing heavy requests (analyses,
/// scenario grids, training). Generous on purpose: admission control
/// exists to shed pathological floods, not to throttle normal
/// concurrency.
pub const DEFAULT_MAX_INFLIGHT: usize = 256;

/// A per-request execution deadline, measured on the obs fast clock
/// (the repo's only permitted time source) from the moment the
/// transport hands the request over: envelope dispatch for v2, frame
/// decode for v3.
///
/// A zero budget is an already-expired deadline; [`Deadline::expired`]
/// is true from the first check.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: clock::Ticks,
    budget_ms: u64,
}

impl Deadline {
    /// A deadline whose budget starts counting now.
    #[must_use]
    pub fn starting_now(budget_ms: u64) -> Deadline {
        Deadline {
            start: clock::now(),
            budget_ms,
        }
    }

    /// True once the budget has elapsed.
    #[must_use]
    pub fn expired(&self) -> bool {
        clock::elapsed_us(self.start) / 1_000 >= self.budget_ms
    }

    /// The budget this deadline was created with.
    #[must_use]
    pub fn budget_ms(&self) -> u64 {
        self.budget_ms
    }
}

/// What a transport supplies with one request: the correlation id every
/// reply echoes (batch steps included) and the optional deadline, which
/// covers a whole batch.
pub(crate) struct RequestCtx {
    pub(crate) id: u64,
    pub(crate) deadline: Option<Deadline>,
}

/// The request kinds admission control guards: the ones that can hold a
/// thread for a model-sized amount of work. Cheap metadata requests
/// (stats, metrics, session bookkeeping) always pass, so an operator
/// can still inspect an overloaded server.
fn is_heavy(kind: RequestKind) -> bool {
    matches!(
        kind,
        RequestKind::Train
            | RequestKind::DriverImportanceView
            | RequestKind::SensitivityView
            | RequestKind::ComparisonView
            | RequestKind::PerDataView
            | RequestKind::GoalInversionView
            | RequestKind::EvaluateScenarios
    )
}

/// RAII in-flight slot from [`Engine::admit`]; releases on drop.
struct InflightPermit<'a> {
    engine: &'a Engine,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.engine.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Per-session backend state. The model is a [`SharedModel`]
/// (`Arc<TrainedModel>`): analyses clone the handle and release the
/// session lock *before* computing, so the lock guards only this
/// struct's fields, never an evaluation.
struct SessionEntry {
    session: Session,
    model: Option<SharedModel>,
    ledger: ScenarioLedger,
    /// The last sensitivity / goal outcome, recordable as a scenario.
    last_outcome: Option<LastOutcome>,
}

enum LastOutcome {
    Sensitivity(whatif_core::SensitivityResult),
    Goal(whatif_core::GoalInversionResult),
}

/// The concurrent dispatch facade: sessions, trained models, scenario
/// ledgers, batch execution, wire-version negotiation, the
/// process-wide result cache, and the process-wide model store.
///
/// Both shared layers key by content, so they dedup across *all*
/// sessions: the model store trains one model per distinct training
/// request (N sessions over the same CSV + config share one `Arc`),
/// and the result cache answers one computation per distinct
/// *(model, question)* pair. Retraining, `LoadCsv`, or `CloseSession`
/// need no flush in either: changed inputs change the fingerprint, so
/// stale entries can never be served again and simply age out of the
/// byte budgets (invalidation by fingerprint epoch).
///
/// Dispatch is lock-free for analyses: an analysis clones the
/// session's `Arc<TrainedModel>` and releases the session lock before
/// computing, so any number of concurrent read-only analyses on the
/// *same* session proceed in parallel. Only `Train`, `LoadCsv`/
/// `LoadUseCase`, KPI/driver selection, and ledger writes touch the
/// session under its lock — and those are short.
pub struct Engine {
    sessions: Registry<SessionEntry>,
    cache: EvalCache,
    models: ModelStore,
    obs: EngineObs,
    /// Heavy requests currently executing (admission control).
    inflight: AtomicUsize,
    /// Cap on `inflight`; excess requests are shed with
    /// [`ErrorCode::Overloaded`]. 0 sheds every heavy request.
    max_inflight: AtomicUsize,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::with_cache_and_store(EvalCache::default(), ModelStore::default())
    }
}

impl Engine {
    /// Fresh engine with no sessions and default-capacity cache/store.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Fresh engine evaluating through the given (possibly shared)
    /// result cache.
    pub fn with_cache(cache: EvalCache) -> Engine {
        Engine::with_cache_and_store(cache, ModelStore::default())
    }

    /// Fresh engine over the given (possibly shared) result cache and
    /// trained-model store.
    pub fn with_cache_and_store(cache: EvalCache, models: ModelStore) -> Engine {
        let obs = EngineObs::new();
        obs.register_cache_sources(cache.clone(), models.clone());
        obs.register_chaos_source();
        Engine {
            sessions: Registry::new(),
            cache,
            models,
            obs,
            inflight: AtomicUsize::new(0),
            max_inflight: AtomicUsize::new(DEFAULT_MAX_INFLIGHT),
        }
    }

    /// Cap the number of concurrently executing heavy requests; excess
    /// requests are shed with [`ErrorCode::Overloaded`] instead of
    /// queueing. 0 sheds every heavy request (useful in tests and as an
    /// emergency brake).
    pub fn set_max_inflight(&self, max: usize) {
        self.max_inflight.store(max, Ordering::Relaxed);
    }

    /// Heavy requests currently executing.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// The process-wide result cache handle.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The process-wide trained-model store handle.
    pub fn model_store(&self) -> &ModelStore {
        &self.models
    }

    /// This engine's observability instruments (metrics + spans).
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// One point-in-time snapshot of every process metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Execute one request.
    ///
    /// A [`Request::Batch`] body runs its steps with correlation id 0;
    /// use [`Engine::handle_envelope`] to correlate batches explicitly.
    ///
    /// # Errors
    /// A typed [`ApiError`]; the transport decides how to frame it.
    pub fn handle(&self, request: Request) -> Result<Response, ApiError> {
        let ctx = RequestCtx {
            id: 0,
            deadline: None,
        };
        self.execute(&ctx, request).map(|(response, _)| response)
    }

    /// Execute one v2 envelope, echoing its id on the reply. Analysis
    /// replies carry the [`Reply::cached`] marker when they were served
    /// entirely from the result cache; the envelope's `trace_id` is
    /// echoed verbatim on every reply, including failures.
    pub fn handle_envelope(&self, envelope: Envelope) -> Reply {
        let Envelope {
            id,
            version,
            body,
            trace_id,
            deadline_ms,
        } = envelope;
        if let Some(trace) = trace_id.as_deref() {
            span::set_trace(trace);
        }
        let ctx = RequestCtx {
            id,
            deadline: deadline_ms.map(Deadline::starting_now),
        };
        let reply = if version == 0 || version > PROTOCOL_VERSION {
            self.obs.record_error(ErrorCode::BadRequest);
            Reply::fail(
                id,
                ApiError::bad_request(format!(
                    "unsupported protocol version {version} (this server speaks 1..={PROTOCOL_VERSION})"
                )),
            )
        } else {
            match self.execute(&ctx, body) {
                Ok((response, cached)) => Reply::ok(id, response).with_cached(cached),
                Err(error) => Reply::fail(id, error),
            }
        };
        reply.with_trace(trace_id)
    }

    /// Dispatch one wire line, auto-detecting the framing: an object
    /// with `id` and `body` keys is a v2 [`Envelope`] (answered by a
    /// [`Reply`]), anything else is a legacy v1 [`Request`] (answered by
    /// a bare [`Response`]). Returns the serialized reply line plus
    /// whether the line asked the server to shut down.
    pub fn dispatch_line(&self, line: &str) -> (String, bool) {
        // One span per line; inert when a v3 frame handler already owns
        // the thread's span.
        let _span = self.obs.begin_request();

        /// Outcome of decoding one wire line, classified under a single
        /// `Decode` stage guard.
        enum Line {
            Envelope(Envelope),
            Plain(Request),
            /// Unparseable line or undecodable v1 request body.
            Malformed(String),
            /// Envelope-shaped but undecodable; the salvaged `id` lets
            /// the client correlate the failure.
            BadEnvelope {
                id: u64,
                message: String,
            },
        }

        let decoded = {
            let _decode = span::stage(Stage::Decode);
            match serde_json::parse(line) {
                Err(e) => Line::Malformed(format!("malformed request: {e}")),
                Ok(parsed) => {
                    let is_envelope = parsed.as_object().is_some_and(|o| {
                        serde::find_field(o, "id").is_some()
                            && serde::find_field(o, "body").is_some()
                    });
                    if is_envelope {
                        match serde_json::from_value::<Envelope>(&parsed) {
                            Ok(envelope) => Line::Envelope(envelope),
                            Err(e) => Line::BadEnvelope {
                                id: parsed
                                    .as_object()
                                    .and_then(|o| serde::find_field(o, "id"))
                                    .and_then(|v| v.as_u64())
                                    .unwrap_or(0),
                                message: format!("malformed envelope: {e}"),
                            },
                        }
                    } else {
                        match serde_json::from_value::<Request>(&parsed) {
                            Ok(request) => Line::Plain(request),
                            Err(e) => Line::Malformed(format!("malformed request: {e}")),
                        }
                    }
                }
            }
        };

        match decoded {
            Line::Envelope(envelope) => {
                let reply = self.handle_envelope(envelope);
                let shutdown = reply.result.as_ref().is_some_and(acknowledged_shutdown);
                (encode(&reply), shutdown)
            }
            Line::Plain(request) => {
                let response = self.handle(request).unwrap_or_else(Response::Error);
                let shutdown = acknowledged_shutdown(&response);
                (encode(&response), shutdown)
            }
            Line::Malformed(message) => {
                self.obs.record_error(ErrorCode::BadRequest);
                let response = Response::Error(ApiError::bad_request(message));
                (encode(&response), false)
            }
            Line::BadEnvelope { id, message } => {
                self.obs.record_error(ErrorCode::BadRequest);
                let reply = Reply::fail(id, ApiError::bad_request(message));
                (encode(&reply), false)
            }
        }
    }

    /// The one execution path: every transport and in-process entry
    /// point ends here. Each request — a batch as a whole, and each of
    /// its steps — claims the open span's kind (first writer wins, so
    /// slow batches log as batches) and lands one observation in its
    /// kind's latency histogram, together with its error code on
    /// failure. A batch runs step by step; every other request runs
    /// behind [`Engine::run_guarded`].
    pub(crate) fn execute(
        &self,
        ctx: &RequestCtx,
        request: Request,
    ) -> Result<(Response, bool), ApiError> {
        let kind = request.kind();
        span::set_kind(kind as u16);
        let started = self.obs.start_timer();
        let result = match request {
            Request::Batch(steps) => Ok((Response::Batch(self.run_batch(ctx, steps)), false)),
            request => self.run_guarded(ctx, request),
        };
        self.obs
            .record_request(kind, started, result.as_ref().err().map(|e| e.code));
        result
    }

    /// Run batch steps in order, stopping at the first failure. Every
    /// reply echoes the batch's correlation id. The batch's deadline
    /// covers all of its steps: a step that starts after expiry fails
    /// with [`ErrorCode::DeadlineExceeded`] and ends the batch, whose
    /// own reply still succeeds with the steps answered so far.
    fn run_batch(&self, ctx: &RequestCtx, steps: Vec<Request>) -> Vec<Reply> {
        let mut replies = Vec::with_capacity(steps.len());
        let mut last_session: Option<u64> = None;
        for mut step in steps {
            if matches!(step, Request::Batch(_)) {
                self.obs.record_error(ErrorCode::BadRequest);
                replies.push(Reply::fail(
                    ctx.id,
                    ApiError::bad_request("batches do not nest"),
                ));
                break;
            }
            if let Err(error) = resolve_current_session(&mut step, last_session) {
                self.obs.record_error(error.code);
                replies.push(Reply::fail(ctx.id, error));
                break;
            }
            match self.execute(ctx, step) {
                Ok((response, cached)) => {
                    if let Response::SessionCreated { session, .. } = &response {
                        last_session = Some(*session);
                    }
                    replies.push(Reply::ok(ctx.id, response).with_cached(cached));
                }
                Err(error) => {
                    replies.push(Reply::fail(ctx.id, error));
                    break;
                }
            }
        }
        replies
    }

    /// The robustness boundary around [`Engine::run`]: deadline check
    /// (expired → [`ErrorCode::DeadlineExceeded`] before any work or
    /// admission accounting), admission control for heavy kinds, the
    /// `engine.dispatch` fault point, and panic isolation. A panicking
    /// analysis becomes a typed [`ErrorCode::Internal`] reply (plus
    /// `panics_total`) instead of unwinding into — and killing — the
    /// connection thread; session locks absorb poisoning (`lockcheck`
    /// locks recover the guard), so the engine stays serviceable
    /// afterwards.
    fn run_guarded(
        &self,
        ctx: &RequestCtx,
        request: Request,
    ) -> Result<(Response, bool), ApiError> {
        if let Some(deadline) = ctx.deadline.filter(Deadline::expired) {
            self.obs.deadline_exceeded_total.inc();
            return Err(ApiError::deadline_exceeded(deadline.budget_ms()));
        }
        let _permit = if is_heavy(request.kind()) {
            Some(self.admit()?)
        } else {
            None
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The chaos consult sits inside the panic guard so an armed
            // `Policy::panic()` exercises the same isolation path as a
            // genuinely panicking analysis.
            if whatif_chaos::fails("engine.dispatch") {
                return Err(ApiError::new(
                    ErrorCode::Internal,
                    "chaos: injected fault at engine.dispatch",
                ));
            }
            self.run(request)
        }))
        .unwrap_or_else(|payload| {
            self.obs.panics_total.inc();
            let what = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(ApiError::new(
                ErrorCode::Internal,
                format!("request panicked: {what}"),
            ))
        })
    }

    /// Reserve an in-flight slot for a heavy request, or shed with
    /// [`ErrorCode::Overloaded`] when the server is at capacity. The
    /// permit releases the slot on drop (including across the
    /// `catch_unwind` boundary).
    fn admit(&self) -> Result<InflightPermit<'_>, ApiError> {
        let max = self.max_inflight.load(Ordering::Relaxed);
        let previous = self.inflight.fetch_add(1, Ordering::AcqRel);
        if previous >= max {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.obs.shed_total.inc();
            return Err(ApiError::overloaded(format!(
                "server at capacity ({max} heavy requests in flight); retry with backoff"
            )));
        }
        Ok(InflightPermit { engine: self })
    }

    /// Answer one request, reporting whether an analysis response was
    /// served entirely from the result cache. Analyses return their own
    /// cache flag; every other response is never cache-served.
    fn run(&self, request: Request) -> Result<(Response, bool), ApiError> {
        let response = match request {
            Request::DriverImportanceView { session, verify } => {
                return self.run_analysis(session, AnalysisSpec::DriverImportance { verify })
            }
            Request::SensitivityView {
                session,
                perturbations,
            } => {
                return self.run_analysis(
                    session,
                    AnalysisSpec::Sensitivity {
                        perturbations,
                        clamp_non_negative: true,
                    },
                )
            }
            Request::ComparisonView {
                session,
                percentages,
            } => return self.run_analysis(session, AnalysisSpec::Comparison { percentages }),
            Request::PerDataView {
                session,
                row,
                perturbations,
            } => return self.run_analysis(session, AnalysisSpec::PerData { row, perturbations }),
            Request::GoalInversionView {
                session,
                goal,
                constraints,
                optimizer,
                seed,
            } => {
                return self.run_analysis(
                    session,
                    AnalysisSpec::GoalInversion {
                        goal,
                        constraints,
                        optimizer: optimizer.unwrap_or_default(),
                        seed,
                    },
                )
            }
            Request::EvaluateScenarios {
                session,
                scenarios,
                record,
                n_threads,
            } => {
                let analysis = AnalysisSpec::Scenarios {
                    scenarios,
                    n_threads: n_threads
                        .unwrap_or(whatif_core::bulk::DEFAULT_SCENARIO_THREADS)
                        .max(1),
                };
                let (mut response, cached) = self.run_analysis(session, analysis)?;
                if let Response::ScenariosEvaluated {
                    outcomes,
                    recorded_ids,
                } = &mut response
                {
                    if record {
                        // Re-lock only to write the ledger; the session
                        // may have been closed while we computed, which
                        // is the one race a recording request must
                        // surface.
                        *recorded_ids = self.with_session(session, |entry| {
                            Ok(entry.ledger.record_outcomes(outcomes))
                        })?;
                    }
                }
                return Ok((response, cached));
            }
            Request::CacheStats => Response::CacheStats(self.cache.stats()),
            Request::ModelStoreStats => Response::ModelStoreStats(self.models.stats()),
            Request::MetricsSnapshot => Response::Metrics(self.obs.snapshot()),
            Request::MetricsPrometheus => Response::MetricsText(self.obs.prometheus()),
            Request::ConfigureCache {
                capacity_bytes,
                enabled,
            } => {
                self.cache
                    .configure(capacity_bytes.map(|b| b as usize), enabled);
                Response::CacheStats(self.cache.stats())
            }
            Request::ListUseCases => Response::UseCases(
                UseCase::all()
                    .into_iter()
                    .map(|u| (u, u.label().to_owned()))
                    .collect(),
            ),
            Request::LoadUseCase {
                use_case,
                n_rows,
                seed,
            } => {
                let seed = seed.unwrap_or(7);
                let (frame, kpi) = match use_case {
                    UseCase::MarketingMix => {
                        let d = marketing_mix(n_rows.unwrap_or(180), seed);
                        (d.frame, d.kpi)
                    }
                    UseCase::CustomerRetention => {
                        let d = retention(n_rows.unwrap_or(1200), seed);
                        (d.frame, d.kpi)
                    }
                    UseCase::DealClosing => {
                        let d = deal_closing(n_rows.unwrap_or(1480), seed);
                        (d.frame, d.kpi)
                    }
                };
                self.create_session(frame, Some(kpi))
            }
            Request::LoadCsv { csv } => {
                let frame = whatif_frame::csv::parse_csv(&csv)
                    .map_err(|e| ApiError::new(ErrorCode::Data, e.to_string()))?;
                self.create_session(frame, None)
            }
            Request::TableView { session, max_rows } => self.with_session(session, |entry| {
                let frame = entry.session.frame();
                let shown = frame.n_rows().min(max_rows);
                let rows: Vec<Vec<whatif_frame::Value>> = (0..shown)
                    .map(|i| {
                        frame
                            .columns()
                            .iter()
                            .map(|c| {
                                c.get(i).map_err(|e| {
                                    ApiError::new(
                                        ErrorCode::Internal,
                                        format!("row {i} unreadable: {e}"),
                                    )
                                })
                            })
                            .collect()
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Response::Table {
                    columns: frame
                        .column_names()
                        .iter()
                        .map(|s| (*s).to_owned())
                        .collect(),
                    rows,
                    total_rows: frame.n_rows(),
                })
            })?,
            Request::SelectKpi { session, kpi } => self.with_session(session, |entry| {
                let s = entry.session.clone().with_kpi(&kpi)?;
                let kind = match s.kpi_kind()? {
                    KpiKind::Continuous => "continuous",
                    KpiKind::Binary => "binary",
                };
                entry.session = s;
                entry.model = None; // stale
                Ok(Response::KpiSelected {
                    kpi,
                    kind: kind.to_owned(),
                })
            })?,
            Request::SelectDrivers { session, drivers } => self.with_session(session, |entry| {
                if let Some(drivers) = drivers {
                    let refs: Vec<&str> = drivers.iter().map(String::as_str).collect();
                    entry.session = entry.session.clone().with_drivers(&refs)?;
                    entry.model = None;
                }
                Ok(Response::Drivers {
                    selected: entry.session.drivers().to_vec(),
                })
            })?,
            Request::Train { session, config } => self.with_session(session, |entry| {
                let config = config.unwrap_or_default();
                // Train-once dedup: an identical training request
                // already served process-wide shares its model without
                // training (and two concurrent identical Trains block
                // on the store's per-key slot, not on each other's
                // sessions — the second shares the first's result).
                let (model, shared) = self.models.train_or_share(&entry.session, &config)?;
                let kind = match model.kind() {
                    ModelKind::Linear => "linear",
                    ModelKind::Logistic => "logistic",
                    ModelKind::RandomForest => "random_forest",
                    ModelKind::Gbdt => "gbdt",
                    ModelKind::Auto => "auto",
                };
                let response = Response::Trained {
                    kind: kind.to_owned(),
                    confidence: model.confidence(),
                    baseline_kpi: model.baseline_kpi(),
                    shared,
                };
                entry.model = Some(model);
                Ok(response)
            })?,
            Request::RecordScenario { session, name } => {
                self.with_session(session, |entry| match &entry.last_outcome {
                    Some(LastOutcome::Sensitivity(r)) => Ok(Response::ScenarioRecorded {
                        id: entry.ledger.record_sensitivity(name, r),
                    }),
                    Some(LastOutcome::Goal(r)) => Ok(Response::ScenarioRecorded {
                        id: entry.ledger.record_goal_inversion(name, r),
                    }),
                    None => Err(ApiError::new(
                        ErrorCode::BadRequest,
                        "no sensitivity or goal-inversion outcome to record yet",
                    )),
                })?
            }
            Request::ListScenarios { session } => self.with_session(session, |entry| {
                Ok(Response::Scenarios(
                    entry
                        .ledger
                        .ranked_by_uplift()
                        .into_iter()
                        .cloned()
                        .collect(),
                ))
            })?,
            Request::CloseSession { session } => {
                if !self.sessions.remove(session) {
                    return Err(ApiError::unknown_session(session));
                }
                self.obs.sessions_open.dec();
                Response::SessionClosed
            }
            Request::Shutdown => Response::ShuttingDown,
            // `execute` runs batches itself; one reaching here is nested.
            Request::Batch(_) => return Err(ApiError::bad_request("batches do not nest")),
        };
        Ok((response, false))
    }

    /// Execute an analysis spec against a session's trained model
    /// through the process-wide result cache, recording
    /// sensitivity/goal outcomes for `RecordScenario`. The returned
    /// flag is true when the analysis was served entirely from cache.
    ///
    /// Lock-free: the session lock is held only long enough to clone
    /// the model `Arc` (and again, briefly, to record the outcome), so
    /// concurrent analyses on one session overlap instead of
    /// serializing. A session retrained mid-analysis answers from the
    /// model that was current when the analysis started; `last_outcome`
    /// is last-writer-wins, exactly as with serialized dispatch.
    fn run_analysis(
        &self,
        session: u64,
        analysis: AnalysisSpec,
    ) -> Result<(Response, bool), ApiError> {
        let model = self.shared_model(session)?;
        let (outcome, cached) = analysis.execute_cached(&model, &self.cache)?;
        let last = match &outcome {
            SpecOutcome::Sensitivity(r) => Some(LastOutcome::Sensitivity(r.clone())),
            SpecOutcome::GoalInversion(r) => Some(LastOutcome::Goal(r.clone())),
            _ => None,
        };
        if let Some(last) = last {
            // Best-effort: a session closed while we computed still
            // gets its answer; there is just nothing left to record on.
            let _ = self
                .sessions
                .with(session, |entry| entry.last_outcome = Some(last));
        }
        Ok((Response::from(outcome), cached))
    }

    /// Clone the session's shared model handle under its lock (the
    /// *only* thing analyses do under the lock).
    fn shared_model(&self, session: u64) -> Result<SharedModel, ApiError> {
        self.with_session(session, |entry| {
            entry.model.clone().ok_or_else(ApiError::not_trained)
        })
    }

    fn create_session(&self, frame: Frame, suggested_kpi: Option<String>) -> Response {
        let columns: Vec<ColumnInfo> = frame
            .columns()
            .iter()
            .map(|c| ColumnInfo {
                name: c.name().to_owned(),
                dtype: c.dtype().name().to_owned(),
                null_count: c.null_count(),
            })
            .collect();
        let n_rows = frame.n_rows();
        let session = Session::new(frame);
        let id = self.sessions.insert(SessionEntry {
            session,
            model: None,
            ledger: ScenarioLedger::new(),
            last_outcome: None,
        });
        self.obs.sessions_total.inc();
        self.obs.sessions_open.inc();
        Response::SessionCreated {
            session: id,
            n_rows,
            columns,
            suggested_kpi,
        }
    }

    /// Run `f` under the session's own lock, mapping a missing id to
    /// [`ErrorCode::UnknownSession`].
    fn with_session<R, F>(&self, id: u64, f: F) -> Result<R, ApiError>
    where
        F: FnOnce(&mut SessionEntry) -> Result<R, ApiError>,
    {
        let _stage = span::stage(Stage::SessionLookup);
        self.sessions
            .with(id, f)
            .unwrap_or_else(|| Err(ApiError::unknown_session(id)))
    }
}

fn encode<T: serde::Serialize>(value: &T) -> String {
    let _stage = span::stage(Stage::Encode);
    serde_json::to_string(value).unwrap_or_else(|e| {
        format!("{{\"Error\":{{\"code\":\"Internal\",\"message\":\"encode: {e}\"}}}}")
    })
}

/// Whether this response acknowledges a shutdown the engine actually
/// executed. Derived from the outcome, not the request, so a rejected
/// envelope (bad version) or a batch that failed before its `Shutdown`
/// step never stops the transport.
fn acknowledged_shutdown(response: &Response) -> bool {
    match response {
        Response::ShuttingDown => true,
        Response::Batch(replies) => replies
            .iter()
            .any(|r| r.result.as_ref().is_some_and(acknowledged_shutdown)),
        _ => false,
    }
}

/// Substitute the in-batch [`CURRENT_SESSION`] sentinel.
fn resolve_current_session(
    request: &mut Request,
    last_session: Option<u64>,
) -> Result<(), ApiError> {
    let slot = match request {
        Request::TableView { session, .. }
        | Request::SelectKpi { session, .. }
        | Request::SelectDrivers { session, .. }
        | Request::Train { session, .. }
        | Request::DriverImportanceView { session, .. }
        | Request::SensitivityView { session, .. }
        | Request::ComparisonView { session, .. }
        | Request::PerDataView { session, .. }
        | Request::GoalInversionView { session, .. }
        | Request::EvaluateScenarios { session, .. }
        | Request::RecordScenario { session, .. }
        | Request::ListScenarios { session }
        | Request::CloseSession { session } => session,
        _ => return Ok(()),
    };
    if *slot == CURRENT_SESSION {
        *slot = last_session.ok_or_else(|| {
            ApiError::bad_request(
                "CURRENT_SESSION used before any load step created a session in this batch",
            )
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatif_core::model_backend::ModelConfig;
    use whatif_core::perturbation::Perturbation;

    fn fast_config() -> ModelConfig {
        ModelConfig {
            n_trees: 12,
            max_depth: 8,
            ..ModelConfig::default()
        }
    }

    fn load(engine: &Engine, n_rows: usize) -> u64 {
        match engine
            .handle(Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(n_rows),
                seed: Some(3),
            })
            .unwrap()
        {
            Response::SessionCreated { session, .. } => session,
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn typed_errors_carry_codes() {
        let engine = Engine::new();
        let err = engine
            .handle(Request::TableView {
                session: 99,
                max_rows: 1,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownSession);

        let id = load(&engine, 220);
        let err = engine
            .handle(Request::DriverImportanceView {
                session: id,
                verify: false,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotTrained);

        let err = engine
            .handle(Request::Train {
                session: id,
                config: None,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NoKpi);

        let err = engine
            .handle(Request::SelectKpi {
                session: id,
                kpi: "Account Name".into(),
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Config);

        let err = engine
            .handle(Request::LoadCsv { csv: String::new() })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Data);

        let err = engine
            .handle(Request::RecordScenario {
                session: id,
                name: "x".into(),
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);

        // Re-selecting the KPI or the drivers drops the trained model.
        let trained = load_and_train(&engine, 220, 3);
        for reselect in [
            Request::SelectKpi {
                session: trained,
                kpi: "Deal Closed?".into(),
            },
            Request::SelectDrivers {
                session: trained,
                drivers: Some(vec!["Call".into(), "Chat".into()]),
            },
        ] {
            train_reply(&engine, trained);
            engine.handle(reselect).unwrap();
            let err = engine
                .handle(Request::DriverImportanceView {
                    session: trained,
                    verify: false,
                })
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::NotTrained);
        }
    }

    #[test]
    fn batch_drives_full_pipeline_with_current_session() {
        let engine = Engine::new();
        let steps = vec![
            Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(220),
                seed: Some(3),
            },
            Request::SelectKpi {
                session: CURRENT_SESSION,
                kpi: "Deal Closed?".into(),
            },
            Request::Train {
                session: CURRENT_SESSION,
                config: Some(fast_config()),
            },
            Request::SensitivityView {
                session: CURRENT_SESSION,
                perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
            },
        ];
        let reply = engine.handle_envelope(Envelope::new(7, Request::Batch(steps)));
        assert_eq!(reply.id, 7);
        let Response::Batch(replies) = reply.into_result().unwrap() else {
            panic!("expected batch response");
        };
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|r| r.id == 7), "per-step ids match");
        assert!(replies.iter().all(|r| !r.is_error()));
        let Some(Response::Sensitivity(s)) = &replies[3].result else {
            panic!("expected sensitivity outcome last");
        };
        assert_eq!(s.kpi_name, "Deal Closed?");
    }

    #[test]
    fn batch_stops_at_first_error() {
        let engine = Engine::new();
        let steps = vec![
            Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(120),
                seed: Some(1),
            },
            Request::SelectKpi {
                session: CURRENT_SESSION,
                kpi: "no such column".into(),
            },
            Request::ListUseCases,
        ];
        let Ok(Response::Batch(replies)) = engine.handle(Request::Batch(steps)) else {
            panic!("expected batch response");
        };
        assert_eq!(replies.len(), 2, "third step never ran");
        assert!(!replies[0].is_error());
        assert!(replies[1].is_error());

        // An expired deadline fails the first step, not the batch.
        let expired = Envelope::new(
            5,
            Request::Batch(vec![Request::ListUseCases, Request::ListUseCases]),
        )
        .with_deadline_ms(0);
        let reply = engine.handle_envelope(expired);
        assert_eq!(reply.id, 5);
        let Ok(Response::Batch(replies)) = reply.into_result() else {
            panic!("an expired batch still answers as a batch");
        };
        assert_eq!(replies.len(), 1, "the failed first step ends the batch");
        assert_eq!(replies[0].id, 5);
        assert_eq!(
            replies[0].error.as_ref().map(|e| e.code),
            Some(ErrorCode::DeadlineExceeded)
        );
        assert_eq!(engine.obs().deadline_exceeded_total.get(), 1);
    }

    #[test]
    fn current_session_without_load_is_bad_request() {
        let engine = Engine::new();
        let Ok(Response::Batch(replies)) =
            engine.handle(Request::Batch(vec![Request::ListScenarios {
                session: CURRENT_SESSION,
            }]))
        else {
            panic!("expected batch response");
        };
        assert_eq!(
            replies[0].error.as_ref().unwrap().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn nested_batches_are_rejected() {
        let engine = Engine::new();
        let Ok(Response::Batch(replies)) =
            engine.handle(Request::Batch(vec![Request::Batch(vec![])]))
        else {
            panic!("expected batch response");
        };
        assert_eq!(
            replies[0].error.as_ref().unwrap().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn envelope_version_is_checked() {
        let engine = Engine::new();
        let mut env = Envelope::new(1, Request::ListUseCases);
        env.version = 99;
        let reply = engine.handle_envelope(env);
        assert_eq!(reply.error.unwrap().code, ErrorCode::BadRequest);
        let mut env = Envelope::new(2, Request::ListUseCases);
        env.version = 1;
        assert!(
            !engine.handle_envelope(env).is_error(),
            "v1 bodies are fine"
        );
    }

    #[test]
    fn dispatch_line_speaks_both_wire_versions() {
        let engine = Engine::new();
        // v1: bare request.
        let (line, shutdown) = engine.dispatch_line("\"ListUseCases\"");
        assert!(!shutdown);
        let resp: Response = serde_json::from_str(&line).unwrap();
        assert!(matches!(resp, Response::UseCases(u) if u.len() == 3));
        // v2: envelope.
        let (line, shutdown) =
            engine.dispatch_line("{\"id\": 9, \"version\": 2, \"body\": \"ListUseCases\"}");
        assert!(!shutdown);
        let reply: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(reply.id, 9);
        assert!(!reply.is_error());
        // v2 without explicit version defaults to the current one.
        let (line, _) = engine.dispatch_line("{\"id\": 10, \"body\": \"ListUseCases\"}");
        let reply: Reply = serde_json::from_str(&line).unwrap();
        assert!(!reply.is_error());
        // Shutdown is flagged in both framings, and inside a batch.
        assert!(engine.dispatch_line("\"Shutdown\"").1);
        assert!(
            engine
                .dispatch_line("{\"id\": 1, \"body\": \"Shutdown\"}")
                .1
        );
        assert!(
            engine
                .dispatch_line("{\"id\": 1, \"body\": {\"Batch\": [\"Shutdown\"]}}")
                .1
        );
        // ... but only when the shutdown actually executed: a rejected
        // envelope or a batch that fails first must not stop the server.
        assert!(
            !engine
                .dispatch_line("{\"id\": 1, \"version\": 99, \"body\": \"Shutdown\"}")
                .1
        );
        let failing_then_shutdown = "{\"id\": 1, \"body\": {\"Batch\": [\
             {\"CloseSession\": {\"session\": 424242}}, \"Shutdown\"]}}";
        assert!(!engine.dispatch_line(failing_then_shutdown).1);
        // Garbage gets a v1 typed error.
        let (line, _) = engine.dispatch_line("not json");
        let resp: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(resp.as_error().unwrap().code, ErrorCode::BadRequest);
        // A malformed envelope keeps its correlation id.
        let (line, _) = engine.dispatch_line("{\"id\": 4, \"body\": {\"Nope\": 1}}");
        let reply: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(reply.id, 4);
        assert_eq!(reply.error.unwrap().code, ErrorCode::BadRequest);
    }

    #[test]
    fn evaluate_scenarios_prices_a_grid_in_one_call() {
        use whatif_core::bulk::ScenarioSpec;
        use whatif_core::PerturbationSet;
        let engine = Engine::new();
        let id = load(&engine, 220);
        engine
            .handle(Request::SelectKpi {
                session: id,
                kpi: "Deal Closed?".into(),
            })
            .unwrap();

        // Before training: typed NotTrained.
        let err = engine
            .handle(Request::EvaluateScenarios {
                session: id,
                scenarios: vec![],
                record: false,
                n_threads: None,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotTrained);

        engine
            .handle(Request::Train {
                session: id,
                config: Some(fast_config()),
            })
            .unwrap();

        let scenarios: Vec<ScenarioSpec> = [-20.0, 20.0, 40.0, 60.0]
            .iter()
            .map(|&pct| {
                ScenarioSpec::new(
                    format!("OME {pct:+}%"),
                    PerturbationSet::new(vec![Perturbation::percentage(
                        "Open Marketing Email",
                        pct,
                    )]),
                )
            })
            .collect();
        let Ok(Response::ScenariosEvaluated {
            outcomes,
            recorded_ids,
        }) = engine.handle(Request::EvaluateScenarios {
            session: id,
            scenarios: scenarios.clone(),
            record: true,
            n_threads: Some(2),
        })
        else {
            panic!("expected ScenariosEvaluated");
        };
        assert_eq!(outcomes.len(), 4);
        assert_eq!(recorded_ids.len(), 4);
        assert_eq!(outcomes[0].name, "OME -20%", "input order preserved");
        for o in &outcomes {
            assert!((0.0..=1.0).contains(&o.kpi), "close rate in range");
        }
        // Each outcome matches the single-scenario sensitivity view.
        let Ok(Response::Sensitivity(single)) = engine.handle(Request::SensitivityView {
            session: id,
            perturbations: scenarios[1].perturbations.perturbations.clone(),
        }) else {
            panic!("expected sensitivity");
        };
        assert!((single.perturbed_kpi - outcomes[1].kpi).abs() < 1e-15);

        // The ledger holds all four, queryable in the same session.
        let Ok(Response::Scenarios(listed)) = engine.handle(Request::ListScenarios { session: id })
        else {
            panic!("expected scenarios");
        };
        assert_eq!(listed.len(), 4);

        // record: false leaves the ledger alone.
        let Ok(Response::ScenariosEvaluated { recorded_ids, .. }) =
            engine.handle(Request::EvaluateScenarios {
                session: id,
                scenarios: scenarios.clone(),
                record: false,
                n_threads: None,
            })
        else {
            panic!("expected ScenariosEvaluated");
        };
        assert!(recorded_ids.is_empty());

        // Invalid drivers surface as typed Config errors naming the scenario.
        let err = engine
            .handle(Request::EvaluateScenarios {
                session: id,
                scenarios: vec![ScenarioSpec::new(
                    "bad",
                    PerturbationSet::new(vec![Perturbation::percentage("ghost", 1.0)]),
                )],
                record: true,
                n_threads: None,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Config);
        assert!(err.message.contains("bad"), "{}", err.message);
    }

    #[test]
    fn evaluate_scenarios_resolves_current_session_in_batches() {
        use whatif_core::bulk::ScenarioSpec;
        use whatif_core::PerturbationSet;
        let engine = Engine::new();
        let steps = vec![
            Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(220),
                seed: Some(3),
            },
            Request::SelectKpi {
                session: CURRENT_SESSION,
                kpi: "Deal Closed?".into(),
            },
            Request::Train {
                session: CURRENT_SESSION,
                config: Some(fast_config()),
            },
            Request::EvaluateScenarios {
                session: CURRENT_SESSION,
                scenarios: vec![ScenarioSpec::new(
                    "ome +40%",
                    PerturbationSet::new(vec![Perturbation::percentage(
                        "Open Marketing Email",
                        40.0,
                    )]),
                )],
                record: true,
                n_threads: None,
            },
        ];
        let reply = engine.handle_envelope(Envelope::new(11, Request::Batch(steps)));
        let Response::Batch(replies) = reply.into_result().unwrap() else {
            panic!("expected batch");
        };
        assert_eq!(replies.len(), 4);
        let Some(Response::ScenariosEvaluated {
            outcomes,
            recorded_ids,
        }) = &replies[3].result
        else {
            panic!("expected ScenariosEvaluated last");
        };
        assert_eq!(outcomes.len(), 1);
        assert_eq!(recorded_ids, &[0]);
    }

    fn load_and_train(engine: &Engine, n_rows: usize, seed: u64) -> u64 {
        let Ok(Response::SessionCreated { session, .. }) = engine.handle(Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(n_rows),
            seed: Some(seed),
        }) else {
            panic!("expected SessionCreated");
        };
        engine
            .handle(Request::SelectKpi {
                session,
                kpi: "Deal Closed?".into(),
            })
            .unwrap();
        engine
            .handle(Request::Train {
                session,
                config: Some(fast_config()),
            })
            .unwrap();
        session
    }

    fn sensitivity_reply(engine: &Engine, id: u64, session: u64) -> Reply {
        engine.handle_envelope(Envelope::new(
            id,
            Request::SensitivityView {
                session,
                perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
            },
        ))
    }

    #[test]
    fn constrained_goal_inversion_stays_in_bounds_and_records() {
        let engine = Engine::new();
        let session = load_and_train(&engine, 220, 3);
        let Ok(Response::GoalInversion(goal)) = engine.handle(Request::GoalInversionView {
            session,
            goal: whatif_core::goal::Goal::Maximize,
            constraints: vec![whatif_core::DriverConstraint::new(
                "Open Marketing Email",
                40.0,
                80.0,
            )],
            optimizer: Some(whatif_core::OptimizerChoice::RandomSearch { n_evals: 12 }),
            seed: 1,
        }) else {
            panic!("expected GoalInversion");
        };
        let ome = goal
            .driver_percentages
            .iter()
            .find(|(d, _)| d == "Open Marketing Email");
        assert!(
            ome.is_some_and(|(_, pct)| (40.0..=80.0).contains(pct)),
            "{ome:?}"
        );
        let recorded = engine.handle(Request::RecordScenario {
            session,
            name: "goal".into(),
        });
        assert!(matches!(recorded, Ok(Response::ScenarioRecorded { id: 0 })));
    }

    #[test]
    fn repeated_analyses_hit_the_cache_and_mark_replies() {
        let engine = Engine::new();
        let session = load_and_train(&engine, 220, 3);
        let cold = sensitivity_reply(&engine, 1, session);
        assert!(!cold.cached, "first evaluation computes");
        let warm = sensitivity_reply(&engine, 2, session);
        assert!(warm.cached, "repeat is served from cache");
        assert_eq!(
            cold.result, warm.result,
            "cached reply is bit-identical on the wire"
        );
        let Ok(Response::CacheStats(stats)) = engine.handle(Request::CacheStats) else {
            panic!("expected CacheStats");
        };
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.enabled);
        assert!(stats.entries >= 1);
    }

    #[test]
    fn identical_sessions_share_cache_entries_and_retrain_misses() {
        let engine = Engine::new();
        // Two sessions over identical data + config ⇒ identical model
        // fingerprints ⇒ the second session's first question hits.
        let a = load_and_train(&engine, 220, 3);
        let b = load_and_train(&engine, 220, 3);
        assert_ne!(a, b);
        assert!(!sensitivity_reply(&engine, 1, a).cached);
        assert!(
            sensitivity_reply(&engine, 2, b).cached,
            "same model + same question ⇒ one computation across sessions"
        );
        // A session over *different* data must not share.
        let c = load_and_train(&engine, 230, 3);
        assert!(!sensitivity_reply(&engine, 3, c).cached);
        // Retraining bumps the fingerprint epoch: the same question
        // misses (no stale entry) without any cache flush.
        engine
            .handle(Request::Train {
                session: a,
                config: Some(ModelConfig {
                    seed: 99,
                    ..fast_config()
                }),
            })
            .unwrap();
        assert!(
            !sensitivity_reply(&engine, 4, a).cached,
            "retrained model never sees the old entries"
        );
    }

    #[test]
    fn configure_cache_disables_and_resizes() {
        let engine = Engine::new();
        let session = load_and_train(&engine, 220, 3);
        assert!(!sensitivity_reply(&engine, 1, session).cached);
        // Disable: same question recomputes, stats freeze.
        let Ok(Response::CacheStats(stats)) = engine.handle(Request::ConfigureCache {
            capacity_bytes: None,
            enabled: Some(false),
        }) else {
            panic!("expected CacheStats");
        };
        assert!(!stats.enabled);
        assert!(!sensitivity_reply(&engine, 2, session).cached);
        // Re-enable: the retained entry serves instantly.
        engine
            .handle(Request::ConfigureCache {
                capacity_bytes: None,
                enabled: Some(true),
            })
            .unwrap();
        assert!(sensitivity_reply(&engine, 3, session).cached);
        // Shrinking to zero evicts everything.
        let Ok(Response::CacheStats(stats)) = engine.handle(Request::ConfigureCache {
            capacity_bytes: Some(0),
            enabled: None,
        }) else {
            panic!("expected CacheStats");
        };
        assert_eq!(stats.entries, 0);
        assert!(!sensitivity_reply(&engine, 4, session).cached);
    }

    #[test]
    fn cached_scenario_grids_mark_the_batch_reply() {
        use whatif_core::bulk::ScenarioSpec;
        use whatif_core::PerturbationSet;
        let engine = Engine::new();
        let session = load_and_train(&engine, 220, 3);
        let grid = || {
            vec![ScenarioSpec::new(
                "ome +40%",
                PerturbationSet::new(vec![Perturbation::percentage("Open Marketing Email", 40.0)]),
            )]
        };
        let request = |scenarios| Request::EvaluateScenarios {
            session,
            scenarios,
            record: false,
            n_threads: None,
        };
        assert!(
            !engine
                .handle_envelope(Envelope::new(1, request(grid())))
                .cached
        );
        let warm = engine.handle_envelope(Envelope::new(2, request(grid())));
        assert!(warm.cached);
        // The sensitivity view shares the same plan entry.
        assert!(sensitivity_reply(&engine, 3, session).cached);
    }

    fn train_reply(engine: &Engine, session: u64) -> (String, bool) {
        let Ok(Response::Trained { kind, shared, .. }) = engine.handle(Request::Train {
            session,
            config: Some(fast_config()),
        }) else {
            panic!("expected Trained");
        };
        (kind, shared)
    }

    #[test]
    fn identical_trainings_share_one_model() {
        let engine = Engine::new();
        let sessions: Vec<u64> = (0..3).map(|_| load(&engine, 220)).collect();
        for &s in &sessions {
            engine
                .handle(Request::SelectKpi {
                    session: s,
                    kpi: "Deal Closed?".into(),
                })
                .unwrap();
        }
        // First Train trains; the next two share without training.
        assert_eq!(
            train_reply(&engine, sessions[0]),
            ("random_forest".into(), false)
        );
        assert!(train_reply(&engine, sessions[1]).1);
        assert!(train_reply(&engine, sessions[2]).1);
        let Ok(Response::ModelStoreStats(stats)) = engine.handle(Request::ModelStoreStats) else {
            panic!("expected ModelStoreStats");
        };
        assert_eq!((stats.misses, stats.hits), (1, 2), "store hit count = N-1");
        assert_eq!(stats.entries, 1, "one model for three sessions");
        assert_eq!(stats.referenced, 1);
        assert!(stats.bytes > 0);
        // A different configuration is a different training request.
        let d = load(&engine, 220);
        engine
            .handle(Request::SelectKpi {
                session: d,
                kpi: "Deal Closed?".into(),
            })
            .unwrap();
        let Ok(Response::Trained { shared, .. }) = engine.handle(Request::Train {
            session: d,
            config: Some(ModelConfig {
                n_trees: 14,
                ..fast_config()
            }),
        }) else {
            panic!("expected Trained");
        };
        assert!(!shared);
        let Ok(Response::ModelStoreStats(stats)) = engine.handle(Request::ModelStoreStats) else {
            panic!("expected ModelStoreStats");
        };
        assert_eq!(stats.entries, 2);
        // Shared models answer shared questions from the result cache
        // too: session 1 computes, session 2 is served.
        assert!(!sensitivity_reply(&engine, 1, sessions[0]).cached);
        assert!(sensitivity_reply(&engine, 2, sessions[1]).cached);
    }

    #[test]
    fn closed_sessions_release_models_for_eviction() {
        let engine = Engine::new();
        let a = load_and_train(&engine, 220, 3);
        let b = load_and_train(&engine, 220, 3);
        assert_eq!(engine.model_store().stats().entries, 1);
        assert_eq!(
            engine.model_store().evict_unreferenced(),
            0,
            "a live session still references the model"
        );
        engine.handle(Request::CloseSession { session: a }).unwrap();
        engine.handle(Request::CloseSession { session: b }).unwrap();
        assert_eq!(
            engine.model_store().evict_unreferenced(),
            1,
            "unreferenced after both sessions closed"
        );
        assert_eq!(engine.model_store().stats().entries, 0);
    }

    #[test]
    fn retrain_replaces_the_shared_handle_not_the_store_entry() {
        let engine = Engine::new();
        let session = load_and_train(&engine, 220, 3);
        // Retraining with the identical config is a store hit: the
        // session keeps (a handle to) the same model.
        let (_, shared) = train_reply(&engine, session);
        assert!(shared);
        // Retraining with a new seed trains a second model; the first
        // stays in the store (warm for any session that asks again)
        // but is no longer referenced.
        engine
            .handle(Request::Train {
                session,
                config: Some(ModelConfig {
                    seed: 99,
                    ..fast_config()
                }),
            })
            .unwrap();
        let stats = engine.model_store().stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.referenced, 1);
    }

    #[test]
    fn close_session_frees_state() {
        let engine = Engine::new();
        let id = load(&engine, 120);
        assert_eq!(engine.session_count(), 1);
        assert!(matches!(
            engine.handle(Request::CloseSession { session: id }),
            Ok(Response::SessionClosed)
        ));
        assert_eq!(engine.session_count(), 0);
        assert_eq!(
            engine
                .handle(Request::CloseSession { session: id })
                .unwrap_err()
                .code,
            ErrorCode::UnknownSession
        );
    }
}
