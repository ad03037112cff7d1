//! The traced run's per-layer replays.
//!
//! After each loopback round trip, the request is replayed in process,
//! one layer at a time, through each layer's public functions, and every
//! call is recorded as a span under the request's root span (see
//! [`crate::trace`]). Replays run against a *shadow* engine that has
//! been fed exactly the same request sequence as the served engine, so
//! its cache and model store are in the state the timed request found.
//! The served engine is never touched by a replay, and so a replay
//! cannot change what a later timed request finds there.
//!
//! Cold work below the engine is timed with the uncached twins
//! (`TrainedModel::sensitivity`, `Session::train`, ...), and hits with
//! the cached calls the engine itself makes.

use crate::trace::{self, Recorder, Span, SpanId};
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use whatif_core::bulk::ScenarioSet;
use whatif_core::goal::GoalConfig;
use whatif_core::model_backend::{ModelConfig, ModelKind, TrainerTier};
use whatif_core::perturbation::PerturbationSet;
use whatif_core::{Session, SharedModel};
use whatif_datagen::{deal_closing, marketing_mix, retention};
use whatif_frame::Frame;
use whatif_learn::MatrixView;
use whatif_server::{Engine, Envelope, Reply, Request, Response, UseCase};
use whatif_wire::frame::encode_frame;
use whatif_wire::{
    read_event, Compression, FrameEvent, FrameType, OutcomeBlock, OutcomeStreamHead, ReplyBody,
    RequestBody, StreamEnd, WireReply, WireRequest, DEFAULT_BLOCK_ROWS,
};

/// How a request travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// v2 JSON line.
    V2,
    /// v3 frame with a JSON envelope body.
    V3Json,
    /// v3 columnar scenario grid.
    V3Grid,
}

/// What the served engine answered, as far as the replay needs it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    /// The reply's `cached` marker.
    pub cached: bool,
    /// `Trained.shared`, for `Train` replies.
    pub shared: bool,
    /// `SessionCreated.session`, for load replies.
    pub session: Option<u64>,
}

impl Served {
    /// Extract the replay-relevant facts from a served reply.
    #[must_use]
    pub fn of(reply: &Reply) -> Served {
        let mut served = Served {
            cached: reply.cached,
            ..Served::default()
        };
        match &reply.result {
            Some(Response::Trained { shared, .. }) => served.shared = *shared,
            Some(Response::SessionCreated { session, .. }) => served.session = Some(*session),
            _ => {}
        }
        served
    }
}

/// Shadow-side state for one served session.
struct Mirror {
    shadow_id: u64,
    frame: Frame,
    session: Option<Session>,
    model: Option<(SharedModel, u64)>,
}

/// State shared by every client thread's tracer.
struct Shadow {
    engine: Engine,
    sessions: Mutex<HashMap<u64, Mirror>>,
    origin: Instant,
}

/// Which part of the run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Bringing the workload up (load, train, warm-up).
    Setup,
    /// The measured loop.
    Timed,
}

/// One traced request.
#[derive(Debug, Clone, Copy)]
pub struct Root {
    /// Index of its root span.
    pub span: SpanId,
    /// Setup or timed.
    pub phase: Phase,
    /// Transport.
    pub proto: Proto,
}

/// A per-thread tracer over a shared shadow engine.
pub struct Tracer {
    shadow: Arc<Shadow>,
    rec: Recorder,
    roots: Vec<Root>,
    thread: u64,
    next: u64,
    /// Phase stamped on requests traced from now on.
    pub phase: Phase,
    /// Model evaluations (rows × trees) summed over cold views.
    pub cold_evals: f64,
    /// Cold views replayed.
    pub cold_views: u64,
    /// Optimizer evaluations per goal inversion.
    pub goal_evals: Vec<f64>,
    /// Scenarios priced by replayed bulk evaluations.
    pub bulk_scenarios: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a replay thread panicked while holding the mirror map")
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer over a fresh shadow engine.
    #[must_use]
    pub fn new() -> Tracer {
        let origin = Instant::now();
        Tracer {
            shadow: Arc::new(Shadow {
                engine: Engine::new(),
                sessions: Mutex::new(HashMap::new()),
                origin,
            }),
            rec: Recorder::new(origin),
            roots: Vec::new(),
            thread: 0,
            next: 0,
            phase: Phase::Setup,
            cold_evals: 0.0,
            cold_views: 0,
            goal_evals: Vec::new(),
            bulk_scenarios: 0,
        }
    }

    /// A tracer for another client thread, over the same shadow.
    #[must_use]
    pub fn fork(&self, thread: u64) -> Tracer {
        Tracer {
            shadow: Arc::clone(&self.shadow),
            rec: Recorder::new(self.shadow.origin),
            roots: Vec::new(),
            thread,
            next: 0,
            phase: self.phase,
            cold_evals: 0.0,
            cold_views: 0,
            goal_evals: Vec::new(),
            bulk_scenarios: 0,
        }
    }

    /// Fold a forked tracer's spans and counts back into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.rec.spans().len();
        for span in other.rec.spans() {
            self.rec.push(
                span.name,
                span.request,
                span.parent.map(|p| p + offset),
                span.start_ns,
                span.end_ns,
            );
        }
        self.roots.extend(other.roots.iter().map(|r| Root {
            span: r.span + offset,
            ..*r
        }));
        self.cold_evals += other.cold_evals;
        self.cold_views += other.cold_views;
        self.goal_evals.extend(other.goal_evals);
        self.bulk_scenarios += other.bulk_scenarios;
    }

    /// Nanoseconds on the span clock.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.rec.now_ns()
    }

    /// Every span and traced request so far.
    #[must_use]
    pub fn spans(&self) -> (&[Span], &[Root]) {
        (self.rec.spans(), &self.roots)
    }

    /// Replay one served request layer by layer. `sent` is the line or
    /// frame that went on the wire, `start_ns` the span-clock time the
    /// round trip started.
    ///
    /// # Errors
    /// A replay failed where the served request succeeded.
    pub fn replay(
        &mut self,
        proto: Proto,
        sent: &[u8],
        request: &Request,
        served: Served,
        start_ns: u64,
        rtt: Duration,
    ) -> Result<(), String> {
        let rid = (self.thread << 40) | self.next;
        self.next += 1;
        let root = self
            .rec
            .push("request", rid, None, start_ns, start_ns + nanos(rtt));
        self.roots.push(Root {
            span: root,
            phase: self.phase,
            proto,
        });
        let at = Some(root);

        let json = match proto {
            Proto::V2 => Some(String::from_utf8_lossy(sent).trim_end().to_string()),
            Proto::V3Json | Proto::V3Grid => {
                let (decoded, _) = self.rec.time("wire.decode", rid, at, || {
                    match read_event(&mut Cursor::new(sent)).map_err(|e| e.to_string())? {
                        FrameEvent::Frame(f) => {
                            WireRequest::decode(&f.payload).map_err(|e| e.to_string())
                        }
                        _ => Err("replayed frame did not decode".to_string()),
                    }
                });
                match decoded?.body {
                    RequestBody::Json(json) => Some(json),
                    _ => None,
                }
            }
        };
        let envelope = match &json {
            Some(json) => {
                let (env, _) = self.rec.time("protocol.decode", rid, at, || {
                    serde_json::parse(json).and_then(|v| serde_json::from_value::<Envelope>(&v))
                });
                env.map_err(|e| format!("replayed decode failed: {e}"))?
            }
            None => Envelope::new(rid, request.clone()),
        };

        let mut shadow_env = envelope;
        self.rewrite_session(&mut shadow_env.body);
        let shadow = Arc::clone(&self.shadow);
        let (reply, dispatch) = self.rec.time("engine.dispatch", rid, at, || {
            shadow.engine.handle_envelope(shadow_env)
        });
        if let Some(e) = &reply.error {
            return Err(format!("shadow engine failed a served request: {e}"));
        }
        self.replay_below(rid, dispatch, request, served, &reply)?;

        match proto {
            Proto::V2 | Proto::V3Json => {
                let (line, _) = self.rec.time("protocol.encode", rid, at, || {
                    serde_json::to_string(&reply).map_err(|e| e.to_string())
                });
                let line = line?;
                if proto == Proto::V3Json {
                    let id = reply.id;
                    let (framed, _) = self.rec.time("wire.encode", rid, at, || {
                        let payload = WireReply {
                            id,
                            body: ReplyBody::Json(line),
                        }
                        .encode();
                        encode_frame(FrameType::Reply, &payload, Compression::Lz4Like)
                    });
                    framed.map_err(|e| e.to_string())?;
                }
            }
            Proto::V3Grid => {
                let Some(Response::ScenariosEvaluated { outcomes, .. }) = &reply.result else {
                    return Err("shadow grid reply was not a scenario outcome".into());
                };
                let id = reply.id;
                self.rec.time("wire.encode", rid, at, || {
                    let mut bytes = 0usize;
                    let mut put = |ft: FrameType, payload: Vec<u8>| {
                        bytes +=
                            encode_frame(ft, &payload, Compression::Lz4Like).map_or(0, |f| f.len());
                    };
                    let head = OutcomeStreamHead {
                        id,
                        total: outcomes.len() as u64,
                        baseline_kpi: outcomes.first().map_or(f64::NAN, |o| o.baseline_kpi),
                        recorded: false,
                    };
                    put(FrameType::StreamHead, head.encode());
                    let mut blocks = 0u32;
                    for (i, chunk) in outcomes.chunks(DEFAULT_BLOCK_ROWS).enumerate() {
                        let block = OutcomeBlock {
                            id,
                            start: (i * DEFAULT_BLOCK_ROWS) as u64,
                            kpi: chunk.iter().map(|o| o.kpi).collect(),
                            recorded_ids: Vec::new(),
                        };
                        put(FrameType::StreamBlock, block.encode());
                        blocks += 1;
                    }
                    put(FrameType::StreamEnd, StreamEnd { id, blocks }.encode());
                    bytes
                });
            }
        }
        Ok(())
    }

    /// Point a request's session field at the shadow's session.
    fn rewrite_session(&self, request: &mut Request) {
        let slot = match request {
            Request::SelectKpi { session, .. }
            | Request::SelectDrivers { session, .. }
            | Request::Train { session, .. }
            | Request::DriverImportanceView { session, .. }
            | Request::SensitivityView { session, .. }
            | Request::ComparisonView { session, .. }
            | Request::PerDataView { session, .. }
            | Request::GoalInversionView { session, .. }
            | Request::EvaluateScenarios { session, .. }
            | Request::CloseSession { session } => session,
            _ => return,
        };
        if let Some(m) = lock(&self.shadow.sessions).get(slot) {
            *slot = m.shadow_id;
        }
    }

    fn model(&self, session: u64) -> Result<(SharedModel, u64), String> {
        lock(&self.shadow.sessions)
            .get(&session)
            .and_then(|m| m.model.clone())
            .ok_or_else(|| format!("no mirrored model for session {session}"))
    }

    /// Attribute the layers below the engine for one request.
    fn replay_below(
        &mut self,
        rid: u64,
        dispatch: SpanId,
        request: &Request,
        served: Served,
        shadow_reply: &Reply,
    ) -> Result<(), String> {
        let at = Some(dispatch);
        let core = |e: whatif_core::CoreError| e.to_string();
        match request {
            Request::LoadUseCase {
                use_case,
                n_rows,
                seed,
            } => {
                let seed = seed.unwrap_or(7);
                let (dataset, _) = self.rec.time("datagen", rid, at, || match use_case {
                    UseCase::DealClosing => deal_closing(n_rows.unwrap_or(1480), seed),
                    UseCase::MarketingMix => marketing_mix(n_rows.unwrap_or(180), seed),
                    UseCase::CustomerRetention => retention(n_rows.unwrap_or(1200), seed),
                });
                let (Some(main_id), Some(Response::SessionCreated { session, .. })) =
                    (served.session, &shadow_reply.result)
                else {
                    return Err("load replies carried no session".into());
                };
                lock(&self.shadow.sessions).insert(
                    main_id,
                    Mirror {
                        shadow_id: *session,
                        frame: dataset.frame,
                        session: None,
                        model: None,
                    },
                );
            }
            Request::SelectKpi { session, kpi } => {
                let mut sessions = lock(&self.shadow.sessions);
                let m = sessions
                    .get_mut(session)
                    .ok_or("KPI for an unknown session")?;
                m.session = Some(Session::new(m.frame.clone()).with_kpi(kpi).map_err(core)?);
                m.model = None;
            }
            Request::Train { session, config } => {
                let config = config.clone().unwrap_or_default();
                let replica = lock(&self.shadow.sessions)
                    .get(session)
                    .and_then(|m| m.session.clone())
                    .ok_or("train before KPI selection")?;
                let store = self.shadow.engine.model_store();
                let (model, _) = if served.shared {
                    let (shared, _) = self.rec.time("store.share", rid, at, || {
                        store.train_or_share(&replica, &config)
                    });
                    shared.map_err(core)?
                } else {
                    let name = match config.trainer {
                        TrainerTier::Exact => "learn.train_exact",
                        TrainerTier::Binned => "learn.train_binned",
                    };
                    let (trained, _) = self.rec.time(name, rid, at, || replica.train(&config));
                    trained.map_err(core)?;
                    store.train_or_share(&replica, &config).map_err(core)?
                };
                let trees = trees_of(&model, &config);
                if let Some(m) = lock(&self.shadow.sessions).get_mut(session) {
                    m.model = Some((model, trees));
                }
            }
            Request::SensitivityView {
                session,
                perturbations,
            } => {
                let (model, trees) = self.model(*session)?;
                let set = PerturbationSet::new(perturbations.clone());
                if served.cached {
                    let cache = self.shadow.engine.cache();
                    let (hit, _) = self.rec.time("cache.hit", rid, at, || {
                        model.sensitivity_cached(&set, cache)
                    });
                    if !hit.map_err(core)?.1 {
                        return Err("a served cache hit missed in the shadow cache".into());
                    }
                } else {
                    let (done, sens) = self
                        .rec
                        .time("core.sensitivity", rid, at, || model.sensitivity(&set));
                    done.map_err(core)?;
                    let plan = model.compile_perturbations(&set).map_err(core)?;
                    let mut out = vec![0.0; model.matrix().n_rows()];
                    let (predicted, _) = self.rec.time("learn.predict", rid, Some(sens), || {
                        let overlay = plan.overlay(model.matrix())?;
                        model.predict_batch_into(MatrixView::Overlay(&overlay), &mut out)
                    });
                    predicted.map_err(core)?;
                    self.cold_views += 1;
                    self.cold_evals += (model.matrix().n_rows() as u64 * trees) as f64;
                }
            }
            Request::DriverImportanceView { session, .. } => {
                let (model, _) = self.model(*session)?;
                let (done, _) = self
                    .rec
                    .time("core.importance", rid, at, || model.driver_importance());
                done.map_err(core)?;
            }
            Request::ComparisonView {
                session,
                percentages,
            } => {
                let (model, _) = self.model(*session)?;
                let (done, _) = self.rec.time("core.comparison", rid, at, || {
                    model.comparison_analysis(percentages)
                });
                done.map_err(core)?;
            }
            Request::GoalInversionView {
                session,
                goal,
                constraints,
                optimizer,
                seed,
            } => {
                let (model, _) = self.model(*session)?;
                let mut cfg = GoalConfig::for_goal(*goal).with_constraints(constraints.clone());
                cfg.optimizer = optimizer.unwrap_or_default();
                cfg.seed = *seed;
                let (done, _) = self
                    .rec
                    .time("optim.goal", rid, at, || model.goal_inversion(&cfg));
                self.goal_evals.push(done.map_err(core)?.n_evals as f64);
            }
            Request::EvaluateScenarios {
                session,
                scenarios,
                n_threads,
                ..
            } => {
                let (model, trees) = self.model(*session)?;
                let set = ScenarioSet::new(scenarios.clone())
                    .with_threads(n_threads.unwrap_or(whatif_core::bulk::DEFAULT_SCENARIO_THREADS));
                let (done, _) = self
                    .rec
                    .time("core.bulk", rid, at, || model.evaluate_scenarios(&set));
                done.map_err(core)?;
                self.bulk_scenarios += scenarios.len() as u64;
                self.cold_views += 1;
                self.cold_evals +=
                    (scenarios.len() as u64 * model.matrix().n_rows() as u64 * trees) as f64;
            }
            Request::CloseSession { session } => {
                lock(&self.shadow.sessions).remove(session);
            }
            _ => {}
        }
        Ok(())
    }

    /// Apply an in-process cache warm-up to the shadow as well, so its
    /// cache stays in the served engine's state.
    ///
    /// # Errors
    /// The shadow model is missing or rejects the scenarios.
    pub fn mirror_warmup(&self, session: u64, set: &ScenarioSet) -> Result<(), String> {
        let (model, _) = self.model(session)?;
        model
            .evaluate_scenarios_cached(set, self.shadow.engine.cache())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Per-span self times (see [`trace::self_times`]).
    #[must_use]
    pub fn self_times(&self) -> Vec<i64> {
        trace::self_times(self.rec.spans())
    }
}

/// Trees a prediction walks per row: the forest size for tree models,
/// one for linear ones.
fn trees_of(model: &SharedModel, config: &ModelConfig) -> u64 {
    match model.kind() {
        ModelKind::RandomForest | ModelKind::Gbdt => config.n_trees as u64,
        ModelKind::Linear | ModelKind::Logistic | ModelKind::Auto => 1,
    }
}
