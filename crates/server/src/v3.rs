//! Protocol v3 glue: maps `whatif-wire` frames onto the
//! transport-agnostic [`Engine`].
//!
//! The wire crate knows nothing about engine types — it frames,
//! compresses, and lays out columns over plain `u64`/`f64`/`String`s.
//! This module is the other half: decode a [`WireRequest`] into a
//! [`Request`], run it, and encode the answer back out — as a single
//! reply frame, or, for scenario grids, as a bounded
//! `StreamHead`/`StreamBlock`/`StreamEnd` sequence so a 100k-row reply
//! never materializes one giant frame.
//!
//! Malformed traffic never kills a connection: skipped frames and
//! undecodable payloads are answered with a typed
//! [`FrameType::Error`] frame carrying the stable [`ErrorCode`] wire
//! form, and the loop keeps reading (only a truncated stream or a
//! transport failure ends it). [`V3Client`] is the matching blocking
//! client used by the integration tests and the wire benchmark.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{Deadline, Engine, RequestCtx};
use crate::obs::EngineObs;
use crate::protocol::{ApiError, Envelope, Reply, Request, Response};
use crate::tcp::BusyGuard;
use whatif_core::bulk::{ScenarioOutcome, ScenarioSpec};
use whatif_core::perturbation::{Perturbation, PerturbationSet};
use whatif_core::ErrorCode;
use whatif_obs::span;
use whatif_obs::Stage;
use whatif_wire::codec::{len_to_u32, u32_to_usize};
use whatif_wire::{
    read_event, write_frame, ComparisonReply, ComparisonRequest, Compression, DriverColumn,
    ErrorReply, Frame, FrameEvent, FrameType, OutcomeBlock, OutcomeStreamHead, PerturbKind,
    ReplyBody, RequestBody, ScenarioGridRequest, StreamEnd, WireError, WireReply, WireRequest,
    DEFAULT_BLOCK_ROWS, MAX_GRID_SCENARIOS,
};

/// The stable wire form of an [`ErrorCode`] (its serde string, e.g.
/// `"BadRequest"`), shared with the JSON protocols.
#[must_use]
pub fn error_code_wire_form(code: ErrorCode) -> String {
    // Unit enum variants serialize as a quoted string.
    serde_json::to_string(&code)
        .unwrap_or_else(|_| "\"Internal\"".into())
        .trim_matches('"')
        .to_string()
}

fn error_frame(id: u64, code: ErrorCode, message: impl Into<String>) -> (FrameType, Vec<u8>) {
    let payload = ErrorReply {
        id,
        code: error_code_wire_form(code),
        message: message.into(),
    }
    .encode();
    (FrameType::Error, payload)
}

fn api_error_frame(id: u64, error: &ApiError) -> (FrameType, Vec<u8>) {
    error_frame(id, error.code, error.message.clone())
}

/// A fully encoded `Overloaded` error frame for connections shed by
/// the accept loop, where no per-connection handler (and thus no
/// metered writer or request span) exists yet.
pub(crate) fn overloaded_frame_bytes(message: &str) -> Vec<u8> {
    let (frame_type, payload) = error_frame(0, ErrorCode::Overloaded, message);
    let mut out = Vec::new();
    // Writing to a Vec cannot fail and the payload is far below the
    // frame cap; an empty buffer on the impossible path just closes
    // the shed connection without a goodbye.
    let _ = write_frame(&mut out, frame_type, &payload, Compression::None);
    out
}

/// Turn a columnar grid back into the engine's row-oriented
/// [`ScenarioSpec`]s. `NaN` cells mean "driver untouched in this
/// scenario"; rows with no finite cell become empty perturbation sets
/// (priced at baseline), matching the JSON protocol's semantics for an
/// empty perturbation list.
fn grid_to_specs(grid: &ScenarioGridRequest) -> Result<Vec<ScenarioSpec>, ApiError> {
    // WireRequest::decode enforces the same cap; re-checking here keeps
    // the allocation below bounded for grids built in-process too.
    if grid.n_scenarios > MAX_GRID_SCENARIOS {
        return Err(ApiError::bad_request(format!(
            "grid declares {} scenarios, limit is {MAX_GRID_SCENARIOS}",
            grid.n_scenarios
        )));
    }
    let n = u32_to_usize(grid.n_scenarios);
    if !grid.names.is_empty() && grid.names.len() != n {
        return Err(ApiError::bad_request(format!(
            "{} scenario names for {n} scenarios",
            grid.names.len()
        )));
    }
    for col in &grid.columns {
        if col.values.len() != n {
            return Err(ApiError::bad_request(format!(
                "driver column '{}' has {} values for {n} scenarios",
                col.name,
                col.values.len()
            )));
        }
    }
    let mut specs = Vec::with_capacity(n);
    for row in 0..n {
        let mut perturbations = Vec::new();
        for col in &grid.columns {
            let magnitude = col.values[row];
            if magnitude.is_nan() {
                continue;
            }
            perturbations.push(match col.kind {
                PerturbKind::Percentage => Perturbation::percentage(&col.name, magnitude),
                PerturbKind::Absolute => Perturbation::absolute(&col.name, magnitude),
            });
        }
        let name = grid
            .names
            .get(row)
            .cloned()
            .unwrap_or_else(|| format!("s{row}"));
        specs.push(ScenarioSpec::new(name, PerturbationSet::new(perturbations)));
    }
    Ok(specs)
}

/// Write one outbound frame under the `Encode` stage, crediting the
/// v3 raw/wire byte counters (the wire size includes headers and
/// reflects whatever compression actually won).
fn emit(
    w: &mut impl Write,
    obs: &EngineObs,
    frame_type: FrameType,
    payload: &[u8],
    prefer: Compression,
) -> Result<usize, WireError> {
    let _stage = span::stage(Stage::Encode);
    if let Some(e) = whatif_chaos::inject_io("v3.encode") {
        return Err(WireError::Io(e));
    }
    let n = write_frame(w, frame_type, payload, prefer)?;
    obs.v3_bytes_out_raw.add(payload.len() as u64);
    obs.v3_bytes_out_wire.add(n as u64);
    Ok(n)
}

/// Write scenario outcomes as a bounded frame stream: head,
/// `ceil(total / DEFAULT_BLOCK_ROWS)` KPI blocks, end marker.
///
/// The request's deadline (when it carried one) is re-checked between
/// blocks: a slow or backpressured consumer cannot stretch an expired
/// request indefinitely — the stream is cut short with a typed
/// [`ErrorCode::DeadlineExceeded`] error frame in place of the
/// remaining blocks, which the client surfaces as a server error.
fn stream_outcomes(
    w: &mut impl Write,
    obs: &EngineObs,
    id: u64,
    outcomes: &[ScenarioOutcome],
    recorded_ids: &[u64],
    prefer: Compression,
    deadline: Option<&Deadline>,
) -> Result<(), WireError> {
    let recorded = !recorded_ids.is_empty();
    if recorded && recorded_ids.len() != outcomes.len() {
        // Misaligned ledger ids would panic the block slicing below;
        // report the engine invariant violation as a typed error.
        let (ft, payload) = error_frame(
            id,
            ErrorCode::Internal,
            format!(
                "{} ledger ids for {} outcomes",
                recorded_ids.len(),
                outcomes.len()
            ),
        );
        emit(w, obs, ft, &payload, prefer)?;
        return Ok(());
    }
    let head = OutcomeStreamHead {
        id,
        total: outcomes.len() as u64,
        baseline_kpi: outcomes.first().map_or(f64::NAN, |o| o.baseline_kpi),
        recorded,
    };
    emit(w, obs, FrameType::StreamHead, &head.encode(), prefer)?;
    let mut blocks = 0u32;
    for (chunk_index, chunk) in outcomes.chunks(DEFAULT_BLOCK_ROWS).enumerate() {
        if let Some(deadline) = deadline {
            if deadline.expired() {
                obs.deadline_exceeded_total.inc();
                obs.record_error(ErrorCode::DeadlineExceeded);
                let (ft, payload) = error_frame(
                    id,
                    ErrorCode::DeadlineExceeded,
                    format!(
                        "deadline of {}ms exceeded after {blocks} of {} stream blocks",
                        deadline.budget_ms(),
                        outcomes.len().div_ceil(DEFAULT_BLOCK_ROWS)
                    ),
                );
                emit(w, obs, ft, &payload, prefer)?;
                return Ok(());
            }
        }
        let start = chunk_index * DEFAULT_BLOCK_ROWS;
        let block = OutcomeBlock {
            id,
            start: start as u64,
            kpi: chunk.iter().map(|o| o.kpi).collect(),
            recorded_ids: if recorded {
                recorded_ids[start..start + chunk.len()].to_vec()
            } else {
                Vec::new()
            },
        };
        emit(w, obs, FrameType::StreamBlock, &block.encode(), prefer)?;
        blocks += 1;
    }
    let end = StreamEnd { id, blocks };
    emit(w, obs, FrameType::StreamEnd, &end.encode(), prefer)?;
    Ok(())
}

/// Execute one decoded request and write its reply frame(s). Returns
/// whether the request was an acknowledged shutdown.
///
/// A frame has one deadline, starting now: it gates dispatch and paces
/// the outcome stream. Opcode 1 (`Json`) is the exception: only an
/// embedded v2 envelope's `deadline_ms`, if any, applies to it.
fn answer(
    w: &mut impl Write,
    engine: &Engine,
    request: WireRequest,
    prefer: Compression,
) -> Result<bool, WireError> {
    let obs = engine.obs();
    let WireRequest {
        id,
        body,
        deadline_ms,
    } = request;
    let ctx = RequestCtx {
        id,
        deadline: (deadline_ms > 0).then(|| Deadline::starting_now(deadline_ms)),
    };
    let request = match body {
        RequestBody::Json(json) => {
            // The universal fallback: any v1/v2 request rides v3
            // framing; the reply is the enveloped JSON line.
            let (line, shutdown) = engine.dispatch_line(&json);
            let reply = WireReply {
                id,
                body: ReplyBody::Json(line),
            };
            emit(w, obs, FrameType::Reply, &reply.encode(), prefer)?;
            return Ok(shutdown);
        }
        RequestBody::Scenarios(grid) => match grid_to_specs(&grid) {
            Ok(scenarios) => Request::EvaluateScenarios {
                session: grid.session,
                scenarios,
                record: grid.record,
                n_threads: (grid.n_threads > 0).then_some(u32_to_usize(grid.n_threads)),
            },
            Err(e) => {
                obs.record_error(e.code);
                let (ft, payload) = api_error_frame(id, &e);
                emit(w, obs, ft, &payload, prefer)?;
                return Ok(false);
            }
        },
        RequestBody::LoadCsv { csv } => Request::LoadCsv { csv },
        RequestBody::Comparison(cmp) => Request::ComparisonView {
            session: cmp.session,
            percentages: cmp.percentages,
        },
    };
    // The response variant follows from the request built above:
    // scenario outcomes stream, a comparison travels columnar, and
    // anything else (a `LoadCsv` session) is the enveloped JSON reply.
    let (frame_type, payload) = match engine.execute(&ctx, request) {
        Ok((
            Response::ScenariosEvaluated {
                outcomes,
                recorded_ids,
            },
            _,
        )) => {
            stream_outcomes(
                w,
                obs,
                id,
                &outcomes,
                &recorded_ids,
                prefer,
                ctx.deadline.as_ref(),
            )?;
            return Ok(false);
        }
        Ok((Response::Comparison(curves), _)) => {
            let body = ComparisonReply {
                percentages: curves
                    .first()
                    .map(|c| c.percentages.clone())
                    .unwrap_or_default(),
                drivers: curves.iter().map(|c| c.driver.clone()).collect(),
                kpi_columns: curves.into_iter().map(|c| c.kpi_values).collect(),
            };
            let reply = WireReply {
                id,
                body: ReplyBody::Comparison(body),
            };
            (FrameType::Reply, reply.encode())
        }
        Ok((response, _)) => {
            let json = serde_json::to_string(&Reply::ok(id, response))
                .map_err(|e| WireError::Corrupt(format!("reply serialization failed: {e}")))?;
            let reply = WireReply {
                id,
                body: ReplyBody::Json(json),
            };
            (FrameType::Reply, reply.encode())
        }
        Err(error) => api_error_frame(id, &error),
    };
    emit(w, obs, frame_type, &payload, prefer)?;
    Ok(false)
}

/// Serve one sniffed-as-v3 connection until EOF, a fatal transport
/// error, or an acknowledged shutdown. Returns whether the connection
/// requested shutdown (the caller raises the stop flag and wakes the
/// accept loop).
///
/// # Errors
/// Only transport failures; protocol-level problems are answered with
/// typed error frames and the loop continues.
pub(crate) fn serve_connection(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    engine: &Engine,
    stop: &AtomicBool,
    busy: &AtomicUsize,
) -> std::io::Result<bool> {
    let obs = engine.obs();
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        match read_event(reader) {
            Ok(FrameEvent::Eof) => return Ok(false),
            Ok(FrameEvent::Skipped { error, skipped }) => {
                obs.v3_frames_skipped.inc();
                obs.record_error(ErrorCode::BadRequest);
                // The reader realigned; tell the peer what was dropped.
                let (ft, payload) = error_frame(
                    0,
                    ErrorCode::BadRequest,
                    format!("skipped {skipped} bytes of malformed frame data: {error}"),
                );
                if emit(writer, obs, ft, &payload, Compression::None).is_err() {
                    return Ok(false); // peer gone
                }
                writer.flush()?;
            }
            Ok(FrameEvent::Frame(Frame {
                frame_type: FrameType::Request,
                compression,
                payload,
            })) => {
                obs.v3_frames_in.inc();
                obs.v3_bytes_in_raw.add(payload.len() as u64);
                // A complete request is in hand: count it against
                // graceful drain until the reply is flushed.
                let _busy = BusyGuard::hold(busy);
                // One span per frame: the engine's own begin() inside
                // dispatch is then inert, so decode + dispatch + encode
                // land in a single per-request stage breakdown.
                let _span = obs.begin_request();
                let decoded = {
                    let _stage = span::stage(Stage::Decode);
                    if whatif_chaos::fails("v3.decode") {
                        Err(WireError::Corrupt(
                            "chaos: injected fault at v3.decode".to_string(),
                        ))
                    } else {
                        WireRequest::decode(&payload)
                    }
                };
                // Replies mirror the request's compression preference:
                // clients that send plain frames get plain frames back
                // (encode_frame still only compresses when it wins).
                let shutdown = match decoded {
                    Ok(request) => {
                        answer(writer, engine, request, compression).map_err(io_from_wire)?
                    }
                    Err(e) => {
                        obs.record_error(ErrorCode::BadRequest);
                        let (ft, payload) = error_frame(
                            0,
                            ErrorCode::BadRequest,
                            format!("undecodable request payload: {e}"),
                        );
                        emit(writer, obs, ft, &payload, Compression::None).map_err(io_from_wire)?;
                        false
                    }
                };
                writer.flush()?;
                if shutdown {
                    return Ok(true);
                }
            }
            Ok(FrameEvent::Frame(frame)) => {
                obs.v3_frames_in.inc();
                obs.record_error(ErrorCode::BadRequest);
                let (ft, payload) = error_frame(
                    0,
                    ErrorCode::BadRequest,
                    format!("servers accept Request frames, got {:?}", frame.frame_type),
                );
                emit(writer, obs, ft, &payload, Compression::None).map_err(io_from_wire)?;
                writer.flush()?;
            }
            Err(WireError::Truncated { .. }) => {
                // Peer hung up mid-frame: end quietly, like a dropped
                // JSON connection.
                return Ok(false);
            }
            Err(WireError::Io(e)) => return Err(e),
            Err(other) => {
                // read_event reports everything else as Skipped; treat a
                // stray error defensively as fatal corruption.
                return Err(io_from_wire(other));
            }
        }
    }
}

fn io_from_wire(e: WireError) -> std::io::Error {
    match e {
        WireError::Io(io) => io,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// A failure observed by [`V3Client`].
#[derive(Debug)]
pub enum V3Error {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server(ErrorReply),
    /// The server answered with an unexpected frame or payload.
    Protocol(String),
    /// A socket read/write timed out ([`V3Client::set_io_timeout`]).
    Timeout(std::io::Error),
}

impl std::fmt::Display for V3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V3Error::Wire(e) => write!(f, "wire: {e}"),
            V3Error::Server(e) => write!(f, "server error {}: {}", e.code, e.message),
            V3Error::Protocol(m) => write!(f, "protocol: {m}"),
            V3Error::Timeout(e) => write!(f, "socket timeout: {e}"),
        }
    }
}

impl std::error::Error for V3Error {}

/// Platform-dependently, a timed-out blocking socket op surfaces as
/// `WouldBlock` (unix) or `TimedOut` (windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl From<WireError> for V3Error {
    fn from(e: WireError) -> V3Error {
        match e {
            WireError::Io(io) if is_timeout(&io) => V3Error::Timeout(io),
            other => V3Error::Wire(other),
        }
    }
}

impl From<std::io::Error> for V3Error {
    fn from(e: std::io::Error) -> V3Error {
        if is_timeout(&e) {
            V3Error::Timeout(e)
        } else {
            V3Error::Wire(WireError::Io(e))
        }
    }
}

/// The outcome columns collected from one streamed scenario reply.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedOutcomes {
    /// The stream's opening totals.
    pub head: OutcomeStreamHead,
    /// KPI per scenario, in input order (concatenated blocks).
    pub kpi: Vec<f64>,
    /// Ledger ids aligned with `kpi`; empty unless recording.
    pub recorded_ids: Vec<u64>,
    /// How many `StreamBlock` frames arrived.
    pub blocks: u32,
}

/// `Read` wrapper counting bytes as they come off the socket, so the
/// benchmark can report true bytes-on-wire (compressed size included).
struct CountingReader<R> {
    inner: R,
    count: Arc<std::sync::atomic::AtomicU64>,
}

impl<R: std::io::Read> std::io::Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Dial `addr` with the given socket timeout and wrap the stream in the
/// client's counted reader / buffered writer pair.
fn open_counted(
    addr: SocketAddr,
    timeout: Option<Duration>,
    received: &Arc<std::sync::atomic::AtomicU64>,
) -> std::io::Result<(BufReader<CountingReader<TcpStream>>, BufWriter<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let reader = BufReader::new(CountingReader {
        inner: stream.try_clone()?,
        count: Arc::clone(received),
    });
    Ok((reader, BufWriter::new(stream)))
}

/// Default socket read/write timeout for [`V3Client`]: generous enough
/// for any real analysis, small enough that a wedged server cannot
/// hang a bench or test run forever.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Bounded retry-with-jittered-backoff contract for
/// [`V3Client::call_json_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, the first included (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay_ms: u64,
    /// Backoff ceiling.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter draw.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x5EED_BACC_0FF5_EED5,
        }
    }
}

/// Is this failure worth a reconnect-and-retry? Only connection-level
/// transport faults qualify; typed server errors and protocol
/// violations are answers, not outages.
fn is_transient(error: &V3Error) -> bool {
    use std::io::ErrorKind;
    match error {
        V3Error::Timeout(_) => true,
        V3Error::Wire(WireError::Io(e)) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::ConnectionRefused
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof
                | ErrorKind::Interrupted
        ),
        V3Error::Wire(WireError::Truncated { .. }) => true,
        // The server closed the stream before answering (EOF in reply
        // position) — e.g. it drained and shut down mid-handshake.
        V3Error::Protocol(m) => m == "server closed the stream",
        _ => false,
    }
}

/// A minimal blocking v3 client: framed binary requests over TCP, with
/// byte counters for traffic metering, socket timeouts (default 30 s,
/// surfacing as [`V3Error::Timeout`]), and bounded jittered retry for
/// transient transport faults.
pub struct V3Client {
    reader: BufReader<CountingReader<TcpStream>>,
    writer: BufWriter<TcpStream>,
    /// Compression preference applied to outgoing request frames.
    pub compression: Compression,
    bytes_sent: u64,
    bytes_received: Arc<std::sync::atomic::AtomicU64>,
    /// Where `connect` dialed, for transparent reconnects.
    addr: SocketAddr,
    io_timeout: Option<Duration>,
}

impl V3Client {
    /// Connect to a running server. The first frame this client sends
    /// routes the connection to the v3 loop (the server sniffs the
    /// magic byte). Read/write timeouts default to
    /// [`DEFAULT_CLIENT_TIMEOUT`]; tune with
    /// [`V3Client::set_io_timeout`].
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<V3Client> {
        let bytes_received = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (reader, writer) = open_counted(addr, Some(DEFAULT_CLIENT_TIMEOUT), &bytes_received)?;
        Ok(V3Client {
            reader,
            writer,
            compression: Compression::Lz4Like,
            bytes_sent: 0,
            bytes_received,
            addr,
            io_timeout: Some(DEFAULT_CLIENT_TIMEOUT),
        })
    }

    /// Set the socket read/write timeout (`None` = block forever).
    /// Timed-out operations surface as [`V3Error::Timeout`].
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        let stream = self.writer.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// Drop the current connection and dial the server again, keeping
    /// the timeout configuration and byte counters.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let (reader, writer) = open_counted(self.addr, self.io_timeout, &self.bytes_received)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Bytes this client has put on the wire (headers included).
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes read off the socket so far.
    #[must_use]
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Send a request frame.
    ///
    /// # Errors
    /// Propagates transport/encoding failures.
    pub fn send(&mut self, request: &WireRequest) -> Result<(), V3Error> {
        let n = write_frame(
            &mut self.writer,
            FrameType::Request,
            &request.encode(),
            self.compression,
        )?;
        self.bytes_sent += n as u64;
        self.writer.flush().map_err(V3Error::from)
    }

    /// Send raw bytes as-is — the malformed-traffic tests forge frames
    /// with this.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.bytes_sent += bytes.len() as u64;
        self.writer.flush()
    }

    /// Read the next event from the server.
    ///
    /// # Errors
    /// Propagates transport/framing failures.
    pub fn read_event(&mut self) -> Result<FrameEvent, WireError> {
        read_event(&mut self.reader)
    }

    /// Read the next *frame*, treating EOF and skipped garbage as
    /// protocol errors (the server is expected to speak clean v3).
    fn next_frame(&mut self) -> Result<Frame, V3Error> {
        match self.read_event()? {
            FrameEvent::Frame(frame) => Ok(frame),
            FrameEvent::Eof => Err(V3Error::Protocol("server closed the stream".into())),
            FrameEvent::Skipped { error, skipped } => Err(V3Error::Protocol(format!(
                "skipped {skipped} malformed bytes from server: {error}"
            ))),
        }
    }

    /// Send any v1/v2 [`Request`] through the JSON-fallback opcode and
    /// parse the enveloped reply.
    ///
    /// # Errors
    /// [`V3Error::Server`] for typed error frames, [`V3Error::Wire`] /
    /// [`V3Error::Protocol`] for transport or framing trouble.
    pub fn call_json(&mut self, id: u64, request: &Request) -> Result<Reply, V3Error> {
        let json = serde_json::to_string(&Envelope::new(id, request.clone()))
            .map_err(|e| V3Error::Protocol(format!("request serialization failed: {e}")))?;
        self.send(&WireRequest {
            id,
            body: RequestBody::Json(json),
            deadline_ms: 0,
        })?;
        let frame = self.next_frame()?;
        match frame.frame_type {
            FrameType::Reply => {
                let reply = WireReply::decode(&frame.payload)?;
                match reply.body {
                    ReplyBody::Json(line) => serde_json::from_str::<Reply>(&line)
                        .map_err(|e| V3Error::Protocol(format!("unparseable reply: {e}"))),
                    ReplyBody::Comparison(_) => {
                        Err(V3Error::Protocol("unexpected comparison reply".into()))
                    }
                }
            }
            FrameType::Error => Err(V3Error::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(V3Error::Protocol(format!(
                "unexpected {other:?} frame in reply position"
            ))),
        }
    }

    /// [`V3Client::call_json`] with bounded reconnect-and-retry under
    /// `policy` for transient transport faults (connection reset /
    /// refused, broken pipe, EOF before a reply, timeouts). Backoff
    /// doubles from `base_delay_ms` up to `max_delay_ms`, with a
    /// seeded jitter draw so retry storms decorrelate and tests stay
    /// reproducible.
    ///
    /// A retry is only attempted when **zero** reply bytes arrived for
    /// the failed attempt — once any of the answer has been read the
    /// request may have executed, and blindly resending a
    /// non-idempotent request (Train, LoadCsv) would double-apply it.
    ///
    /// # Errors
    /// The final attempt's error, or the first non-transient one.
    pub fn call_json_with_retry(
        &mut self,
        id: u64,
        request: &Request,
        policy: RetryPolicy,
    ) -> Result<Reply, V3Error> {
        let mut delay_ms = policy.base_delay_ms.max(1);
        let mut rng = policy.seed | 1;
        let mut attempt = 1;
        loop {
            let received_before = self.bytes_received();
            match self.call_json(id, request) {
                Ok(reply) => return Ok(reply),
                Err(error)
                    if attempt < policy.attempts
                        && is_transient(&error)
                        && self.bytes_received() == received_before =>
                {
                    // xorshift64 jitter in [0, delay): deterministic in
                    // the policy seed, different per retry.
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let jitter = rng % delay_ms.max(1);
                    std::thread::sleep(Duration::from_millis(delay_ms + jitter));
                    delay_ms = (delay_ms * 2).min(policy.max_delay_ms.max(1));
                    // A failed dial is itself transient (the server may
                    // still be restarting); keep the old connection's
                    // error if the last allowed attempt cannot dial.
                    if let Err(dial) = self.reconnect() {
                        if attempt + 1 >= policy.attempts {
                            return Err(V3Error::from(dial));
                        }
                    }
                    attempt += 1;
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Evaluate a columnar scenario grid, collecting the streamed
    /// outcome blocks.
    ///
    /// # Errors
    /// [`V3Error::Server`] for typed error frames (unknown session,
    /// untrained model, ...), [`V3Error::Wire`] / [`V3Error::Protocol`]
    /// for transport or framing trouble.
    pub fn evaluate_grid(
        &mut self,
        id: u64,
        grid: ScenarioGridRequest,
    ) -> Result<StreamedOutcomes, V3Error> {
        self.evaluate_grid_with_deadline(id, grid, 0)
    }

    /// [`V3Client::evaluate_grid`] carrying a server-side deadline
    /// budget (milliseconds; 0 = none) on the request frame. The
    /// server checks it at dispatch and between stream blocks; expiry
    /// surfaces as a [`V3Error::Server`] frame with the
    /// `DeadlineExceeded` code.
    ///
    /// # Errors
    /// As [`V3Client::evaluate_grid`].
    pub fn evaluate_grid_with_deadline(
        &mut self,
        id: u64,
        grid: ScenarioGridRequest,
        deadline_ms: u64,
    ) -> Result<StreamedOutcomes, V3Error> {
        self.send(&WireRequest {
            id,
            body: RequestBody::Scenarios(grid),
            deadline_ms,
        })?;
        let frame = self.next_frame()?;
        let head = match frame.frame_type {
            FrameType::StreamHead => OutcomeStreamHead::decode(&frame.payload)?,
            FrameType::Error => return Err(V3Error::Server(ErrorReply::decode(&frame.payload)?)),
            other => {
                return Err(V3Error::Protocol(format!(
                    "expected a stream head, got {other:?}"
                )))
            }
        };
        // Clamp the pre-allocation: `head.total` is server-declared, so
        // trust it only up to a bounded number of blocks and let the
        // Vec grow from there (StreamEnd still verifies the row count).
        let mut kpi = Vec::with_capacity(
            usize::try_from(head.total)
                .unwrap_or(usize::MAX)
                .min(DEFAULT_BLOCK_ROWS * 16),
        );
        let mut recorded_ids = Vec::new();
        let mut blocks = 0u32;
        loop {
            let frame = self.next_frame()?;
            match frame.frame_type {
                FrameType::StreamBlock => {
                    let block = OutcomeBlock::decode(&frame.payload)?;
                    if block.start != kpi.len() as u64 {
                        return Err(V3Error::Protocol(format!(
                            "stream block starts at row {} but {} rows have arrived",
                            block.start,
                            kpi.len()
                        )));
                    }
                    kpi.extend_from_slice(&block.kpi);
                    recorded_ids.extend_from_slice(&block.recorded_ids);
                    blocks += 1;
                }
                FrameType::StreamEnd => {
                    let end = StreamEnd::decode(&frame.payload)?;
                    if end.blocks != blocks || kpi.len() as u64 != head.total {
                        return Err(V3Error::Protocol(format!(
                            "stream closed after {blocks} blocks / {} rows, head declared {} rows",
                            kpi.len(),
                            head.total
                        )));
                    }
                    return Ok(StreamedOutcomes {
                        head,
                        kpi,
                        recorded_ids,
                        blocks,
                    });
                }
                FrameType::Error => {
                    return Err(V3Error::Server(ErrorReply::decode(&frame.payload)?))
                }
                other => {
                    return Err(V3Error::Protocol(format!(
                        "unexpected {other:?} frame inside a stream"
                    )))
                }
            }
        }
    }

    /// Load a CSV dataset through the binary opcode (the CSV body rides
    /// frame compression).
    ///
    /// # Errors
    /// [`V3Error::Server`] for typed error frames, [`V3Error::Wire`] /
    /// [`V3Error::Protocol`] otherwise.
    pub fn load_csv(&mut self, id: u64, csv: String) -> Result<Reply, V3Error> {
        self.send(&WireRequest {
            id,
            body: RequestBody::LoadCsv { csv },
            deadline_ms: 0,
        })?;
        let frame = self.next_frame()?;
        match frame.frame_type {
            FrameType::Reply => match WireReply::decode(&frame.payload)?.body {
                ReplyBody::Json(line) => serde_json::from_str::<Reply>(&line)
                    .map_err(|e| V3Error::Protocol(format!("unparseable reply: {e}"))),
                ReplyBody::Comparison(_) => {
                    Err(V3Error::Protocol("unexpected comparison reply".into()))
                }
            },
            FrameType::Error => Err(V3Error::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(V3Error::Protocol(format!(
                "unexpected {other:?} frame in reply position"
            ))),
        }
    }

    /// Run a sensitivity-grid comparison through the columnar opcode.
    ///
    /// # Errors
    /// [`V3Error::Server`] for typed error frames, [`V3Error::Wire`] /
    /// [`V3Error::Protocol`] otherwise.
    pub fn comparison(
        &mut self,
        id: u64,
        session: u64,
        percentages: Vec<f64>,
    ) -> Result<ComparisonReply, V3Error> {
        self.send(&WireRequest {
            id,
            body: RequestBody::Comparison(ComparisonRequest {
                session,
                percentages,
            }),
            deadline_ms: 0,
        })?;
        let frame = self.next_frame()?;
        match frame.frame_type {
            FrameType::Reply => match WireReply::decode(&frame.payload)?.body {
                ReplyBody::Comparison(cmp) => Ok(cmp),
                ReplyBody::Json(_) => Err(V3Error::Protocol("expected a comparison reply".into())),
            },
            FrameType::Error => Err(V3Error::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(V3Error::Protocol(format!(
                "unexpected {other:?} frame in reply position"
            ))),
        }
    }
}

/// Build a columnar [`ScenarioGridRequest`] from row-oriented
/// [`ScenarioSpec`]s — the inverse of the server-side mapping, used by
/// tests and the benchmark to feed identical workloads to both
/// protocols.
#[must_use]
pub fn specs_to_grid(
    session: u64,
    specs: &[ScenarioSpec],
    record: bool,
    n_threads: Option<usize>,
) -> ScenarioGridRequest {
    let n = specs.len();
    let mut columns: Vec<DriverColumn> = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        for p in &spec.perturbations.perturbations {
            let (kind, magnitude) = match p.kind {
                whatif_core::perturbation::PerturbationKind::Percentage(pct) => {
                    (PerturbKind::Percentage, pct)
                }
                whatif_core::perturbation::PerturbationKind::Absolute(delta) => {
                    (PerturbKind::Absolute, delta)
                }
            };
            let idx = match columns
                .iter()
                .position(|c| c.name == p.driver && c.kind == kind)
            {
                Some(idx) => idx,
                None => {
                    columns.push(DriverColumn {
                        name: p.driver.clone(),
                        kind,
                        // lint:allow(capped-allocation): n is specs.len(), an in-memory row count, not a wire-declared size
                        values: vec![f64::NAN; n],
                    });
                    columns.len() - 1
                }
            };
            columns[idx].values[row] = magnitude;
        }
    }
    ScenarioGridRequest {
        session,
        n_scenarios: len_to_u32(n),
        record,
        n_threads: len_to_u32(n_threads.unwrap_or(0)),
        names: specs.iter().map(|s| s.name.clone()).collect(),
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_use_their_stable_wire_form() {
        assert_eq!(error_code_wire_form(ErrorCode::BadRequest), "BadRequest");
        assert_eq!(
            error_code_wire_form(ErrorCode::UnknownSession),
            "UnknownSession"
        );
        assert_eq!(error_code_wire_form(ErrorCode::NotTrained), "NotTrained");
    }

    #[test]
    fn grids_and_specs_convert_both_ways() {
        let specs = vec![
            ScenarioSpec::new(
                "a",
                PerturbationSet::new(vec![
                    Perturbation::percentage("Email", 10.0),
                    Perturbation::absolute("Call", 2.0),
                ]),
            ),
            ScenarioSpec::new(
                "b",
                PerturbationSet::new(vec![Perturbation::percentage("Email", -5.0)]),
            ),
            // A baseline row with no perturbations at all.
            ScenarioSpec::new("c", PerturbationSet::new(vec![])),
        ];
        let grid = specs_to_grid(9, &specs, true, Some(4));
        assert_eq!(grid.n_scenarios, 3);
        assert_eq!(grid.columns.len(), 2);
        let back = grid_to_specs(&grid).unwrap();
        assert_eq!(back, specs);
    }

    #[test]
    fn oversized_scenario_counts_are_bad_requests_not_allocations() {
        // Defense-in-depth behind the wire-level cap: a grid built
        // in-process with a huge uncorroborated row count must be
        // rejected before grid_to_specs pre-allocates for it.
        let grid = ScenarioGridRequest {
            session: 1,
            n_scenarios: u32::MAX,
            record: false,
            n_threads: 0,
            names: vec![],
            columns: vec![],
        };
        let err = grid_to_specs(&grid).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn misaligned_ledger_ids_become_a_typed_internal_error() {
        // Two outcomes but only one recorded id: an engine invariant
        // violation that must answer with an Error frame, not panic.
        let outcome = |name: &str| ScenarioOutcome {
            name: name.into(),
            perturbations: PerturbationSet::new(vec![]),
            kpi: 0.5,
            baseline_kpi: 0.4,
        };
        let outcomes = vec![outcome("a"), outcome("b")];
        let engine = Engine::new();
        let mut out = Vec::new();
        stream_outcomes(
            &mut out,
            engine.obs(),
            3,
            &outcomes,
            &[7],
            Compression::None,
            None,
        )
        .unwrap();
        let mut r = std::io::Cursor::new(out);
        let FrameEvent::Frame(frame) = read_event(&mut r).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(frame.frame_type, FrameType::Error);
        let err = ErrorReply::decode(&frame.payload).unwrap();
        assert_eq!(err.id, 3);
        assert_eq!(err.code, error_code_wire_form(ErrorCode::Internal));
        assert!(matches!(read_event(&mut r).unwrap(), FrameEvent::Eof));
    }

    #[test]
    fn contradictory_grids_are_bad_requests() {
        let mut grid = specs_to_grid(
            1,
            &[ScenarioSpec::new(
                "a",
                PerturbationSet::new(vec![Perturbation::percentage("X", 1.0)]),
            )],
            false,
            None,
        );
        grid.n_scenarios = 5; // columns still have 1 value
        let err = grid_to_specs(&grid).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn auto_naming_kicks_in_when_names_are_omitted() {
        let mut grid = specs_to_grid(
            1,
            &[
                ScenarioSpec::new("x", PerturbationSet::new(vec![])),
                ScenarioSpec::new("y", PerturbationSet::new(vec![])),
            ],
            false,
            None,
        );
        grid.names.clear();
        let specs = grid_to_specs(&grid).unwrap();
        assert_eq!(specs[0].name, "s0");
        assert_eq!(specs[1].name, "s1");
    }
}
