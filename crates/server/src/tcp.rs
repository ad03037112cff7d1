//! Concurrent TCP transport. Each connection speaks either
//! line-delimited JSON — one request per line, in v1 bare [`Request`]
//! or v2 [`Envelope`] framing — or the v3 binary frame protocol; the
//! first byte decides. A v3 frame opens with the magic byte `0xB3`,
//! which no JSON line starts with, so the server peeks one byte and
//! routes the whole connection to [`crate::v3`] or to the JSON loop.
//! All three protocol generations coexist on one listening socket.
//!
//! JSON request lines are bounded by the same
//! [`whatif_wire::MAX_FRAME_BYTES`] budget as v3 frames: an overlong
//! line is drained (never buffered), answered with a typed
//! `BadRequest`, and the connection keeps serving.
//!
//! Each accepted connection gets its own thread over a shared
//! [`Engine`], so two clients make progress simultaneously; per-session
//! locking inside the engine keeps long `Train`/`GoalInversionView`
//! calls from serializing unrelated sessions.
//!
//! # Overload, timeouts, and shutdown
//!
//! [`ServeOptions`] bounds what one server instance will take on:
//!
//! - a **connection cap**: connections over
//!   [`ServeOptions::max_connections`] are answered with a typed
//!   `Overloaded` error in whichever framing they opened with, then
//!   closed, and `shed_total` is incremented;
//! - **socket timeouts**: a connection idle (or wedged) past
//!   [`ServeOptions::read_timeout`] / [`ServeOptions::write_timeout`]
//!   is closed cleanly instead of pinning its thread forever;
//! - **graceful drain**: any client sending [`Request::Shutdown`]
//!   (bare, enveloped, or inside a batch) raises the stop flag. The
//!   accept loop polls its listener instead of blocking in `accept()`,
//!   so it observes the flag within one poll interval — the seed's racy
//!   self-connect wake-up is gone. New connections are then refused,
//!   requests already being served get up to
//!   [`ServeOptions::drain_deadline_ms`] to finish, and whatever
//!   remains is severed.

use crate::engine::Engine;
use crate::protocol::{ApiError, Envelope, Reply, Request, Response};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use whatif_core::ErrorCode;
use whatif_obs::lockcheck::Mutex;
use whatif_obs::{clock, logger, Counter, Level, Record};

/// How long the accept loop sleeps between polls of its nonblocking
/// listener. Bounds both shutdown latency and idle CPU burn.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Socket budget for telling a shed connection why it was refused.
/// A peer that cannot take delivery of one small error frame in this
/// window is simply dropped.
const SHED_REPLY_TIMEOUT: Duration = Duration::from_millis(250);

/// Transport limits and shutdown behavior for one server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-connection socket read timeout; `None` waits forever (the
    /// seed behavior). Expiry closes the connection cleanly.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout; `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Connections being served at once before new ones are shed with
    /// a typed `Overloaded` error.
    pub max_connections: usize,
    /// How long shutdown waits for in-flight requests to finish before
    /// severing their sockets.
    pub drain_deadline_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 64,
            drain_deadline_ms: 2_000,
        }
    }
}

/// RAII marker for one request currently being served: counted from
/// the moment a complete request is in hand until its reply is flushed.
/// Graceful drain waits on this count, not on open connections, so an
/// idle keep-alive client cannot hold shutdown hostage.
pub(crate) struct BusyGuard<'a> {
    busy: &'a AtomicUsize,
}

impl<'a> BusyGuard<'a> {
    pub(crate) fn hold(busy: &'a AtomicUsize) -> BusyGuard<'a> {
        busy.fetch_add(1, Ordering::AcqRel);
        BusyGuard { busy }
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.busy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Every open connection's socket, keyed by an id private to this
/// table. Registration hands back a [`ConnSlot`] whose drop removes the
/// entry, so the table never outgrows the connection cap; drain severs
/// whatever is still registered when the grace period ends.
struct ConnTable {
    next_id: AtomicU64,
    open: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnTable {
    fn new() -> ConnTable {
        ConnTable {
            next_id: AtomicU64::new(0),
            open: Mutex::new("tcp.conns", HashMap::new()),
        }
    }

    fn open_count(&self) -> usize {
        self.open.lock().len()
    }

    /// Track `stream` (a `try_clone` of the served socket) until the
    /// returned slot drops. `None` — the clone failed — serves the
    /// connection untracked rather than refusing it.
    fn register(self: &Arc<Self>, stream: Option<TcpStream>) -> ConnSlot {
        let id = stream.map(|stream| {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.open.lock().insert(id, stream);
            id
        });
        ConnSlot {
            table: Arc::clone(self),
            id,
        }
    }

    /// Sever every registered socket in both directions; their handler
    /// threads observe EOF/`BrokenPipe` and exit on their own.
    fn sever_all(&self) {
        for stream in self.open.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

struct ConnSlot {
    table: Arc<ConnTable>,
    id: Option<u64>,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.table.open.lock().remove(&id);
        }
    }
}

/// Start serving on `addr` (use port 0 for an ephemeral port) with a
/// fresh engine and default [`ServeOptions`]. Returns the bound address
/// and the accept-loop join handle; the server stops after a client
/// sends [`Request::Shutdown`].
///
/// # Errors
/// Propagates socket bind errors.
pub fn serve(addr: &str) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    serve_with_engine(addr, Arc::new(Engine::new()))
}

/// Start serving on `addr` over a caller-supplied engine, so sessions
/// can be shared with in-process callers.
///
/// # Errors
/// Propagates socket bind errors.
pub fn serve_with_engine(
    addr: &str,
    engine: Arc<Engine>,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    serve_with_options(addr, engine, ServeOptions::default())
}

/// Start serving on `addr` with explicit transport limits.
///
/// # Errors
/// Propagates socket bind errors.
pub fn serve_with_options(
    addr: &str,
    engine: Arc<Engine>,
    options: ServeOptions,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let busy = Arc::new(AtomicUsize::new(0));
    let conns = Arc::new(ConnTable::new());
    let handle = std::thread::spawn(move || {
        accept_loop(&listener, &engine, &stop, &busy, &conns, &options);
        // Refuse new connections from this instant; the drain below
        // only has to wait out requests already in flight.
        drop(listener);
        drain(&busy, &conns, options.drain_deadline_ms);
    });
    Ok((local, handle))
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    busy: &Arc<AtomicUsize>,
    conns: &Arc<ConnTable>,
    options: &ServeOptions,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(e) => {
                logger()
                    .emit(Record::new(Level::Error, "accept_error").str("error", &e.to_string()));
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
        };
        if conns.open_count() >= options.max_connections {
            let engine = Arc::clone(engine);
            let max = options.max_connections;
            std::thread::spawn(move || shed_connection(stream, &engine, max));
            continue;
        }
        // The listener is nonblocking; the served socket must not be.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        let _ = stream.set_read_timeout(options.read_timeout);
        let _ = stream.set_write_timeout(options.write_timeout);
        let slot = conns.register(stream.try_clone().ok());
        let engine = Arc::clone(engine);
        let stop = Arc::clone(stop);
        let busy = Arc::clone(busy);
        std::thread::spawn(move || {
            let _slot = slot;
            if let Err(e) = handle_client(stream, &engine, &stop, &busy) {
                // A dropped client is not fatal to the server.
                logger()
                    .emit(Record::new(Level::Error, "client_error").str("error", &e.to_string()));
            }
        });
    }
}

/// Refuse one over-cap connection with a typed `Overloaded` error in
/// whichever framing its first byte announces, then close it. Runs on
/// its own short-lived thread so a peer slow to take delivery cannot
/// stall the accept loop.
fn shed_connection(mut stream: TcpStream, engine: &Engine, max: usize) {
    let obs = engine.obs();
    obs.shed_total.inc();
    logger().emit(Record::new(Level::Warn, "connection_shed").u64("max_connections", max as u64));
    let _ = stream.set_read_timeout(Some(SHED_REPLY_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SHED_REPLY_TIMEOUT));
    let mut first = [0u8; 1];
    let v3 = matches!(stream.peek(&mut first), Ok(1) if first[0] == whatif_wire::WIRE_MAGIC[0]);
    let message = format!("server at capacity ({max} connections); retry with backoff");
    if v3 {
        let _ = stream.write_all(&crate::v3::overloaded_frame_bytes(&message));
    } else if let Ok(line) = serde_json::to_string(&Response::Error(ApiError::overloaded(message)))
    {
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.write_all(b"\n");
    }
    let _ = stream.flush();
}

/// Wait for in-flight requests to finish (up to `deadline_ms`), then
/// sever every surviving socket so idle handler threads exit without
/// waiting out their read timeout.
fn drain(busy: &AtomicUsize, conns: &ConnTable, deadline_ms: u64) {
    let start = clock::now();
    loop {
        let in_flight = busy.load(Ordering::Acquire);
        if in_flight == 0 {
            break;
        }
        if clock::elapsed_us(start) / 1_000 >= deadline_ms {
            logger().emit(
                Record::new(Level::Warn, "drain_deadline_expired")
                    .u64("in_flight", in_flight as u64),
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    conns.sever_all();
}

/// `Read` wrapper feeding every socket byte into the process-wide
/// `net.bytes_in` counter and a per-connection total. Sits *inside* the
/// `BufReader`, so buffered refills are counted exactly once. Carries
/// the `tcp.read` fault point: chaos policies can fail the read or
/// clamp it to a short fill.
struct MeteredReader<R> {
    inner: R,
    process: Arc<Counter>,
    connection: Arc<AtomicU64>,
}

impl<R: Read> Read for MeteredReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(e) = whatif_chaos::inject_io("tcp.read") {
            return Err(e);
        }
        let want = whatif_chaos::chunk("tcp.read", buf.len());
        let n = self.inner.read(&mut buf[..want])?;
        self.process.add(n as u64);
        self.connection.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// `Write` twin of [`MeteredReader`]: counts bytes as the `BufWriter`
/// flushes them to the socket, and carries the `tcp.write` fault point
/// (injected errors and short writes).
struct MeteredWriter<W> {
    inner: W,
    process: Arc<Counter>,
    connection: Arc<AtomicU64>,
}

impl<W: Write> Write for MeteredWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(e) = whatif_chaos::inject_io("tcp.write") {
            return Err(e);
        }
        let take = whatif_chaos::chunk("tcp.write", buf.len());
        let n = self.inner.write(&buf[..take])?;
        self.process.add(n as u64);
        self.connection.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A socket timeout surfaces as `WouldBlock` or `TimedOut` depending on
/// the platform; either way the connection sat past its budget.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_client(
    stream: TcpStream,
    engine: &Engine,
    stop: &AtomicBool,
    busy: &AtomicUsize,
) -> std::io::Result<()> {
    let obs = engine.obs();
    obs.connections_total.inc();
    obs.connections_open.inc();
    let conn_in = Arc::new(AtomicU64::new(0));
    let conn_out = Arc::new(AtomicU64::new(0));
    let result = match serve_sniffed(stream, engine, stop, busy, &conn_in, &conn_out) {
        // An idle connection hitting its socket timeout is a clean
        // close, not a client error.
        Err(e) if is_timeout(&e) => {
            logger().emit(Record::new(Level::Debug, "connection_idle_timeout"));
            Ok(())
        }
        other => other,
    };
    obs.connections_open.dec();
    logger().emit(
        Record::new(Level::Debug, "connection_closed")
            .u64("bytes_in", conn_in.load(Ordering::Relaxed))
            .u64("bytes_out", conn_out.load(Ordering::Relaxed))
            .bool("error", result.is_err()),
    );
    result
}

fn serve_sniffed(
    stream: TcpStream,
    engine: &Engine,
    stop: &AtomicBool,
    busy: &AtomicUsize,
    conn_in: &Arc<AtomicU64>,
    conn_out: &Arc<AtomicU64>,
) -> std::io::Result<()> {
    let obs = engine.obs();
    let mut reader = BufReader::new(MeteredReader {
        inner: stream.try_clone()?,
        process: Arc::clone(&obs.bytes_in),
        connection: Arc::clone(conn_in),
    });
    let mut writer = BufWriter::new(MeteredWriter {
        inner: stream,
        process: Arc::clone(&obs.bytes_out),
        connection: Arc::clone(conn_out),
    });
    // Sniff the first byte: v3 frames open with 0xB3, which is never
    // the first byte of a JSON request line.
    let first = match reader.fill_buf()? {
        [] => return Ok(()), // connected and left without a word
        buf => buf[0],
    };
    let shutdown = if first == whatif_wire::WIRE_MAGIC[0] {
        crate::v3::serve_connection(&mut reader, &mut writer, engine, stop, busy)?
    } else {
        serve_json_lines(&mut reader, &mut writer, engine, stop, busy)?
    };
    if shutdown {
        // The polling accept loop observes the flag within one poll
        // interval; no wake-up connection is needed.
        stop.store(true, Ordering::SeqCst);
    }
    Ok(())
}

/// The v1/v2 loop: bounded JSON lines in, JSON lines out. Returns
/// whether the connection requested shutdown.
fn serve_json_lines(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    engine: &Engine,
    stop: &AtomicBool,
    busy: &AtomicUsize,
) -> std::io::Result<bool> {
    loop {
        let line = match read_bounded_line(reader, whatif_wire::MAX_FRAME_BYTES)? {
            None => return Ok(false),
            Some(BoundedLine::TooLong { discarded }) => {
                // The overlong line was drained without buffering; the
                // sender gets a typed error and the connection lives on.
                engine.obs().record_error(ErrorCode::BadRequest);
                let error = ApiError::bad_request(format!(
                    "request line of {discarded} bytes exceeds the {}-byte limit",
                    whatif_wire::MAX_FRAME_BYTES
                ));
                let reply = serde_json::to_string(&Response::Error(error))
                    .unwrap_or_else(|_| String::from("{\"Error\":null}"));
                writer.write_all(reply.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                continue;
            }
            Some(BoundedLine::Line(line)) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        // A complete request is in hand: count it against graceful
        // drain until its reply is flushed.
        let shutdown = {
            let _busy = BusyGuard::hold(busy);
            let (reply, shutdown) = engine.dispatch_line(&line);
            writer.write_all(reply.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            shutdown
        };
        if shutdown {
            return Ok(true);
        }
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
    }
}

/// One bounded request line.
#[derive(Debug)]
enum BoundedLine {
    /// A complete line (newline stripped) within the budget.
    Line(String),
    /// The line exceeded `max` bytes; it was consumed up to and
    /// including its newline without ever being buffered whole.
    TooLong {
        /// Bytes discarded (excluding the terminating newline).
        discarded: u64,
    },
}

/// Read one `\n`-terminated line, buffering at most `max` bytes.
/// `None` means clean EOF. Unlike `BufRead::lines`, a hostile or buggy
/// peer streaming an endless line costs O(buffer), not O(line).
fn read_bounded_line(
    reader: &mut impl BufRead,
    max: usize,
) -> std::io::Result<Option<BoundedLine>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            // EOF: a trailing unterminated line still counts.
            if line.is_empty() {
                return Ok(None);
            }
            return Ok(Some(finish_line(line)?));
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    let discarded = (line.len() + pos) as u64;
                    reader.consume(pos + 1);
                    return Ok(Some(BoundedLine::TooLong { discarded }));
                }
                line.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                return Ok(Some(finish_line(line)?));
            }
            None => {
                let n = available.len();
                if line.len() + n > max {
                    // Over budget mid-line: stop buffering and drain to
                    // the newline (or EOF) in buffer-sized gulps.
                    let mut discarded = (line.len() + n) as u64;
                    reader.consume(n);
                    loop {
                        let chunk = reader.fill_buf()?;
                        if chunk.is_empty() {
                            break;
                        }
                        match chunk.iter().position(|&b| b == b'\n') {
                            Some(pos) => {
                                discarded += pos as u64;
                                reader.consume(pos + 1);
                                break;
                            }
                            None => {
                                let len = chunk.len();
                                discarded += len as u64;
                                reader.consume(len);
                            }
                        }
                    }
                    return Ok(Some(BoundedLine::TooLong { discarded }));
                }
                line.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

fn finish_line(mut line: Vec<u8>) -> std::io::Result<BoundedLine> {
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map(BoundedLine::Line).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request line is not valid UTF-8",
        )
    })
}

/// A minimal blocking client for the line-delimited JSON protocol,
/// speaking both wire framings.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Send one raw line and wait for one raw line back. The v1/v2
    /// compatibility tests use this to exercise exact wire bytes.
    ///
    /// # Errors
    /// Propagates socket errors; a closed connection is `UnexpectedEof`.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response)
    }

    /// Send one v1 request and wait for its bare response.
    ///
    /// # Errors
    /// Propagates socket/serialization errors.
    pub fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        let line = encode_line(request)?;
        let response = self.send_raw(&line)?;
        decode_line(&response)
    }

    /// Send one v2 envelope and wait for its reply.
    ///
    /// # Errors
    /// Propagates socket/serialization errors; server-side failures come
    /// back inside the [`Reply`], not as `Err`.
    pub fn call_v2(&mut self, id: u64, request: Request) -> std::io::Result<Reply> {
        let line = encode_line(&Envelope::new(id, request))?;
        let response = self.send_raw(&line)?;
        decode_line(&response)
    }

    /// Send one v2 envelope carrying a request deadline and wait for
    /// its reply. A deadline of `0` is already expired on arrival.
    ///
    /// # Errors
    /// Propagates socket/serialization errors; server-side failures
    /// (including `DeadlineExceeded`) come back inside the [`Reply`].
    pub fn call_v2_with_deadline(
        &mut self,
        id: u64,
        request: Request,
        deadline_ms: u64,
    ) -> std::io::Result<Reply> {
        let line = encode_line(&Envelope::new(id, request).with_deadline_ms(deadline_ms))?;
        let response = self.send_raw(&line)?;
        decode_line(&response)
    }

    /// Execute a whole pipeline in one round trip via
    /// [`Request::Batch`], returning the per-step replies.
    ///
    /// # Errors
    /// Propagates socket/serialization errors, and `InvalidData` if the
    /// server's reply is not a batch response.
    pub fn call_batch(&mut self, id: u64, steps: Vec<Request>) -> std::io::Result<Vec<Reply>> {
        let reply = self.call_v2(id, Request::Batch(steps))?;
        match reply.into_result() {
            Ok(Response::Batch(replies)) => Ok(replies),
            Ok(other) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected a batch response, got {other:?}"),
            )),
            Err(e) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("batch envelope rejected: {e}"),
            )),
        }
    }
}

fn encode_line<T: serde::Serialize>(value: &T) -> std::io::Result<String> {
    serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

fn decode_line<T: serde::Deserialize>(line: &str) -> std::io::Result<T> {
    serde_json::from_str(line).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::UseCase;
    use whatif_core::model_backend::ModelConfig;

    #[test]
    fn bounded_lines_split_and_strip_like_read_line() {
        let data = b"first\r\nsecond\nunterminated";
        let mut r = BufReader::with_capacity(4, &data[..]);
        for expected in ["first", "second", "unterminated"] {
            match read_bounded_line(&mut r, 64).unwrap() {
                Some(BoundedLine::Line(line)) => assert_eq!(line, expected),
                other => panic!(
                    "expected {expected:?}, got another outcome: {:?}",
                    other.is_some()
                ),
            }
        }
        assert!(
            read_bounded_line(&mut r, 64).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn overlong_lines_are_drained_not_buffered() {
        // The long line spans many tiny buffer fills (the over-budget
        // drain path) and the next line must still arrive intact.
        let long = "x".repeat(100);
        let data = format!("{long}\nshort\n");
        let mut r = BufReader::with_capacity(4, data.as_bytes());
        match read_bounded_line(&mut r, 10).unwrap() {
            Some(BoundedLine::TooLong { discarded }) => assert_eq!(discarded, 100),
            _ => panic!("expected TooLong"),
        }
        match read_bounded_line(&mut r, 10).unwrap() {
            Some(BoundedLine::Line(line)) => assert_eq!(line, "short"),
            _ => panic!("the connection stays aligned after a drained line"),
        }

        // Same when the newline sits in the very first buffer fill.
        let mut r = BufReader::with_capacity(64, data.as_bytes());
        match read_bounded_line(&mut r, 10).unwrap() {
            Some(BoundedLine::TooLong { discarded }) => assert_eq!(discarded, 100),
            _ => panic!("expected TooLong"),
        }

        // An endless unterminated line is bounded by EOF, not memory.
        let mut r = BufReader::with_capacity(4, &b"yyyyyyyyyyyyyyyyyyyy"[..]);
        match read_bounded_line(&mut r, 5).unwrap() {
            Some(BoundedLine::TooLong { discarded }) => assert_eq!(discarded, 20),
            _ => panic!("expected TooLong at EOF"),
        }
    }

    #[test]
    fn invalid_utf8_lines_are_invalid_data() {
        let data = [0xFFu8, 0xFE, b'\n'];
        let mut r = BufReader::new(&data[..]);
        let err = read_bounded_line(&mut r, 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn overlong_json_lines_are_answered_and_counted() {
        let engine = Engine::new();
        let overlong = std::io::repeat(b'x').take(whatif_wire::MAX_FRAME_BYTES as u64 + 1);
        let mut reader = BufReader::new(overlong.chain(&b"\n\"ListUseCases\"\n"[..]));
        let mut out = Vec::new();
        let shutdown = serve_json_lines(
            &mut reader,
            &mut out,
            &engine,
            &AtomicBool::new(false),
            &AtomicUsize::new(0),
        )
        .unwrap();
        assert!(!shutdown);
        let out = String::from_utf8(out).unwrap();
        let replies: Vec<Response> = out.lines().map(|l| decode_line(l).unwrap()).collect();
        assert_eq!(replies.len(), 2, "{out}");
        assert_eq!(
            replies[0].as_error().map(|e| e.code),
            Some(ErrorCode::BadRequest)
        );
        assert!(matches!(replies[1], Response::UseCases(_)));
        assert_eq!(
            engine.metrics_snapshot().counter("error.bad_request.count"),
            Some(1)
        );
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let (addr, handle) = serve("127.0.0.1:0").unwrap();
        let mut client = Client::connect(addr).unwrap();

        match client.call(&Request::ListUseCases).unwrap() {
            Response::UseCases(u) => assert_eq!(u.len(), 3),
            other => panic!("unexpected: {other:?}"),
        }

        let session = match client
            .call(&Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(150),
                seed: Some(1),
            })
            .unwrap()
        {
            Response::SessionCreated { session, .. } => session,
            other => panic!("unexpected: {other:?}"),
        };
        client
            .call(&Request::SelectKpi {
                session,
                kpi: "Deal Closed?".into(),
            })
            .unwrap();
        let cfg = ModelConfig {
            n_trees: 8,
            ..ModelConfig::default()
        };
        match client
            .call(&Request::Train {
                session,
                config: Some(cfg),
            })
            .unwrap()
        {
            Response::Trained { kind, .. } => assert_eq!(kind, "random_forest"),
            other => panic!("unexpected: {other:?}"),
        }

        // Malformed request line yields an error response, not a hang.
        let line = client.send_raw("this is not json").unwrap();
        let resp: Response = serde_json::from_str(&line).unwrap();
        assert!(resp.is_error());

        assert_eq!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_works_on_a_wildcard_bind() {
        // A wildcard listener is not connectable at the address it
        // reports; the loopback of the same family still reaches it.
        let (addr, handle) = serve("0.0.0.0:0").unwrap();
        assert!(addr.ip().is_unspecified());
        let loopback = SocketAddr::new(std::net::Ipv4Addr::LOCALHOST.into(), addr.port());
        let mut client = Client::connect(loopback).unwrap();
        assert_eq!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        handle
            .join()
            .expect("accept loop exits despite wildcard bind");
    }

    #[test]
    fn shutdown_from_a_second_client_unblocks_the_listener() {
        // The seed server only observed the stop flag between clients,
        // so this exact scenario used to hang forever.
        let (addr, handle) = serve("127.0.0.1:0").unwrap();
        let mut first = Client::connect(addr).unwrap();
        assert!(matches!(
            first.call(&Request::ListUseCases).unwrap(),
            Response::UseCases(_)
        ));
        // First client stays connected and idle while a second one
        // orders the shutdown.
        let mut second = Client::connect(addr).unwrap();
        assert_eq!(
            second.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        handle
            .join()
            .expect("accept loop exits without new clients");
    }

    #[test]
    fn over_cap_connections_are_shed_with_a_typed_error() {
        let engine = Arc::new(Engine::new());
        let options = ServeOptions {
            max_connections: 1,
            ..ServeOptions::default()
        };
        let (addr, handle) =
            serve_with_options("127.0.0.1:0", Arc::clone(&engine), options).unwrap();
        let mut first = Client::connect(addr).unwrap();
        // A completed call proves the first connection is registered,
        // so the next accept is over the cap.
        assert!(matches!(
            first.call(&Request::ListUseCases).unwrap(),
            Response::UseCases(_)
        ));

        let mut second = Client::connect(addr).unwrap();
        match second.call(&Request::ListUseCases).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.code, whatif_core::ErrorCode::Overloaded);
                assert!(e.message.contains("capacity"), "message: {}", e.message);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(engine.obs().shed_total.get(), 1);

        // The connection under the cap still works, and can shut down.
        assert_eq!(
            first.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        handle.join().unwrap();
    }

    #[test]
    fn idle_connections_time_out_cleanly() {
        let engine = Arc::new(Engine::new());
        let options = ServeOptions {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServeOptions::default()
        };
        let (addr, handle) =
            serve_with_options("127.0.0.1:0", Arc::clone(&engine), options).unwrap();
        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(
            client.call(&Request::ListUseCases).unwrap(),
            Response::UseCases(_)
        ));
        // Go idle past the read timeout: the server closes its end and
        // the next exchange observes a dead socket, not a hang.
        std::thread::sleep(Duration::from_millis(200));
        let err = client.call(&Request::ListUseCases).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error after idle timeout: {err:?}"
        );

        let mut fresh = Client::connect(addr).unwrap();
        assert_eq!(
            fresh.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        handle.join().unwrap();
    }

    #[test]
    fn v2_envelopes_and_batches_over_tcp() {
        let (addr, handle) = serve("127.0.0.1:0").unwrap();
        let mut client = Client::connect(addr).unwrap();

        let reply = client.call_v2(11, Request::ListUseCases).unwrap();
        assert_eq!(reply.id, 11);
        assert!(matches!(
            reply.into_result().unwrap(),
            Response::UseCases(u) if u.len() == 3
        ));

        let cfg = ModelConfig {
            n_trees: 8,
            ..ModelConfig::default()
        };
        let replies = client
            .call_batch(
                12,
                vec![
                    Request::LoadUseCase {
                        use_case: UseCase::DealClosing,
                        n_rows: Some(150),
                        seed: Some(1),
                    },
                    Request::SelectKpi {
                        session: crate::protocol::CURRENT_SESSION,
                        kpi: "Deal Closed?".into(),
                    },
                    Request::Train {
                        session: crate::protocol::CURRENT_SESSION,
                        config: Some(cfg),
                    },
                ],
            )
            .unwrap();
        assert_eq!(replies.len(), 3);
        assert!(replies.iter().all(|r| r.id == 12 && !r.is_error()));

        assert!(!client.call_v2(13, Request::Shutdown).unwrap().is_error());
        handle.join().unwrap();
    }
}
