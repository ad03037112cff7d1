//! Closed-loop loopback clients that time exactly the exchange: from the
//! first request byte written to the last reply byte read. Requests are
//! encoded before the clock starts and replies are decoded after it
//! stops.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use whatif_server::Reply;
use whatif_wire::frame::HEADER_LEN;
use whatif_wire::{
    read_event, ErrorReply, FrameEvent, FrameType, OutcomeBlock, OutcomeStreamHead, ReplyBody,
    StreamEnd, WireReply, WIRE_MAGIC,
};

/// Socket timeout: a wedged server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn open(addr: SocketAddr) -> std::io::Result<(TcpStream, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let reader = stream.try_clone()?;
    Ok((stream, reader))
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// A v2 JSON-lines connection.
pub struct V2Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl V2Conn {
    /// Dial the server.
    ///
    /// # Errors
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<V2Conn> {
        let (writer, reader) = open(addr)?;
        Ok(V2Conn {
            writer,
            reader: BufReader::with_capacity(1 << 16, reader),
        })
    }

    /// Send one newline-terminated line and read one reply line. Returns
    /// the round trip and the raw reply (newline included).
    ///
    /// # Errors
    /// Socket errors, or EOF before a reply.
    pub fn round_trip(&mut self, line: &[u8]) -> std::io::Result<(Duration, String)> {
        let mut reply = String::new();
        let start = Instant::now();
        self.writer.write_all(line)?;
        let n = self.reader.read_line(&mut reply)?;
        let elapsed = start.elapsed();
        if n == 0 {
            return Err(invalid("server closed the connection".into()));
        }
        Ok((elapsed, reply))
    }
}

/// Decode a v2 reply line.
///
/// # Errors
/// The line is not a [`Reply`].
pub fn decode_v2(line: &str) -> Result<Reply, String> {
    serde_json::from_str(line.trim_end()).map_err(|e| format!("unparseable v2 reply: {e}"))
}

/// A v3 binary-frame connection.
pub struct V3Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl V3Conn {
    /// Dial the server.
    ///
    /// # Errors
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<V3Conn> {
        let (writer, reader) = open(addr)?;
        Ok(V3Conn {
            writer,
            reader: BufReader::with_capacity(1 << 16, reader),
        })
    }

    /// Send one encoded request frame and read raw reply frames until a
    /// terminal one (`Reply`, `StreamEnd` or `Error`). Returns the round
    /// trip and the reply bytes as they came off the socket.
    ///
    /// # Errors
    /// Socket errors, or a reply that does not start with frame magic.
    pub fn round_trip(&mut self, frame: &[u8]) -> std::io::Result<(Duration, Vec<u8>)> {
        let mut raw = Vec::new();
        let start = Instant::now();
        self.writer.write_all(frame)?;
        loop {
            let at = raw.len();
            raw.resize(at + HEADER_LEN, 0);
            self.reader.read_exact(&mut raw[at..])?;
            if raw[at..at + 4] != WIRE_MAGIC {
                return Err(invalid("reply frame without magic".into()));
            }
            let frame_type = raw[at + 5];
            let len = u32::from_le_bytes([raw[at + 8], raw[at + 9], raw[at + 10], raw[at + 11]]);
            let body = at + HEADER_LEN;
            raw.resize(body + len as usize, 0);
            self.reader.read_exact(&mut raw[body..])?;
            if [FrameType::Reply, FrameType::StreamEnd, FrameType::Error]
                .iter()
                .any(|t| *t as u8 == frame_type)
            {
                return Ok((start.elapsed(), raw));
            }
        }
    }
}

/// A decoded v3 answer.
#[derive(Debug)]
pub enum V3Answer {
    /// A JSON-body reply.
    Json(Box<Reply>),
    /// A streamed scenario grid: one KPI per scenario, in input order.
    Kpis(Vec<f64>),
}

/// Decode the raw bytes of one v3 answer.
///
/// # Errors
/// Framing errors, typed server errors, or inconsistent streams.
pub fn decode_v3(raw: &[u8]) -> Result<V3Answer, String> {
    let mut cursor = Cursor::new(raw);
    let mut kpis: Option<Vec<f64>> = None;
    loop {
        let frame = match read_event(&mut cursor).map_err(|e| e.to_string())? {
            FrameEvent::Frame(frame) => frame,
            FrameEvent::Eof => return Err("v3 answer ended early".into()),
            FrameEvent::Skipped { error, .. } => return Err(format!("corrupt v3 frame: {error}")),
        };
        let payload = &frame.payload;
        let err = |e: whatif_wire::WireError| e.to_string();
        match frame.frame_type {
            FrameType::Reply => match WireReply::decode(payload).map_err(err)?.body {
                ReplyBody::Json(line) => {
                    return decode_v2(&line).map(|reply| V3Answer::Json(Box::new(reply)))
                }
                ReplyBody::Comparison(_) => return Err("unexpected comparison reply".into()),
            },
            FrameType::Error => {
                let e = ErrorReply::decode(payload).map_err(err)?;
                return Err(format!("server error {}: {}", e.code, e.message));
            }
            FrameType::StreamHead => {
                let head = OutcomeStreamHead::decode(payload).map_err(err)?;
                kpis = Some(Vec::with_capacity(head.total.min(1 << 20) as usize));
            }
            FrameType::StreamBlock => {
                let block = OutcomeBlock::decode(payload).map_err(err)?;
                let kpis = kpis.as_mut().ok_or("stream block before head")?;
                if block.start != kpis.len() as u64 {
                    return Err("stream blocks out of order".into());
                }
                kpis.extend_from_slice(&block.kpi);
            }
            FrameType::StreamEnd => {
                StreamEnd::decode(payload).map_err(err)?;
                return kpis
                    .map(V3Answer::Kpis)
                    .ok_or("stream end before head".into());
            }
            FrameType::Request => return Err("server sent a request frame".into()),
        }
    }
}

/// The typed reply inside a v3 JSON answer.
///
/// # Errors
/// The answer was a stream, or undecodable.
pub fn decode_v3_json(raw: &[u8]) -> Result<Reply, String> {
    match decode_v3(raw)? {
        V3Answer::Json(reply) => Ok(*reply),
        V3Answer::Kpis(_) => Err("expected a JSON reply, got a stream".into()),
    }
}
