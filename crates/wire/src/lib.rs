//! # whatif-wire
//!
//! Protocol **v3**: the binary columnar wire format (see
//! `docs/PROTOCOL.md`). The v1/v2 protocols ship line-delimited JSON,
//! which makes serialization the dominant cost of bulk paths — a
//! 100k-scenario `EvaluateScenarios` grid spends more time rendering
//! and parsing little JSON objects than scoring scenarios. v3 replaces
//! the text framing with:
//!
//! * **length-prefixed frames** ([`frame`]) — a fixed 24-byte header
//!   (magic, version, frame type, flags, compression byte, payload
//!   lengths, checksum) followed by the payload, so readers never scan
//!   for delimiters and a corrupt frame is detected before decoding;
//! * **columnar blocks** ([`block`]) — scenario inputs and outputs
//!   travel as one contiguous `f64` column per driver / per KPI output
//!   with `u32` name-table indices, not N little JSON objects;
//! * **an in-tree LZ4-style block compressor** ([`lz4`]) — greedy
//!   hash-chain match finding, byte-exact round trip, no external
//!   dependencies — selected per frame by the header's compression
//!   byte;
//! * **chunked streaming** — a large scenario grid streams back as
//!   bounded `StreamBlock` frames instead of one giant reply line.
//!
//! This crate is protocol-*mechanics* only: frames, compression, and
//! block layouts over plain types (`u64`/`f64`/`String`). Mapping wire
//! messages onto engine `Request`s lives in `whatif-server`'s `v3`
//! module, so the dependency arrow stays wire ← server and the engine
//! facade remains transport-agnostic.

pub mod block;
pub mod codec;
pub mod frame;
pub mod lz4;

pub use block::{
    ComparisonReply, ComparisonRequest, DriverColumn, ErrorReply, OutcomeBlock, OutcomeStreamHead,
    PerturbKind, ReplyBody, RequestBody, ScenarioGridRequest, StreamEnd, WireReply, WireRequest,
};
pub use frame::{
    read_event, write_frame, Compression, Frame, FrameEvent, FrameType, WIRE_MAGIC, WIRE_VERSION,
};

/// Hard ceiling on a single frame's payload (compressed *and*
/// decompressed side), shared with the JSON transports as the maximum
/// request-line length: 64 MiB. A peer declaring more is answered with
/// a typed error and the oversized bytes are discarded without
/// buffering.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Rows per streamed outcome block: bounded so a million-row scenario
/// grid never materializes one giant reply frame (8192 × 8 B = 64 KiB
/// of KPI column per block).
pub const DEFAULT_BLOCK_ROWS: usize = 8192;

/// Hard ceiling on the scenario count a single grid request may
/// declare: [`MAX_FRAME_BYTES`] / 8, the most rows one frame could
/// corroborate with even a single `f64` column. `n_scenarios` is
/// otherwise uncorroborated when a grid ships no names and no columns
/// (all-baseline rows), and row counts drive server-side allocation —
/// without this cap a ~40-byte frame could declare `u32::MAX` rows and
/// force a multi-hundred-GiB allocation before session validation.
// lint:allow(no-unchecked-narrowing): const context (try_from is not const); the assert below proves the value fits
pub const MAX_GRID_SCENARIOS: u32 = (MAX_FRAME_BYTES / 8) as u32;
const _: () = assert!(MAX_FRAME_BYTES / 8 <= 0xFFFF_FFFF);

/// Everything that can go wrong reading or decoding v3 traffic.
///
/// Every variant except [`WireError::Truncated`] and [`WireError::Io`]
/// leaves the stream positioned at the next frame boundary, so a server
/// can answer with a typed error and keep the connection.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended mid-frame; the connection is unusable.
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The four magic bytes did not match.
    BadMagic,
    /// The header named a protocol version this build does not speak.
    BadVersion(u8),
    /// The header named an unknown frame type.
    UnknownFrameType(u8),
    /// The header named an unknown compression byte.
    UnknownCompression(u8),
    /// A declared length exceeded the frame budget.
    Oversized {
        /// Declared length.
        declared: u64,
        /// The budget it exceeded.
        limit: usize,
    },
    /// The payload checksum did not match the header.
    BadChecksum,
    /// The payload failed to decompress or decode.
    Corrupt(String),
    /// Underlying transport failure.
    Io(std::io::Error),
}

impl WireError {
    /// Whether the stream is still aligned on a frame boundary after
    /// this error — i.e. the server can reply with a typed error and
    /// keep serving the connection.
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, WireError::Truncated { .. } | WireError::Io(_))
    }

    pub(crate) fn corrupt(message: impl Into<String>) -> WireError {
        WireError::Corrupt(message.into())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "stream truncated while {context}"),
            WireError::BadMagic => f.write_str("bad frame magic"),
            WireError::BadVersion(v) => write!(
                f,
                "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
            ),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::UnknownCompression(c) => write!(f, "unknown compression byte {c:#04x}"),
            WireError::Oversized { declared, limit } => {
                write!(
                    f,
                    "declared length {declared} exceeds the {limit}-byte limit"
                )
            }
            WireError::BadChecksum => f.write_str("payload checksum mismatch"),
            WireError::Corrupt(m) => write!(f, "corrupt payload: {m}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes` — the frame checksum. Strong enough to
/// catch truncation, bit rot, and desynchronized reads; cheap enough to
/// run on every frame.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_published_vectors() {
        // The canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn recoverability_classification() {
        assert!(WireError::BadChecksum.is_recoverable());
        assert!(WireError::BadMagic.is_recoverable());
        assert!(WireError::Oversized {
            declared: 1,
            limit: 0
        }
        .is_recoverable());
        assert!(!WireError::Truncated { context: "x" }.is_recoverable());
        assert!(!WireError::Io(std::io::Error::other("x")).is_recoverable());
    }
}
