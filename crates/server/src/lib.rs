//! # whatif-server
//!
//! The client-server layer of the SystemD reproduction. The paper's
//! system "has a client-server architecture ... The backend server runs
//! machine learning models to predict KPI objective values and packs
//! them into efficient JSON data structures to send to the client in
//! response to user interactions" (§2).
//!
//! * [`protocol`] — one request/response pair per Figure 2 view (A)–(I),
//!   serialized with serde/JSON; plus the v2 wire envelope
//!   ([`Envelope`]/[`Reply`]), typed errors ([`ApiError`] with
//!   [`ErrorCode`]), and [`Request::Batch`] pipelining.
//! * [`engine`] — the transport-agnostic dispatch facade over a sharded
//!   concurrent session registry: one execution path behind v1/v2 JSON
//!   lines, v3 frames, and in-process callers.
//! * [`registry`] — the generic sharded id → entry registry
//!   (`RwLock` shards, `AtomicU64` ids, per-entry locking).
//! * [`obs`] — engine-side observability: pre-registered per-request
//!   and per-stage instruments over `whatif-obs`, the slow-query log,
//!   and the metrics snapshot served by `Request::MetricsSnapshot`.
//! * [`tcp`] — a thread-per-connection TCP server speaking
//!   line-delimited JSON in both framings, plus a matching client. Each
//!   connection's first byte routes it: the v3 frame magic (`0xB3`)
//!   selects the binary loop, anything else the JSON loop, so v1, v2,
//!   and v3 clients coexist on one socket.
//! * [`v3`] — the protocol-v3 glue over `whatif-wire`: columnar
//!   scenario grids in, streamed outcome blocks out, typed error
//!   frames, and the matching [`V3Client`].

pub mod engine;
pub mod obs;
pub mod protocol;
pub mod registry;
pub mod tcp;
pub mod v3;

pub use engine::Engine;
pub use protocol::{
    ApiError, Envelope, Reply, Request, RequestKind, Response, UseCase, CURRENT_SESSION,
    PROTOCOL_VERSION,
};
pub use tcp::{serve, serve_with_engine, Client};
pub use v3::{V3Client, V3Error};
pub use whatif_core::ErrorCode;
