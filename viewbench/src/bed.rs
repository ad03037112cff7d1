//! The system under test: a real `whatif-server` on loopback, serving
//! an [`Engine`] this process also holds, plus the process-level
//! measurements (peak memory) the report needs.

use crate::gen::v2_line;
use crate::net::V2Conn;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use whatif_server::{serve_with_engine, Engine, Request};

/// A running server and the engine behind it.
pub struct Bed {
    /// The engine the server dispatches into (shared with this process,
    /// so the benchmark can read its cache, store and counters).
    pub engine: Arc<Engine>,
    /// Where the server listens.
    pub addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl Bed {
    /// Start a server on an ephemeral loopback port over a fresh engine.
    ///
    /// # Errors
    /// Socket bind errors.
    pub fn start() -> std::io::Result<Bed> {
        let engine = Arc::new(Engine::new());
        let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine))?;
        Ok(Bed {
            engine,
            addr,
            handle: Some(handle),
        })
    }

    /// Ask the server to shut down and wait for its accept loop to end.
    /// Clients must have closed their connections first.
    ///
    /// # Errors
    /// The shutdown request could not be delivered, or the server
    /// thread panicked.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let mut conn = V2Conn::connect(self.addr).map_err(|e| e.to_string())?;
        conn.round_trip(&v2_line(0, Request::Shutdown))
            .map_err(|e| e.to_string())?;
        drop(conn);
        handle
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

impl Drop for Bed {
    fn drop(&mut self) {
        // Best effort on early exits; `stop` reports errors.
        let _ = self.shutdown();
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
