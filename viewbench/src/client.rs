//! A closed-loop analyst client over one loopback connection: sends a
//! request, waits for the whole reply, decodes and returns it, and in a
//! traced run hands the exchange to the [`Tracer`] for replay.

use crate::gen::{v2_line, v3_grid_frame, v3_json_frame};
use crate::net::{decode_v2, decode_v3, decode_v3_json, V2Conn, V3Answer, V3Conn};
use crate::replay::{Proto, Served, Tracer};
use std::net::SocketAddr;
use std::time::Duration;
use whatif_core::bulk::ScenarioSpec;
use whatif_server::{Reply, Request, Response};

enum Conn {
    V2(V2Conn),
    V3(V3Conn),
}

/// Requests sent and failed (error replies, refusals and transport
/// failures alike) by one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests put on the wire.
    pub sent: u64,
    /// Requests that did not come back as a successful reply.
    pub failed: u64,
}

impl Tally {
    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.failed += other.failed;
    }
}

/// A priced grid: the round trip, one KPI per scenario, and the scenario
/// names when the protocol echoes them.
pub type Priced = (Duration, Vec<f64>, Option<Vec<String>>);

/// One successful exchange.
#[derive(Debug)]
pub struct Exchange {
    /// First request byte written to last reply byte read.
    pub rtt: Duration,
    /// The decoded reply.
    pub reply: Reply,
}

impl Exchange {
    /// The successful response.
    ///
    /// # Panics
    /// Never: [`Client`] only returns replies that carry a result.
    #[must_use]
    pub fn result(&self) -> &Response {
        self.reply
            .result
            .as_ref()
            .expect("exchanges carry a result")
    }
}

/// A client on one connection.
pub struct Client {
    conn: Conn,
    next_id: u64,
    /// What this client has sent and lost so far.
    pub tally: Tally,
}

impl Client {
    /// A v2 JSON-lines client.
    ///
    /// # Errors
    /// Connection failures.
    pub fn v2(addr: SocketAddr) -> Result<Client, String> {
        Ok(Client::over(Conn::V2(
            V2Conn::connect(addr).map_err(|e| e.to_string())?,
        )))
    }

    /// A v3 binary-frame client.
    ///
    /// # Errors
    /// Connection failures.
    pub fn v3(addr: SocketAddr) -> Result<Client, String> {
        Ok(Client::over(Conn::V3(
            V3Conn::connect(addr).map_err(|e| e.to_string())?,
        )))
    }

    fn over(conn: Conn) -> Client {
        Client {
            conn,
            next_id: 1,
            tally: Tally::default(),
        }
    }

    /// Encode `request` for this client's protocol under a fresh id.
    pub fn encode(&mut self, request: &Request) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        match self.conn {
            Conn::V2(_) => v2_line(id, request.clone()),
            Conn::V3(_) => v3_json_frame(id, request.clone()),
        }
    }

    /// Encode and send one request.
    ///
    /// # Errors
    /// Transport failures and error replies.
    pub fn call(
        &mut self,
        request: &Request,
        tracer: Option<&mut Tracer>,
    ) -> Result<Exchange, String> {
        let bytes = self.encode(request);
        self.send(&bytes, request, tracer)
    }

    /// Send one request already encoded by [`Client::encode`] (or the
    /// generators), whose decoded form is `request`.
    ///
    /// # Errors
    /// Transport failures and error replies.
    pub fn send(
        &mut self,
        bytes: &[u8],
        request: &Request,
        tracer: Option<&mut Tracer>,
    ) -> Result<Exchange, String> {
        self.tally.sent += 1;
        let start_ns = tracer.as_ref().map_or(0, |t| t.now_ns());
        let outcome = match &mut self.conn {
            Conn::V2(c) => c
                .round_trip(bytes)
                .map_err(|e| e.to_string())
                .and_then(|(rtt, line)| decode_v2(&line).map(|reply| (rtt, reply, Proto::V2))),
            Conn::V3(c) => c
                .round_trip(bytes)
                .map_err(|e| e.to_string())
                .and_then(|(rtt, raw)| decode_v3_json(&raw).map(|r| (rtt, r, Proto::V3Json))),
        };
        let (rtt, reply, proto) = outcome.inspect_err(|_| self.tally.failed += 1)?;
        if let Some(e) = &reply.error {
            self.tally.failed += 1;
            return Err(format!("{:?} failed: {e}", request.kind()));
        }
        if reply.result.is_none() {
            self.tally.failed += 1;
            return Err("reply carried neither result nor error".into());
        }
        if let Some(t) = tracer {
            t.replay(proto, bytes, request, Served::of(&reply), start_ns, rtt)?;
        }
        Ok(Exchange { rtt, reply })
    }

    /// Price a scenario grid: an `EvaluateScenarios` envelope on v2, a
    /// columnar grid frame on v3. Returns the round trip and one KPI per
    /// scenario, plus the scenario names when the protocol echoes them.
    ///
    /// # Errors
    /// Transport failures and error replies.
    pub fn grid(
        &mut self,
        session: u64,
        specs: &[ScenarioSpec],
        n_threads: usize,
        tracer: Option<&mut Tracer>,
    ) -> Result<Priced, String> {
        let request = Request::EvaluateScenarios {
            session,
            scenarios: specs.to_vec(),
            record: false,
            n_threads: Some(n_threads),
        };
        if matches!(self.conn, Conn::V2(_)) {
            let ex = self.call(&request, tracer)?;
            let Response::ScenariosEvaluated { outcomes, .. } = ex.result() else {
                return Err("grid reply was not a scenario outcome".into());
            };
            let kpis = outcomes.iter().map(|o| o.kpi).collect();
            let names = outcomes.iter().map(|o| o.name.clone()).collect();
            return Ok((ex.rtt, kpis, Some(names)));
        }
        let id = self.next_id;
        self.next_id += 1;
        let frame = v3_grid_frame(id, session, specs, n_threads);
        self.tally.sent += 1;
        let start_ns = tracer.as_ref().map_or(0, |t| t.now_ns());
        let Conn::V3(conn) = &mut self.conn else {
            unreachable!("v2 handled above")
        };
        let answer = conn
            .round_trip(&frame)
            .map_err(|e| e.to_string())
            .and_then(|(rtt, raw)| decode_v3(&raw).map(|a| (rtt, a)));
        let (rtt, kpis) = match answer {
            Ok((rtt, V3Answer::Kpis(kpis))) => (rtt, kpis),
            Ok((_, V3Answer::Json(_))) => {
                self.tally.failed += 1;
                return Err("grid answered with a JSON reply".into());
            }
            Err(e) => {
                self.tally.failed += 1;
                return Err(e);
            }
        };
        if let Some(t) = tracer {
            let served = Served::default();
            t.replay(Proto::V3Grid, &frame, &request, served, start_ns, rtt)?;
        }
        Ok((rtt, kpis, None))
    }
}

/// The session id in a load reply.
///
/// # Errors
/// The reply is not `SessionCreated`.
pub fn session_of(ex: &Exchange) -> Result<(u64, Option<String>), String> {
    match ex.result() {
        Response::SessionCreated {
            session,
            suggested_kpi,
            ..
        } => Ok((*session, suggested_kpi.clone())),
        other => Err(format!("expected SessionCreated, got {other:?}")),
    }
}

/// `Trained.shared` of a train reply.
///
/// # Errors
/// The reply is not `Trained`.
pub fn shared_of(ex: &Exchange) -> Result<bool, String> {
    match ex.result() {
        Response::Trained { shared, .. } => Ok(*shared),
        other => Err(format!("expected Trained, got {other:?}")),
    }
}

/// The perturbed KPI of a sensitivity reply, as bits.
///
/// # Errors
/// The reply is not `Sensitivity`.
pub fn kpi_bits_of(ex: &Exchange) -> Result<u64, String> {
    match ex.result() {
        Response::Sensitivity(s) => Ok(s.perturbed_kpi.to_bits()),
        other => Err(format!("expected Sensitivity, got {other:?}")),
    }
}
