//! The HTTP server: accept loop, connection loops, request routing.
//!
//! Threading model: one named service thread accepts, one per live
//! connection serves (the expected concurrency is a handful of load-test
//! clients, not C10K). All request handling reads a single
//! [`LocationSnapshot`] out of the shared [`SnapshotCell`] per request (or
//! per `/batch`), so a response never mixes state from two epochs and
//! never waits on the ingest thread.

use crate::http::{write_response, Head, HeadReader, Request, MAX_HEAD_BYTES};
use dlinfma_obs::{self as obs, JsonValue};
use dlinfma_pool::spawn_service;
use dlinfma_store::{LocationSnapshot, QuerySource, SnapshotCell};
use dlinfma_synth::AddressId;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Most input read and dropped after refusing a bad request head, so the
/// refusal is not lost to a connection reset.
const DISCARD_LIMIT: usize = 64 * MAX_HEAD_BYTES;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Accept-loop poll interval while no connection is pending.
    pub accept_poll_ms: u64,
    /// Per-connection read timeout — the granularity at which idle
    /// connections notice a shutdown.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            accept_poll_ms: 2,
            read_timeout_ms: 25,
        }
    }
}

/// Monotonic request counters, readable at any time via [`Server::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests handled (any status).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Connections accepted.
    pub connections: u64,
}

#[derive(Debug, Default)]
struct Shared {
    stop: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
}

/// The running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, drains every connection thread and joins them.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    cell: Arc<SnapshotCell>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts serving queries against `cell`'s current snapshot.
    pub fn start(cfg: ServeConfig, cell: Arc<SnapshotCell>) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let cell = Arc::clone(&cell);
            let conns = Arc::clone(&conns);
            spawn_service("serve-accept", move || {
                accept_loop(&listener, &cfg, &shared, &cell, &conns);
            })
        };
        Ok(Server {
            addr,
            shared,
            cell,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot cell this server reads from.
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
        }
    }

    /// True once a shutdown was requested — via [`Server::shutdown`] or a
    /// client hitting `GET /shutdown`.
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Stops accepting, lets in-flight requests finish, joins every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    cfg: &ServeConfig,
    shared: &Arc<Shared>,
    cell: &Arc<SnapshotCell>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let cell = Arc::clone(cell);
                let read_timeout = Duration::from_millis(cfg.read_timeout_ms.max(1));
                let handle = spawn_service("serve-conn", move || {
                    conn_loop(stream, read_timeout, &shared, &cell);
                });
                conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(cfg.accept_poll_ms.max(1)));
            }
            Err(_) => {
                // Transient accept error (e.g. aborted handshake): back off
                // one poll interval and keep serving.
                std::thread::sleep(Duration::from_millis(cfg.accept_poll_ms.max(1)));
            }
        }
    }
}

fn conn_loop(stream: TcpStream, read_timeout: Duration, shared: &Shared, cell: &SnapshotCell) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    // Answers one request; false when the response could not be written.
    let mut respond = |status: u16, body: JsonValue| {
        shared.requests.fetch_add(1, Ordering::Relaxed);
        obs::counter(obs::names::SERVE_REQUESTS_TOTAL).inc();
        if status >= 400 {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            obs::counter(obs::names::SERVE_ERRORS_TOTAL).inc();
        }
        write_response(&mut write_half, status, &body.render()).is_ok()
    };
    let mut reader = HeadReader::new(stream);
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match reader.next_head() {
            Ok(Head::Closed) => return,
            Ok(Head::Request(req)) => {
                let (status, body) = handle(&req, shared, cell);
                if !respond(status, body) || req.close {
                    return;
                }
            }
            // The stream cannot be resynchronised after a bad head: answer,
            // signal end of output, drain what the client is still sending,
            // then close.
            Ok(bad @ (Head::TooLarge | Head::Malformed(_))) => {
                let (status, message) = match bad {
                    Head::Malformed(message) => (400, message),
                    _ => (431, format!("request head exceeds {MAX_HEAD_BYTES} bytes")),
                };
                if respond(status, error_body(&message, cell.load().epoch())) {
                    let _ = write_half.shutdown(Shutdown::Write);
                    reader.discard_input(DISCARD_LIMIT);
                }
                return;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle tick, or a pause mid-head: the reader keeps the
                // partial head; loop around to re-check the stop flag.
            }
            Err(_) => return,
        }
    }
}

fn source_str(src: QuerySource) -> &'static str {
    match src {
        QuerySource::Address => "address",
        QuerySource::Building => "building",
        QuerySource::Geocode => "geocode",
    }
}

/// One lookup result object (no epoch — the enclosing response carries it).
fn lookup_json(snap: &LocationSnapshot, addr: u32) -> Option<JsonValue> {
    let (p, src) = snap.query(AddressId(addr))?;
    Some(JsonValue::Obj(vec![
        ("address".into(), JsonValue::Num(f64::from(addr))),
        ("x".into(), JsonValue::Num(p.x)),
        ("y".into(), JsonValue::Num(p.y)),
        ("source".into(), JsonValue::Str(source_str(src).into())),
    ]))
}

fn error_body(message: &str, epoch: u64) -> JsonValue {
    JsonValue::Obj(vec![
        ("error".into(), JsonValue::Str(message.into())),
        ("epoch".into(), JsonValue::Num(epoch as f64)),
    ])
}

/// Routes one request. Every branch loads the snapshot at most once, so a
/// response is internally consistent by construction.
fn handle(req: &Request, shared: &Shared, cell: &SnapshotCell) -> (u16, JsonValue) {
    let _span = obs::trace_span(obs::names::SERVE_REQUEST);
    if req.method != "GET" {
        return (
            405,
            error_body("only GET is supported", cell.load().epoch()),
        );
    }
    match req.path.as_str() {
        "/lookup" => {
            let snap = cell.load();
            let Some(addr) = req.param("address").and_then(|v| v.parse::<u32>().ok()) else {
                return (
                    400,
                    error_body("missing or non-numeric `address` parameter", snap.epoch()),
                );
            };
            match lookup_json(&snap, addr) {
                Some(JsonValue::Obj(mut fields)) => {
                    fields.push(("epoch".into(), JsonValue::Num(snap.epoch() as f64)));
                    fields.push((
                        "days".into(),
                        JsonValue::Num(f64::from(snap.days_ingested())),
                    ));
                    (200, JsonValue::Obj(fields))
                }
                _ => (404, error_body("unknown address", snap.epoch())),
            }
        }
        "/batch" => {
            // One load answers the whole batch: the epoch consistency the
            // tests and the load generator assert on.
            let snap = cell.load();
            let Some(raw) = req.param("addresses") else {
                return (
                    400,
                    error_body("missing `addresses` parameter", snap.epoch()),
                );
            };
            let mut results = Vec::new();
            for part in raw.split(',').filter(|p| !p.is_empty()) {
                let Ok(addr) = part.parse::<u32>() else {
                    return (
                        400,
                        error_body("non-numeric entry in `addresses`", snap.epoch()),
                    );
                };
                results.push(lookup_json(&snap, addr).unwrap_or(JsonValue::Null));
            }
            (
                200,
                JsonValue::Obj(vec![
                    ("epoch".into(), JsonValue::Num(snap.epoch() as f64)),
                    (
                        "days".into(),
                        JsonValue::Num(f64::from(snap.days_ingested())),
                    ),
                    ("results".into(), JsonValue::Arr(results)),
                ]),
            )
        }
        "/healthz" => {
            let snap = cell.load();
            (
                200,
                JsonValue::Obj(vec![
                    ("status".into(), JsonValue::Str("ok".into())),
                    ("epoch".into(), JsonValue::Num(snap.epoch() as f64)),
                    ("healthy".into(), JsonValue::Bool(snap.healthy())),
                    (
                        "days".into(),
                        JsonValue::Num(f64::from(snap.days_ingested())),
                    ),
                    ("anomalies".into(), JsonValue::Num(snap.anomalies() as f64)),
                ]),
            )
        }
        "/stats" => {
            let snap = cell.load();
            (
                200,
                JsonValue::Obj(vec![
                    ("epoch".into(), JsonValue::Num(snap.epoch() as f64)),
                    (
                        "requests".into(),
                        JsonValue::Num(shared.requests.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "errors".into(),
                        JsonValue::Num(shared.errors.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "connections".into(),
                        JsonValue::Num(shared.connections.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "addresses".into(),
                        JsonValue::Num(snap.n_addresses() as f64),
                    ),
                    ("inferred".into(), JsonValue::Num(snap.len() as f64)),
                    (
                        "candidates".into(),
                        JsonValue::Num(snap.n_candidates() as f64),
                    ),
                    ("stays".into(), JsonValue::Num(snap.n_stays() as f64)),
                    ("shards".into(), JsonValue::Num(snap.n_shards() as f64)),
                    (
                        "shard_epochs".into(),
                        JsonValue::Arr(
                            snap.shard_epochs()
                                .iter()
                                .map(|&e| JsonValue::Num(e as f64))
                                .collect(),
                        ),
                    ),
                ]),
            )
        }
        "/shutdown" => {
            shared.stop.store(true, Ordering::Relaxed);
            (
                200,
                JsonValue::Obj(vec![(
                    "status".into(),
                    JsonValue::Str("shutting down".into()),
                )]),
            )
        }
        _ => (404, error_body("no such endpoint", cell.load().epoch())),
    }
}
