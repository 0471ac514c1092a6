//! HTTP load generators and the answer check.
//!
//! Each generator runs on one thread with one keep-alive [`HttpClient`]
//! connection at a time. The request mix is 3 `/lookup` to 1 `/batch` of
//! [`BATCH_SIZE`] addresses, with keys drawn uniformly from the whole
//! address universe, so building and geocode fallbacks are answered too.
//!
//! * [`open_loop`] sends request `i` at `start + i / rate` whatever the
//!   server does. It times each request twice: from its due time, so a
//!   stall also charges the requests queued behind it, and from the moment
//!   it was sent (the round trip). How late the generator itself sent is
//!   reported too. Every [`LATENCY_WINDOW`] of due times it opens a fresh
//!   connection.
//! * [`closed_loop`] sends the next request as soon as the previous one
//!   returns and reports throughput.
//!
//! Every answer is compared with [`LocationSnapshot::query`] on the
//! snapshot of the epoch the answer names (see [`History`]); a mismatch,
//! an error status or an I/O error counts the request as failed, and a
//! failed request counts as missing every latency limit.

use crate::spans::SpanLog;
use dlinfma_obs::JsonValue;
use dlinfma_serve::HttpClient;
use dlinfma_store::{LocationSnapshot, QuerySource, SnapshotCell};
use dlinfma_synth::AddressId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop send rate: about a fifth of what one connection sustains
/// closed loop on a quiet 2-vCPU host. At 8k req/s a slowed host plus the
/// ingest of `serve-ingest` pushed the reader past the knee, and p90 jumped
/// from 0.14 to 11–18 ms between runs of the same code.
pub const OPEN_LOOP_RATE: f64 = 4_000.0;

/// How long the open loop keeps one connection, and the length of a
/// latency window of the read-only phases. Lookup percentiles are taken
/// window by window and the median window is reported
/// ([`crate::stats::median_window_percentile`]). A fresh connection gets a
/// server thread of its own: on a 2-vCPU host a round trip costs about 45
/// or 85 us depending on whether client and server thread share a CPU, and
/// one connection held for a whole run reported one placement.
pub const LATENCY_WINDOW: Duration = Duration::from_millis(500);

/// Open-loop requests per [`LATENCY_WINDOW`] at [`OPEN_LOOP_RATE`].
pub const LATENCY_WINDOW_REQUESTS: usize = (OPEN_LOOP_RATE / 2.0) as usize;

/// Addresses per `/batch` request.
pub const BATCH_SIZE: usize = 8;

/// Length of one closed-loop segment. Throughput is the median over
/// segments: on a 2-vCPU host one connection's rate depends on whether the
/// client and its server thread share a CPU, so one long segment would
/// report one placement's rate.
pub const RATE_WINDOW: Duration = Duration::from_millis(500);

/// Failure messages kept per phase (the count is always exact).
const KEEP_ERRORS: usize = 5;

/// The seeded generator of one key stream of one seed.
pub fn key_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// `GET /lookup?address=A`.
    Lookup(u32),
    /// `GET /batch?addresses=A,B,...`.
    Batch(Vec<u32>),
}

impl Req {
    /// The request target.
    pub fn target(&self) -> String {
        match self {
            Req::Lookup(a) => format!("/lookup?address={a}"),
            Req::Batch(addrs) => {
                let list: Vec<String> = addrs.iter().map(u32::to_string).collect();
                format!("/batch?addresses={}", list.join(","))
            }
        }
    }
}

/// The seeded 3:1 lookup/batch mix over addresses `0..universe`.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: StdRng,
    universe: u32,
    sent: u64,
}

impl Mix {
    /// A mix for one stream of one seed.
    pub fn new(seed: u64, stream: u64, universe: u32) -> Self {
        Self {
            rng: key_rng(seed, stream),
            universe: universe.max(1),
            sent: 0,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        self.sent += 1;
        if self.sent.is_multiple_of(4) {
            Req::Batch(
                (0..BATCH_SIZE)
                    .map(|_| self.rng.gen_range(0..self.universe))
                    .collect(),
            )
        } else {
            Req::Lookup(self.rng.gen_range(0..self.universe))
        }
    }
}

/// Every snapshot published during a run, by epoch, so an answer can be
/// checked against the exact state it was served from.
///
/// The publisher calls [`History::record_current`] right after each
/// publish and before building the next snapshot. A reader that sees an
/// epoch not recorded yet finds it still current in the cell; once the
/// cell has moved past an epoch, that epoch has been recorded.
#[derive(Debug)]
pub struct History {
    cell: Arc<SnapshotCell>,
    seen: Mutex<BTreeMap<u64, Arc<LocationSnapshot>>>,
}

impl History {
    /// An empty history over `cell`.
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        Self {
            cell,
            seen: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records the cell's current snapshot and returns its epoch.
    pub fn record_current(&self) -> u64 {
        let snap = self.cell.load();
        let epoch = snap.epoch();
        self.lock().insert(epoch, snap);
        epoch
    }

    /// The cell the snapshots are published to.
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// Every recorded epoch, ascending.
    pub fn epochs(&self) -> Vec<u64> {
        self.lock().keys().copied().collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<LocationSnapshot>>> {
        self.seen.lock().expect("snapshot history lock poisoned")
    }

    fn at(&self, epoch: u64) -> Option<Arc<LocationSnapshot>> {
        if let Some(s) = self.lock().get(&epoch) {
            return Some(Arc::clone(s));
        }
        let current = self.cell.load();
        if current.epoch() == epoch {
            self.lock().insert(epoch, Arc::clone(&current));
            return Some(current);
        }
        self.lock().get(&epoch).cloned()
    }
}

/// Counts of answers by fallback level: address, building, geocode.
pub type Sources = [u64; 3];

fn source_index(src: QuerySource) -> usize {
    match src {
        QuerySource::Address => 0,
        QuerySource::Building => 1,
        QuerySource::Geocode => 2,
    }
}

fn source_name(src: QuerySource) -> &'static str {
    ["address", "building", "geocode"][source_index(src)]
}

/// Checks one result object (or `null`) against the snapshot.
fn check_result(
    snap: &LocationSnapshot,
    addr: u32,
    got: &JsonValue,
    sources: &mut Sources,
) -> Result<(), String> {
    match snap.query(AddressId(addr)) {
        None if got.is_null() => Ok(()),
        None => Err(format!(
            "address {addr}: expected no answer, got {}",
            got.render()
        )),
        Some((p, src)) => {
            let num = |k: &str| got.get(k).and_then(JsonValue::as_f64);
            let same = num("address") == Some(f64::from(addr))
                && num("x").map(f64::to_bits) == Some(p.x.to_bits())
                && num("y").map(f64::to_bits) == Some(p.y.to_bits())
                && got.get("source").and_then(JsonValue::as_str) == Some(source_name(src));
            if !same {
                return Err(format!(
                    "address {addr}: expected ({}, {}, {}), got {}",
                    p.x,
                    p.y,
                    source_name(src),
                    got.render()
                ));
            }
            sources[source_index(src)] += 1;
            Ok(())
        }
    }
}

/// Checks one HTTP answer against the in-process query result for the
/// answer's epoch. Returns that epoch.
fn check_answer(
    req: &Req,
    status: u16,
    body: &JsonValue,
    history: &History,
    sources: &mut Sources,
) -> Result<u64, String> {
    let epoch = body
        .get("epoch")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("answer without epoch: {}", body.render()))? as u64;
    let snap = history
        .at(epoch)
        .ok_or_else(|| format!("answer names epoch {epoch}, which was never published"))?;
    match req {
        Req::Lookup(a) => match (status, snap.query(AddressId(*a))) {
            (200, Some(_)) => check_result(&snap, *a, body, sources)?,
            (404, None) => {}
            (s, _) => return Err(format!("lookup {a}: status {s}: {}", body.render())),
        },
        Req::Batch(addrs) => {
            if status != 200 {
                return Err(format!("batch: status {status}: {}", body.render()));
            }
            let results = body
                .get("results")
                .and_then(JsonValue::as_array)
                .filter(|r| r.len() == addrs.len())
                .ok_or_else(|| format!("batch: malformed results: {}", body.render()))?;
            for (a, got) in addrs.iter().zip(results) {
                check_result(&snap, *a, got, sources)?;
            }
        }
    }
    Ok(epoch)
}

/// What one generator phase did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered correctly.
    pub ok: u64,
    /// Requests that errored or were answered wrongly.
    pub failed: u64,
    /// Per request, microseconds: from the due time for the open loop,
    /// the round trip for the closed loop. Failed requests are infinite.
    pub latency_us: Vec<f64>,
    /// Open loop only: per request, microseconds from sending it to its
    /// checked answer; failed requests are infinite.
    pub round_trip_us: Vec<f64>,
    /// Open loop only: how late each request was sent, microseconds.
    pub late_us: Vec<f64>,
    /// Closed loop only: correct answers per second in each
    /// [`RATE_WINDOW`] segment of the phase.
    pub window_rps: Vec<f64>,
    /// Open loop only: when the first request was due, and the spacing of
    /// due times.
    pub schedule: Option<(Instant, Duration)>,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Answers whose epoch was older than an earlier answer's on the same
    /// connection.
    pub epoch_regressions: u64,
    /// Results by fallback level.
    pub sources: Sources,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    /// Open loop: the indices of the requests due in `[from, to)`.
    pub fn due_between(&self, from: Instant, to: Instant) -> Range<usize> {
        let Some((start, interval)) = self.schedule else {
            return 0..0;
        };
        let index = |t: Instant| {
            let n = t.saturating_duration_since(start).as_nanos();
            let step = interval.as_nanos().max(1);
            (n.div_ceil(step) as usize).min(self.latency_us.len())
        };
        index(from)..index(to)
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(msg);
        }
    }
}

/// One connection plus the per-connection epoch order check.
struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
    last_epoch: u64,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            client: HttpClient::connect(addr).ok(),
            last_epoch: 0,
        }
    }

    /// Replaces the connection with a fresh one, keeping the epoch order
    /// check across both.
    fn reconnect(&mut self) {
        self.client = HttpClient::connect(self.addr).ok();
    }

    /// Sends one request, checks the answer and records it in `phase`.
    /// Returns whether it succeeded.
    fn exchange(
        &mut self,
        req: &Req,
        history: &History,
        phase: &mut Phase,
        log: &mut SpanLog,
    ) -> bool {
        phase.sent += 1;
        if self.client.is_none() {
            self.client = HttpClient::connect(self.addr).ok();
        }
        let Some(client) = self.client.as_mut() else {
            phase.fail(format!("cannot connect to {}", self.addr));
            return false;
        };
        let target = req.target();
        let answer = log.time("serve.request", || client.get(&target));
        let (status, body) = match answer {
            Ok(a) => a,
            Err(e) => {
                self.client = None;
                phase.fail(format!("{target}: {e}"));
                return false;
            }
        };
        match check_answer(req, status, &body, history, &mut phase.sources) {
            Ok(epoch) => {
                if epoch < self.last_epoch {
                    phase.epoch_regressions += 1;
                    phase.fail(format!(
                        "epoch went back from {} to {epoch}",
                        self.last_epoch
                    ));
                    return false;
                }
                self.last_epoch = epoch;
                phase.ok += 1;
                true
            }
            Err(e) => {
                phase.fail(e);
                false
            }
        }
    }
}

/// Runs the open-loop generator at `rate` requests per second until
/// `duration` has passed or `stop` is set.
pub fn open_loop(
    addr: SocketAddr,
    history: &History,
    mut mix: Mix,
    rate: f64,
    duration: Duration,
    stop: &AtomicBool,
    log: &mut SpanLog,
) -> Phase {
    let mut conn = Conn::new(addr);
    let mut phase = Phase::default();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    phase.schedule = Some((start, interval));
    let per_conn = ((rate * LATENCY_WINDOW.as_secs_f64()).round() as u64).max(1);
    let mut due = start;
    while due.duration_since(start) < duration && !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if phase.sent > 0 && phase.sent.is_multiple_of(per_conn) {
            conn.reconnect();
        }
        let sent_at = Instant::now();
        phase
            .late_us
            .push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e6);
        let req = mix.next_req();
        let ok = conn.exchange(&req, history, &mut phase, log);
        let done = Instant::now();
        let (latency, round_trip) = if ok {
            (
                done.duration_since(due).as_secs_f64() * 1e6,
                done.duration_since(sent_at).as_secs_f64() * 1e6,
            )
        } else {
            (f64::INFINITY, f64::INFINITY)
        };
        phase.latency_us.push(latency);
        phase.round_trip_us.push(round_trip);
        due += interval;
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// Runs the closed-loop generator for `duration`, as consecutive
/// [`RATE_WINDOW`] segments that each open a fresh connection, so each
/// segment gets its own server thread and its own placement on the host's
/// CPUs.
pub fn closed_loop(
    addr: SocketAddr,
    history: &History,
    mut mix: Mix,
    duration: Duration,
    log: &mut SpanLog,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while start.elapsed() < duration {
        let mut conn = Conn::new(addr);
        let segment_start = Instant::now();
        let segment_ok = phase.ok;
        while segment_start.elapsed() < RATE_WINDOW {
            let req = mix.next_req();
            let t = Instant::now();
            let ok = conn.exchange(&req, history, &mut phase, log);
            phase.latency_us.push(if ok {
                t.elapsed().as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            });
        }
        phase
            .window_rps
            .push((phase.ok - segment_ok) as f64 / segment_start.elapsed().as_secs_f64());
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_three_lookups_to_one_batch_and_seeded() {
        let reqs: Vec<Req> = {
            let mut m = Mix::new(7, 1, 100);
            (0..400).map(|_| m.next_req()).collect()
        };
        let batches = reqs.iter().filter(|r| matches!(r, Req::Batch(_))).count();
        assert_eq!(batches, 100);
        let again: Vec<Req> = {
            let mut m = Mix::new(7, 1, 100);
            (0..400).map(|_| m.next_req()).collect()
        };
        assert_eq!(reqs, again);
        let other: Vec<Req> = {
            let mut m = Mix::new(8, 1, 100);
            (0..400).map(|_| m.next_req()).collect()
        };
        assert_ne!(reqs, other);
        for r in &reqs {
            match r {
                Req::Lookup(a) => assert!(*a < 100),
                Req::Batch(v) => assert!(v.len() == BATCH_SIZE && v.iter().all(|a| *a < 100)),
            }
        }
    }

    #[test]
    fn due_between_counts_due_times_in_a_half_open_span() {
        let start = Instant::now();
        let step = Duration::from_micros(250);
        let phase = Phase {
            schedule: Some((start, step)),
            latency_us: vec![0.0; 100],
            ..Phase::default()
        };
        // Request i is due at start + i * 250 us.
        assert_eq!(phase.due_between(start, start + step * 4), 0..4);
        let mid = start + Duration::from_micros(260);
        assert_eq!(phase.due_between(mid, start + step * 10), 2..10);
        // Clamped to the requests actually sent.
        assert_eq!(
            phase.due_between(start + step * 90, start + step * 500),
            90..100
        );
        assert_eq!(Phase::default().due_between(start, mid), 0..0);
    }

    #[test]
    fn targets_render() {
        assert_eq!(Req::Lookup(5).target(), "/lookup?address=5");
        assert_eq!(Req::Batch(vec![1, 2]).target(), "/batch?addresses=1,2");
    }
}
