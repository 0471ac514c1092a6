//! The three workloads and what each measures.
//!
//! * `replay-full` — SynthDowBJ Full (40 days, 3 stations) through one
//!   [`Engine`], day after day, then LocMatcher training, one published
//!   snapshot, a checkpoint encode/decode round trip and scoring of the
//!   test split. A short lookup phase against the published snapshot
//!   follows, so the serving metrics exist here too, at Full scale. A
//!   timed run then replays the world once more on a fresh engine.
//! * `serve-read` — set-up replays SynthSubBJ Small, trains, publishes and
//!   boots the [`Server`]; the measured phase is an open-loop reader, then
//!   a closed-loop reader on one connection. Engine and clustering are idle
//!   while it is measured.
//! * `serve-ingest` — SynthDowBJ Small with 20 days on a [`ShardedEngine`]
//!   of one shard per station. Set-up ingests 4 days, trains and boots the
//!   server; the measured phase delivers the other 16 days on a fixed
//!   schedule, each ingested and published while the open-loop reader runs.
//!
//! Each workload's world is generated from [`WORLD_SEED`], the way the
//! paper evaluates on two fixed datasets; `--seed` drives the traffic: the
//! keys of every request stream. Worlds drawn from other seeds differ in
//! engine work by far more than any bound could absorb (over seeds 1–4 the
//! Full replay's ingest took 12.0–16.7 s and training 7.6–11.2 s), which
//! would hide the changes the benchmark exists to show.
//!
//! Set-up runs several times in a timed run ([`Workload::setup_reps`], and
//! between the days of `replay-full`'s replay) and the median is reported,
//! with the medians of whatever set-up measures.

use crate::loadgen::{
    closed_loop, key_rng, open_loop, History, Mix, Phase, LATENCY_WINDOW_REQUESTS, OPEN_LOOP_RATE,
    RATE_WINDOW,
};
use crate::metrics::Values;
use crate::procfs;
use crate::spans::{self, SpanLog};
use crate::stats::{self, DAY_WINDOW};
use dlinfma_core::snapshot::{engine_from_bytes, engine_to_bytes};
use dlinfma_core::{AddressSample, DlInfMaConfig, Engine, LocMatcher, ShardedEngine};
use dlinfma_eval::pipeline_config;
use dlinfma_geo::Point;
use dlinfma_obs::{self as obs, names, IngestReport};
use dlinfma_pool::Pool;
use dlinfma_serve::{train_engine_model, train_sharded_model, ServeConfig, ServeStats, Server};
use dlinfma_store::{LocationSnapshot, SnapshotCell};
use dlinfma_synth::{
    generate_with, replay, spatial_split, world_config, AddressId, Dataset, Preset, Scale,
    TripBatch, WorldConfig,
};
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of every workload's world.
pub const WORLD_SEED: u64 = 1;

/// `serve-ingest`: days ingested during set-up, before training.
const LIVE_SETUP_DAYS: usize = 4;
/// `serve-ingest`: days delivered on the schedule in the measured phase,
/// one every `--seconds / LIVE_DAYS`. With 20 days, 1 s apart, the slowest
/// day's ingest and publish took 580–920 ms, and in one run of ten the host
/// slowed three days in a row to 1.1–1.4 s, so a day started 690 ms late.
/// With 16 days, 1.25 s apart, the days are the cheaper days 5–20.
const LIVE_DAYS: usize = 16;

/// `serve-ingest`: open-loop read rate beside the writer. At 4k req/s the
/// reader and its server thread slowed the ingest by an amount that changed
/// from run to run (`ingest_s` 3.6–5.8 s over five runs); at 1k req/s the
/// round trip moved between 84 and 110 us, the CPU going idle between
/// requests; at 2k req/s four runs ingested in 3.6–3.9 s with round trips
/// of 66–76 us.
const LIVE_READ_RATE: f64 = 2_000.0;

/// `replay-full`: least time between two of its set-ups. Its set-up is world
/// generation alone, about 30 ms, while the host's speed changes in steps
/// that last seconds; set-ups run back to back all land in one step, so
/// after the first they run between replay days, one per second of replay.
const SETUP_SPACING: Duration = Duration::from_secs(1);

/// `replay-full`: replays of the Full world in a timed run, each on a fresh
/// engine; `ingest_s` and `ingest_tail_day_ms` are the medians over them
/// (the lower middle, so of two the faster). A traced run replays once.
const REPLAYS: usize = 2;

/// In-process probe iterations for `store.query_ns` and `store.load_ns`.
const PROBE_ITERS: u32 = 200_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full replay, training, checkpoint and scoring.
    ReplayFull,
    /// Read-only serving.
    ServeRead,
    /// Serving while a station-sharded fleet ingests.
    ServeIngest,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ReplayFull,
        Workload::ServeRead,
        Workload::ServeIngest,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayFull => "replay-full",
            Workload::ServeRead => "serve-read",
            Workload::ServeIngest => "serve-ingest",
        }
    }

    /// Set-ups before the measured phase of a timed run; `setup_s` is the
    /// median of all set-ups. `replay-full` adds one per [`SETUP_SPACING`]
    /// of its replay, about a dozen in all.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ReplayFull => 1,
            Workload::ServeRead => 3,
            Workload::ServeIngest => 3,
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run parameters shared by every pass.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Time origin of every span log.
    pub origin: Instant,
}

/// What one pass of a workload measured.
#[derive(Debug)]
pub struct Pass {
    /// End-to-end metrics.
    pub e2e: Values,
    /// Per-layer metrics (complete only in a traced pass).
    pub layers: Values,
    /// Operations attempted: HTTP requests, day ingests, publishes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks by name.
    pub checks: Vec<(String, bool)>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The time tracing overhead is judged on: the measured phase's
    /// engine work, or the mean closed-loop round trip for `serve-read`.
    pub headline_s: f64,
    /// Span logs of every thread.
    pub logs: Vec<SpanLog>,
}

impl Pass {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    fn phase_line(&mut self, name: &str, p: &Phase) {
        self.line(format!(
            "phase {name}: sent {} succeeded {} failed {} in {:.3} s ({:.1} answers/s)",
            p.sent,
            p.ok,
            p.failed,
            p.elapsed_s,
            p.ok as f64 / p.elapsed_s.max(1e-9)
        ));
        for e in &p.errors {
            self.line(format!("  {name} failure: {e}"));
        }
        self.attempted += p.sent;
        self.failed += p.failed;
        self.check(
            format!("{name}: every answer equals the in-process query"),
            p.failed == 0,
        );
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `v` as `a, b, c` with `digits` decimals.
fn join(v: &[f64], digits: usize) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:.digits$}")).collect();
    parts.join(", ")
}

fn med(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(f64::NAN)
}

/// Per-stage sums over every ingest of a pass, from the [`IngestReport`]s.
#[derive(Debug, Default)]
struct Core {
    extract_ns: u64,
    cluster_ns: u64,
    retrieve_ns: u64,
    features_ns: u64,
    materialize_ns: u64,
    cluster_cpu_ns: u64,
    dirty: u64,
    busy_ns: u64,
    idle_ns: u64,
    steals: u64,
    /// Ingest time per shard (one entry for a single engine).
    shard_ns: Vec<u64>,
    /// Process CPU seconds during the ingest calls: every thread, so on
    /// `serve-ingest` the HTTP reader and server threads too.
    cpu_s: f64,
    /// Wall time of every day's ingest, ms, in day order.
    day_ms: Vec<f64>,
    /// How late each day's ingest started, ms.
    day_late_ms: Vec<f64>,
}

impl Core {
    fn add(&mut self, shard: usize, r: &IngestReport) {
        self.extract_ns += r.extraction_ns;
        self.cluster_ns += r.clustering_ns;
        self.retrieve_ns += r.retrieval_ns;
        self.features_ns += r.features_ns;
        self.materialize_ns += r.materialize_ns;
        self.cluster_cpu_ns += r.clustering_cpu_ns;
        self.dirty += r.dirty_addresses;
        if let Some(p) = &r.pool {
            self.busy_ns += p.workers.iter().map(|w| w.busy_ns).sum::<u64>();
            self.idle_ns += p.workers.iter().map(|w| w.idle_ns).sum::<u64>();
            self.steals += p.total_steals();
        }
        if self.shard_ns.len() <= shard {
            self.shard_ns.resize(shard + 1, 0);
        }
        self.shard_ns[shard] += r.total_ns();
    }

    /// Slowest shard's ingest time over the mean shard's.
    fn shard_skew(&self) -> f64 {
        let max = self.shard_ns.iter().copied().max().unwrap_or(0) as f64;
        let mean = stats::mean(&self.shard_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
        mean.filter(|&m| m > 0.0).map_or(f64::NAN, |m| max / m)
    }
}

/// The engine under test: one engine or a station-sharded fleet. One
/// exists per pass, so the size difference of the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Eng {
    Single(Engine),
    Fleet(ShardedEngine),
}

impl Eng {
    fn config(&self) -> &DlInfMaConfig {
        match self {
            Eng::Single(e) => e.config(),
            Eng::Fleet(f) => f.config(),
        }
    }

    fn ingest(&mut self, batch: &TripBatch, core: &mut Core) {
        match self {
            Eng::Single(e) => core.add(0, &e.ingest(batch)),
            Eng::Fleet(f) => {
                for (shard, r) in &f.ingest(batch).shards {
                    core.add(*shard as usize, r);
                }
            }
        }
    }

    fn train(&mut self, ds: &Dataset) -> usize {
        match self {
            Eng::Single(e) => train_engine_model(e, ds),
            Eng::Fleet(f) => train_sharded_model(f, ds),
        }
    }

    fn snapshot(&self, days: u32) -> LocationSnapshot {
        match self {
            Eng::Single(e) => LocationSnapshot::from_engine(e, days),
            Eng::Fleet(f) => LocationSnapshot::from_sharded(f, days),
        }
    }

    fn infer(&self, a: AddressId) -> Option<Point> {
        match self {
            Eng::Single(e) => e.infer(a),
            Eng::Fleet(f) => f.infer(a),
        }
    }

    fn model(&self) -> Option<&LocMatcher> {
        match self {
            Eng::Single(e) => e.model(),
            Eng::Fleet(f) => f.model(),
        }
    }

    fn engines(&self) -> Vec<&Engine> {
        match self {
            Eng::Single(e) => vec![e],
            Eng::Fleet(f) => f.shards().iter().collect(),
        }
    }

    fn executor(&self) -> &Pool {
        match self {
            Eng::Single(e) => e.executor(),
            Eng::Fleet(f) => f.executor(),
        }
    }

    /// Each served address's sample with the positions of its candidates.
    fn samples(&self) -> Vec<(AddressSample, Vec<Point>)> {
        let with_pos = |e: &Engine, s: &AddressSample| {
            let pos = s
                .candidates
                .iter()
                .map(|c| e.pool().candidate(*c).pos)
                .collect();
            (s.clone(), pos)
        };
        match self {
            Eng::Single(e) => e.samples().map(|s| with_pos(e, s)).collect(),
            Eng::Fleet(f) => f
                .merged_samples()
                .into_iter()
                .map(|(shard, s)| with_pos(f.shard(shard), s))
                .collect(),
        }
    }
}

/// Every address's true delivery location.
fn truths(ds: &Dataset) -> HashMap<AddressId, Point> {
    ds.addresses
        .iter()
        .map(|a| (a.id, a.true_delivery_location))
        .collect()
}

/// The epoch count of the model just trained, and whether the probe
/// reproduced that model. The training entry points return only the
/// labelled count, so this copies their labelling (nearest candidate to
/// the true location, non-finite distances skipped), retrains a fresh model
/// on the same split through [`LocMatcher::train_pooled`] and reads its
/// report. Training is bit-for-bit reproducible, so the retrained weights
/// must equal the installed model's; if the library's labelling changes
/// and this copy does not, they differ and the traced run fails. Traced
/// runs only; nothing of it is timed. `trained_on` is [`Eng::samples`]
/// taken right after training, since later days change the samples.
fn probe_epochs(
    eng: &Eng,
    ds: &Dataset,
    trained_on: Vec<(AddressSample, Vec<Point>)>,
) -> (usize, bool) {
    let truth = truths(ds);
    let mut labelled: HashMap<AddressId, AddressSample> = HashMap::new();
    for (mut s, pos) in trained_on {
        let Some(t) = truth.get(&s.address) else {
            continue;
        };
        let d: Vec<f64> = pos.iter().map(|p| p.distance(t)).collect();
        s.label = d
            .iter()
            .enumerate()
            .filter(|(_, x)| x.is_finite())
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i);
        s.truth_distances = Some(d);
        if s.label.is_some() {
            labelled.insert(s.address, s);
        }
    }
    let split = spatial_split(ds, 0.6, 0.2);
    let pick = |ids: &[AddressId]| -> Vec<AddressSample> {
        ids.iter()
            .filter_map(|a| labelled.get(a))
            .cloned()
            .collect()
    };
    let mut model = LocMatcher::new(eng.config().model);
    let epochs = model
        .train_pooled(&pick(&split.train), &pick(&split.val), eng.executor())
        .epochs;
    let bits = |m: &LocMatcher| -> Vec<(String, Vec<usize>, Vec<u32>)> {
        m.export_weights()
            .into_iter()
            .map(|(name, dims, w)| (name, dims, w.iter().map(|x| x.to_bits()).collect()))
            .collect()
    };
    let same = eng
        .model()
        .is_some_and(|installed| bits(installed) == bits(&model));
    (epochs, same)
}

/// Mean distance from [`Engine::infer`]'s answer to the true delivery
/// location over the spatial split's test addresses, and how many test
/// addresses had an answer.
fn score(eng: &Eng, ds: &Dataset) -> (f64, usize, usize) {
    let truth = truths(ds);
    let test = spatial_split(ds, 0.6, 0.2).test;
    let errors: Vec<f64> = test
        .iter()
        .filter_map(|a| Some(eng.infer(*a)?.distance(truth.get(a)?)))
        .collect();
    (
        stats::mean(&errors).unwrap_or(f64::NAN),
        errors.len(),
        test.len(),
    )
}

/// Mean microseconds of one [`Engine::infer`] over the address universe.
fn infer_us(eng: &Eng, ds: &Dataset) -> f64 {
    let t = Instant::now();
    let mut answered = 0usize;
    for a in &ds.addresses {
        answered += usize::from(std::hint::black_box(eng.infer(a.id)).is_some());
    }
    std::hint::black_box(answered);
    t.elapsed().as_secs_f64() * 1e6 / ds.addresses.len().max(1) as f64
}

/// One published snapshot: build, publish, and the moment it was seen
/// through [`SnapshotCell::load`].
struct Published {
    epoch: u64,
    build_ms: f64,
    publish_us: f64,
    visible_at: Instant,
}

fn publish(
    eng: &Eng,
    days: u32,
    history: &History,
    log: &mut SpanLog,
) -> Result<Published, String> {
    let t0 = Instant::now();
    let snap = log.time("store.build", || eng.snapshot(days));
    let t1 = Instant::now();
    let epoch = log.time("store.publish", || history.cell().publish(snap));
    let t2 = Instant::now();
    let seen = log.time("store.load", || history.record_current());
    let visible_at = Instant::now();
    if seen != epoch {
        return Err(format!("published epoch {epoch} but load returned {seen}"));
    }
    Ok(Published {
        epoch,
        build_ms: ms(t1 - t0),
        publish_us: secs(t2 - t1) * 1e6,
        visible_at,
    })
}

/// Ingests `days` back to back: each day is due the moment the previous
/// one is done. `between` runs after every day but the last, outside every
/// timing. Returns the last day's arrival.
fn ingest_back_to_back(
    eng: &mut Eng,
    days: &[TripBatch],
    core: &mut Core,
    log: &mut SpanLog,
    mut between: impl FnMut(&mut SpanLog),
) -> Instant {
    let mut due = Instant::now();
    let mut arrival = due;
    for (i, batch) in days.iter().enumerate() {
        let start = Instant::now();
        core.day_late_ms.push(ms(start - due));
        arrival = start;
        let cpu0 = procfs::cpu_seconds();
        log.time("core.ingest", || eng.ingest(batch, core));
        let done = Instant::now();
        core.day_ms.push(ms(done - start));
        if let (Some(a), Some(b)) = (cpu0, procfs::cpu_seconds()) {
            core.cpu_s += b - a;
        }
        if i + 1 < days.len() {
            between(log);
        }
        due = Instant::now();
    }
    arrival
}

/// One `replay-full` replay: every day into `eng` back to back, recorded
/// as one `ingest_s` and one `ingest_tail_day_ms`. With `setups`, the time
/// of the last set-up, a set-up runs between days whenever
/// [`SETUP_SPACING`] has passed since the last one. Returns the last day's
/// arrival.
fn replay_with_setups(
    eng: &mut Eng,
    days: &[TripBatch],
    world: &(Preset, WorldConfig),
    m: &mut Measured,
    log: &mut SpanLog,
    mut setups: Option<&mut Instant>,
) -> Instant {
    let first_day = m.core.day_ms.len();
    let (setup_s, generate_ms) = (&mut m.setup_s, &mut m.generate_ms);
    let arrival = ingest_back_to_back(eng, days, &mut m.core, log, |log| {
        let Some(last) = setups.as_deref_mut() else {
            return;
        };
        if last.elapsed() >= SETUP_SPACING {
            let t = Instant::now();
            log.begin("bench.setup");
            let extra = build_service(Workload::ReplayFull, world, generate_ms, log);
            log.end();
            setup_s.push(secs(t.elapsed()));
            drop(extra);
            *last = Instant::now();
        }
    });
    m.record_days(first_day);
    arrival
}

/// Checkpoint round trip of every engine: encode, decode, re-encode.
struct RoundTrip {
    encode_ms: f64,
    decode_ms: f64,
    bytes: usize,
    identical: bool,
}

fn round_trip(eng: &Eng, ds: &Dataset, log: &mut SpanLog) -> Result<RoundTrip, String> {
    let cfg = *eng.config();
    let exec = Arc::new(Pool::new(cfg.workers));
    let mut rt = RoundTrip {
        encode_ms: 0.0,
        decode_ms: 0.0,
        bytes: 0,
        identical: true,
    };
    for e in eng.engines() {
        let t = Instant::now();
        let bytes = log.time("snapshot.encode", || engine_to_bytes(e));
        rt.encode_ms += ms(t.elapsed());
        rt.bytes += bytes.len();
        let t = Instant::now();
        let decoded = log.time("snapshot.decode", || {
            engine_from_bytes(&bytes, ds.addresses.clone(), cfg, Arc::clone(&exec))
        });
        rt.decode_ms += ms(t.elapsed());
        let decoded = decoded.map_err(|e| format!("checkpoint decode: {e:?}"))?;
        rt.identical &= log.time("snapshot.encode", || engine_to_bytes(&decoded)) == bytes;
    }
    Ok(rt)
}

/// Nanoseconds per [`LocationSnapshot::query`] and per
/// [`SnapshotCell::load`], over the request mix's keys.
fn probe_store(cell: &SnapshotCell, seed: u64, universe: u32) -> (f64, f64) {
    let snap = cell.load();
    let mut rng = key_rng(seed, 99);
    let keys: Vec<AddressId> = (0..PROBE_ITERS)
        .map(|_| AddressId(rng.gen_range(0..universe.max(1))))
        .collect();
    let t = Instant::now();
    for k in &keys {
        std::hint::black_box(snap.query(*k));
    }
    let query_ns = t.elapsed().as_nanos() as f64 / f64::from(PROBE_ITERS);
    let t = Instant::now();
    for _ in 0..PROBE_ITERS {
        std::hint::black_box(cell.load());
    }
    let load_ns = t.elapsed().as_nanos() as f64 / f64::from(PROBE_ITERS);
    (query_ns, load_ns)
}

fn start_server(cell: &Arc<SnapshotCell>) -> Result<Server, String> {
    Server::start(ServeConfig::default(), Arc::clone(cell)).map_err(|e| format!("server: {e}"))
}

/// Everything the end-to-end and per-layer metrics are computed from.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    ingest_s: Vec<f64>,
    tail_day_ms: Vec<f64>,
    train_s: Vec<f64>,
    freshness_ms: Vec<f64>,
    labelled: usize,
    mae: (f64, usize, usize),
    core: Core,
    /// Days ingested in set-ups whose layer sums were dropped.
    setup_days: usize,
    /// Traced passes: the samples the model was trained on.
    trained_on: Vec<(AddressSample, Vec<Point>)>,
    /// `replay-full`: `VmHWM` read before the extra replays.
    peak_rss_mb: Option<f64>,
    /// `serve-ingest`: when each scheduled day's ingest started and its
    /// epoch became visible.
    busy: Vec<(Instant, Instant)>,
    build_ms: Vec<f64>,
    publish_us: Vec<f64>,
    open: Phase,
    closed: Phase,
    stats: Option<ServeStats>,
    /// Traced passes only.
    probes: Option<Probes>,
    round_trip: Option<RoundTrip>,
}

/// Layer probes made only in traced passes.
struct Probes {
    epochs: usize,
    infer_us: f64,
    query_ns: f64,
    load_ns: f64,
}

impl Measured {
    fn record_publish(&mut self, p: &Published) {
        self.build_ms.push(p.build_ms);
        self.publish_us.push(p.publish_us);
    }

    /// Sums the days ingested since day `first` into `ingest_s` and
    /// `tail_day_ms`.
    fn record_days(&mut self, first: usize) {
        let days = &self.core.day_ms[first..];
        self.ingest_s.push(days.iter().sum::<f64>() / 1e3);
        self.tail_day_ms
            .push(stats::tail_mean(days, DAY_WINDOW).unwrap_or(f64::NAN));
    }

    fn into_pass(self, pass: &mut Pass) {
        let closed_sorted = sorted(&self.closed.latency_us);
        let pct = |v: &[f64], q: f64| stats::nearest_rank(v, q).unwrap_or(f64::NAN);
        // Read-only phases: fixed half-second windows. Under live ingest:
        // one window per day, the requests due while that day was ingested
        // and published, so the figure does not depend on how much of the
        // schedule the writer keeps busy.
        let windows: Vec<_> = if self.busy.is_empty() {
            stats::fixed_windows(self.open.latency_us.len(), LATENCY_WINDOW_REQUESTS)
        } else {
            self.busy
                .iter()
                .map(|&(from, to)| self.open.due_between(from, to))
                .collect()
        };
        let lookup = |samples: &[f64], q: f64| {
            stats::median_window_percentile(samples, &windows, q).unwrap_or(f64::NAN)
        };
        let round_trip = &self.open.round_trip_us;
        let from_due = &self.open.latency_us;
        let window_sizes = sorted(&windows.iter().map(|w| w.len() as f64).collect::<Vec<_>>());
        let setups = sorted(&self.setup_s);
        pass.line(format!(
            "set-up: {} runs, {:.4} s median, {:.4}..{:.4} s",
            setups.len(),
            med(&setups),
            setups.first().copied().unwrap_or(f64::NAN),
            setups.last().copied().unwrap_or(f64::NAN),
        ));
        let open_sorted = sorted(&self.open.latency_us);
        pass.line(format!(
            "open loop: {} samples; {} {} windows of {}..{} requests; median window: round trip p50 {:.1} us, p90 {:.1} us, from due time p50 {:.1} us, p90 {:.1} us; whole stream from due time p50 {:.1} us, p90 {:.1} us",
            open_sorted.len(),
            windows.len(),
            if self.busy.is_empty() { "fixed" } else { "ingest" },
            window_sizes.first().copied().unwrap_or(0.0),
            window_sizes.last().copied().unwrap_or(0.0),
            lookup(round_trip, 50.0),
            lookup(round_trip, 90.0),
            lookup(from_due, 50.0),
            lookup(from_due, 90.0),
            pct(&open_sorted, 50.0),
            pct(&open_sorted, 90.0),
        ));
        pass.check(
            "lookup p50 has at least ten samples beyond it in every window, over at least 5 windows",
            windows.len() >= 5 && windows.iter().all(|w| stats::reportable(w.len(), 50.0)),
        );
        let e = &mut pass.e2e;
        e.set("setup_s", med(&self.setup_s));
        e.set("ingest_s", med(&self.ingest_s));
        e.set("ingest_tail_day_ms", med(&self.tail_day_ms));
        e.set("train_s", med(&self.train_s));
        e.set("mae_m", self.mae.0);
        e.set("freshness_ms", med(&self.freshness_ms));
        e.set("lookup_p50_us", lookup(round_trip, 50.0));
        let peak_rss_mb = self.peak_rss_mb.or_else(procfs::peak_rss_mb);
        e.set("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN));

        let c = &self.core;
        let l = &mut pass.layers;
        l.set("core.extract_s", c.extract_ns as f64 / 1e9);
        l.set("core.cluster_s", c.cluster_ns as f64 / 1e9);
        l.set("core.retrieve_s", c.retrieve_ns as f64 / 1e9);
        l.set("core.features_s", c.features_ns as f64 / 1e9);
        l.set("core.materialize_s", c.materialize_ns as f64 / 1e9);
        l.set("core.cluster_cpu_s", c.cluster_cpu_ns as f64 / 1e9);
        l.set("core.ingest_cpu_s", c.cpu_s);
        l.set("core.dirty_addresses", c.dirty as f64);
        l.set(
            "core.ingest_growth",
            stats::growth_ratio(&c.day_ms, DAY_WINDOW).unwrap_or(f64::NAN),
        );
        for (metric, counter) in [
            ("cluster.inputs", names::CLUSTER_INPUTS),
            ("cluster.merges", names::CLUSTER_MERGES),
            (
                "cluster.stale_heap_entries",
                names::CLUSTER_STALE_HEAP_ENTRIES,
            ),
        ] {
            l.set(metric, obs::counter(counter).get() as f64);
        }
        l.set("pool.busy_s", c.busy_ns as f64 / 1e9);
        l.set("pool.idle_s", c.idle_ns as f64 / 1e9);
        l.set("pool.steals", c.steals as f64);
        l.set("locmatcher.train_s", med(&self.train_s));
        l.set("locmatcher.labelled", self.labelled as f64);
        l.set("store.build_ms", med(&self.build_ms));
        l.set("store.publish_us", med(&self.publish_us));
        l.set("sharded.shard_skew", c.shard_skew());
        let sources = [
            ("store.source_address", 0),
            ("store.source_building", 1),
            ("store.source_geocode", 2),
        ];
        for (metric, i) in sources {
            l.set(
                metric,
                (self.open.sources[i] + self.closed.sources[i]) as f64,
            );
        }
        if let Some(st) = &self.stats {
            l.set("serve.requests", st.requests as f64);
            l.set("serve.errors", st.errors as f64);
            l.set("serve.connections", st.connections as f64);
        }
        l.set("serve.lookup_p90_us", lookup(round_trip, 90.0));
        l.set("loadgen.due_p50_us", lookup(from_due, 50.0));
        l.set("loadgen.due_p90_us", lookup(from_due, 90.0));
        l.set("serve.closed_rps", med(&self.closed.window_rps));
        l.set("serve.rtt_p99_us", pct(&closed_sorted, 99.0));
        l.set("serve.rtt_p999_us", pct(&closed_sorted, 99.9));
        let late = sorted(&self.open.late_us);
        l.set("loadgen.late_p99_us", pct(&late, 99.0));
        l.set(
            "loadgen.late_max_ms",
            late.last().copied().unwrap_or(f64::NAN) / 1e3,
        );
        l.set(
            "loadgen.day_late_max_ms",
            c.day_late_ms.iter().copied().fold(f64::NAN, f64::max),
        );
        l.set("synth.generate_ms", med(&self.generate_ms));
        if let Some(p) = &self.probes {
            l.set("locmatcher.epochs", p.epochs as f64);
            l.set("locmatcher.infer_us", p.infer_us);
            l.set("store.query_ns", p.query_ns);
            l.set("store.load_ns", p.load_ns);
        }
        if let Some(rt) = &self.round_trip {
            l.set("snapshot.encode_ms", rt.encode_ms);
            l.set("snapshot.decode_ms", rt.decode_ms);
            l.set("snapshot.bytes", rt.bytes as f64);
            pass.check("checkpoint re-encodes byte-identically", rt.identical);
        }
        pass.line(format!(
            "mae_m {} over {} of {} test addresses; {} labelled samples",
            self.mae.0, self.mae.1, self.mae.2, self.labelled
        ));
        pass.check("test split has answers", self.mae.1 > 0);
        pass.check(
            "the server counted every answered request",
            self.stats
                .is_some_and(|st| st.requests >= self.open.ok + self.closed.ok),
        );
        pass.phase_line("open-loop", &self.open);
        pass.phase_line("closed-loop", &self.closed);
        let layer_self = spans::self_seconds_by_layer(&pass.logs.iter().collect::<Vec<_>>());
        for (metric, layer) in [
            ("self.synth_s", "synth"),
            ("self.core_s", "core"),
            ("self.locmatcher_s", "locmatcher"),
            ("self.store_s", "store"),
            ("self.snapshot_s", "snapshot"),
            ("self.serve_s", "serve"),
            ("self.bench_s", "bench"),
        ] {
            pass.layers
                .set(metric, layer_self.get(layer).copied().unwrap_or(0.0));
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The world of a workload.
fn world(w: Workload) -> (Preset, WorldConfig) {
    match w {
        Workload::ReplayFull => (Preset::DowBJ, world_config(Preset::DowBJ, Scale::Full)),
        Workload::ServeRead => (Preset::SubBJ, world_config(Preset::SubBJ, Scale::Small)),
        Workload::ServeIngest => {
            let mut wc = world_config(Preset::DowBJ, Scale::Small);
            wc.sim.n_days = LIVE_SETUP_DAYS + LIVE_DAYS;
            (Preset::DowBJ, wc)
        }
    }
}

fn new_engine(w: Workload, preset: Preset, ds: &Dataset) -> Eng {
    let cfg = pipeline_config(preset);
    match w {
        Workload::ServeIngest => Eng::Fleet(ShardedEngine::new(
            ds.addresses.clone(),
            cfg,
            ds.stations.len().max(1),
        )),
        _ => Eng::Single(Engine::new(ds.addresses.clone(), cfg)),
    }
}

/// A service after set-up.
struct Service {
    ds: Dataset,
    days: Vec<TripBatch>,
    eng: Eng,
    history: Arc<History>,
    server: Option<Server>,
}

/// Generates the world and builds the engine and the snapshot history:
/// all of `replay-full`'s set-up and the start of the others'.
fn build_service(
    w: Workload,
    (preset, wc): &(Preset, WorldConfig),
    generate_ms: &mut Vec<f64>,
    log: &mut SpanLog,
) -> Service {
    let t = Instant::now();
    let ds = log.time("synth.generate", || generate_with(wc, WORLD_SEED).1);
    generate_ms.push(ms(t.elapsed()));
    let days = replay(&ds).collect();
    let eng = new_engine(w, *preset, &ds);
    Service {
        ds,
        days,
        eng,
        history: Arc::new(History::new(Arc::new(SnapshotCell::new()))),
        server: None,
    }
}

/// Runs one pass of `w`, with one set-up or, when `repeat_setup`, with as
/// many as a timed run makes. A traced pass records spans and makes the
/// layer probes.
pub fn run_pass(w: Workload, ctx: &Ctx, traced: bool, repeat_setup: bool) -> Result<Pass, String> {
    let mut pass = Pass {
        e2e: Values::default(),
        layers: Values::default(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        lines: Vec::new(),
        headline_s: 0.0,
        logs: Vec::new(),
    };
    let mut log = SpanLog::new(traced, ctx.origin, "main");
    let mut m = Measured::default();
    let world = world(w);

    let reps = if repeat_setup { w.setup_reps() } else { 1 };
    let mut service = None;
    for _ in 0..reps {
        // Tear the previous set-up down first, so each one starts alike.
        drop(service.take());
        let t = Instant::now();
        log.begin("bench.setup");
        let mut s = build_service(w, &world, &mut m.generate_ms, &mut log);
        if w != Workload::ReplayFull {
            let n = if w == Workload::ServeIngest {
                LIVE_SETUP_DAYS
            } else {
                s.days.len()
            };
            let first_day = m.core.day_ms.len();
            let arrival =
                ingest_back_to_back(&mut s.eng, &s.days[..n], &mut m.core, &mut log, |_| {});
            let t_train = Instant::now();
            m.labelled = log.time("locmatcher.train", || s.eng.train(&s.ds));
            if traced {
                m.trained_on = s.eng.samples();
            }
            m.train_s.push(secs(t_train.elapsed()));
            let p = publish(&s.eng, n as u32, &s.history, &mut log)?;
            m.record_publish(&p);
            if w == Workload::ServeRead {
                m.record_days(first_day);
                m.freshness_ms.push(ms(p.visible_at - arrival));
            }
            s.server = Some(log.time("serve.start", || start_server(s.history.cell()))?);
        }
        log.end();
        m.setup_s.push(secs(t.elapsed()));
        service = Some(s);
    }
    let mut s = service.ok_or("no set-up ran")?;
    pass.line(format!(
        "{}: {} addresses, {} trips, {} days, {} stations, world seed {WORLD_SEED}, traffic seed {}",
        w.name(),
        s.ds.addresses.len(),
        s.ds.trips.len(),
        s.days.len(),
        s.ds.stations.len(),
        ctx.seed
    ));
    let universe = s.ds.addresses.len() as u32;
    let mix = |stream| Mix::new(ctx.seed, stream, universe);

    match w {
        Workload::ReplayFull => {
            log.begin("bench.replay");
            let mut last_setup = Instant::now();
            let arrival = replay_with_setups(
                &mut s.eng,
                &s.days,
                &world,
                &mut m,
                &mut log,
                repeat_setup.then_some(&mut last_setup),
            );
            let t_train = Instant::now();
            m.labelled = log.time("locmatcher.train", || s.eng.train(&s.ds));
            if traced {
                m.trained_on = s.eng.samples();
            }
            m.train_s.push(secs(t_train.elapsed()));
            let p = publish(&s.eng, s.days.len() as u32, &s.history, &mut log)?;
            m.record_publish(&p);
            m.freshness_ms.push(ms(p.visible_at - arrival));
            pass.headline_s = m.ingest_s[0] + m.train_s[0];
            m.round_trip = Some(round_trip(&s.eng, &s.ds, &mut log)?);
            m.mae = log.time("locmatcher.score", || score(&s.eng, &s.ds));
            log.end();
            let report = match &s.eng {
                Eng::Single(e) => e.report().funnel,
                Eng::Fleet(_) => unreachable!("replay-full runs one engine"),
            };
            pass.line(format!("funnel: {report:?}"));
            let server = log.time("serve.start", || start_server(s.history.cell()))?;
            let addr = server.addr();
            let stop = AtomicBool::new(false);
            // 5 s at 20 s runs: ten latency windows.
            let open_for = Duration::from_secs_f64((0.25 * ctx.seconds).max(1.0));
            m.open = open_loop(
                addr,
                &s.history,
                mix(1),
                OPEN_LOOP_RATE,
                open_for,
                &stop,
                &mut log,
            );
            // One segment: the closed loop is a diagnostic of `serve-read`.
            let closed_for = RATE_WINDOW;
            m.closed = closed_loop(addr, &s.history, mix(2), closed_for, &mut log);
            s.server = Some(server);
            if repeat_setup {
                // More replays on fresh engines, after everything else so
                // that peak memory is still one replay's. The replay is
                // deterministic, so each does the same work.
                m.peak_rss_mb = procfs::peak_rss_mb();
                for _ in 1..REPLAYS {
                    s.eng = new_engine(w, world.0, &s.ds);
                    replay_with_setups(
                        &mut s.eng,
                        &s.days,
                        &world,
                        &mut m,
                        &mut log,
                        Some(&mut last_setup),
                    );
                }
            }
            pass.line(format!(
                "replays: ingest {} s; last 10 days {} ms per day",
                join(&m.ingest_s, 3),
                join(&m.tail_day_ms, 1)
            ));
        }
        Workload::ServeRead => {
            m.mae = score(&s.eng, &s.ds);
            let addr = s.server.as_ref().ok_or("server not started")?.addr();
            let stop = AtomicBool::new(false);
            let open_for = Duration::from_secs_f64(0.8 * ctx.seconds);
            m.open = open_loop(
                addr,
                &s.history,
                mix(1),
                OPEN_LOOP_RATE,
                open_for,
                &stop,
                &mut log,
            );
            let closed_for = Duration::from_secs_f64(0.2 * ctx.seconds);
            m.closed = closed_loop(addr, &s.history, mix(2), closed_for, &mut log);
            pass.headline_s = m.closed.elapsed_s / m.closed.sent.max(1) as f64;
        }
        Workload::ServeIngest => {
            let addr = s.server.as_ref().ok_or("server not started")?.addr();
            let first_epoch = s.history.epochs().last().copied().unwrap_or(0);
            let interval = Duration::from_secs_f64(ctx.seconds / LIVE_DAYS as f64);
            let stop = AtomicBool::new(false);
            // The layer sums cover the scheduled days only.
            m.setup_days = std::mem::take(&mut m.core).day_ms.len();
            let mut epochs_in_order = true;
            let mut engine_s = 0.0;
            let mut slowest_day_ms = 0.0f64;
            let mut day_fresh_ms = Vec::new();
            let schedule = std::thread::scope(|scope| -> Result<(), String> {
                let history = &s.history;
                let stop = &stop;
                let reader = scope.spawn(move || {
                    let mut rlog = SpanLog::new(traced, ctx.origin, "reader");
                    let cap = Duration::from_secs_f64(ctx.seconds * 3.0);
                    let phase =
                        open_loop(addr, history, mix(1), LIVE_READ_RATE, cap, stop, &mut rlog);
                    (phase, rlog)
                });
                let result = (|| {
                    let t0 = Instant::now();
                    for (i, batch) in s.days[LIVE_SETUP_DAYS..].iter().enumerate() {
                        let due = t0 + interval * i as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        log.begin("bench.day");
                        let start = Instant::now();
                        m.core
                            .day_late_ms
                            .push(ms(start.saturating_duration_since(due)));
                        let cpu0 = procfs::cpu_seconds();
                        log.time("core.ingest", || s.eng.ingest(batch, &mut m.core));
                        let done = Instant::now();
                        if let (Some(a), Some(b)) = (cpu0, procfs::cpu_seconds()) {
                            m.core.cpu_s += b - a;
                        }
                        m.core.day_ms.push(ms(done - start));
                        let day = (LIVE_SETUP_DAYS + i + 1) as u32;
                        let p = publish(&s.eng, day, history, &mut log)?;
                        log.end();
                        m.busy.push((start, p.visible_at));
                        engine_s += secs(p.visible_at - start);
                        slowest_day_ms = slowest_day_ms.max(ms(p.visible_at - start));
                        epochs_in_order &= p.epoch == first_epoch + i as u64 + 1;
                        m.record_publish(&p);
                        day_fresh_ms.push(ms(p.visible_at.saturating_duration_since(due)));
                    }
                    Ok(())
                })();
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                let (phase, rlog) = reader.join().map_err(|_| "reader thread panicked")?;
                m.open = phase;
                pass.logs.push(rlog);
                result
            });
            schedule?;
            // The mean, not the median: day cost grows with history, so the
            // median day would be one particular day's noisy value.
            m.freshness_ms
                .push(stats::mean(&day_fresh_ms).unwrap_or(f64::NAN));
            m.record_days(0);
            pass.headline_s = engine_s;
            let published = s.history.epochs();
            pass.line(format!(
                "day schedule: {} days due every {:.1} ms, {} ingested, epochs {}..={} published",
                LIVE_DAYS,
                ms(interval),
                m.core.day_ms.len(),
                published.first().copied().unwrap_or(0),
                published.last().copied().unwrap_or(0)
            ));
            pass.line(format!("day ingest ms: {}", join(&m.core.day_ms, 0)));
            let latest_start_ms = m.core.day_late_ms.iter().copied().fold(0.0, f64::max);
            pass.line(format!(
                "slowest day: {slowest_day_ms:.1} ms of ingest and publish in a {:.1} ms interval; writer busy {:.1}% of the schedule; latest start {latest_start_ms:.1} ms after due",
                ms(interval),
                100.0 * engine_s / (LIVE_DAYS as f64 * secs(interval)),
            ));
            // Days take well under the interval, so every day starts on
            // time; a day that overruns delays only the next. A backlog
            // that builds shows as a start later than half an interval.
            pass.check(
                "every scheduled day starts within half an interval of its due time",
                latest_start_ms < ms(interval) / 2.0,
            );
            pass.check("every day's epoch is published, in order", epochs_in_order);
            pass.check(
                "epochs never go backwards on a connection",
                m.open.epoch_regressions == 0,
            );
            m.mae = score(&s.eng, &s.ds);
            let closed_for = Duration::from_secs_f64((0.1 * ctx.seconds).max(0.5));
            m.closed = closed_loop(addr, &s.history, mix(2), closed_for, &mut log);
        }
    }

    if traced {
        // The probes are not the workload: keep the library's own
        // instrumentation (a global lock per `infer`) out of their timings
        // and the probe's training out of the trace.
        obs::disable();
        obs::trace_disable();
        let (query_ns, load_ns) = probe_store(s.history.cell(), ctx.seed, universe);
        let infer_us = infer_us(&s.eng, &s.ds);
        let trained_on = std::mem::take(&mut m.trained_on);
        let (epochs, same_model) = probe_epochs(&s.eng, &s.ds, trained_on);
        obs::enable();
        obs::trace_enable();
        pass.check(
            "the epoch probe retrained the installed model bit for bit",
            same_model,
        );
        m.probes = Some(Probes {
            epochs,
            infer_us,
            query_ns,
            load_ns,
        });
        if m.round_trip.is_none() {
            m.round_trip = Some(round_trip(&s.eng, &s.ds, &mut log)?);
        }
    }
    if let Some(server) = s.server.as_mut() {
        m.stats = Some(server.stats());
        server.shutdown();
    }
    let days_ingested = (m.setup_days + m.core.day_ms.len()) as u64;
    let publishes = m.build_ms.len() as u64;
    pass.attempted += days_ingested + publishes;
    pass.line(format!(
        "phase ingest: {days_ingested} day ingests and {publishes} publishes, all succeeded; layer sums over {} days: {:.3} s wall, {:.2} s process CPU",
        m.core.day_ms.len(),
        m.core.day_ms.iter().sum::<f64>() / 1e3,
        m.core.cpu_s
    ));
    pass.logs.insert(0, log);
    m.into_pass(&mut pass);
    Ok(pass)
}
