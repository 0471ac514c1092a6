//! Machine-readable pipeline timing artifact and regression gate.
//!
//! Runs the batch pipeline at `workers = 1` and `workers = max` (recording
//! the per-stage wall/CPU breakdown for each), replays the streaming engine
//! per day on the Tiny world, and writes a single JSON file (default
//! `BENCH_pipeline.json`, overridable as the first argument). CI publishes
//! this so pipeline-latency regressions show up as a diff rather than a
//! vibe.
//!
//! With `--gate <BENCH_baseline.json>` the run additionally compares its
//! own prepare time against the committed baseline and exits non-zero on a
//! regression beyond the documented 30% tolerance. Wall clocks are not
//! portable across machines, so both files carry a `calibration_ns` (a
//! fixed single-thread workload timed in-process) and the gate compares the
//! *calibrated ratio* `prepare_ns / calibration_ns` instead of raw time.
//!
//! The `small_replay` section replays the DowBJ Small world day by day and
//! records, per day, ingest and clustering wall time and the clustering
//! work counters, plus a growth ratio. It is informational, not gated: it
//! shows whether a day's cost tracks that day's data or the whole history.

use dlinfma_bench::{calibrated_gate, calibration_ns, ensure_writable};
use dlinfma_core::{snapshot, DlInfMa, Engine, ShardedEngine};
use dlinfma_eval::pipeline_config;
use dlinfma_obs::{self as obs, names, JsonValue, Stopwatch};
use dlinfma_synth::{generate, generate_with, replay, world_config, Dataset, Preset, Scale};
use std::process::ExitCode;

const SEED: u64 = 1;

/// Tracing-overhead budget: a traced Tiny replay must stay within 10% of
/// the untraced wall time (best-of-[`OVERHEAD_ROUNDS`], interleaved), plus
/// a small absolute slack because the Tiny replay is only a few
/// milliseconds and scheduler jitter alone exceeds 10% of that.
const TRACE_OVERHEAD_TOLERANCE: f64 = 1.10;
const TRACE_OVERHEAD_SLACK_NS: u64 = 2_000_000;
const OVERHEAD_ROUNDS: usize = 5;

/// Regression tolerance of the `--gate` check: fail only when the
/// calibrated prepare ratio exceeds the baseline's by more than this
/// factor. 30% absorbs run-to-run scheduler noise on shared CI runners
/// while still catching a real slowdown of the dominant stages.
const GATE_TOLERANCE: f64 = 1.30;

/// Days averaged at each end of the Small replay for its growth ratio.
const GROWTH_WINDOW_DAYS: usize = 3;

/// Wall time of one full engine replay of `dataset`, with the trace layer
/// on or off. Traced runs drain the rings afterwards so successive
/// measurements start from empty buffers.
fn replay_wall_ns(dataset: &Dataset, preset: Preset, traced: bool) -> u64 {
    if traced {
        obs::trace_enable();
    }
    let mut engine = Engine::new(dataset.addresses.clone(), pipeline_config(preset));
    let t = Stopwatch::start();
    for day in replay(dataset) {
        engine.ingest(&day);
    }
    let ns = t.elapsed_ns();
    if traced {
        obs::trace_disable();
        let _ = obs::take_trace();
    }
    ns
}

/// Full fleet-mode replay of `dataset` at `shards` station shards; returns
/// the wall time and the merged funnel totals so the sweep records that
/// every shard count produced the identical artifacts.
fn fleet_replay_at(shards: usize, dataset: &Dataset, preset: Preset) -> (u64, usize, usize) {
    let mut fleet = ShardedEngine::new(dataset.addresses.clone(), pipeline_config(preset), shards);
    let t = Stopwatch::start();
    for day in replay(dataset) {
        fleet.ingest(&day);
    }
    (t.elapsed_ns(), fleet.n_stays(), fleet.n_candidates())
}

/// Replays DowBJ Small day by day with the `obs` counters on. Per day:
/// ingest and clustering wall time and the `cluster/*` work counters'
/// deltas; overall: mean ingest time of the last [`GROWTH_WINDOW_DAYS`]
/// days over that of the first.
fn small_replay_curve(preset: Preset) -> (JsonValue, f64) {
    let (_, dataset) = generate(preset, Scale::Small, SEED);
    let counters = [
        ("cluster_inputs", names::CLUSTER_INPUTS),
        ("cluster_merges", names::CLUSTER_MERGES),
        (
            "cluster_stale_heap_entries",
            names::CLUSTER_STALE_HEAP_ENTRIES,
        ),
    ];
    let was_enabled = obs::enabled();
    obs::enable();
    let mut engine = Engine::new(dataset.addresses.clone(), pipeline_config(preset));
    let mut days = Vec::new();
    let mut ingest_ms = Vec::new();
    for day in replay(&dataset) {
        let before: Vec<u64> = counters
            .iter()
            .map(|(_, c)| obs::counter(c).get())
            .collect();
        let t = Stopwatch::start();
        let rep = engine.ingest(&day);
        let ms = t.elapsed_ns() as f64 / 1e6;
        ingest_ms.push(ms);
        let mut row = vec![
            ("day".into(), JsonValue::Num(f64::from(rep.day))),
            ("ingest_ms".into(), JsonValue::Num(ms)),
            (
                "clustering_ms".into(),
                JsonValue::Num(rep.clustering_ns as f64 / 1e6),
            ),
        ];
        for ((key, counter), b) in counters.iter().zip(before) {
            let delta = obs::counter(counter).get() - b;
            row.push(((*key).into(), JsonValue::Num(delta as f64)));
        }
        days.push(JsonValue::Obj(row));
    }
    if !was_enabled {
        obs::disable();
        obs::reset_spans();
    }
    let w = GROWTH_WINDOW_DAYS.min(ingest_ms.len() / 2).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let growth = mean(&ingest_ms[ingest_ms.len().saturating_sub(w)..])
        / mean(&ingest_ms[..w.min(ingest_ms.len())]);
    let json = JsonValue::Obj(vec![
        ("preset".into(), JsonValue::Str(preset.name().into())),
        ("scale".into(), JsonValue::Str("small".into())),
        ("seed".into(), JsonValue::Num(SEED as f64)),
        ("growth_window_days".into(), JsonValue::Num(w as f64)),
        ("ingest_growth".into(), JsonValue::Num(growth)),
        ("days".into(), JsonValue::Arr(days)),
    ]);
    (json, growth)
}

fn prepare_at(workers: usize, dataset: &dlinfma_synth::Dataset, preset: Preset) -> (u64, DlInfMa) {
    let mut cfg = pipeline_config(preset);
    cfg.workers = workers;
    let t = Stopwatch::start();
    let batch = DlInfMa::prepare(dataset, cfg);
    (t.elapsed_ns(), batch)
}

fn run() -> Result<(), String> {
    let mut out = "BENCH_pipeline.json".to_string();
    let mut gate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--gate" {
            gate = Some(args.next().ok_or("--gate needs a baseline path")?);
        } else {
            out = a;
        }
    }
    // Fail fast on an unwritable output path before the measured run.
    ensure_writable("--out", &out)?;
    let preset = Preset::DowBJ;
    let (_, dataset) = generate(preset, Scale::Tiny, SEED);
    let calib = calibration_ns();

    let max_workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(16));
    let mut sweep = Vec::new();
    let mut prepare_ns = 0u64;
    let mut batch = None;
    let mut worker_counts = vec![1usize];
    if max_workers > 1 {
        worker_counts.push(max_workers);
    }
    for &w in &worker_counts {
        let (ns, b) = prepare_at(w, &dataset, preset);
        sweep.push(JsonValue::Obj(vec![
            ("workers".into(), JsonValue::Num(w as f64)),
            ("prepare_ns".into(), JsonValue::Num(ns as f64)),
            ("report".into(), b.report().to_json()),
        ]));
        // The headline prepare time is the all-workers run (the default
        // configuration users get).
        prepare_ns = ns;
        batch = Some(b);
    }
    let batch = batch.ok_or("worker sweep was empty")?;

    // Fleet mode: the same replay partitioned over 1/2/4 station shards on
    // a three-station world. The merged totals must not move with the shard
    // count — that invariance rides along in the artifact.
    let sharded_dataset = {
        let mut wc = world_config(preset, Scale::Tiny);
        wc.sim.n_stations = 3;
        generate_with(&wc, SEED).1
    };
    let mut shards_sweep = Vec::new();
    let mut fleet_totals: Option<(usize, usize)> = None;
    for shards in [1usize, 2, 4] {
        let (ns, n_stays, n_candidates) = fleet_replay_at(shards, &sharded_dataset, preset);
        match fleet_totals {
            None => fleet_totals = Some((n_stays, n_candidates)),
            Some(t) if t != (n_stays, n_candidates) => {
                return Err(format!(
                    "shard sweep diverged at {shards} shards: \
                     ({n_stays} stays, {n_candidates} candidates) vs {t:?}"
                ));
            }
            Some(_) => {}
        }
        shards_sweep.push(JsonValue::Obj(vec![
            ("shards".into(), JsonValue::Num(shards as f64)),
            ("replay_ns".into(), JsonValue::Num(ns as f64)),
            ("n_stays".into(), JsonValue::Num(n_stays as f64)),
            ("n_candidates".into(), JsonValue::Num(n_candidates as f64)),
        ]));
    }

    let mut engine = Engine::new(dataset.addresses.clone(), pipeline_config(preset));
    let mut days = Vec::new();
    let mut clustering_ns = 0u64;
    let mut clustering_cpu_ns = 0u64;
    for day in replay(&dataset) {
        let rep = engine.ingest(&day);
        clustering_ns += rep.clustering_ns;
        clustering_cpu_ns += rep.clustering_cpu_ns;
        days.push(rep.to_json());
    }

    // Informational snapshot codec timing on the fully-replayed engine:
    // how long a durable checkpoint costs to encode, and a warm restart
    // to decode. Not gated — checkpointing is off the ingest hot path —
    // but published so codec regressions show up as a diff.
    let t = Stopwatch::start();
    let snap_bytes = snapshot::engine_to_bytes(&engine);
    let snapshot_encode_ns = t.elapsed_ns();
    let exec = std::sync::Arc::new(dlinfma_pool::Pool::new(pipeline_config(preset).workers));
    let t = Stopwatch::start();
    let restored = snapshot::engine_from_bytes(
        &snap_bytes,
        dataset.addresses.clone(),
        pipeline_config(preset),
        exec,
    )
    .map_err(|e| format!("snapshot round trip failed: {e}"))?;
    let snapshot_decode_ns = t.elapsed_ns();
    if snapshot::engine_to_bytes(&restored) != snap_bytes {
        return Err("snapshot round trip is not byte-identical".to_string());
    }

    // Tracing overhead: interleaved best-of-N traced vs untraced replays.
    // Interleaving cancels drift (thermal, cache warm-up) that would bias a
    // run-all-of-one-then-the-other comparison.
    let mut untraced_best = u64::MAX;
    let mut traced_best = u64::MAX;
    for _ in 0..OVERHEAD_ROUNDS {
        untraced_best = untraced_best.min(replay_wall_ns(&dataset, preset, false));
        traced_best = traced_best.min(replay_wall_ns(&dataset, preset, true));
    }
    let overhead_ratio = traced_best as f64 / untraced_best.max(1) as f64;

    // One more traced replay, kept this time: the Chrome-trace CI artifact.
    obs::reset_trace();
    obs::trace_enable();
    let mut traced_engine = Engine::new(dataset.addresses.clone(), pipeline_config(preset));
    for day in replay(&dataset) {
        traced_engine.ingest(&day);
    }
    obs::trace_disable();
    let capture = obs::take_trace();
    let trace_out = std::path::Path::new(&out).with_file_name("BENCH_trace.json");
    std::fs::write(&trace_out, obs::chrome_trace_json(&capture).render())
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
    println!(
        "wrote {} ({} events across {} threads)",
        trace_out.display(),
        capture.events.len(),
        capture.threads.len()
    );

    let (small_replay, small_growth) = small_replay_curve(preset);

    let n_days = days.len();
    let json = JsonValue::Obj(vec![
        ("preset".into(), JsonValue::Str(preset.name().into())),
        ("scale".into(), JsonValue::Str("tiny".into())),
        ("seed".into(), JsonValue::Num(SEED as f64)),
        ("calibration_ns".into(), JsonValue::Num(calib as f64)),
        ("max_workers".into(), JsonValue::Num(max_workers as f64)),
        ("prepare_ns".into(), JsonValue::Num(prepare_ns as f64)),
        ("prepare_report".into(), batch.report().to_json()),
        ("workers_sweep".into(), JsonValue::Arr(sweep)),
        ("shards_sweep".into(), JsonValue::Arr(shards_sweep)),
        ("clustering_ns".into(), JsonValue::Num(clustering_ns as f64)),
        (
            "clustering_cpu_ns".into(),
            JsonValue::Num(clustering_cpu_ns as f64),
        ),
        (
            "replay_untraced_ns".into(),
            JsonValue::Num(untraced_best as f64),
        ),
        (
            "replay_traced_ns".into(),
            JsonValue::Num(traced_best as f64),
        ),
        (
            "trace_overhead_ratio".into(),
            JsonValue::Num(overhead_ratio),
        ),
        (
            "snapshot_encode_ns".into(),
            JsonValue::Num(snapshot_encode_ns as f64),
        ),
        (
            "snapshot_decode_ns".into(),
            JsonValue::Num(snapshot_decode_ns as f64),
        ),
        (
            "snapshot_bytes".into(),
            JsonValue::Num(snap_bytes.len() as f64),
        ),
        ("ingest_days".into(), JsonValue::Arr(days)),
        ("small_replay".into(), small_replay),
    ]);
    std::fs::write(&out, json.render_pretty()).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out} (prepare {:.3} ms at {max_workers} workers, {n_days} replay days)",
        prepare_ns as f64 / 1e6
    );
    if let Some((n_stays, n_candidates)) = fleet_totals {
        println!(
            "shard sweep 1/2/4: merged totals stable at {n_stays} stays, \
             {n_candidates} candidates"
        );
    }

    println!(
        "small replay: last/first {GROWTH_WINDOW_DAYS}-day ingest ratio {small_growth:.2} \
         (informational)"
    );
    println!(
        "trace overhead: {:.3} ms traced vs {:.3} ms untraced ({:+.1}%)",
        traced_best as f64 / 1e6,
        untraced_best as f64 / 1e6,
        (overhead_ratio - 1.0) * 100.0
    );
    if traced_best
        > (untraced_best as f64 * TRACE_OVERHEAD_TOLERANCE) as u64 + TRACE_OVERHEAD_SLACK_NS
    {
        return Err(format!(
            "tracing overhead {:.1}% exceeds the {:.0}% budget \
             (traced {:.3} ms vs untraced {:.3} ms, slack {:.1} ms)",
            (overhead_ratio - 1.0) * 100.0,
            (TRACE_OVERHEAD_TOLERANCE - 1.0) * 100.0,
            traced_best as f64 / 1e6,
            untraced_best as f64 / 1e6,
            TRACE_OVERHEAD_SLACK_NS as f64 / 1e6
        ));
    }

    if let Some(baseline_path) = gate {
        let (ratio, base_ratio) = calibrated_gate(
            &baseline_path,
            "prepare_ns",
            prepare_ns,
            calib,
            GATE_TOLERANCE,
        )?;
        println!(
            "gate: calibrated prepare ratio {ratio:.3} vs baseline {base_ratio:.3} \
             (tolerance {GATE_TOLERANCE}x)"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
