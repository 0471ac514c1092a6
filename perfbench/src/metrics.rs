//! The metric catalogue and the result line.
//!
//! Every workload reports every metric: timed runs the end-to-end set,
//! traced runs the per-layer set. `BENCHMARK.json` lists the same names,
//! units and directions; a unit test keeps the two in step.

use dlinfma_obs::JsonValue;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// A per-layer metric and the end-to-end metrics it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metrics this layer metric should move.
    pub moves: &'static str,
    /// Workloads where it should move them.
    pub on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        moves,
        on,
    }
}

/// End-to-end metrics, in report order.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower"),
    e2e("ingest_s", "s", "lower"),
    e2e("ingest_tail_day_ms", "ms", "lower"),
    e2e("train_s", "s", "lower"),
    e2e("mae_m", "m", "lower"),
    e2e("freshness_ms", "ms", "lower"),
    e2e("lookup_p50_us", "us", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
];

const INGEST: &str = "ingest_s, ingest_tail_day_ms";
const LOOKUP: &str = "lookup_p50_us";
const DIAG: &str = "none (closed-loop diagnostic)";
const REPLAY: &str = "replay-full";
const READ: &str = "serve-read";
const LIVE: &str = "serve-ingest";

/// Per-layer metrics, in report order.
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.extract_s", "s", INGEST, REPLAY),
    layer("core.cluster_s", "s", INGEST, REPLAY),
    layer("core.retrieve_s", "s", INGEST, REPLAY),
    layer("core.features_s", "s", INGEST, REPLAY),
    layer("core.materialize_s", "s", INGEST, REPLAY),
    layer("core.cluster_cpu_s", "s", INGEST, REPLAY),
    layer("core.ingest_cpu_s", "s", INGEST, REPLAY),
    layer("core.dirty_addresses", "count", INGEST, REPLAY),
    layer("core.ingest_growth", "ratio", "ingest_tail_day_ms", REPLAY),
    layer("cluster.inputs", "count", "ingest_s", REPLAY),
    layer("cluster.merges", "count", "ingest_s", REPLAY),
    layer("cluster.stale_heap_entries", "count", "ingest_s", REPLAY),
    layer(
        "pool.busy_s",
        "s",
        "ingest_s, lookup_p50_us",
        "replay-full, serve-ingest",
    ),
    layer(
        "pool.idle_s",
        "s",
        "ingest_s, lookup_p50_us",
        "replay-full, serve-ingest",
    ),
    layer(
        "pool.steals",
        "count",
        "ingest_s",
        "replay-full, serve-ingest",
    ),
    layer("locmatcher.train_s", "s", "train_s", REPLAY),
    layer("locmatcher.epochs", "count", "train_s", REPLAY),
    layer("locmatcher.labelled", "count", "train_s, mae_m", REPLAY),
    layer("locmatcher.infer_us", "us", "freshness_ms", LIVE),
    layer("store.build_ms", "ms", "freshness_ms", LIVE),
    layer("store.publish_us", "us", "freshness_ms", LIVE),
    layer(
        "sharded.shard_skew",
        "ratio",
        "freshness_ms, ingest_s",
        LIVE,
    ),
    layer("store.query_ns", "ns", LOOKUP, READ),
    layer("store.load_ns", "ns", LOOKUP, READ),
    layer("store.source_address", "count", "lookup_p50_us", READ),
    layer("store.source_building", "count", "lookup_p50_us", READ),
    layer("store.source_geocode", "count", "lookup_p50_us", READ),
    layer(
        "serve.requests",
        "count",
        LOOKUP,
        "serve-read, serve-ingest",
    ),
    layer("serve.errors", "count", LOOKUP, "serve-read, serve-ingest"),
    layer(
        "serve.connections",
        "count",
        LOOKUP,
        "serve-read, serve-ingest",
    ),
    layer(
        "serve.lookup_p90_us",
        "us",
        "none (tail diagnostic)",
        "serve-read, serve-ingest",
    ),
    layer("serve.closed_rps", "1/s", DIAG, READ),
    layer("serve.rtt_p99_us", "us", DIAG, READ),
    layer("serve.rtt_p999_us", "us", DIAG, READ),
    layer(
        "loadgen.late_p99_us",
        "us",
        "none (host diagnostic)",
        "serve-read, serve-ingest",
    ),
    layer(
        "loadgen.late_max_ms",
        "ms",
        "none (host diagnostic)",
        "serve-read, serve-ingest",
    ),
    layer(
        "loadgen.due_p50_us",
        "us",
        "none (host diagnostic)",
        "serve-read, serve-ingest",
    ),
    layer(
        "loadgen.due_p90_us",
        "us",
        "none (host diagnostic)",
        "serve-read, serve-ingest",
    ),
    layer("loadgen.day_late_max_ms", "ms", "freshness_ms", LIVE),
    layer("snapshot.encode_ms", "ms", "none (informational)", REPLAY),
    layer("snapshot.decode_ms", "ms", "none (informational)", REPLAY),
    layer("snapshot.bytes", "bytes", "none (informational)", REPLAY),
    layer("synth.generate_ms", "ms", "setup_s", "all"),
    layer("self.synth_s", "s", "setup_s", "all"),
    layer("self.core_s", "s", INGEST, REPLAY),
    layer(
        "self.locmatcher_s",
        "s",
        "train_s, freshness_ms",
        "replay-full, serve-ingest",
    ),
    layer("self.store_s", "s", "freshness_ms", LIVE),
    layer("self.snapshot_s", "s", "none (informational)", REPLAY),
    layer("self.serve_s", "s", LOOKUP, "serve-read, serve-ingest"),
    layer("self.bench_s", "s", "none (harness overhead)", "all"),
    layer(
        "trace.overhead_pct",
        "%",
        "none (traced vs untraced headline time)",
        "all",
    ),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// One value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object for the names and units of `catalogue`, or the
    /// names of the metrics that were not measured or are not finite.
    pub fn to_json<'a>(
        &self,
        catalogue: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<JsonValue, String> {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in catalogue {
            match self.get(name) {
                Some(v) if v.is_finite() => out.push((
                    name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(v)),
                        ("unit".into(), JsonValue::Str(unit.into())),
                    ]),
                )),
                _ => missing.push(name),
            }
        }
        if missing.is_empty() {
            Ok(JsonValue::Obj(out))
        } else {
            Err(format!("metrics not measured: {}", missing.join(", ")))
        }
    }
}

/// `(name, unit)` of every end-to-end metric.
pub fn end_to_end_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

/// `(name, unit)` of every per-layer metric.
pub fn per_layer_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JsonValue {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(spec: &JsonValue, key: &str) -> Vec<(String, String, Option<String>)> {
        spec.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
                (
                    s("name").expect("name"),
                    s("unit").expect("unit"),
                    s("better"),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = spec();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), Some(m.better.into())))
            .collect();
        assert_eq!(listed(&spec, "end_to_end"), e2e);
        let listed_layers = listed(&spec, "per_layer");
        let names: Vec<(String, String)> = listed_layers
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into()))
            .collect();
        assert_eq!(names, layers);
        for (name, _, better) in listed_layers {
            assert!(
                matches!(better.as_deref(), Some("lower" | "higher")),
                "{name}: better must be lower or higher"
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_object_needs_every_metric() {
        let mut v = Values::default();
        v.set("a", 1.5);
        assert!(v.to_json([("a", "s"), ("b", "ms")]).is_err());
        v.set("b", f64::NAN);
        assert!(v.to_json([("a", "s"), ("b", "ms")]).is_err());
        v.set("b", 2.0);
        let j = v.to_json([("a", "s"), ("b", "ms")]).expect("complete");
        assert_eq!(
            j.render(),
            r#"{"a":{"value":1.5,"unit":"s"},"b":{"value":2,"unit":"ms"}}"#
        );
    }
}
