//! The benchmark's own spans: one around each call it makes into a layer,
//! kept in memory per thread and merged when the run ends.
//!
//! A span name is `<layer>.<call>`; the layer is the part before the first
//! dot. A layer's self time is the sum over its spans of the span's
//! duration minus the durations of its direct children. Spans on one
//! thread nest strictly, so the children never overlap each other.

use dlinfma_obs::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span log. Disabled logs record nothing and cost one branch
/// per call.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    /// Thread label used in the exported trace.
    pub thread: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant, thread: &'static str) -> Self {
        Self {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Self time in seconds per layer, summed over several threads' logs.
pub fn self_seconds_by_layer(logs: &[&SpanLog]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, c) in log.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(c) as f64 / 1e9;
        }
    }
    out
}

/// Chrome trace-event objects (`ph: "X"`) for every span of the logs, one
/// `tid` per log.
pub fn chrome_events(logs: &[&SpanLog]) -> Vec<JsonValue> {
    let mut events = Vec::new();
    for (tid, log) in logs.iter().enumerate() {
        events.push(JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("thread_name".into())),
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::Num(0.0)),
            ("tid".into(), JsonValue::Num(tid as f64)),
            (
                "args".into(),
                JsonValue::Obj(vec![("name".into(), JsonValue::Str(log.thread.into()))]),
            ),
        ]));
        for s in &log.spans {
            events.push(JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(s.name.into())),
                ("cat".into(), JsonValue::Str(s.layer().into())),
                ("ph".into(), JsonValue::Str("X".into())),
                ("ts".into(), JsonValue::Nanos(s.start_ns)),
                ("dur".into(), JsonValue::Nanos(s.dur_ns())),
                ("pid".into(), JsonValue::Num(0.0)),
                ("tid".into(), JsonValue::Num(tid as f64)),
            ]));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new(true, Instant::now(), "main");
        log.spans = vec![
            span("bench.day", None, 0, 1_000),
            span("core.ingest", Some(0), 100, 600),
            span("store.build", Some(0), 600, 900),
            span("store.query", Some(2), 700, 800),
        ];
        let by_layer = self_seconds_by_layer(&[&log]);
        assert!((by_layer["bench"] - 200e-9).abs() < 1e-15);
        assert!((by_layer["core"] - 500e-9).abs() < 1e-15);
        assert!((by_layer["store"] - 300e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_recording_links_parents() {
        let mut log = SpanLog::new(true, Instant::now(), "main");
        log.time("bench.setup", || ());
        log.begin("bench.day");
        log.time("core.ingest", || ());
        log.end();
        let s = &log.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, None);
        assert_eq!(s[2].parent, Some(1));
        assert!(s[2].start_ns >= s[1].start_ns && s[2].end_ns <= s[1].end_ns);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), "main");
        assert_eq!(log.time("core.ingest", || 7), 7);
        assert!(log.spans.is_empty());
    }
}
