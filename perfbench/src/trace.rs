//! In-memory spans for the traced run, written out as Chrome
//! trace-event JSON when the run ends.
//!
//! Each timed operation (an inference, a serve or fleet call) is a root
//! span identified by its index; child spans cover each `run_node` call
//! and each part within it. Tracks (`tid`) separate the caller from the
//! two worker pools so every track nests properly.

use std::time::Instant;

use simcore::JsonValue;

/// A traced run alternates this many chunks of untraced operations with
/// as many traced ones, so the tracing overhead compares like host
/// conditions.
pub const CHUNKS: usize = 10;

/// Track of the calling thread: operation and `run_node` spans.
pub const TID_CALLER: u64 = 1;
/// Tracks of the two worker threads or pools.
pub const TID_WORKERS: [u64; 2] = [2, 3];

struct Span {
    name: String,
    tid: u64,
    start_us: f64,
    dur_us: f64,
    op: usize,
}

/// Spans of one run, relative to the recorder's creation.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Operations recorded at most (keeps the file small).
    max_ops: usize,
    /// Names of the [`TID_WORKERS`] tracks in use.
    workers: &'static [&'static str],
    /// Operations recorded so far, and the latest one.
    ops: usize,
    last: Option<usize>,
}

impl Recorder {
    pub fn new(max_ops: usize, workers: &'static [&'static str]) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            max_ops,
            workers,
            ops: 0,
            last: None,
        }
    }

    /// Microseconds from the recorder's origin to `t`.
    fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Whether operation `op` records spans: the first `max_ops`
    /// operations that record any do. An operation's spans are recorded
    /// together.
    pub fn wants(&self, op: usize) -> bool {
        self.last == Some(op) || self.ops < self.max_ops
    }

    /// Records a span of operation `op` starting at `start` lasting
    /// `dur_s` seconds.
    pub fn span(
        &mut self,
        op: usize,
        tid: u64,
        name: impl Into<String>,
        start: Instant,
        dur_s: f64,
    ) {
        if !self.wants(op) {
            return;
        }
        if self.last != Some(op) {
            self.ops += 1;
            self.last = Some(op);
        }
        let start_us = self.offset_us(start);
        self.spans.push(Span {
            name: name.into(),
            tid,
            start_us,
            dur_us: dur_s * 1e6,
            op,
        });
    }

    /// Renders the Chrome trace-event document. `host` is stored beside
    /// the events as the run's host fingerprint.
    pub fn chrome_json(&self, host: JsonValue) -> String {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        // Per track by start; an enclosing span sorts before the spans
        // it contains.
        order.sort_by(|a, b| {
            (a.tid, a.start_us)
                .partial_cmp(&(b.tid, b.start_us))
                .expect("span times are finite")
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        let tracks = std::iter::once((TID_CALLER, "caller"))
            .chain(TID_WORKERS.into_iter().zip(self.workers.iter().copied()));
        let mut events: Vec<JsonValue> = tracks
            .map(|(tid, name)| {
                obj(vec![
                    ("name", JsonValue::Str("thread_name".into())),
                    ("ph", JsonValue::Str("M".into())),
                    ("pid", JsonValue::Num(1.0)),
                    ("tid", JsonValue::Num(tid as f64)),
                    ("args", obj(vec![("name", JsonValue::Str(name.into()))])),
                ])
            })
            .collect();
        events.extend(order.into_iter().map(|s| {
            obj(vec![
                ("name", JsonValue::Str(s.name.clone())),
                ("cat", JsonValue::Str("perfbench".into())),
                ("ph", JsonValue::Str("X".into())),
                ("ts", JsonValue::Num(s.start_us)),
                ("dur", JsonValue::Num(s.dur_us)),
                ("pid", JsonValue::Num(1.0)),
                ("tid", JsonValue::Num(s.tid as f64)),
                ("args", obj(vec![("op", JsonValue::Num(s.op as f64))])),
            ])
        }));
        obj(vec![
            ("displayTimeUnit", JsonValue::Str("ms".into())),
            ("host", host),
            ("traceEvents", JsonValue::Arr(events)),
        ])
        .render()
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}
