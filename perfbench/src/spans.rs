//! In-memory spans of the traced run, written out at the end as JSON
//! lines and as Chrome trace-event JSON (which Perfetto opens).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Layers, outermost first; a span's layer is its Chrome thread row.
pub const LAYERS: [&str; 4] = ["stream", "service", "dispatch", "engine"];

pub struct Span {
    pub name: String,
    pub layer: usize,
    pub start: Duration,
    pub dur: Duration,
    /// The span this one replays a piece of (chunk → batch → query).
    pub parent: Option<usize>,
    pub chunk: u64,
    pub batch: Option<usize>,
    pub seq: Option<usize>,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Where a span sits in the trace: its chunk, batch and query.
#[derive(Clone, Copy)]
pub struct At {
    pub parent: Option<usize>,
    pub chunk: u64,
    pub batch: Option<usize>,
    pub seq: Option<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as one span; returns its result and the span's id.
    pub fn time<T>(
        &mut self,
        name: &str,
        layer: usize,
        at: At,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start: start - self.origin,
            dur: end - start,
            parent: at.parent,
            chunk: at.chunk,
            batch: at.batch,
            seq: at.seq,
        });
        (value, self.spans.len() - 1)
    }

    /// Total duration and count of the spans named `name`.
    pub fn totals(&self) -> BTreeMap<&str, (Duration, usize)> {
        let mut out: BTreeMap<&str, (Duration, usize)> = BTreeMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name.as_str()).or_default();
            entry.0 += span.dur;
            entry.1 += 1;
        }
        out
    }

    /// One JSON object per line, one line per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":{},\"layer\":{},\"start_us\":{},\"dur_us\":{},\"chunk\":{},\"batch\":{},\"seq\":{}}}",
                opt(span.parent),
                quote(&span.name),
                quote(LAYERS[span.layer]),
                micros(span.start),
                micros(span.dur),
                span.chunk,
                opt(span.batch),
                opt(span.seq),
            );
        }
        out
    }

    /// Chrome trace-event JSON: complete (`"ph":"X"`) events, one
    /// thread row per layer.
    pub fn to_chrome(&self) -> String {
        let mut events: Vec<String> = LAYERS
            .iter()
            .enumerate()
            .map(|(tid, layer)| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                    quote(layer)
                )
            })
            .collect();
        for (id, span) in self.spans.iter().enumerate() {
            events.push(format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{},\"chunk\":{},\"batch\":{},\"seq\":{}}}}}",
                quote(&span.name),
                quote(LAYERS[span.layer]),
                micros(span.start),
                micros(span.dur),
                span.layer,
                opt(span.parent),
                span.chunk,
                opt(span.batch),
                opt(span.seq),
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

fn opt(value: Option<usize>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
