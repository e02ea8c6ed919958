//! In-memory spans around the benchmark's calls into the program, and the
//! per-layer self times computed from them.
//!
//! A span's layer is the part of its name before the first dot. A span's
//! self time is its duration minus the time its child spans cover; children
//! of one span never overlap, because the benchmark makes them one after the
//! other on one thread.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span: its id is known before it ends, so children can name it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start: Instant,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, start: Instant::now(), parent, name, request }
    }

    pub fn close(&self, open: Open) {
        self.record(open.name, open.parent, open.request, open.start, Instant::now());
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }

    /// Self time per layer, in milliseconds, and the span count per layer.
    pub fn self_times(&self) -> BTreeMap<String, (f64, usize)> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for s in &spans {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let entry = out.entry(layer).or_default();
            entry.0 += own as f64 / 1e6;
            entry.1 += 1;
        }
        out
    }
}

/// Times `f`, recording a span when tracing is on.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(name, parent, request, start, end);
    }
    (value, end - start)
}
