//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer from the
//! benchmark's own code; nothing inside the program is instrumented.
//! Each span records its name, start, end, parent and the op or tick id
//! it belongs to (every span of one op shares that id). The spans stay
//! in memory until the run ends, then [`Tracer::write_jsonl`] writes
//! them out. A layer's self time is its span's duration minus the part
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `bgp.decode`.
    pub name: &'static str,
    /// The op or tick this span belongs to.
    pub id: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: usize,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − children), ns.
    pub self_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (and any span left open inside it).
    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Count, total and self time per span name, by name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// A tracer that may be off: every call is a no-op in the untraced run.
#[derive(Debug, Default)]
pub struct Trace(Option<Tracer>);

impl Trace {
    /// Tracing on.
    pub fn on() -> Self {
        Trace(Some(Tracer::default()))
    }

    /// Tracing off.
    pub fn off() -> Self {
        Trace(None)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span (no-op when off).
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        self.0.as_mut().map(|t| t.begin(name, id))
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, idx: Option<usize>) {
        if let (Some(t), Some(i)) = (self.0.as_mut(), idx) {
            t.end(i);
        }
    }

    /// The recorder, when on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.0.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ids_propagate() {
        let mut t = Tracer::default();
        let op = t.begin("op", 7);
        let a = t.begin("bgp.decode", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7));
        let lt = t.layer_times();
        let op_t = lt["op"];
        let dec = lt["bgp.decode"];
        assert_eq!(dec.self_ns, dec.total_ns);
        assert_eq!(op_t.self_ns, op_t.total_ns - dec.total_ns);
        assert!(dec.total_ns >= 2_000_000);
    }
}
