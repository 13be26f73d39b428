//! The traced run's instrumentation: spans recorded by the benchmark
//! around its own calls into each layer's public functions (nothing
//! inside the program is instrumented), kept in memory and written out
//! as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `lineage.rows`.
    pub name: &'static str,
    /// The operation (request or write) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Per-layer aggregate of a tracer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child spans), ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, µs.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of the most recently opened span, ms.
    pub fn last_ms(&self) -> f64 {
        self.spans
            .last()
            .map_or(f64::NAN, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Aggregates spans by name: count, total and self time.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let layer = out.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += duration;
            layer.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.open("root", 0, None);
        t.span("child", 0, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let layers = t.layers();
        let root = layers["root"];
        let child = layers["child"];
        assert_eq!(root.count, 1);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(root.self_ns + child.total_ns, root.total_ns);
    }
}
