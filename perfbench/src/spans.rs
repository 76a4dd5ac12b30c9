//! In-memory spans for the traced run.
//!
//! A span wraps one call into a layer's public function, from outside
//! the layer. Spans nest through the closure the tracer hands down, are
//! kept in memory while the run lasts, and are written out once it
//! ends. With tracing off, [`Tracer::span`] only calls the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the wrapped function belongs to (`serve`, `shard`, `core`,
    /// `net`, `audit`, `sim`, or `bench` for the benchmark loop itself).
    pub layer: &'static str,
    /// The wrapped call.
    pub name: &'static str,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// End, ns after the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or sweep point) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when switched on.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the wrapped calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `layer`/`name` for `request`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time per layer in ns: each span's duration minus the part its
/// direct children cover. The `bench` layer's self time is the time no
/// wrapped call accounts for.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: layer,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("shard", 10, 60, Some(0)),
            span("core", 20, 50, Some(1)),
            span("audit", 70, 80, Some(0)),
        ];
        let by = self_ns_by_layer(&spans);
        assert_eq!(by["bench"], 100 - 50 - 10);
        assert_eq!(by["shard"], 50 - 30);
        assert_eq!(by["core"], 30);
        assert_eq!(by["audit"], 10);
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_records_parents() {
        let mut t = Tracer::new(true);
        let v = t.span("bench", "request", 7, |t| {
            t.span("core", "solve", 7, |_| 1) + t.span("audit", "audit", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.request == 7 && x.end_ns >= x.start_ns));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core", "solve", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
