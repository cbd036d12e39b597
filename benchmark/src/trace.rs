//! Spans recorded around calls into each layer, and the per-layer
//! self time derived from them.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the request it belongs to (one frame, one batch or one query). Spans
//! stay in memory and are written out as JSON lines when a run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (its index plus one; 0 means "none").
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub req: u64,
}

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

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len()
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id - 1].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// a child running past its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent > 0 {
            children[s.parent - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per layer: self time summed within each request, then the median
/// over the requests that touched the layer (ns).
pub fn layer_self_p50(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut per_req: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *per_req.entry((s.name, s.req)).or_default() += t;
    }
    let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), t) in per_req {
        by_layer.entry(name).or_default().push(t as f64);
    }
    by_layer
        .into_iter()
        .map(|(name, v)| (name, crate::stats::median(&v)))
        .collect()
}

/// Per layer: total self time over the whole run (ns).
pub fn layer_self_total(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default() += t as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId, req: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", 0, 100, 0, 1),
            span("a", 10, 30, 1, 1),
            span("b", 20, 50, 1, 1),  // overlaps a: covered 10..50 = 40
            span("c", 90, 120, 1, 1), // runs past the root: 10 inside
            span("grandchild", 12, 18, 2, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10, "root minus union of direct children");
        assert_eq!(t[1], 20 - 6, "a minus its own child only");
        assert_eq!(t[2], 30);
        assert_eq!(t[3], 30);
        assert_eq!(t[4], 6);
    }

    #[test]
    fn nested_children_do_not_double_subtract() {
        let spans = vec![
            span("root", 0, 10, 0, 1),
            span("a", 0, 10, 1, 1),
            span("a.inner", 0, 10, 2, 1),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 10]);
    }

    #[test]
    fn per_request_medians_and_totals() {
        let spans = vec![
            span("req", 0, 10, 0, 1),
            span("decode", 0, 4, 1, 1),
            span("decode", 5, 7, 1, 1), // req 1 decode self = 6
            span("req", 20, 40, 0, 2),
            span("decode", 20, 22, 4, 2), // req 2 decode self = 2
            span("req", 50, 60, 0, 3),
            span("decode", 50, 60, 6, 3), // req 3 decode self = 10
        ];
        let p50 = layer_self_p50(&spans);
        assert_eq!(p50["decode"], 6.0);
        assert_eq!(p50["req"], 4.0, "req self times 4, 18, 0");
        let total = layer_self_total(&spans);
        assert_eq!(total["decode"], 18.0);
        assert_eq!(total["req"], 22.0);
    }

    #[test]
    fn tracer_records_nesting() {
        let mut t = Tracer::default();
        let root = t.begin("req", 0, 7);
        let leaf = t.begin("layer", root, 7);
        t.end(leaf);
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].req), (1, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
