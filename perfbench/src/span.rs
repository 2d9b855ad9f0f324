//! In-memory span recording for the traced run.
//!
//! A span covers one call into a layer's public function, made from the
//! benchmark's own code: name, start, end, parent span and op id. Spans
//! stay in memory and are written out once, when the run ends. A layer's
//! self time is its span minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Records spans of one thread. A disabled tracer runs the closures and
/// records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` belonging to op `op`; spans
    /// opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Moves another thread's spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in milliseconds of each layer, summed within each op:
    /// `layer name -> one value per op that called the layer`.
    pub fn self_ms_per_op(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(*children);
            *per_op.entry((span.name, span.op)).or_default() += self_ns;
        }
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            layers.entry(name).or_default().push(ns as f64 / 1e6);
        }
        layers
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_per_op() {
        let mut tracer = Tracer::new(Instant::now(), true);
        for op in 0..2 {
            tracer.span("op", op, |t| {
                t.span("a", op, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.span("a", op, |_| ());
            });
        }
        let layers = tracer.self_ms_per_op();
        assert_eq!(layers["a"].len(), 2);
        assert!(layers["a"].iter().all(|&ms| ms >= 2.0));
        assert!(layers["op"].iter().all(|&ms| ms < 2.0));
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        assert_eq!(tracer.span("op", 0, |_| 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
