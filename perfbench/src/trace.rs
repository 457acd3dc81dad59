//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around
//! calls into each crate's public functions; nothing inside the
//! program is instrumented. Spans nest strictly (one thread opens and
//! closes them), so a span's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, e.g. `adversary.calibrated_graph`.
    pub name: String,
    /// Layer the span's time is charged to, e.g. `adversary` or `phy`.
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created (`NaN` while open).
    pub end: f64,
}

impl Span {
    /// Wall seconds between open and close.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans in memory; written out once at the end of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open span and returns its id.
    pub fn enter(&mut self, name: impl Into<String>, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and
    /// returns its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        self.spans[id].dur()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own
    }

    /// Self time summed per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *by.entry(s.layer).or_insert(0.0) += own;
        }
        by
    }

    /// The span list as JSON (times in microseconds).
    pub fn to_json(&self) -> Value {
        let own = self.self_times();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json!({
                    "id": i as u64,
                    "name": s.name.clone(),
                    "layer": s.layer,
                    "parent": s.parent.map(|p| p as u64),
                    "start_us": s.start * 1e6,
                    "end_us": s.end * 1e6,
                    "self_us": own[i] * 1e6,
                })
            })
            .collect();
        let by_layer: BTreeMap<String, Value> = self
            .self_by_layer()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), json!(v * 1e6)))
            .collect();
        json!({ "spans": spans, "self_us_by_layer": by_layer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let root = t.enter("root", "harness");
        let a = t.enter("a", "x");
        let b = t.enter("b", "y");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(b);
        t.exit(a);
        t.exit(root);
        let own = t.self_times();
        let spans = &t.spans;
        assert_eq!(spans[a].parent, Some(root));
        assert_eq!(spans[b].parent, Some(a));
        assert!((own[root] - (spans[root].dur() - spans[a].dur())).abs() < 1e-12);
        assert!((own[a] - (spans[a].dur() - spans[b].dur())).abs() < 1e-12);
        assert_eq!(own[b], spans[b].dur());
        let total: f64 = t.self_by_layer().values().sum();
        assert!((total - spans[root].dur()).abs() < 1e-9);
    }
}
