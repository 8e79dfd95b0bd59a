//! In-memory span recorder for the traced replay.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began. Spans stay in memory while the replay runs and are written out
//! once at the end, so recording costs one `Instant::now` per boundary.
//! A layer's self time is its spans' durations minus the part their child
//! spans cover.

use bwsa::obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans and named counts.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Adds `value` to the count `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.counts.entry(name.to_owned()).or_insert(0.0) += value;
    }

    /// The count `name`; 0 when nothing was added.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        child
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let child = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.duration_ns() - child[i]) as f64 * 1e-9)
            .fold(0.0, |a, b| a + b)
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().fold(0.0, |a, b| a + b)
    }

    /// `(name, spans, self seconds)` per span name, largest self time
    /// first.
    pub fn self_table(&self) -> Vec<(String, usize, f64)> {
        let child = self.child_ns();
        let mut rows: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(&s.name).or_insert((0, 0.0));
            row.0 += 1;
            row.1 += (s.duration_ns() - child[i]) as f64 * 1e-9;
        }
        let mut out: Vec<(String, usize, f64)> = rows
            .into_iter()
            .map(|(name, (n, s))| (name.to_owned(), n, s))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2));
        out
    }

    /// Every span and count, for the file written at the end of a run.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "spans",
                Json::Array(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::object([
                                ("id", Json::UInt(id as u64)),
                                ("name", Json::from(s.name.clone())),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                                ),
                                ("start_ns", Json::UInt(s.start_ns)),
                                ("end_ns", Json::UInt(s.end_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counts",
                Json::Object(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer_total = t.total_s("outer");
        let inner = t.self_s("inner");
        assert!(inner >= 0.02);
        assert!((t.self_s("outer") - (outer_total - inner)).abs() < 1e-9);
        assert_eq!(t.self_table()[0].0, "inner");
    }
}
