//! Spans recorded by the benchmark around its calls into each layer. They are kept in
//! memory and written out once, as Chrome trace events, when the traced run ends.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its children.
    /// Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (value, self.spans[index].seconds())
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_seconds(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::seconds)
            .sum();
        self.spans[index].seconds() - children
    }

    pub fn to_chrome_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(index, span)| {
                    Json::obj([
                        ("name", Json::str(&span.name)),
                        ("ph", Json::str("X")),
                        ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                        ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                        ("pid", Json::Num(1.0)),
                        ("tid", Json::Num(1.0)),
                        (
                            "args",
                            Json::obj([
                                ("id", Json::Num(index as f64)),
                                (
                                    "parent",
                                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("workload", Json::str(&self.workload)),
                                ("self_us", Json::Num(self.self_seconds(index) * 1e6)),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_self_time() {
        let mut tracer = Tracer::new("w");
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner2", |_| ());
        });
        tracer.span("sibling", |_| ());
        let spans = &tracer.spans;
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert!(spans[1].seconds() >= 0.002);
        assert!(spans[0].end_ns >= spans[2].end_ns && spans[0].start_ns <= spans[1].start_ns);
        assert!(tracer.self_seconds(0) <= spans[0].seconds() - spans[1].seconds());
        let events = tracer.to_chrome_json();
        let events = events.as_array().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Num(0.0))
        );
        assert_eq!(
            events[3].get("args").and_then(|a| a.get("workload")),
            Some(&Json::str("w"))
        );
    }
}
