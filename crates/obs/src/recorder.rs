//! The recording sink.
//!
//! Span nesting is tracked on a thread-local stack (spans are emitted by the pipeline
//! driver thread, so parent/child relationships are well-defined without any global
//! synchronisation), and completed spans are appended to a mutex-protected vector —
//! locked once per span *end*, never inside a span. Counters go to the lock-free
//! [`MetricsRegistry`]. Multiple recorders may be live at once (parallel tests): stack
//! frames are tagged with the owning recorder so interleaved recorders on one thread
//! cannot corrupt each other's nesting.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::metrics::{Counter, MetricsRegistry};
use crate::report::{RunReport, SpanRecord};
use crate::sink::SpanKind;

struct OpenFrame {
    recorder: usize,
    id: u64,
    parent: u64,
    kind: SpanKind,
    name: &'static str,
    level: Option<u64>,
    start_ns: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<OpenFrame>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans and counters for one run; see the module docs.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates an empty recorder; timestamps are relative to this moment.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The counter/gauge registry of this recording.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn token(&self) -> usize {
        self as *const Recorder as usize
    }

    /// Builds the [`RunReport`] from everything recorded so far (spans are drained;
    /// the registry is left intact).
    pub fn finish_report(&self) -> RunReport {
        let spans = std::mem::take(&mut *self.spans.lock());
        RunReport::from_spans(spans, &self.metrics)
    }
}

/// What an [`ObsHandle`](crate::ObsHandle) and its spans record through.
impl Recorder {
    /// Starts a span; returns an id to pass to [`span_end`](Self::span_end). `level` is
    /// the hierarchy level (or round index) when meaningful.
    pub(crate) fn span_begin(&self, kind: SpanKind, name: &'static str, level: Option<u64>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let token = self.token();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|f| f.recorder == token)
                .map_or(0, |f| f.id);
            stack.push(OpenFrame {
                recorder: token,
                id,
                parent,
                kind,
                name,
                level,
                start_ns,
            });
        });
        id
    }

    /// Ends the span `id` with its accumulated attributes.
    pub(crate) fn span_end(&self, id: u64, attrs: &[(&'static str, u64)]) {
        let end_ns = self.now_ns();
        let token = self.token();
        let frame = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // The matching frame is almost always on top; tolerate out-of-order drops
            // (e.g. a guard stored across an early return) by scanning.
            let pos = stack
                .iter()
                .rposition(|f| f.recorder == token && f.id == id)?;
            Some(stack.remove(pos))
        });
        let Some(frame) = frame else { return };
        self.spans.lock().push(SpanRecord {
            id: frame.id,
            parent: frame.parent,
            kind: frame.kind,
            name: frame.name,
            level: frame.level,
            start_ns: frame.start_ns,
            end_ns: end_ns.max(frame.start_ns),
            attrs: attrs.to_vec(),
        });
    }

    /// Adds to a sum counter.
    pub(crate) fn counter_add(&self, counter: Counter, delta: u64) {
        self.metrics.add(counter, delta);
    }

    /// Raises a max gauge.
    pub(crate) fn gauge_max(&self, counter: Counter, value: u64) {
        self.metrics.record_max(counter, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ObsHandle;

    #[test]
    fn spans_nest_by_open_order() {
        let (obs, rec) = ObsHandle::recording();
        {
            let _root = obs.span(SpanKind::Pipeline, "pipeline");
            {
                let _lvl = obs.span_at(SpanKind::Level, "coarsen_level", 0);
                let _phase = obs.span_at(SpanKind::Phase, "cluster", 0);
            }
        }
        let report = rec.finish_report();
        assert_eq!(report.roots.len(), 1);
        let root = &report.roots[0];
        assert_eq!(root.name, "pipeline");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "coarsen_level");
        assert_eq!(root.children[0].children[0].name, "cluster");
    }

    #[test]
    fn concurrent_recorders_do_not_cross_link() {
        let (a, ra) = ObsHandle::recording();
        let (b, rb) = ObsHandle::recording();
        let _root_a = a.span(SpanKind::Pipeline, "a");
        {
            let _root_b = b.span(SpanKind::Pipeline, "b");
            let _child_b = b.span_at(SpanKind::Level, "b_child", 0);
        }
        drop(_root_a);
        let report_a = ra.finish_report();
        let report_b = rb.finish_report();
        assert_eq!(report_a.roots.len(), 1);
        assert!(report_a.roots[0].children.is_empty());
        assert_eq!(report_b.roots[0].children.len(), 1);
    }

    #[test]
    fn counters_flow_into_the_registry() {
        let (obs, rec) = ObsHandle::recording();
        obs.add(Counter::LpRefineMoves, 5);
        obs.add(Counter::LpRefineMoves, 2);
        obs.gauge_max(Counter::GainTableBytes, 1024);
        assert_eq!(rec.metrics().get(Counter::LpRefineMoves), 7);
        assert_eq!(rec.metrics().get(Counter::GainTableBytes), 1024);
    }

    #[test]
    fn spans_from_worker_threads_do_not_nest_under_the_driver() {
        let (obs, rec) = ObsHandle::recording();
        let _root = obs.span(SpanKind::Pipeline, "pipeline");
        let handle = obs.clone();
        std::thread::spawn(move || {
            let _task = handle.span(SpanKind::Phase, "worker_task");
        })
        .join()
        .unwrap();
        drop(_root);
        let report = rec.finish_report();
        // The worker-thread span has no parent on its own thread → it is a root.
        assert_eq!(report.roots.len(), 2);
    }
}
