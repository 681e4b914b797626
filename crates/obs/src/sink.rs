//! The recording seam: the cloneable [`ObsHandle`] threaded through the pipeline — a
//! [`Recorder`] or nothing — and the RAII [`SpanGuard`].

use std::fmt;
use std::sync::Arc;

use crate::metrics::Counter;
use crate::recorder::Recorder;

/// Position of a span in the `pipeline → level → phase → round/pass` hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole-run root span.
    Pipeline,
    /// One hierarchy level (coarsening or uncoarsening side).
    Level,
    /// A named phase within a level (`cluster`, `contract`, `refine`, ...).
    Phase,
    /// One LP round or FM pass within a phase.
    Round,
}

impl SpanKind {
    /// Stable lowercase name (used as the Chrome trace event category).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Pipeline => "pipeline",
            SpanKind::Level => "level",
            SpanKind::Phase => "phase",
            SpanKind::Round => "round",
        }
    }
}

/// Cheap cloneable entry point to the observability layer.
///
/// The default/noop handle holds `None` — one pointer-sized word, no allocation —
/// and every operation through it is a branch that the optimizer folds away. A
/// recording handle holds an `Arc` to its [`Recorder`].
#[derive(Clone, Default)]
pub struct ObsHandle {
    sink: Option<Arc<Recorder>>,
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHandle")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl ObsHandle {
    /// The disabled handle: no sink, no allocation, near-zero overhead.
    pub const fn noop() -> Self {
        Self { sink: None }
    }

    /// A handle recording into a fresh [`Recorder`]; the returned `Arc` is kept by the
    /// caller to build the [`RunReport`](crate::RunReport) when the run finishes.
    pub fn recording() -> (Self, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::new());
        (
            Self {
                sink: Some(recorder.clone()),
            },
            recorder,
        )
    }

    /// Whether observations are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span; it ends (and is recorded) when the returned guard drops.
    pub fn span(&self, kind: SpanKind, name: &'static str) -> SpanGuard {
        self.span_inner(kind, name, None)
    }

    /// Opens a span tagged with a hierarchy level or round/pass index.
    pub fn span_at(&self, kind: SpanKind, name: &'static str, level: u64) -> SpanGuard {
        self.span_inner(kind, name, Some(level))
    }

    fn span_inner(&self, kind: SpanKind, name: &'static str, level: Option<u64>) -> SpanGuard {
        match &self.sink {
            Some(sink) => SpanGuard {
                id: sink.span_begin(kind, name, level),
                sink: Some(sink.clone()),
                attrs: Vec::new(),
            },
            None => SpanGuard {
                id: 0,
                sink: None,
                attrs: Vec::new(),
            },
        }
    }

    /// Adds to a sum counter (no-op when disabled).
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_add(counter, delta);
        }
    }

    /// Raises a max gauge (no-op when disabled).
    pub fn gauge_max(&self, counter: Counter, value: u64) {
        if let Some(sink) = &self.sink {
            sink.gauge_max(counter, value);
        }
    }
}

/// RAII guard for an open span. Attributes attached via [`attr`](SpanGuard::attr)
/// are delivered to the recorder when the guard drops.
pub struct SpanGuard {
    sink: Option<Arc<Recorder>>,
    id: u64,
    attrs: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Attaches a key/value attribute. Skipped (no allocation) on a disabled handle.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.sink.is_some() {
            self.attrs.push((key, value));
        }
    }

    /// Capacity of the internal attribute buffer — stays 0 for spans from a noop
    /// handle, which is how tests assert the "allocates nothing when disabled"
    /// contract.
    pub fn attr_capacity(&self) -> usize {
        self.attrs.capacity()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink.span_end(self.id, &self.attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_allocates_nothing() {
        let obs = ObsHandle::noop();
        assert!(!obs.is_enabled());
        let mut span = obs.span(SpanKind::Pipeline, "pipeline");
        for i in 0..64 {
            span.attr("k", i);
        }
        assert_eq!(
            span.attr_capacity(),
            0,
            "attr() on a disabled span must not allocate"
        );
        // Counters on a disabled handle are a branch and nothing else.
        obs.add(Counter::LpClusterMoves, 7);
        obs.gauge_max(Counter::PeakMemoryBytes, 1 << 30);
    }

    #[test]
    fn noop_handle_is_pointer_sized() {
        assert_eq!(
            std::mem::size_of::<ObsHandle>(),
            std::mem::size_of::<usize>()
        );
    }
}
