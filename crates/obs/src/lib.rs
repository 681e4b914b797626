//! Unified tracing and metrics for the partitioning pipeline.
//!
//! This crate is the observability substrate the rest of the workspace records into:
//!
//! * **Spans** ([`SpanGuard`], [`SpanKind`]) form the hierarchy
//!   `pipeline → level → phase → round/pass`. Each span carries wall-clock timing and
//!   key/value attributes (`u64` values only — no formatting on the hot path).
//! * **Counters** ([`Counter`], [`MetricsRegistry`]) unify the pipeline's scattered
//!   statistics — LP rounds/moves, FM passes and rolled-back moves, page-cache
//!   hit/miss/read counters, memory peaks — into one typed registry.
//! * **Exporters** turn a finished recording into a [`RunReport`] (hand-rolled JSON,
//!   embedded into the bench result files), a Chrome `chrome://tracing` trace-event
//!   file ([`write_chrome_trace`]), or a human-readable summary table
//!   ([`RunReport::summary_table`]).
//!
//! # Overhead contract
//!
//! Everything hangs off an [`ObsHandle`]. The disabled handle ([`ObsHandle::noop`])
//! holds no allocation at all — spans constructed through it never allocate, attribute
//! pushes are skipped, and counter updates are a single branch on a `None`. This is
//! asserted by tests ([`SpanGuard::attr_capacity`] stays 0) so instrumentation can stay
//! in the hot loops unconditionally.
//!
//! # Determinism contract
//!
//! Recording only *reads* the algorithm state: span begin/end capture timestamps,
//! counters aggregate commutatively (`fetch_add`/`fetch_max`), and no RNG stream or
//! visit order is touched. A fixed-seed run is bit-identical with observability on,
//! off, or exporting — the workspace's integration tests compare the assignments
//! directly at several thread counts.

mod chrome;
mod metrics;
mod recorder;
mod report;
mod sink;

pub use chrome::write_chrome_trace;
pub use metrics::{Counter, CounterKind, MetricsRegistry};
pub use recorder::Recorder;
pub use report::{ReportSpan, RunReport, SpanRecord};
pub use sink::{ObsHandle, SpanGuard, SpanKind};
