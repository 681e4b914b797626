//! Umbrella crate of the TeraPart reproduction workspace.
//!
//! Re-exports the individual crates so the workspace-level integration tests and examples
//! can address everything through one dependency root:
//!
//! * [`graph`] — graph representations (CSR + compressed), generators and I/O.
//! * [`memtrack`] — memory accounting (tracking allocator, phase tracker, reserve/commit).
//! * [`terapart`] — the shared-memory multilevel partitioner (the paper's contribution).
//! * [`xterapart`] — the simulated distributed-memory partitioner.
//! * [`baselines`] — the XtraPuLP-like single-level comparator.

pub use baselines;
pub use graph;
pub use memtrack;
pub use terapart;
pub use xterapart;
