//! The single-level baseline the paper compares against.
//!
//! The paper's comparators (Mt-METIS, ParMETIS, XtraPuLP, HeiStream and the
//! semi-external algorithm of Akhremtsev et al.) are external systems. One of their
//! algorithmic families is re-implemented here, because a figure binary can check its
//! comparison: [`xtrapulp_like`], a single-level (non-multilevel) balanced label
//! propagation partitioner, the family XtraPuLP belongs to; fast and memory-lean but
//! with much higher edge cuts on geometric graphs (Table III, Figure 8).

pub mod xtrapulp_like;

pub use xtrapulp_like::xtrapulp_partition;

use graph::traits::Graph;
use graph::EdgeWeight;
use terapart::partition::BlockId;

/// Result of a baseline partitioner run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Block of every vertex.
    pub assignment: Vec<BlockId>,
    /// Edge cut on the input graph.
    pub edge_cut: EdgeWeight,
    /// Imbalance of the partition.
    pub imbalance: f64,
    /// Whether the balance constraint `(1 + ε)·⌈W/k⌉` is satisfied.
    pub balanced: bool,
    /// Wall-clock time of the run.
    pub total_time: std::time::Duration,
    /// Peak auxiliary memory charged by the algorithm, in bytes.
    pub peak_memory_bytes: usize,
}

/// Computes the cut/imbalance bookkeeping of a baseline run.
pub(crate) fn finish(
    graph: &impl Graph,
    k: usize,
    epsilon: f64,
    assignment: Vec<BlockId>,
    start: std::time::Instant,
    peak_memory_bytes: usize,
) -> BaselineResult {
    let partition = terapart::Partition::from_assignment(graph, k, epsilon, assignment);
    BaselineResult {
        edge_cut: partition.edge_cut_on(graph),
        imbalance: partition.imbalance(),
        balanced: partition.is_balanced(),
        total_time: start.elapsed(),
        peak_memory_bytes,
        assignment: partition.assignment().to_vec(),
    }
}
