//! Coarsening gives up a level on which fewer than an eighth of the half-edges are
//! contractible under the cluster-weight limit (`coarsening::MIN_CONTRACTIBLE_SHARE`).
//! The dense core of an R-MAT graph reaches that limit after one contraction; the levels
//! that used to follow removed a few percent of the edges each and held two near-copies
//! of the core. This reads the memory accounting's peak, so it is the only `#[test]` of
//! its binary: a sibling test allocating concurrently would move the reading.

use graph::{gen, CompressedGraph, CompressionConfig};
use terapart::{partition, PartitionerConfig, Preset};

#[test]
fn a_stalled_r_mat_core_is_not_coarsened_again() {
    let csr = gen::weblike(15, 8, 3);
    let csr_bytes = csr.size_in_bytes();
    // The input is not charged, as on the benchmark's compressed workloads.
    let input = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
    drop(csr);
    let config = PartitionerConfig::preset(Preset::Fast, 64).with_threads(1);
    let result = partition(&input, &config);
    assert!(result.partition.is_balanced());
    assert_eq!(
        result.hierarchy_depth, 1,
        "only the unit-weight input level contracts"
    );
    println!(
        "peak {} B = {:.2} x the uncompressed CSR ({csr_bytes} B)",
        result.peak_memory_bytes,
        result.peak_memory_bytes as f64 / csr_bytes as f64
    );
    assert!(
        4 * result.peak_memory_bytes <= 5 * csr_bytes,
        "peak {} B is more than 1.25 x the uncompressed CSR ({csr_bytes} B)",
        result.peak_memory_bytes
    );
}
