//! Coarsening gives up a level on which fewer than an eighth of the half-edges are
//! contractible under the cluster-weight limit (`coarsening::MIN_CONTRACTIBLE_SHARE`).
//! The dense core of an R-MAT graph reaches that limit after one contraction; the levels
//! that used to follow removed a few percent of the edges each and held two near-copies
//! of the core. The one coarse level left sets the run peak, and it stores its edge
//! weights packed at the width of its heaviest edge (one byte here) rather than eight, so
//! at the default id width the peak stays within 1.6x the compressed input (1.5x while
//! every encoded neighbourhood also stored its first half-edge id and the input was 13 %
//! larger: 1.6x the smaller input admits fewer bytes than 1.5x the larger). This reads
//! the memory accounting's peak, so it is the only `#[test]` of its binary: a sibling test
//! allocating concurrently would move the reading.

use graph::{gen, CompressedGraph, CompressionConfig};
use terapart::{partition, PartitionerConfig, Preset};

#[test]
fn a_stalled_r_mat_core_is_not_coarsened_again() {
    let csr = gen::weblike(15, 8, 3);
    let csr_bytes = csr.size_in_bytes();
    // The input is not charged, as on the benchmark's compressed workloads.
    let input = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
    let input_bytes = input.size_in_bytes();
    drop(csr);
    let config = PartitionerConfig::preset(Preset::Fast, 64).with_threads(1);
    let result = partition(&input, &config);
    assert!(result.partition.is_balanced());
    assert_eq!(
        result.hierarchy_depth, 1,
        "only the unit-weight input level contracts"
    );
    let peak = result.peak_memory_bytes;
    // The reference CSR packs its (merged-duplicate) edge weights too, so it shrank with
    // the coarse level: the peak over it moved from 0.80x to 0.81x.
    println!(
        "peak {peak} B = {:.2} x the uncompressed CSR ({csr_bytes} B, weights packed) = \
         {:.2} x the compressed input ({input_bytes} B)",
        peak as f64 / csr_bytes as f64,
        peak as f64 / input_bytes as f64
    );
    assert!(
        4 * peak <= 5 * csr_bytes,
        "peak {peak} B is more than 1.25 x the uncompressed CSR ({csr_bytes} B, weights packed)"
    );
    // At `wide-ids` the coarse adjacency doubles, so only the CSR-relative bound holds.
    #[cfg(not(feature = "wide-ids"))]
    assert!(
        5 * peak <= 8 * input_bytes,
        "peak {peak} B is more than 1.6 x the compressed input ({input_bytes} B): is the \
         coarse level's edge-weight array wider than its heaviest edge needs?"
    );
}
