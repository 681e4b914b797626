//! Coarsening gives up a level on which fewer than an eighth of the half-edges are
//! contractible under the cluster-weight limit (`coarsening::MIN_CONTRACTIBLE_SHARE`).
//! The dense core of an R-MAT graph reaches that limit after one contraction; the levels
//! that used to follow removed a few percent of the edges each and held two near-copies
//! of the core. The one coarse level left is born compressed, so at both id widths the
//! peak stays within 1.6x the compressed input: 0.90x (1.11x with 8-byte ids; 0.96x and
//! 1.17x while coarse node weights took 8 bytes each). While
//! the level was a CSR graph it read 1.52x, and only
//! the default width was bounded; 1.5x was the bound while every encoded neighbourhood
//! also stored its first half-edge id and the input was 13 % larger. This reads
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
    // 0.47x the CSR (0.50x with 8-byte coarse node weights, 0.79x while the coarse level
    // was CSR).
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
    // Both id widths: a compressed level's bytes do not depend on the width (1.11x with
    // 8-byte ids).
    assert!(
        5 * peak <= 8 * input_bytes,
        "peak {peak} B is more than 1.6 x the compressed input ({input_bytes} B): is the \
         coarse level held as anything but its compressed bytes?"
    );
}
