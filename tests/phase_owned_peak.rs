//! Every level-sized auxiliary buffer belongs to the phase that reads it and is freed
//! when that phase returns: contraction's buckets, label propagation's visit order and
//! frontier bitsets, and each coarse level once uncoarsening has projected past it. The
//! first coarsening level then sets the tracked peak, not the refinement of level 0 on
//! top of everything the earlier phases left behind. This reads the memory accounting's
//! peak, so it is the only `#[test]` of its binary: a sibling test allocating
//! concurrently would move the reading.

use graph::{gen, CompressedGraph, CompressionConfig, CsrGraph};
use terapart::{partition, PartitionResult, PartitionerConfig, Preset};

/// Partitions `csr` compressed and uncharged, as on the benchmark's compressed
/// workloads, at one thread; returns the run and its peak over the uncompressed CSR.
fn run(csr: CsrGraph, preset: Preset, k: usize) -> (PartitionResult, f64) {
    let csr_bytes = csr.size_in_bytes();
    let input = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
    drop(csr);
    let result = partition(
        &input,
        &PartitionerConfig::preset(preset, k).with_threads(1),
    );
    assert!(result.partition.is_balanced());
    let ratio = result.peak_memory_bytes as f64 / csr_bytes as f64;
    (result, ratio)
}

#[test]
fn the_first_coarsening_level_sets_the_peak() {
    // A mesh: level 0's clustering (labels, cluster weights, visit order) or its
    // contraction (buckets, the coarse graph being written) is the peak. Refinement of
    // level 0 used to be, at ~0.7x, with level 0's buckets and visit order and every
    // coarse graph still held.
    let (mesh, ratio) = run(gen::rgg2d(60_000, 8, 3), Preset::Fast, 16);
    let peak = mesh
        .phase_reports
        .iter()
        .max_by_key(|report| report.peak_bytes)
        .expect("phase reports");
    println!(
        "rgg2d(60 000, 8) fast, k = 16: peak {} B = {ratio:.3} x the uncompressed CSR, in {}@{}",
        mesh.peak_memory_bytes, peak.name, peak.level
    );
    assert!(
        ratio <= 0.5,
        "peak {ratio:.3} x the uncompressed CSR, in {}@{}",
        peak.name,
        peak.level
    );
    assert!(
        matches!(peak.name.as_str(), "cluster" | "contract") && peak.level == 0,
        "the peak is {}@{}, not level 0's coarsening",
        peak.name,
        peak.level
    );

    // A power-law graph refined with the k-way FM: without popping the levels it has
    // projected past, uncoarsening held every coarse graph under level 0's gain table.
    let (web, ratio) = run(gen::weblike(14, 8, 3), Preset::Default, 16);
    println!(
        "weblike(14, 8) default, k = 16: peak {} B = {ratio:.3} x the uncompressed CSR",
        web.peak_memory_bytes
    );
    assert!(ratio <= 1.3, "peak {ratio:.3} x the uncompressed CSR");
}
