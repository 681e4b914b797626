//! Every level-sized auxiliary buffer belongs to the phase that reads it and is freed
//! when that phase returns: contraction's buckets, label propagation's range
//! permutation and frontier bitsets, and each coarse level once uncoarsening has
//! projected past it. The first coarsening level then sets the tracked peak, not the
//! refinement of level 0 on top of everything the earlier phases left behind. That level
//! is held to its bytes per vertex too: clustering keeps its cluster weights at the width
//! of the weight limit (2 bytes on a mesh) and generates its visit order range by range
//! instead of holding n ids, and contraction's bucket build indexes its per-cluster
//! arrays by label rank (n′ entries), so only its members array is n ids long. Level 0's
//! LP refinement holds no n-id order either, and level 0's k-way FM keeps gain-table rows
//! for its boundary only, so `default` peaks where `fast` does on a mesh. This reads the
//! memory accounting's peak, so it is the only `#[test]` of its binary: a sibling test
//! allocating concurrently would move the reading.

use graph::{gen, CompressedGraph, CompressionConfig, CsrGraph, NodeId};
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
    // A mesh: level 0's coarsening is the peak at both id widths, within 0.25x the CSR:
    // 0.161x in cluster@0 (labels, 2-byte cluster weights, bitsets); 0.147x in contract@0
    // with 8-byte ids. With 4-byte cluster weights and 8-byte coarse node weights it was
    // 0.211x and 0.174x in cluster@0 (0.186x in contract@0 while contraction built a CSR
    // level). With an n-id visit order and label-indexed contraction arrays it was
    // 0.312x in cluster@0 (0.286x with 8-byte ids); before cluster weights took the
    // width of the weight limit and contraction's count array became its remap, 0.413x
    // (0.357x in contract@0 with 8-byte ids). Refinement of level 0 used to be the peak,
    // at ~0.7x, with level 0's buckets and visit order and every coarse graph still held.
    let n = 60_000;
    let (mesh, ratio) = run(gen::rgg2d(n, 8, 3), Preset::Fast, 16);
    let peak = mesh
        .phase_reports
        .iter()
        .max_by_key(|report| report.peak_bytes)
        .expect("phase reports");
    println!(
        "rgg2d(60 000, 8) fast, k = 16: peak {} B = {ratio:.3} x the uncompressed CSR, in {}@{}",
        mesh.peak_memory_bytes, peak.name, peak.level
    );
    let contract = mesh
        .phase_reports
        .iter()
        .find(|report| report.name == "contract" && report.level == 0)
        .expect("level 0 is contracted");
    let contract_per_vertex = contract.peak_bytes as f64 / n as f64;
    println!("contract@0 peaks at {contract_per_vertex:.2} B per vertex");
    // Measured 6.05 B (4-byte ids) and 10.52 B (8-byte ids), the compressed level it
    // writes included, its node weights at 1 byte each; 6.71 B and 11.18 B at 8 bytes;
    // 8.04 B and 13.27 B while it built a CSR level, charged after the phase, with n′
    // starts and node weights beside it; 11.48 B and 20.27 B while
    // the bucket build indexed its count array / remap by label (n entries), 12.76 B and
    // 25.51 B while it held a label remap beside that count array.
    let contract_bound = if std::mem::size_of::<NodeId>() == 4 {
        9.0
    } else {
        15.0
    };
    assert!(
        contract_per_vertex <= contract_bound,
        "contract@0 peaks at {contract_per_vertex:.2} B per vertex, over {contract_bound}"
    );
    let refine = mesh
        .phase_reports
        .iter()
        .find(|report| report.name == "refine" && report.level == 0)
        .expect("level 0 is refined");
    let refine_per_vertex = refine.auxiliary_bytes() as f64 / n as f64;
    println!("refine@0 holds {refine_per_vertex:.2} B per vertex beyond its entry");
    // Measured 0.40 B (4-byte ids) and 0.42 B (8-byte ids): the frontier bitsets and the
    // range permutation. 4.40 B and 8.42 B while LP refinement held an n-id visit order.
    assert!(
        refine_per_vertex <= 1.0,
        "refine@0 holds {refine_per_vertex:.2} B per vertex beyond its entry, over 1"
    );
    assert!(
        ratio <= 0.25,
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

    // The same mesh refined with the k-way FM. Its gain table has rows for the boundary
    // only, sized by the blocks each touches, at 2 bytes a slot, behind a 3-byte row
    // handle per vertex: `default` peaks at 1.020x `fast` (1.015x while `fast` held 4-byte
    // cluster weights) and its refine@0 holds 3.28 B
    // per vertex beyond its entry (4.38 B with rows sized by degree at 4 bytes a slot;
    // 12.5x and 104.8 B while the table had an 8-byte row and an 8-byte offset for every
    // vertex).
    let (fm_mesh, _) = run(gen::rgg2d(n, 8, 3), Preset::Default, 16);
    let over_fast = fm_mesh.peak_memory_bytes as f64 / mesh.peak_memory_bytes as f64;
    let fm_refine = fm_mesh
        .phase_reports
        .iter()
        .find(|report| report.name == "refine" && report.level == 0)
        .expect("level 0 is refined");
    let fm_refine_per_vertex = fm_refine.auxiliary_bytes() as f64 / n as f64;
    println!(
        "rgg2d(60 000, 8) default, k = 16: peak {} B = {over_fast:.3} x fast's; refine@0 holds {fm_refine_per_vertex:.2} B per vertex beyond its entry",
        fm_mesh.peak_memory_bytes
    );
    assert!(
        over_fast <= 1.5,
        "default peaks at {over_fast:.3} x fast on the mesh"
    );
    assert!(
        fm_refine_per_vertex <= 5.0,
        "FM's refine@0 holds {fm_refine_per_vertex:.2} B per vertex beyond its entry, over 5"
    );
    // A grid, where 4.9 % of the vertices end on the boundary: 0.519x the CSR with every
    // level born compressed and its node weights packed (0.631x at 8 bytes a weight,
    // 0.862x in compress_level@1 while levels were re-encoded, 0.915x while every level
    // was held as CSR; 3.00x with a row for every vertex).
    let (grid, ratio) = run(gen::grid2d(300, 300), Preset::Default, 16);
    println!(
        "grid2d(300, 300) default, k = 16: peak {} B = {ratio:.3} x the uncompressed CSR",
        grid.peak_memory_bytes
    );
    assert!(
        ratio <= 1.0,
        "grid2d(300, 300) default peaks at {ratio:.3} x the CSR"
    );

    // A power-law graph refined with the k-way FM: without popping the levels it has
    // projected past, uncoarsening held every coarse graph under level 0's gain table.
    // 0.498x with every level born compressed and its node weights packed (0.543x at 8
    // bytes a weight, 0.804x while each was re-encoded from
    // CSR and the coarsest stayed CSR, 1.073x while they were all CSR; 1.157x while the gain table had 8-byte slots and a row for every vertex and
    // initial partitioning's workspace stayed charged through uncoarsening).
    let (web, ratio) = run(gen::weblike(14, 8, 3), Preset::Default, 16);
    println!(
        "weblike(14, 8) default, k = 16: peak {} B = {ratio:.3} x the uncompressed CSR",
        web.peak_memory_bytes
    );
    assert!(ratio <= 1.3, "peak {ratio:.3} x the uncompressed CSR");
}
