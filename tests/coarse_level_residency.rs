//! Every hierarchy level but the coarsest is held compressed. A level stays CSR while
//! it is the newest, for its clustering; once coarsening contracts it, it is re-encoded
//! (the `compress_level` phase) and contraction, projection and its refinement read it
//! compressed. On R-MAT the hierarchy barely shrinks, so the levels it holds set the
//! run's peak: with level 1 compressed the peak falls by about a quarter. The re-encode's
//! transient, both graphs at once, is counted in its phase. This reads the memory
//! accounting's peak, so it is the only `#[test]` of its binary: a sibling test
//! allocating concurrently would move the reading.

use graph::{gen, NodeWeight};
use memtrack::PhaseTracker;
use terapart::{coarsening, partition, PartitionerConfig, Preset};

#[test]
fn every_level_but_the_coarsest_is_held_compressed() {
    let input = gen::weblike(14, 8, 3);
    let csr_bytes = input.size_in_bytes();
    let config = PartitionerConfig::preset(Preset::Default, 16).with_threads(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();

    // The hierarchy as a run holds it before uncoarsening pops a level.
    let depth = pool.install(|| {
        let hierarchy = coarsening::coarsen(&input, &config, &PhaseTracker::new());
        let (coarsest, held) = hierarchy.levels.split_last().expect("the input coarsens");
        assert!(!held.is_empty(), "{} levels", hierarchy.depth());
        assert!(
            coarsest.coarse.as_csr().is_some(),
            "the coarsest level stays CSR"
        );
        for (i, level) in held.iter().enumerate() {
            assert!(
                level.coarse.as_csr().is_none(),
                "level {} is held as CSR",
                i + 1
            );
        }
        hierarchy.depth()
    });

    let result = partition(&input, &config.clone().with_run_report(true));
    assert!(result.partition.is_balanced());
    assert_eq!(result.hierarchy_depth, depth);
    let report = result.run_report.as_ref().unwrap();
    let spans = report.all_spans();
    let compressions: Vec<_> = spans
        .iter()
        .filter(|span| span.name == "compress_level")
        .collect();
    assert_eq!(
        compressions.len(),
        depth - 1,
        "one re-encode per level but the last"
    );
    for span in compressions {
        let level = span.level.unwrap() as usize;
        let csr = span.attr("csr_bytes").unwrap() as usize;
        let compressed = span.attr("compressed_bytes").unwrap() as usize;
        println!(
            "level {level}: {csr} B as CSR, {compressed} B compressed = {:.2}x",
            compressed as f64 / csr as f64
        );
        assert!(
            10 * compressed <= 6 * csr,
            "level {level} is held at {compressed} B, over 0.6x its {csr} B CSR"
        );
        // The node weights move from the CSR into the compressed graph: the phase holds
        // them once, and every other byte of both graphs.
        let n = spans
            .iter()
            .find(|s| s.name == "coarsen_level" && s.level == Some(level as u64 - 1))
            .and_then(|s| s.attr("coarse_nodes"))
            .unwrap() as usize;
        let shared = n * std::mem::size_of::<NodeWeight>();
        let phase = result
            .phase_reports
            .iter()
            .find(|r| r.name == "compress_level" && r.level == level)
            .unwrap();
        assert!(
            phase.bytes_at_entry >= csr,
            "level {level}'s CSR is charged"
        );
        assert!(
            phase.peak_bytes >= phase.bytes_at_entry + compressed - shared,
            "compress_level@{level} peaks at {} B, below {} B held at entry + {compressed} B \
             compressed - {shared} B of node weights",
            phase.peak_bytes,
            phase.bytes_at_entry
        );
    }

    let ratio = result.peak_memory_bytes as f64 / csr_bytes as f64;
    let peak = result
        .phase_reports
        .iter()
        .max_by_key(|r| r.peak_bytes)
        .unwrap();
    println!(
        "peak {} B = {ratio:.3}x the input CSR ({csr_bytes} B), in {}@{}",
        result.peak_memory_bytes, peak.name, peak.level
    );
    // 0.767x in compress_level@1 (0.694x with 8-byte ids); 1.036x in refine@2 (1.043x in
    // initial_partition@2) while every level was held as CSR.
    assert!(
        ratio <= 0.85,
        "peak {ratio:.3}x the input CSR, in {}@{}",
        peak.name,
        peak.level
    );
}
