//! Every hierarchy level is born compressed: contraction encodes each coarse
//! neighbourhood as it aggregates it, so no level — the coarsest included — is ever held
//! as CSR, and no phase re-encodes one. The bytes are charged as contraction writes them,
//! so each `contract@i` phase counts the level it builds. On R-MAT the hierarchy barely
//! shrinks, so the levels it holds set the run's peak. This reads the memory accounting's
//! peak, so it is the only `#[test]` of its binary: a sibling test allocating
//! concurrently would move the reading.

use graph::traits::Graph;
use graph::{gen, CsrGraph, NodeId};
use memtrack::PhaseTracker;
use terapart::{coarsening, partition, PartitionerConfig, Preset};

/// `graph` as a CSR graph, in its own neighbour order.
fn csr_of(graph: &impl Graph) -> CsrGraph {
    let mut xadj = vec![0];
    let (mut adjacency, mut weights) = (Vec::new(), Vec::new());
    for u in 0..graph.n() as NodeId {
        graph.for_each_neighbor(u, &mut |v, w| {
            adjacency.push(v);
            weights.push(w);
        });
        xadj.push(adjacency.len() as graph::EdgeId);
    }
    let node_weights = (0..graph.n() as NodeId)
        .map(|u| graph.node_weight(u))
        .collect();
    CsrGraph::from_parts(xadj, adjacency, weights, node_weights)
}

#[test]
fn every_level_is_born_compressed() {
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
        assert!(hierarchy.depth() >= 2, "{} levels", hierarchy.depth());
        for (i, level) in hierarchy.levels.iter().enumerate() {
            let compressed = level.coarse.size_in_bytes();
            let csr = csr_of(&level.coarse).size_in_bytes();
            println!(
                "level {}: {compressed} B compressed, {csr} B as CSR = {:.2}x",
                i + 1,
                compressed as f64 / csr as f64
            );
            assert_eq!(compressed, level.coarse.compressed().size_in_bytes());
            assert!(
                10 * compressed <= 6 * csr,
                "level {} is held at {compressed} B, over 0.6x its {csr} B CSR",
                i + 1
            );
        }
        hierarchy.depth()
    });

    let result = partition(&input, &config.clone().with_run_report(true));
    assert!(result.partition.is_balanced());
    assert_eq!(result.hierarchy_depth, depth);
    assert!(
        result
            .phase_reports
            .iter()
            .all(|r| r.name != "compress_level"),
        "a level was re-encoded"
    );
    let report = result.run_report.as_ref().unwrap();
    let contractions: Vec<_> = report
        .all_spans()
        .into_iter()
        .filter(|span| span.name == "contract")
        .collect();
    assert_eq!(contractions.len(), depth, "one contraction per level");
    for span in contractions {
        // `contract@i` builds level i + 1: its bytes are charged while it is written, on
        // top of everything the phase found held.
        let level = span.level.unwrap() as usize;
        let coarse = span.attr("coarse_bytes").unwrap() as usize;
        let phase = result
            .phase_reports
            .iter()
            .find(|r| r.name == "contract" && r.level == level)
            .unwrap();
        println!(
            "contract@{level}: {} B at entry, peak {} B, level {} holds {coarse} B",
            phase.bytes_at_entry,
            phase.peak_bytes,
            level + 1
        );
        assert!(
            phase.peak_bytes >= phase.bytes_at_entry + coarse,
            "contract@{level} peaks at {} B, below {} B held at entry + {coarse} B written",
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
    // 0.462x in contract@1 (0.297x with 8-byte ids); 0.508x (0.325x) while coarse node
    // weights took 8 bytes each; 0.767x in compress_level@1 (0.694x with 8-byte ids)
    // while each level was re-encoded from CSR; 1.036x in refine@2 (1.043x in
    // initial_partition@2) while every level was held as CSR.
    assert!(
        ratio <= 0.85,
        "peak {ratio:.3}x the input CSR, in {}@{}",
        peak.name,
        peak.level
    );
}
