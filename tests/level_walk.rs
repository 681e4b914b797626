//! The multilevel walk is the library's: `RunContext::coarsen`, `initial_step` on the
//! coarsest graph and `uncoarsen_step` on every level back to the input, each level read
//! through `Hierarchy::deepest` as the hierarchy holds it (compressed but for the
//! coarsest), walked by hand, give what `partition` gives, bit for bit; and
//! `PartitionResult::refinement` is what the levels' refinements report, merged. (A
//! binary of its own: it runs pipelines.)
use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig};
use memtrack::PhaseTracker;
use terapart::refinement::RefinementStats;
use terapart::{partition, HierarchyScratch, Partition, PartitionerConfig, Preset, RunContext};

/// What walking the steps by hand leaves: the partition, the merged refinement
/// statistics, the depth and the phases as `(name, level)`.
type Walk = (Partition, RefinementStats, usize, Vec<(String, usize)>);

/// Walks the steps the way a caller outside the library does, at one thread, with every
/// level's graph behind `&dyn Graph`.
fn walk_by_hand(input: &dyn Graph, config: &PartitionerConfig) -> Walk {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let tracker = PhaseTracker::new();
    let mut scratch = HierarchyScratch::new();
    let mut run = RunContext {
        config,
        tracker: &tracker,
        scratch: &mut scratch,
    };
    let (partition, refinement, depth) = pool.install(|| {
        let mut hierarchy = run.coarsen(&input);
        let depth = hierarchy.depth();
        let coarsest: &dyn Graph = hierarchy.deepest().map_or(input, |g| g as &dyn Graph);
        let mut partition = run.initial_step(&coarsest, depth);
        let mut refinement = RefinementStats::default();
        let mut coarser = None;
        for level in (0..=depth).rev() {
            let graph: &dyn Graph = hierarchy.deepest().map_or(input, |g| g as &dyn Graph);
            refinement.merge(&run.uncoarsen_step(&graph, &mut partition, coarser, level, depth));
            coarser = hierarchy.levels.pop();
        }
        (partition, refinement, depth)
    });
    let phases = tracker.reports().into_iter().map(|r| (r.name, r.level));
    (partition, refinement, depth, phases.collect())
}

fn assert_walk_is_partition(name: &str, graph: &impl Graph, k: usize, depth_zero: bool) {
    for preset in [Preset::Fast, Preset::Default, Preset::Strong] {
        let config = PartitionerConfig::preset(preset, k)
            .with_threads(1)
            .with_seed(3);
        let result = partition(graph, &config);
        let (walked, refinement, depth, phases) = walk_by_hand(graph, &config);
        let run = format!("{name}, {preset:?}");
        assert_eq!(depth == 0, depth_zero, "{run}: {depth} levels");
        assert_eq!(depth, result.hierarchy_depth, "{run}");
        assert_eq!(
            walked.assignment(),
            result.partition.assignment(),
            "{run}: the walk by hand partitions differently"
        );
        assert_eq!(walked.edge_cut(), result.edge_cut, "{run}");
        assert_eq!(refinement, result.refinement, "{run}");
        let reported: Vec<_> = result
            .phase_reports
            .iter()
            .map(|r| (r.name.clone(), r.level))
            .collect();
        assert_eq!(phases, reported, "{run}");
        // Every level but the coarsest was walked compressed.
        let compressed = phases.iter().filter(|(name, _)| name == "compress_level");
        assert_eq!(compressed.count(), depth.saturating_sub(1), "{run}");
    }
}

#[test]
fn walking_the_steps_by_hand_is_partition() {
    let csr = gen::rgg2d(4_000, 8, 5);
    let compressed = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
    assert_walk_is_partition("rgg2d(4 000, 8)", &csr, 8, false);
    assert_walk_is_partition("compressed rgg2d(4 000, 8)", &compressed, 8, false);
    // 64 vertices at k = 16: nothing coarsens, the input is the coarsest graph.
    assert_walk_is_partition("grid2d(8, 8)", &gen::grid2d(8, 8), 16, true);
}

/// `PartitionResult::refinement` sums the gain-table rows every level's FM built and
/// appended, as the `refine` spans report them, and keeps the input level's boundary.
#[test]
fn the_run_reports_the_refinement_of_every_level() {
    let graph = gen::rgg2d(4_000, 8, 5);
    let config = PartitionerConfig::preset(Preset::Default, 8)
        .with_threads(1)
        .with_run_report(true);
    let result = partition(&graph, &config);
    let report = result.run_report.as_ref().unwrap();
    let refines: Vec<_> = report
        .all_spans()
        .into_iter()
        .filter(|span| span.name == "refine")
        .collect();
    assert_eq!(refines.len(), result.hierarchy_depth + 1);
    let sum = |key: &str| -> u64 { refines.iter().map(|span| span.attr(key).unwrap()).sum() };
    let stats = &result.refinement;
    assert!(stats.gain_rows_built > 0);
    assert_eq!(stats.gain_rows_built as u64, sum("rows_built"));
    assert_eq!(stats.gain_rows_added as u64, sum("rows_added"));
    assert_eq!(stats.lp_visited as u64, sum("visited"));
    let input_level = refines.iter().find(|span| span.level == Some(0)).unwrap();
    assert_eq!(Some(stats.boundary as u64), input_level.attr("boundary"));
}
