//! The multilevel partitioning driver: coarsen → initial partition → uncoarsen + refine.
//!
//! The two free functions are one-shots, each a call into an ephemeral
//! [`PartitionEngine`] built from the flat [`PartitionerConfig`]. [`partition`] runs
//! the full pipeline on any in-memory [`Graph`] representation: a
//! [`graph::CompressedGraph`] input is how the paper's configuration ladder
//! (KaMinPar → … → TeraPart) evaluates compression.
//! [`partition_ondisk`] goes one step beyond the ladder: it opens a `.tpg` container
//! through a fixed-budget page cache ([`graph::PagedGraph`]) so the finest-level
//! clustering, contraction, projection and refinement run directly against disk —
//! the accounted in-memory footprint of the input is `offset index + node weights +
//! page budget` instead of the compressed (let alone the CSR) size. Every run comes
//! back as one [`PartitionResult`]: cut, time, peak bytes and the per-phase breakdown.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graph::traits::Graph;
use graph::EdgeWeight;
use memtrack::{PhaseReport, PhaseTracker};
use obs::{Counter, ObsHandle, Recorder, RunReport, SpanKind};

use crate::coarsening::{self, Hierarchy, Level};
use crate::context::PartitionerConfig;
use crate::engine::{EngineConfig, PartitionEngine, PartitionRequest};
use crate::error::PartitionError;
use crate::initial::initial_partition_with_scratch;
use crate::partition::Partition;
use crate::refinement::{refine_with_scratch, RefinementStats};
use crate::scratch::HierarchyScratch;

/// The outcome of a partitioning run, with the quality/time/memory numbers the paper's
/// experiments report.
#[derive(Debug)]
pub struct PartitionResult {
    /// The computed k-way partition of the input graph.
    pub partition: Partition,
    /// Edge cut of the partition on the input graph.
    pub edge_cut: EdgeWeight,
    /// Imbalance of the partition.
    pub imbalance: f64,
    /// Wall-clock time of the whole run.
    pub total_time: Duration,
    /// Peak bytes observed by the memory accounting during the run.
    pub peak_memory_bytes: usize,
    /// Number of coarsening levels.
    pub hierarchy_depth: usize,
    /// Per-phase memory/time reports (Figure 2 style breakdown).
    pub phase_reports: Vec<PhaseReport>,
    /// Aggregated refinement statistics over all levels.
    pub refinement: RefinementStats,
    /// Page-cache counters of the run — `Some` only when the input was a paged store
    /// ([`partition_ondisk`], [`PartitionEngine::partition_path`] and
    /// [`PartitionEngine::partition_store`] with the paged backend), snapshotted when
    /// the pipeline returns.
    pub cache_stats: Option<graph::store::CacheStatsSnapshot>,
    /// Structured observability report: the `pipeline → level → phase → round` span
    /// tree with wall times and per-phase peak memory, plus the unified counter
    /// registry. `Some` only when the run recorded
    /// ([`PartitionerConfig::with_run_report`]); recording never changes the partition.
    /// [`obs::write_chrome_trace`] exports it as a Chrome trace.
    pub run_report: Option<RunReport>,
}

/// The observability side of one partitioning run: a recording sink when the
/// configuration asks for a run report, the free noop path otherwise.
pub(crate) struct ObsSession {
    pub(crate) handle: ObsHandle,
    recorder: Option<Arc<Recorder>>,
}

impl ObsSession {
    pub(crate) fn new(config: &PartitionerConfig) -> Self {
        if config.obs.record {
            let (handle, recorder) = ObsHandle::recording();
            Self {
                handle,
                recorder: Some(recorder),
            }
        } else {
            Self {
                handle: ObsHandle::noop(),
                recorder: None,
            }
        }
    }

    /// Settles the run: pours the graph representation's counters (e.g. page-cache
    /// statistics) and the run's memory peak into the registry and builds the
    /// [`RunReport`]. Returns `None` for non-recording runs.
    pub(crate) fn finish(self, graph: &impl Graph, tracker: &PhaseTracker) -> Option<RunReport> {
        let recorder = self.recorder?;
        graph.record_obs_metrics(recorder.metrics());
        recorder
            .metrics()
            .record_max(Counter::PeakMemoryBytes, tracker.overall_peak() as u64);
        Some(recorder.finish_report())
    }
}

/// Runs `f` as a tracked phase (memtrack peak attribution) wrapped in an observability
/// span of the same name; the phase's peak memory rides on the span as an attribute.
/// With a noop handle this is exactly `tracker.run` plus two dead branches.
pub(crate) fn obs_phase<T>(
    obs: &ObsHandle,
    tracker: &PhaseTracker,
    name: &'static str,
    level: usize,
    f: impl FnOnce() -> T,
) -> T {
    obs_phase_with(obs, tracker, name, level, f, |_, _| {})
}

/// [`obs_phase`] whose span also carries what `annotate` reads off the phase's result.
pub(crate) fn obs_phase_with<T>(
    obs: &ObsHandle,
    tracker: &PhaseTracker,
    name: &'static str,
    level: usize,
    f: impl FnOnce() -> T,
    annotate: impl FnOnce(&T, &mut obs::SpanGuard),
) -> T {
    let mut span = obs.span_at(SpanKind::Phase, name, level as u64);
    let (value, report) = tracker.run_reported(name, level, f);
    span.attr("peak_bytes", report.peak_bytes as u64);
    annotate(&value, &mut span);
    value
}

/// The level-boundary invariants (debug builds): the tracked cut equals a recount —
/// after a projection that is "projected cut == coarse cut" —, the block weights equal
/// a recount, and every boundary vertex is in the boundary superset.
fn debug_check_level(graph: &impl Graph, partition: &Partition, stage: &str, level: usize) {
    if cfg!(debug_assertions) {
        if let Err(violation) = partition.check_tracked_state(graph) {
            panic!("after {stage} on level {level}: {violation}");
        }
    }
}

/// Projects `coarse`, the partition of the graph `popped` holds, onto `graph`, the graph
/// of `level`, and refines it there. `popped` — coarse graph, mapping and memory charge
/// — and `coarse` are freed before the refinement: no later phase reads them.
fn uncoarsen_level(
    graph: &impl Graph,
    coarse: Partition,
    popped: Level,
    level: usize,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
    scratch: &mut HierarchyScratch,
) -> (Partition, RefinementStats) {
    let mut partition = obs_phase(&scratch.obs, tracker, "uncoarsen", level, || {
        coarse.project(graph, &popped.mapping)
    });
    drop((coarse, popped));
    debug_check_level(graph, &partition, "projection", level);
    let seed = config.seed ^ (level as u64);
    let stats = refine_level(graph, &mut partition, level, seed, config, tracker, scratch);
    (partition, stats)
}

/// Refines `partition` on the graph of one hierarchy level as the pipeline's `refine`
/// phase. The span says how much of the level the refinement looked at: `candidates`
/// (boundary superset on entry), `visited` (summed over the LP rounds) and `boundary`
/// (superset on exit), all out of the level's `n`.
fn refine_level(
    graph: &impl Graph,
    partition: &mut Partition,
    level: usize,
    seed: u64,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
    scratch: &mut HierarchyScratch,
) -> RefinementStats {
    let obs = scratch.obs.clone();
    let stats = obs_phase_with(
        &obs,
        tracker,
        "refine",
        level,
        || refine_with_scratch(graph, partition, &config.refinement, seed, scratch),
        |stats, span| {
            span.attr("candidates", stats.lp_candidates as u64);
            span.attr("visited", stats.lp_visited as u64);
            span.attr("boundary", stats.boundary as u64);
        },
    );
    debug_check_level(graph, partition, "refinement", level);
    stats
}

/// Computes the initial partition of the coarsest graph of the hierarchy — the input
/// itself when nothing coarsened — and refines it there. Initial partitioning reads
/// any [`Graph`] representation, so a compressed or paged input is never copied.
fn partition_coarsest(
    graph: &impl Graph,
    depth: usize,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
    scratch: &mut HierarchyScratch,
) -> (Partition, RefinementStats) {
    let obs = scratch.obs.clone();
    let mut partition = obs_phase(&obs, tracker, "initial_partition", depth, || {
        initial_partition_with_scratch(
            graph,
            config.k,
            config.epsilon,
            &config.initial,
            config.seed,
            scratch,
        )
    });
    let _level = obs.span_at(SpanKind::Level, "uncoarsen_level", depth as u64);
    let seed = config.seed ^ 0xC0A53;
    let stats = refine_level(graph, &mut partition, depth, seed, config, tracker, scratch);
    (partition, stats)
}

/// The engine's inner pipeline: partitions `graph` into `config.k` blocks, recording
/// phases in `tracker`, against an already-created observability session and an
/// externally owned scratch arena. The store-opening entry point records its
/// `open_store` phase into the same session's report; the arena comes from the engine's
/// [`ScratchPool`](crate::engine::ScratchPool), so a request on a warmed engine reuses
/// its per-worker buffers.
pub(crate) fn partition_with_session(
    graph: &impl Graph,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
    session: ObsSession,
    scratch: &mut HierarchyScratch,
) -> PartitionResult {
    let start = Instant::now();
    let obs = session.handle.clone();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.num_threads.max(1))
        .build()
        .expect("failed to build the partitioning thread pool");

    // The root span of the run. Everything the pipeline does — coarsening levels,
    // initial partitioning, uncoarsening levels, the final cut evaluation — nests
    // underneath it, so its child coverage accounts for (nearly) the whole wall time.
    let mut root = obs.span(SpanKind::Pipeline, "pipeline");
    root.attr("n", graph.n() as u64);
    root.attr("m", graph.m() as u64);
    root.attr("k", config.k as u64);
    root.attr("threads", config.num_threads.max(1) as u64);

    let (partition, hierarchy_depth, refinement) = pool.install(|| {
        // One scratch arena serves the whole run with its worker buffers and carries
        // the run's observability handle into the phase implementations. Level-sized
        // buffers belong to the phase that reads them.
        scratch.obs = obs.clone();

        // ---- Coarsening ----
        let mut hierarchy: Hierarchy =
            coarsening::coarsen_with_scratch(graph, config, tracker, scratch);
        let depth = hierarchy.depth();

        // ---- Initial partitioning and refinement on the coarsest graph ----
        let mut total = RefinementStats::default();
        let mut accumulate = |stats: RefinementStats| {
            total.lp_moves += stats.lp_moves;
            total.fm_moves += stats.fm_moves;
            total.rebalance_moves += stats.rebalance_moves;
            total.gain_table_bytes = total.gain_table_bytes.max(stats.gain_table_bytes);
            total.lp_candidates += stats.lp_candidates;
            total.lp_visited += stats.lp_visited;
        };
        let (mut current, stats) = match hierarchy.levels.last() {
            Some(coarsest) => partition_coarsest(&coarsest.coarse, depth, config, tracker, scratch),
            None => partition_coarsest(graph, depth, config, tracker, scratch),
        };
        accumulate(stats);

        // ---- Uncoarsening: walk the hierarchy back up: pop level i, whose coarse
        // graph is level i + 1's, and project from it onto level i's graph ----
        while let Some(popped) = hierarchy.levels.pop() {
            let i = hierarchy.depth();
            let _level = obs.span_at(SpanKind::Level, "uncoarsen_level", i as u64);
            let (projected, stats) = match hierarchy.levels.last() {
                Some(finer) => {
                    uncoarsen_level(&finer.coarse, current, popped, i, config, tracker, scratch)
                }
                None => uncoarsen_level(graph, current, popped, i, config, tracker, scratch),
            };
            current = projected;
            accumulate(stats);
        }
        (current, depth, total)
    });

    // Every stage kept the cut by its deltas or recounted it over the boundary: the
    // final evaluation reads it.
    let edge_cut = {
        let _span = obs.span(SpanKind::Phase, "evaluate");
        partition.edge_cut()
    };
    let imbalance = partition.imbalance();
    root.attr("edge_cut", edge_cut);
    root.attr("depth", hierarchy_depth as u64);
    drop(root);
    let run_report = session.finish(graph, tracker);
    PartitionResult {
        edge_cut,
        imbalance,
        total_time: start.elapsed(),
        peak_memory_bytes: tracker.overall_peak(),
        hierarchy_depth,
        phase_reports: tracker.reports(),
        refinement,
        partition,
        cache_stats: None,
        run_report,
    }
}

/// The engine and request a one-shot call runs on: `config` split into its two halves.
pub(crate) fn one_shot(config: &PartitionerConfig) -> (PartitionEngine, PartitionRequest) {
    (
        PartitionEngine::with_config(EngineConfig::from_partitioner(config)),
        PartitionRequest::from_config(config),
    )
}

/// Partitions `graph` into `config.k` blocks.
///
/// The graph is used in whatever representation it is passed in: pass a
/// [`graph::CompressedGraph`] to partition the compressed representation. Only the
/// pipeline's own buffers are charged to the memory accounting; a caller that wants the
/// input counted in `peak_memory_bytes` charges it
/// ([`memtrack::MemoryScope::charge_global`]) for the duration of the call.
/// Long-lived callers serving many requests should hold a [`PartitionEngine`] instead,
/// which reuses scratch arenas and open stores across requests.
pub fn partition(graph: &impl Graph, config: &PartitionerConfig) -> PartitionResult {
    let (engine, request) = one_shot(config);
    engine.partition(graph, &request)
}

/// Partitions a graph stored in a `.tpg` container on disk, never loading the full
/// adjacency into memory: the input is accessed through a page cache whose geometry
/// comes from [`PartitionerConfig::ondisk`], so the finest-level coarsening pass and
/// the final projection/refinement decode neighbourhoods straight from disk. The
/// container open (header + offset index read, semi-external charge) is reported as the
/// `"open_store"` phase.
///
/// For a fixed seed (and thread count) the resulting partition is bit-identical to
/// running [`partition`] on the in-memory compressed graph loaded from the same
/// container ([`graph::store::read_tpg_compressed`]): both decode the identical bytes
/// in the identical order.
///
/// # Errors
///
/// Storage faults never panic the pipeline. A failed open (missing file, malformed or
/// corrupt container) and a read that still fails after checksum verification and
/// [retries](crate::context::OnDiskConfig) both surface as a structured
/// [`PartitionError`] naming the pipeline phase the fault interrupted; any partial
/// result computed before the fault is discarded.
pub fn partition_ondisk(
    path: impl AsRef<Path>,
    config: &PartitionerConfig,
) -> Result<PartitionResult, PartitionError> {
    let (engine, request) = one_shot(config);
    engine.partition_path(path, &request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PartitionerConfig;
    use graph::gen;

    fn check_result(graph: &impl Graph, result: &PartitionResult, k: usize) {
        assert_eq!(result.partition.k(), k);
        assert!(result.partition.is_complete());
        assert_eq!(result.edge_cut, result.partition.edge_cut_on(graph));
        assert!(
            result.partition.is_balanced(),
            "imbalanced result: {:?} (max {})",
            result.partition.block_weights(),
            result.partition.max_block_weight()
        );
        assert_eq!(
            result.partition.block_weights().iter().sum::<u64>(),
            graph.total_node_weight()
        );
    }

    #[test]
    fn partitions_a_grid_into_four_blocks() {
        let g = gen::grid2d(32, 32);
        let config = PartitionerConfig::terapart(4).with_threads(2);
        let result = partition(&g, &config);
        check_result(&g, &result, 4);
        assert!(result.hierarchy_depth >= 1);
        // A 32x32 grid has a 4-way partition with cut around 2 * 32; random would be ~1500.
        assert!(result.edge_cut < 300, "cut {} too high", result.edge_cut);
        assert!(!result.phase_reports.is_empty());
    }

    #[test]
    fn all_configuration_presets_produce_valid_partitions() {
        let g = gen::rgg2d(2000, 10, 4);
        for config in [
            PartitionerConfig::kaminpar(8),
            PartitionerConfig::kaminpar_two_phase_lp(8),
            PartitionerConfig::terapart(8),
            PartitionerConfig::terapart_fm(8),
        ] {
            let result = partition(&g, &config.with_threads(2));
            check_result(&g, &result, 8);
        }
    }

    #[test]
    fn quality_is_far_better_than_random() {
        let g = gen::grid2d(40, 40);
        let config = PartitionerConfig::terapart(8).with_threads(2);
        let result = partition(&g, &config);
        check_result(&g, &result, 8);
        // A random 8-way partition of a 40x40 grid cuts ~7/8 of the ~3120 edges.
        let random_cut_estimate = (g.m() as f64 * 7.0 / 8.0) as u64;
        assert!(
            result.edge_cut * 4 < random_cut_estimate,
            "cut {} not much better than random {}",
            result.edge_cut,
            random_cut_estimate
        );
    }

    #[test]
    fn fm_configuration_is_at_least_as_good_as_lp() {
        let g = gen::rgg2d(3000, 12, 8);
        let lp = partition(&g, &PartitionerConfig::terapart(16).with_threads(2));
        let fm = partition(&g, &PartitionerConfig::terapart_fm(16).with_threads(2));
        check_result(&g, &lp, 16);
        check_result(&g, &fm, 16);
        // The two configurations follow different refinement trajectories during
        // uncoarsening (and LP refinement is non-deterministic under parallelism), so FM
        // is only required to stay in the same quality class here; the strict "FM never
        // worse than LP on the same partition" property is asserted in
        // refinement::tests::fm_configuration_improves_over_lp_alone.
        assert!(
            fm.edge_cut as f64 <= lp.edge_cut as f64 * 1.3,
            "FM cut {} much worse than LP cut {}",
            fm.edge_cut,
            lp.edge_cut
        );
        assert!(fm.refinement.gain_table_bytes > 0);
        assert_eq!(lp.refinement.gain_table_bytes, 0);
    }

    #[test]
    fn small_graph_with_large_k() {
        let g = gen::grid2d(8, 8);
        let config = PartitionerConfig::terapart(16).with_threads(1);
        let result = partition(&g, &config);
        check_result(&g, &result, 16);
        assert_eq!(
            result.hierarchy_depth, 0,
            "64 vertices should not be coarsened for k=16"
        );
    }

    #[test]
    fn k_equal_one_yields_zero_cut() {
        let g = gen::path(50);
        let result = partition(&g, &PartitionerConfig::terapart(1));
        assert_eq!(result.edge_cut, 0);
        assert_eq!(result.imbalance, 0.0);
    }

    #[test]
    fn deterministic_with_one_thread_and_fixed_seed() {
        let g = gen::erdos_renyi(500, 2000, 9);
        let config = PartitionerConfig::terapart(4).with_threads(1).with_seed(77);
        let a = partition(&g, &config);
        let b = partition(&g, &config);
        assert_eq!(a.edge_cut, b.edge_cut);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
    }

    #[test]
    fn phase_reports_cover_the_pipeline() {
        let g = gen::grid2d(30, 30);
        let config = PartitionerConfig::terapart(4).with_threads(2);
        let result = partition(&g, &config);
        check_result(&g, &result, 4);
        let names: std::collections::HashSet<String> = result
            .phase_reports
            .iter()
            .map(|r| r.name.clone())
            .collect();
        for expected in ["cluster", "contract", "initial_partition", "refine"] {
            assert!(
                names.contains(expected),
                "missing phase {} in {:?}",
                expected,
                names
            );
        }
        assert!(result.peak_memory_bytes > 0);
    }

    #[test]
    fn weighted_graphs_are_partitioned_by_weight() {
        let g = gen::with_random_node_weights(&gen::grid2d(20, 20), 4, 6);
        let config = PartitionerConfig::terapart(4).with_threads(2);
        let result = partition(&g, &config);
        check_result(&g, &result, 4);
    }

    #[test]
    fn an_uncoarsened_compressed_input_is_partitioned_in_place() {
        // 64 vertices, k = 16: nothing coarsens, so initial partitioning reads the
        // compressed input itself; no phase copies it into a CSR graph.
        let g = gen::grid2d(8, 8);
        let compressed = graph::CompressedGraph::from_csr(&g, &graph::CompressionConfig::default());
        let config = PartitionerConfig::terapart(16).with_threads(1);
        let result = partition(&compressed, &config);
        assert_eq!(result.hierarchy_depth, 0);
        let names: Vec<&str> = result
            .phase_reports
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(names, ["initial_partition", "refine"]);
        check_result(&g, &result, 16);
    }

    #[test]
    fn an_uncoarsened_ondisk_input_matches_in_memory_compressed_bit_for_bit() {
        let g = gen::grid2d(8, 8);
        let dir = std::env::temp_dir().join(format!("terapart_depth0_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.tpg");
        graph::store::write_tpg_from_graph(&g, &path, &graph::CompressionConfig::default())
            .unwrap();
        let config = PartitionerConfig::terapart(16).with_threads(1).with_seed(3);
        let in_memory = graph::store::read_tpg_compressed(&path).unwrap();
        let reference = partition(&in_memory, &config);
        let ondisk = partition_ondisk(&path, &config).unwrap();
        assert_eq!((ondisk.hierarchy_depth, reference.hierarchy_depth), (0, 0));
        assert_eq!(ondisk.edge_cut, reference.edge_cut);
        assert_eq!(
            ondisk.partition.assignment(),
            reference.partition.assignment()
        );
        check_result(&g, &ondisk, 16);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ondisk_partitioning_matches_in_memory_compressed_bit_for_bit() {
        let g = gen::weblike(11, 10, 21);
        let dir = std::env::temp_dir().join(format!("terapart_ondisk_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.tpg");
        graph::store::write_tpg_from_graph(&g, &path, &graph::CompressionConfig::default())
            .unwrap();
        // Single thread: parallel LP applies moves in scheduling order, so determinism
        // across representations is only guaranteed sequentially.
        let config = PartitionerConfig::terapart(8)
            .with_threads(1)
            .with_seed(3)
            .with_page_budget(64 * 1024);
        let in_memory = graph::store::read_tpg_compressed(&path).unwrap();
        let reference = partition(&in_memory, &config);
        let ondisk = partition_ondisk(&path, &config).unwrap();
        assert_eq!(ondisk.edge_cut, reference.edge_cut);
        assert_eq!(
            ondisk.partition.assignment(),
            reference.partition.assignment(),
            "on-disk partition differs from the in-memory compressed path"
        );
        assert!(ondisk.phase_reports.iter().any(|r| r.name == "open_store"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ondisk_open_errors_are_propagated() {
        let config = PartitionerConfig::terapart(4);
        assert!(partition_ondisk("/nonexistent/path/graph.tpg", &config).is_err());
    }

    #[test]
    fn run_report_is_attached_and_covers_the_pipeline() {
        let g = gen::rgg2d(2000, 10, 4);
        let config = PartitionerConfig::terapart(8)
            .with_threads(2)
            .with_run_report(true);
        let result = partition(&g, &config);
        check_result(&g, &result, 8);
        let report = result
            .run_report
            .as_ref()
            .expect("recording run attaches a report");
        assert!(report.total_ns > 0);
        assert!(
            report.span_coverage >= 0.9,
            "span coverage {} below 0.9",
            report.span_coverage
        );
        let root = report.find("pipeline").expect("pipeline root span");
        assert_eq!(root.attr("n"), Some(g.n() as u64));
        assert_eq!(root.attr("k"), Some(8));
        assert_eq!(root.attr("edge_cut"), Some(result.edge_cut));
        for phase in [
            "cluster",
            "contract",
            "initial_partition",
            "refine",
            "evaluate",
        ] {
            assert!(report.find(phase).is_some(), "missing span {phase}");
        }
        assert!(report.counter(Counter::LpClusterRounds) > 0);
        assert!(report.counter(Counter::LpClusterMoves) > 0);
        assert_eq!(
            report.counter(Counter::CoarseningLevels),
            result.hierarchy_depth as u64
        );
        // Recursive bisection for k = 8 performs exactly k - 1 bisections, each running
        // at least one portfolio attempt.
        assert_eq!(report.counter(Counter::InitialBisections), 7);
        assert!(
            report.counter(Counter::InitialAttempts) >= report.counter(Counter::InitialBisections)
        );
        assert!(report.counter(Counter::PeakMemoryBytes) > 0);
    }

    #[test]
    fn noop_config_attaches_no_report_and_matches_recording_bitwise() {
        let g = gen::erdos_renyi(1500, 6000, 11);
        let base = PartitionerConfig::terapart(4).with_threads(1).with_seed(5);
        let plain = partition(&g, &base);
        assert!(plain.run_report.is_none(), "noop config must not record");
        let recorded = partition(&g, &base.clone().with_run_report(true));
        assert!(recorded.run_report.is_some());
        assert_eq!(plain.edge_cut, recorded.edge_cut);
        assert_eq!(
            plain.partition.assignment(),
            recorded.partition.assignment(),
            "recording perturbed the fixed-seed result"
        );
    }
}
