//! Cross-crate observability tests: recording spans and counters through the public API
//! must never perturb the partitioning result, and the report exports as a Chrome trace.
//!
//! Two determinism regimes are covered (see `terapart::partitioner` docs): the full
//! pipeline is bitwise reproducible single-threaded, so the noop-vs-recording check
//! runs the complete default configuration at one thread. Parallel label propagation
//! applies moves asynchronously and is only reproducible sequentially, so the
//! multi-thread checks (1/2/4/8 threads) use an LP-free configuration — no coarsening,
//! no LP refinement rounds, k-way FM only — whose remaining stages (initial
//! partitioning, k-way FM, rebalancing) are deterministic at any thread count.

use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig};
use terapart::{partition, write_chrome_trace, Counter, PartitionerConfig, RefinementAlgorithm};

/// Recording a run report must leave the fixed-seed single-threaded result
/// bit-identical to the noop run, and the report must export as a Chrome trace.
#[test]
fn observability_does_not_perturb_the_single_threaded_pipeline() {
    let graph = gen::rgg2d(4_000, 12, 33);
    let graph = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
    let base = PartitionerConfig::terapart(8).with_threads(1).with_seed(9);

    let noop = partition(&graph, &base);
    assert!(
        noop.run_report.is_none(),
        "the noop configuration must not allocate a run report"
    );

    let recorded = partition(&graph, &base.clone().with_run_report(true));
    let report = recorded
        .run_report
        .as_ref()
        .expect("recording config attaches a run report");
    assert!(report.total_ns > 0);
    assert!(
        report.span_coverage >= 0.9,
        "span coverage {:.3} too low",
        report.span_coverage
    );
    assert!(report.counter(Counter::LpClusterRounds) > 0);

    let dir = std::env::temp_dir().join(format!("terapart_obs_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("failed to create the trace dir");
    let trace_path = dir.join("trace.json");
    write_chrome_trace(&trace_path, report).expect("failed to write the trace");
    let trace = std::fs::read_to_string(&trace_path).expect("trace file missing");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        trace.trim_start().starts_with('['),
        "trace is not a JSON array"
    );
    assert!(
        trace.trim_end().ends_with(']'),
        "trace array is unterminated"
    );
    assert!(trace.contains("\"ph\": \"X\""), "trace contains no events");

    // Bitwise identity with recording on and off.
    assert_eq!(noop.edge_cut, recorded.edge_cut);
    assert_eq!(
        noop.partition.assignment(),
        recorded.partition.assignment(),
        "recording perturbed the fixed-seed result"
    );
}

/// An LP-free configuration for a graph of `n` vertices: coarsening stops at
/// `contraction_limit · k ≥ n` vertices, so it never starts, and every remaining stage
/// (initial partitioning, k-way FM, rebalancing) is deterministic at any thread count,
/// so noop and recording runs can be compared bitwise even in parallel.
fn lp_free_config(n: usize, k: usize) -> PartitionerConfig {
    let mut config = PartitionerConfig::terapart(k).with_seed(17);
    config.coarsening.contraction_limit = n.div_ceil(k);
    config.refinement.lp_rounds = 0;
    config.refinement.algorithm = RefinementAlgorithm::KWayFmWithLabelPropagation;
    config
}

/// With observability on, the LP-free pipeline stays bit-identical to the noop run at
/// every thread count.
#[test]
fn recording_is_bitwise_deterministic_across_thread_counts() {
    let graph = gen::erdos_renyi(2_000, 9_000, 41);
    let graph = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
    let reference = partition(&graph, &lp_free_config(graph.n(), 4).with_threads(1));
    let mut initial_half_edges = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let config = lp_free_config(graph.n(), 4).with_threads(threads);
        let noop = partition(&graph, &config);
        let recorded = partition(&graph, &config.clone().with_run_report(true));
        assert_eq!(
            noop.edge_cut, recorded.edge_cut,
            "cut diverged at {threads} threads"
        );
        assert_eq!(
            noop.partition.assignment(),
            recorded.partition.assignment(),
            "recording perturbed the result at {threads} threads"
        );
        // The LP-free stages are also deterministic *across* thread counts; pin that
        // so this test keeps meaning something if the stages gain parallel phases.
        assert_eq!(
            reference.partition.assignment(),
            recorded.partition.assignment(),
            "LP-free pipeline diverged between 1 and {threads} threads"
        );
        let report = recorded.run_report.expect("recording attaches a report");
        assert_eq!(report.counter(Counter::LpClusterRounds), 0);
        assert_eq!(report.counter(Counter::CoarseningLevels), 0);
        assert!(report.counter(Counter::FmPasses) > 0);
        initial_half_edges.push([
            report.counter(Counter::InitialGrowHalfEdges),
            report.counter(Counter::InitialFmHalfEdges),
        ]);
    }
    // A counter is a sum over the bisection tree's tasks, whoever ran them.
    assert!(initial_half_edges[0].iter().all(|&sum| sum > 0));
    assert!(
        initial_half_edges
            .iter()
            .all(|sums| *sums == initial_half_edges[0]),
        "initial growing / fm half-edges depend on the schedule: {initial_half_edges:?}"
    );
}
