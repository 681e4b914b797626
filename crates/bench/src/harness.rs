//! Measurement and aggregation utilities shared by the experiment binaries.
//!
//! The paper aggregates running times and memory with geometric means, relative speedups
//! with harmonic means, and compares solution quality with performance profiles
//! (Dolan–Moré). The same aggregations are provided here so the regenerated tables use
//! the paper's methodology. [`write_pipeline_json`] additionally persists one pipeline
//! run (phase timings, cut, peak memory) as `BENCH_pipeline.json`.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use graph::csr::CsrGraph;
use graph::traits::Graph;
use memtrack::PhaseTracker;
use terapart::{partition_csr_with_tracker, PartitionerConfig};

/// One measured partitioning run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Instance name.
    pub instance: String,
    /// Algorithm/configuration name.
    pub algorithm: String,
    /// Number of blocks.
    pub k: usize,
    /// Edge cut.
    pub edge_cut: u64,
    /// Wall-clock time.
    pub time: Duration,
    /// Peak memory charged to the accounting during the run, in bytes.
    pub peak_memory_bytes: usize,
    /// Whether the balance constraint held.
    pub balanced: bool,
}

impl Measurement {
    /// Formats the measurement as a compact report row.
    pub fn row(&self) -> String {
        format!(
            "{:<18} {:<34} k={:<6} cut={:<10} time={:>8.3}s mem={:>12} {}",
            self.instance,
            self.algorithm,
            self.k,
            self.edge_cut,
            self.time.as_secs_f64(),
            memtrack::format_bytes(self.peak_memory_bytes),
            if self.balanced { "" } else { "*imbalanced*" }
        )
    }
}

/// Runs one partitioning configuration on one instance and collects the measurement.
pub fn measure_run(
    instance: &str,
    algorithm: &str,
    graph: &CsrGraph,
    config: &PartitionerConfig,
) -> Measurement {
    let tracker = PhaseTracker::new();
    memtrack::global().reset_peak();
    let result = partition_csr_with_tracker(graph, config, &tracker);
    Measurement {
        instance: instance.to_string(),
        algorithm: algorithm.to_string(),
        k: config.k,
        edge_cut: result.edge_cut,
        time: result.total_time,
        peak_memory_bytes: result.peak_memory_bytes.max(tracker.overall_peak()),
        balanced: result.partition.is_balanced(),
    }
}

/// Like [`measure_run`], but with run-report recording enabled. Returns the structured
/// [`obs::RunReport`] (span tree + counter snapshot) alongside the measurement, for
/// embedding into the bench JSON files.
pub fn measure_run_reported(
    instance: &str,
    algorithm: &str,
    graph: &CsrGraph,
    config: &PartitionerConfig,
) -> (Measurement, obs::RunReport) {
    let recording = config.clone().with_run_report(true);
    let tracker = PhaseTracker::new();
    memtrack::global().reset_peak();
    let result = partition_csr_with_tracker(graph, &recording, &tracker);
    let report = result
        .run_report
        .expect("recording config attaches a run report");
    let measurement = Measurement {
        instance: instance.to_string(),
        algorithm: algorithm.to_string(),
        k: config.k,
        edge_cut: result.edge_cut,
        time: result.total_time,
        peak_memory_bytes: result.peak_memory_bytes.max(tracker.overall_peak()),
        balanced: result.partition.is_balanced(),
    };
    (measurement, report)
}

/// One measured `partition_ondisk` run at a fixed page budget, recorded alongside the
/// in-memory pipeline in `BENCH_pipeline.json`.
#[derive(Debug, Clone)]
pub struct OndiskRun {
    /// Store backend of the run: `"paged"` or `"mmap"`.
    pub backend: &'static str,
    /// On-disk size of the container's (Elias-Fano) offset index, in bytes.
    pub offset_index_bytes: u64,
    /// Vertices of the instance (for the offset-bytes-per-node metric).
    pub n: usize,
    /// Page-cache budget the run was configured with, in bytes (0 for the mmap
    /// backend, which has no cache).
    pub page_budget_bytes: usize,
    /// Page size of the run's cache, in bytes (0 for the mmap backend).
    pub page_size_bytes: usize,
    /// Whether LP-aware page readahead (`OnDiskConfig::prefetch`) was enabled.
    pub prefetch: bool,
    /// Wall-clock time of the run.
    pub time: Duration,
    /// Peak accounted memory during the run, in bytes.
    pub peak_memory_bytes: usize,
    /// Edge cut of the result.
    pub edge_cut: u64,
    /// Uncompressed CSR size of the instance, the memory reference point.
    pub csr_bytes: usize,
    /// Per-phase reports of the run (includes the `open_store` phase).
    pub phases: Vec<memtrack::PhaseReport>,
    /// Page-cache counters of the run (hit rate, prefetched pages, ...).
    pub cache: Option<graph::store::CacheStatsSnapshot>,
}

/// One measured streamed ingest: the pipelined
/// [`StreamingTpgBuilder::finish`](graph::store::StreamingTpgBuilder::finish) on a
/// spilled edge stream.
#[derive(Debug, Clone)]
pub struct StreamIngestRun {
    /// Vertices of the streamed instance.
    pub n: usize,
    /// Undirected edge records fed to the builder (before deduplication).
    pub edges_added: usize,
    /// Spill buckets used.
    pub buckets: usize,
    /// Worker threads of the pipelined finish.
    pub threads: usize,
    /// Seconds of the pipelined `finish`.
    pub pipelined_seconds: f64,
    /// Size of the produced container.
    pub container_bytes: u64,
    /// Spill-file volume of the stream (unit-weight vs full-width records), the
    /// before/after evidence for the unit-weight spill-record format.
    pub spill: graph::store::SpillStats,
}

impl StreamIngestRun {
    /// Ingest throughput of the pipelined finish in edge records per second.
    pub fn edges_per_second(&self) -> f64 {
        self.edges_added as f64 / self.pipelined_seconds.max(1e-12)
    }
}

/// One concurrent-engine measurement: N simultaneous sessions against one shared
/// mmap store, all driven through a single [`terapart::PartitionEngine`]. Recorded in
/// the `concurrent_sessions` section of `BENCH_pipeline.json`.
#[derive(Debug, Clone)]
pub struct ConcurrentSessionsRun {
    /// Simultaneous sessions launched (one OS thread each).
    pub sessions: usize,
    /// Wall-clock seconds until every session completed.
    pub wall_seconds: f64,
    /// Summed wall-clock seconds of the same requests run one at a time on fresh
    /// engines (the bit-identity references).
    pub sequential_seconds: f64,
    /// High-water mark of simultaneously checked-out scratch arenas in the engine's
    /// [`terapart::ScratchPool`].
    pub pool_high_water: usize,
    /// Bytes parked in the scratch pool after all sessions returned their arenas.
    pub pool_parked_bytes: usize,
    /// Parked bytes of a fresh single-request engine — the per-arena reference point
    /// for `pool_parked_bytes`.
    pub single_arena_bytes: usize,
    /// Peak accounted memory across the concurrent run, in bytes.
    pub peak_memory_bytes: usize,
    /// Whether every session's assignment was bit-identical to its sequential
    /// reference run.
    pub bit_identical: bool,
}

impl ConcurrentSessionsRun {
    /// Sequential time over concurrent wall time; > 1 means overlapping sessions
    /// beat running them back to back.
    pub fn throughput_gain(&self) -> f64 {
        self.sequential_seconds / self.wall_seconds.max(1e-12)
    }
}

/// Times `runs` executions of `routine` on fresh `setup()` inputs and returns the
/// fastest observed seconds (setup time excluded). Scheduler and allocator noise is
/// strictly additive, so the minimum is the standard noise-floor estimator for
/// micro-benchmarks on shared machines.
pub fn best_seconds<I, R>(
    runs: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> f64 {
    // Warmup run outside the samples.
    std::hint::black_box(routine(setup()));
    (0..runs.max(1))
        .map(|_| {
            let input = setup();
            let start = std::time::Instant::now();
            std::hint::black_box(routine(input));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Headline numbers of one pipeline run at one ID width, for the `width_runs` section
/// of `BENCH_pipeline.json` that tracks the `wide-ids` overhead against the default.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthRun {
    /// NodeId width in bits (32 or 64).
    pub id_width: u32,
    /// Edge cut of the run.
    pub edge_cut: u64,
    /// Wall-clock seconds of the full pipeline.
    pub total_time_seconds: f64,
    /// Peak accounted memory in bytes.
    pub peak_memory_bytes: usize,
}

/// Extracts the headline [`WidthRun`] numbers from a `BENCH_pipeline.json` written by
/// [`write_pipeline_json`] (possibly by a binary built at the *other* ID width). The
/// format is this crate's own line-oriented output, so a line scan suffices — no JSON
/// dependency exists in this workspace.
pub fn read_width_run(path: &Path) -> std::io::Result<WidthRun> {
    let text = std::fs::read_to_string(path)?;
    let field = |name: &str| -> std::io::Result<f64> {
        text.lines()
            .find_map(|line| {
                let rest = line.trim().strip_prefix(&format!("\"{}\": ", name))?;
                rest.trim_end_matches(',').parse::<f64>().ok()
            })
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("field '{}' missing from {}", name, path.display()),
                )
            })
    };
    Ok(WidthRun {
        id_width: field("id_width")? as u32,
        edge_cut: field("edge_cut")? as u64,
        total_time_seconds: field("total_time_seconds")?,
        peak_memory_bytes: field("peak_memory_bytes")? as usize,
    })
}

/// Writes `BENCH_pipeline.json`: the phase timing/memory breakdown and headline numbers
/// of one pipeline run, the streamed-ingest micro and the `partition_ondisk` runs at
/// their page budgets.
#[allow(clippy::too_many_arguments)]
pub fn write_pipeline_json(
    path: &Path,
    instance: &str,
    graph: &CsrGraph,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
    measurement: &Measurement,
    stream_ingest: Option<&StreamIngestRun>,
    ondisk: &[OndiskRun],
    concurrent_sessions: &[ConcurrentSessionsRun],
    other_width_runs: &[WidthRun],
    run_report: Option<&obs::RunReport>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"instance\": \"{}\",\n", json_escape(instance)));
    out.push_str(&format!("  \"id_width\": {},\n", graph::NodeId::BITS));
    out.push_str(&format!("  \"n\": {},\n", graph.n()));
    out.push_str(&format!("  \"m\": {},\n", graph.m()));
    out.push_str(&format!("  \"k\": {},\n", config.k));
    out.push_str(&format!("  \"threads\": {},\n", config.num_threads));
    out.push_str(&format!("  \"edge_cut\": {},\n", measurement.edge_cut));
    out.push_str(&format!("  \"balanced\": {},\n", measurement.balanced));
    out.push_str(&format!(
        "  \"total_time_seconds\": {:.6},\n",
        measurement.time.as_secs_f64()
    ));
    out.push_str(&format!(
        "  \"peak_memory_bytes\": {},\n",
        measurement.peak_memory_bytes
    ));
    out.push_str("  \"phases\": [\n");
    let reports = tracker.reports();
    for (i, report) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"level\": {}, \"seconds\": {:.6}, \"peak_bytes\": {}, \"aux_bytes\": {}}}{}\n",
            json_escape(&report.name),
            report.level,
            report.elapsed.as_secs_f64(),
            report.peak_bytes,
            report.auxiliary_bytes(),
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    match stream_ingest {
        Some(run) => out.push_str(&format!(
            "  \"stream_ingest\": {{\"n\": {}, \"edges_added\": {}, \"buckets\": {}, \"threads\": {}, \"pipelined_seconds\": {:.6}, \"edges_per_second\": {:.0}, \"container_bytes\": {}, \"spill_unit_records\": {}, \"spill_weighted_records\": {}, \"spill_bytes\": {}, \"spill_full_width_bytes\": {}, \"spill_savings\": {:.4}}},\n",
            run.n,
            run.edges_added,
            run.buckets,
            run.threads,
            run.pipelined_seconds,
            run.edges_per_second(),
            run.container_bytes,
            run.spill.unit_records,
            run.spill.weighted_records,
            run.spill.bytes,
            run.spill.full_width_bytes,
            run.spill.savings(),
        )),
        None => out.push_str("  \"stream_ingest\": null,\n"),
    }
    out.push_str("  \"partition_ondisk\": [\n");
    for (i, run) in ondisk.iter().enumerate() {
        let open_store_seconds = run
            .phases
            .iter()
            .filter(|p| p.name == "open_store")
            .map(|p| p.elapsed.as_secs_f64())
            .sum::<f64>();
        let cache = run.cache.unwrap_or_default();
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"offset_index_bytes\": {}, \"offset_bytes_per_node\": {:.3}, \"page_budget_bytes\": {}, \"page_size_bytes\": {}, \"prefetch\": {}, \"seconds\": {:.6}, \"open_store_seconds\": {:.6}, \"peak_bytes\": {}, \"csr_bytes\": {}, \"peak_vs_csr\": {:.3}, \"edge_cut\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \"prefetched_pages\": {}, \"retried_reads\": {}, \"checksum_failures\": {}}}{}\n",
            run.backend,
            run.offset_index_bytes,
            run.offset_index_bytes as f64 / run.n.max(1) as f64,
            run.page_budget_bytes,
            run.page_size_bytes,
            run.prefetch,
            run.time.as_secs_f64(),
            open_store_seconds,
            run.peak_memory_bytes,
            run.csr_bytes,
            run.peak_memory_bytes as f64 / run.csr_bytes.max(1) as f64,
            run.edge_cut,
            cache.hits,
            cache.misses,
            cache.hit_rate(),
            cache.prefetched_pages,
            cache.retried_reads,
            cache.checksum_failures,
            if i + 1 < ondisk.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // Engine concurrency ladder: N simultaneous sessions through one engine on one
    // shared mmap store. Single-line objects keyed by `sessions`, so the
    // `read_width_run` line scan cannot mistake their fields for headline ones.
    out.push_str("  \"concurrent_sessions\": [\n");
    for (i, run) in concurrent_sessions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"sessions\": {}, \"wall_seconds\": {:.6}, \"sequential_seconds\": {:.6}, \"throughput_gain\": {:.3}, \"pool_high_water\": {}, \"pool_parked_bytes\": {}, \"single_arena_bytes\": {}, \"peak_bytes\": {}, \"bit_identical\": {}}}{}\n",
            run.sessions,
            run.wall_seconds,
            run.sequential_seconds,
            run.throughput_gain(),
            run.pool_high_water,
            run.pool_parked_bytes,
            run.single_arena_bytes,
            run.peak_memory_bytes,
            run.bit_identical,
            if i + 1 < concurrent_sessions.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // Embedded run report (span tree + counters) of the recorded pipeline run. This
    // section must stay *below* the headline fields: `read_width_run` line-scans for
    // the first match of each field name, and the report's counter names overlap
    // (e.g. `peak_memory_bytes`).
    match run_report {
        Some(report) => {
            out.push_str("  \"observability\": ");
            report.write_json(&mut out, 1);
            out.push_str(",\n");
        }
        None => out.push_str("  \"observability\": null,\n"),
    }
    // Width ladder: this run plus any runs recorded by binaries built at other widths,
    // so the wide-ids overhead is tracked next to the default from day one.
    let mut width_runs = vec![WidthRun {
        id_width: graph::NodeId::BITS,
        edge_cut: measurement.edge_cut,
        total_time_seconds: measurement.time.as_secs_f64(),
        peak_memory_bytes: measurement.peak_memory_bytes,
    }];
    width_runs.extend(other_width_runs.iter().cloned());
    width_runs.sort_by_key(|r| r.id_width);
    out.push_str("  \"width_runs\": [\n");
    for (i, run) in width_runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id_width\": {}, \"edge_cut\": {}, \"total_time_seconds\": {:.6}, \"peak_memory_bytes\": {}}}{}\n",
            run.id_width,
            run.edge_cut,
            run.total_time_seconds,
            run.peak_memory_bytes,
            if i + 1 < width_runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// One (preset, instance) point of the quality Pareto sweep recorded in
/// `BENCH_quality.json`.
#[derive(Debug, Clone)]
pub struct QualityRun {
    /// Instance family (e.g. `"web"`).
    pub family: String,
    /// Instance name within the family (e.g. `"rmat-16"`).
    pub instance: String,
    /// Vertices of the instance.
    pub n: usize,
    /// Undirected edges of the instance.
    pub m: usize,
    /// Preset name (`fast` / `default` / `strong`).
    pub preset: String,
    /// Edge cut of the run.
    pub edge_cut: u64,
    /// Wall-clock seconds of the run.
    pub seconds: f64,
    /// Peak accounted memory in bytes.
    pub peak_memory_bytes: usize,
    /// Whether the balance constraint held.
    pub balanced: bool,
}

/// One frontier-vs-full-sweep comparison: the `fast` preset's frontier-driven LP
/// against the identical configuration with full-sweep rounds, on one instance.
#[derive(Debug, Clone)]
pub struct FrontierCheck {
    /// Instance family.
    pub family: String,
    /// Instance name.
    pub instance: String,
    /// Cut with frontier-driven LP rounds (the `fast` preset as shipped).
    pub frontier_cut: u64,
    /// Cut with full-sweep LP rounds, everything else identical.
    pub full_sweep_cut: u64,
    /// `frontier_cut / full_sweep_cut`; > 1 means the frontier lost quality.
    pub ratio: f64,
    /// Whether the frontier degraded the cut beyond the accepted tolerance.
    pub degraded: bool,
}

/// Writes `BENCH_quality.json`: the cut-vs-time Pareto sweep of every preset across
/// the instance-family ladder, the per-family `strong`-vs-`fast` verdicts, and the
/// frontier-vs-full-sweep degradation flags. `frontier_tolerance` is the accepted
/// `frontier_cut / full_sweep_cut` ratio above which a check counts as degraded
/// (recorded in the file so readers can interpret the flags).
pub fn write_quality_json(
    path: &Path,
    k: usize,
    frontier_tolerance: f64,
    runs: &[QualityRun],
    frontier_checks: &[FrontierCheck],
    strong_beats_fast_families: &[String],
    run_report: Option<&obs::RunReport>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"id_width\": {},\n", graph::NodeId::BITS));
    out.push_str(&format!("  \"k\": {},\n", k));
    out.push_str(&format!(
        "  \"frontier_tolerance\": {:.3},\n",
        frontier_tolerance
    ));
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"instance\": \"{}\", \"n\": {}, \"m\": {}, \"preset\": \"{}\", \"edge_cut\": {}, \"seconds\": {:.6}, \"peak_memory_bytes\": {}, \"balanced\": {}}}{}\n",
            json_escape(&run.family),
            json_escape(&run.instance),
            run.n,
            run.m,
            json_escape(&run.preset),
            run.edge_cut,
            run.seconds,
            run.peak_memory_bytes,
            run.balanced,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"frontier_checks\": [\n");
    for (i, check) in frontier_checks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"instance\": \"{}\", \"frontier_cut\": {}, \"full_sweep_cut\": {}, \"ratio\": {:.4}, \"degraded\": {}}}{}\n",
            json_escape(&check.family),
            json_escape(&check.instance),
            check.frontier_cut,
            check.full_sweep_cut,
            check.ratio,
            check.degraded,
            if i + 1 < frontier_checks.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"strong_beats_fast_families\": [");
    for (i, family) in strong_beats_fast_families.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\"{}",
            json_escape(family),
            if i + 1 < strong_beats_fast_families.len() {
                ", "
            } else {
                ""
            }
        ));
    }
    out.push_str("],\n");
    // Compact observability view of one representative recorded run: headline timing,
    // coverage, and the counter snapshot — the full span tree lives in
    // `BENCH_pipeline.json`.
    match run_report {
        Some(report) => {
            out.push_str("  \"observability\": {");
            out.push_str(&format!(
                "\"total_seconds\": {:.6}, \"span_coverage\": {:.4}, \"counters\": {{",
                report.total_seconds(),
                report.span_coverage
            ));
            for (i, (c, v)) in report.counters.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", c.name(), v));
            }
            out.push_str("}}\n");
        }
        None => out.push_str("  \"observability\": null\n"),
    }
    out.push_str("}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// Geometric mean of a slice of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Harmonic mean of a slice of positive values (used for relative speedups).
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.len() as f64 / values.iter().map(|&v| 1.0 / v.max(1e-12)).sum::<f64>()
}

/// Computes a Dolan–Moré performance profile.
///
/// `cuts_per_algorithm[i]` holds algorithm `i`'s edge cut on every instance (same
/// instance order for all algorithms). Returns, for each algorithm and each τ in `taus`,
/// the fraction of instances where that algorithm's cut is within a factor τ of the best.
pub fn performance_profile(cuts_per_algorithm: &[Vec<u64>], taus: &[f64]) -> Vec<Vec<f64>> {
    if cuts_per_algorithm.is_empty() {
        return Vec::new();
    }
    let num_instances = cuts_per_algorithm[0].len();
    assert!(cuts_per_algorithm.iter().all(|c| c.len() == num_instances));
    let best_per_instance: Vec<f64> = (0..num_instances)
        .map(|i| {
            cuts_per_algorithm
                .iter()
                .map(|c| c[i])
                .min()
                .unwrap_or(0)
                .max(1) as f64
        })
        .collect();
    cuts_per_algorithm
        .iter()
        .map(|cuts| {
            taus.iter()
                .map(|&tau| {
                    let count = cuts
                        .iter()
                        .zip(&best_per_instance)
                        .filter(|&(&cut, &best)| (cut.max(1) as f64) <= tau * best)
                        .count();
                    count as f64 / num_instances as f64
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn means_are_correct() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-9);
        assert!((harmonic_mean(&[2.0, 6.0]) - 3.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn performance_profile_ranks_algorithms() {
        // Algorithm 0 is always best; algorithm 1 is 2x worse on every instance.
        let cuts = vec![vec![10, 20, 30], vec![20, 40, 60]];
        let profile = performance_profile(&cuts, &[1.0, 1.5, 2.0]);
        assert_eq!(profile[0], vec![1.0, 1.0, 1.0]);
        assert_eq!(profile[1], vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn measure_run_produces_sane_numbers() {
        let g = gen::grid2d(24, 24);
        let m = measure_run(
            "grid",
            "terapart",
            &g,
            &terapart::PartitionerConfig::terapart(4).with_threads(1),
        );
        assert!(m.edge_cut > 0);
        assert!(m.balanced);
        assert!(m.peak_memory_bytes > 0);
        assert!(m.row().contains("terapart"));
    }
}
