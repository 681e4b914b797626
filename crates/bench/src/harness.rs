//! Measurement and aggregation utilities shared by the experiment binaries.
//!
//! The paper aggregates running times and memory with geometric means and compares
//! solution quality with performance profiles (Dolan–Moré). The same aggregations are
//! provided here so the regenerated tables use the paper's methodology. [`write_quality_json`] additionally persists the preset
//! sweep as `BENCH_quality.json`.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use graph::builder::compress_csr_parallel;
use graph::csr::CsrGraph;
use graph::CompressionConfig;
use memtrack::MemoryScope;
use terapart::{partition, PartitionResult, PartitionerConfig};

/// The representation a measured run partitions, built by the harness from the
/// instance's CSR graph and charged to the memory accounting for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The uncompressed CSR graph itself (the KaMinPar rungs).
    Csr,
    /// The graph compressed in parallel as in §III-B (TeraPart's input).
    Compressed,
}

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

/// Runs one partitioning configuration on `input` built from one instance and collects
/// the measurement; the input's size counts towards the run's peak memory.
pub fn measure_run(
    instance: &str,
    algorithm: &str,
    graph: &CsrGraph,
    input: Input,
    config: &PartitionerConfig,
) -> Measurement {
    measure(instance, algorithm, graph, input, config).0
}

/// Like [`measure_run`], but with run-report recording enabled. Returns the structured
/// [`obs::RunReport`] (span tree + counter snapshot) alongside the measurement, for
/// embedding into the bench JSON files.
pub fn measure_run_reported(
    instance: &str,
    algorithm: &str,
    graph: &CsrGraph,
    input: Input,
    config: &PartitionerConfig,
) -> (Measurement, obs::RunReport) {
    let recording = config.clone().with_run_report(true);
    let (measurement, report) = measure(instance, algorithm, graph, input, &recording);
    (
        measurement,
        report.expect("recording config attaches a run report"),
    )
}

/// Partitions `input` built from `graph` while holding the input's memory charge.
pub fn partition_input(
    graph: &CsrGraph,
    input: Input,
    config: &PartitionerConfig,
) -> PartitionResult {
    match input {
        Input::Csr => {
            let _charge = MemoryScope::charge_global(graph.size_in_bytes());
            partition(graph, config)
        }
        Input::Compressed => {
            let compressed =
                compress_csr_parallel(graph, &CompressionConfig::default(), config.num_threads);
            let _charge = MemoryScope::charge_global(compressed.size_in_bytes());
            partition(&compressed, config)
        }
    }
}

fn measure(
    instance: &str,
    algorithm: &str,
    graph: &CsrGraph,
    input: Input,
    config: &PartitionerConfig,
) -> (Measurement, Option<obs::RunReport>) {
    let result = partition_input(graph, input, config);
    let measurement = Measurement {
        instance: instance.to_string(),
        algorithm: algorithm.to_string(),
        k: config.k,
        edge_cut: result.edge_cut,
        time: result.total_time,
        peak_memory_bytes: result.peak_memory_bytes,
        balanced: result.partition.is_balanced(),
    };
    (measurement, result.run_report)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
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

/// Writes `BENCH_quality.json`: the cut-vs-time Pareto sweep of every preset across
/// the instance-family ladder and the per-family `strong`-vs-`fast` verdicts.
pub fn write_quality_json(
    path: &Path,
    k: usize,
    runs: &[QualityRun],
    strong_beats_fast_families: &[String],
    run_report: Option<&obs::RunReport>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"id_width\": {},\n", graph::NodeId::BITS));
    out.push_str(&format!("  \"k\": {},\n", k));
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
    // coverage, and the counter snapshot.
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
        assert_eq!(geometric_mean(&[]), 0.0);
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
            Input::Compressed,
            &terapart::PartitionerConfig::terapart(4).with_threads(1),
        );
        assert!(m.edge_cut > 0);
        assert!(m.balanced);
        assert!(m.peak_memory_bytes > 0);
        assert!(m.row().contains("terapart"));
    }

    #[test]
    fn the_measured_peak_includes_the_input_the_harness_builds() {
        let graph = gen::rgg2d(20_000, 8, 5);
        let compressed = graph::CompressedGraph::from_csr(&graph, &CompressionConfig::default());
        let ladder = crate::setup::config_ladder(8);
        let rung = |name: &str| {
            let (_, input, config) = ladder.iter().find(|(n, _, _)| *n == name).unwrap();
            measure_run("rgg", name, &graph, *input, &config.clone().with_threads(1))
        };
        let kaminpar = rung("KaMinPar");
        let terapart = rung("One-Pass Contraction (TeraPart)");
        assert!(kaminpar.peak_memory_bytes >= graph.size_in_bytes());
        assert!(terapart.peak_memory_bytes >= compressed.size_in_bytes());
        assert!(terapart.peak_memory_bytes < kaminpar.peak_memory_bytes);
    }
}
