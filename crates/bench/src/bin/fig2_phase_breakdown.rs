//! Figure 2: time and memory consumption during the different phases of the algorithm.
//!
//! Paper setting: webbase2001, p = 96, k = 64 with the baseline KaMinPar configuration.
//! Here: a web-like synthetic graph, k = 64; the expected shape is that clustering on
//! the top level dominates the peak, followed by contraction.
//!
//! The breakdown is the observability layer's own [`obs::RunReport::summary_table`]:
//! the span tree (pipeline → level → phase) with durations and share of the total
//! wall time, the per-phase `peak_bytes` attributes, and the unified counter snapshot.
use graph::gen;
use terapart::{partition_csr, PartitionerConfig};

fn main() {
    let graph = gen::weblike(14, 14, 9);
    let k = 64;
    let config = PartitionerConfig::kaminpar(k)
        .with_threads(2)
        .with_run_report(true);
    let result = partition_csr(&graph, &config);
    let report = result
        .run_report
        .as_ref()
        .expect("recording config attaches a run report");
    println!(
        "Figure 2: per-phase wall time and peak memory (KaMinPar baseline, k={})",
        k
    );
    print!("{}", report.summary_table());
    println!(
        "edge cut = {}, span coverage = {:.1}%, overall peak = {}",
        result.edge_cut,
        report.span_coverage * 100.0,
        memtrack::format_bytes(result.peak_memory_bytes)
    );
}
