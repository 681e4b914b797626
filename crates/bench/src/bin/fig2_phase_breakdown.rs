//! Figure 2: time and memory consumption during the different phases of the algorithm.
//!
//! Paper setting: webbase2001, p = 96, k = 64 with the baseline KaMinPar configuration.
//! Here: a web-like synthetic graph, k = 64. The paper's shape, clustering on the top
//! level setting the peak, does not show: on a 2-vCPU VM `cluster@0` peaks at 3.1 MB, and
//! the run peak is set once the top level is contracted. `contract@0` (4.65 MB), initial
//! partitioning and `refine@1` (4.67 MB) all sit within 1 % of it, while the level-0
//! graph and the level-1 coarse CSR are both live. Asserts, after printing, that
//! `cluster@0` peaks below `contract@0` and that `contract@0` reaches 95 % of the run
//! peak.
//!
//! The breakdown is the observability layer's own [`obs::RunReport::summary_table`]:
//! the span tree (pipeline → level → phase) with durations and share of the total
//! wall time, the per-phase `peak_bytes` attributes, and the unified counter snapshot.
//! The baseline runs on the uncompressed CSR input, which the harness charges for the run.
use bench::harness::measure_run_reported;
use bench::Input;
use graph::gen;
use terapart::PartitionerConfig;

fn main() {
    let graph = gen::weblike(14, 14, 9);
    let k = 64;
    let config = PartitionerConfig::kaminpar(k).with_threads(2);
    let (result, report) =
        measure_run_reported("weblike-2^14", "KaMinPar", &graph, Input::Csr, &config);
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
    let phase_peak = |name: &str| {
        report
            .all_spans()
            .into_iter()
            .find(|span| span.name == name && span.level == Some(0))
            .and_then(|span| span.attr("peak_bytes"))
            .unwrap_or_else(|| panic!("no {name}@0 span with a peak"))
    };
    let (cluster, contract) = (phase_peak("cluster"), phase_peak("contract"));
    assert!(
        cluster < contract,
        "cluster@0 peak {cluster} B not below contract@0 peak {contract} B"
    );
    assert!(
        contract as f64 >= 0.95 * result.peak_memory_bytes as f64,
        "contract@0 peak {contract} B below 95 % of the run peak {} B",
        result.peak_memory_bytes
    );
}
