//! Per-phase memory analysis: reproduces the Figure 2 style breakdown for a graph of
//! your choice and shows how the TeraPart optimizations shift the peak.
//!
//! Run with: `cargo run --release --example memory_budget`
use graph::gen;
use terapart::{partition_csr, PartitionerConfig};

fn main() {
    let graph = gen::rgg2d(60_000, 24, 99);
    let k = 64;
    for (name, config) in [
        ("KaMinPar baseline", PartitionerConfig::kaminpar(k)),
        ("TeraPart", PartitionerConfig::terapart(k)),
    ] {
        let result = partition_csr(&graph, &config);
        println!(
            "== {} (cut = {}, peak = {}) ==",
            name,
            result.edge_cut,
            memtrack::format_bytes(result.peak_memory_bytes)
        );
        println!(
            "{:<20} {:>6} {:>14} {:>14}",
            "phase", "level", "peak", "auxiliary"
        );
        for report in &result.phase_reports {
            println!(
                "{:<20} {:>6} {:>14} {:>14}",
                report.name,
                report.level,
                memtrack::format_bytes(report.peak_bytes),
                memtrack::format_bytes(report.auxiliary_bytes())
            );
        }
        println!();
    }
}
