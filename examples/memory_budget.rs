//! Per-phase memory analysis: reproduces the Figure 2 style breakdown for a graph of
//! your choice and shows how the TeraPart optimizations shift the peak. Each run is
//! charged for its input: the CSR graph for KaMinPar, the compressed graph for TeraPart.
//!
//! Run with: `cargo run --release --example memory_budget`
use graph::{gen, CompressedGraph, CompressionConfig};
use memtrack::MemoryScope;
use terapart::{partition, PartitionerConfig};

fn main() {
    let graph = gen::rgg2d(60_000, 24, 99);
    let compressed = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
    let k = 64;
    let kaminpar = {
        let _input = MemoryScope::charge_global(graph.size_in_bytes());
        partition(&graph, &PartitionerConfig::kaminpar(k))
    };
    let terapart = {
        let _input = MemoryScope::charge_global(compressed.size_in_bytes());
        partition(&compressed, &PartitionerConfig::terapart(k))
    };
    for (name, result) in [("KaMinPar baseline", kaminpar), ("TeraPart", terapart)] {
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
