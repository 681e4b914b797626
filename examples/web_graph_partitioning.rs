//! Partitioning a web-like graph under a memory budget: compares the KaMinPar baseline
//! with the full TeraPart configuration (compressed input, two-phase LP, one-pass
//! contraction) on a skewed, hub-heavy graph — the scenario that motivates the paper.
//! Each run is charged for the input it reads, so the peaks compare like for like.
//!
//! Run with: `cargo run --release --example web_graph_partitioning`
use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig};
use memtrack::MemoryScope;
use terapart::{partition, PartitionerConfig};

fn main() {
    let graph = gen::weblike(15, 14, 2024);
    println!(
        "web-like graph: n = {}, m = {}, max degree = {}",
        graph.n(),
        graph.m(),
        graph.max_degree()
    );

    let compressed = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
    println!(
        "CSR size = {}, compressed size = {} (ratio {:.1})",
        memtrack::format_bytes(graph.size_in_bytes()),
        memtrack::format_bytes(compressed.size_in_bytes()),
        compressed.compression_ratio(&graph)
    );

    for k in [64, 256] {
        println!("\n-- k = {} --", k);
        let kaminpar = {
            let _input = MemoryScope::charge_global(graph.size_in_bytes());
            partition(&graph, &PartitionerConfig::kaminpar(k))
        };
        let terapart = {
            let _input = MemoryScope::charge_global(compressed.size_in_bytes());
            partition(&compressed, &PartitionerConfig::terapart(k))
        };
        for (name, result) in [("KaMinPar baseline", &kaminpar), ("TeraPart", &terapart)] {
            println!(
                "{:<20} cut = {:>8} ({:.2}% of edges)  time = {:>6.2?}  peak memory = {}",
                name,
                result.edge_cut,
                100.0 * result.edge_cut as f64 / graph.total_edge_weight() as f64,
                result.total_time,
                memtrack::format_bytes(result.peak_memory_bytes)
            );
        }
        assert!(
            terapart.peak_memory_bytes < kaminpar.peak_memory_bytes,
            "TeraPart peak {} is not below the KaMinPar peak {}",
            terapart.peak_memory_bytes,
            kaminpar.peak_memory_bytes
        );
    }
}
