//! Figure 10: compression ratios of all benchmark instances by encoding stage (gap
//! encoding, then gap + interval encoding) and the bytes per stored half-edge.
//!
//! Measured: interval encoding pays only on the geometric graphs (`rgg2d-4k`,
//! `rgg2d-8k`, `uk-like`); on 13 of the 17 instances gap + interval compresses slightly
//! *less* than gap encoding alone, and `star-5k` sits at 2.67 either way. The lowest
//! gap + interval ratio is `grid3d-12`'s 2.45 (2.11, and `star-5k` 2.00, while every
//! neighbourhood also stored the id of its first half-edge). Asserts, after printing,
//! that every instance compresses at least 2.4x with gap + interval encoding.
use bench::{benchmark_set_a, benchmark_set_b};
use graph::{CompressedGraph, CompressionConfig};

fn main() {
    println!("Figure 10: compression ratios per instance");
    println!(
        "{:<20} {:<18} {:>10} {:>14} {:>12}",
        "graph", "class", "gap only", "gap+interval", "bytes/edge"
    );
    let mut ratios = Vec::new();
    for set in [benchmark_set_a(), benchmark_set_b()] {
        for instance in set {
            let gap = CompressedGraph::from_csr(&instance.graph, &CompressionConfig::gap_only());
            let full = CompressedGraph::from_csr(&instance.graph, &CompressionConfig::default());
            let ratio = full.compression_ratio(&instance.graph);
            println!(
                "{:<20} {:<18} {:>10.2} {:>14.2} {:>12.2}",
                instance.name,
                instance.class,
                gap.compression_ratio(&instance.graph),
                ratio,
                full.bytes_per_edge()
            );
            ratios.push((instance.name, ratio));
        }
    }
    for (name, ratio) in ratios {
        assert!(ratio >= 2.4, "{name} compresses only {ratio:.3}x");
    }
}
