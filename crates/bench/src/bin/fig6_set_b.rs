//! Figure 6: relative running time, peak memory and compression ratios on the huge
//! web-like graphs of Benchmark Set B. The instances are generated in memory.
//!
//! Measured on a 2-vCPU VM: Graph Compression cuts the peak to 0.37–0.61 of KaMinPar's
//! on every graph; Two-Phase LP and One-Pass Contraction move it by at most 0.03.
//! Interval encoding pays only on the geometric `uk-like` (gap + interval 4.69 vs gap
//! only 3.10); on the other four graphs it compresses slightly *less* than gap encoding
//! alone (e.g. 4.09 vs 4.15 on `gsh-like`). Asserts, after printing, that Graph
//! Compression's relative memory is at most 0.65 on every graph.
use bench::{benchmark_set_b, config_ladder, measure_run};
use graph::traits::Graph;
use graph::{CompressedGraph, CompressionConfig};

fn main() {
    let k = 64;
    println!("Figure 6: Benchmark Set B (k = {})", k);
    let mut compression_rel_mem = Vec::new();
    for instance in benchmark_set_b() {
        println!(
            "\n== {} (n={}, m={}) ==",
            instance.name,
            instance.graph.xadj().len() - 1,
            instance.graph.m()
        );
        let mut baseline_mem = 1.0;
        for (i, (name, input, config)) in config_ladder(k).into_iter().enumerate() {
            let m = measure_run(
                instance.name,
                name,
                &instance.graph,
                input,
                &config.with_threads(2),
            );
            if i == 0 {
                baseline_mem = m.peak_memory_bytes.max(1) as f64;
            }
            let rel_mem = m.peak_memory_bytes as f64 / baseline_mem;
            println!(
                "  {:<36} time={:>7.2}s mem={:>12} rel.mem={:>5.2}",
                name,
                m.time.as_secs_f64(),
                memtrack::format_bytes(m.peak_memory_bytes),
                rel_mem
            );
            if name == "Graph Compression" {
                compression_rel_mem.push((instance.name, rel_mem));
            }
        }
        let gap_only = CompressedGraph::from_csr(&instance.graph, &CompressionConfig::gap_only());
        let full = CompressedGraph::from_csr(&instance.graph, &CompressionConfig::default());
        println!(
            "  compression ratio: gap only = {:.2}, gap + interval = {:.2}",
            gap_only.compression_ratio(&instance.graph),
            full.compression_ratio(&instance.graph)
        );
    }
    for (name, rel_mem) in compression_rel_mem {
        assert!(
            rel_mem <= 0.65,
            "{name}: Graph Compression's relative memory {rel_mem:.2} above 0.65"
        );
    }
}
