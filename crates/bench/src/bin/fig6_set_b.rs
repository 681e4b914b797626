//! Figure 6: relative running time, peak memory and compression ratios on the huge
//! web-like graphs of Benchmark Set B. Expected shape: large memory reductions from
//! compression + two-phase LP + one-pass contraction; compression ratios well above the
//! gap-only variant. The instances are generated in memory.
use bench::{benchmark_set_b, config_ladder, measure_run};
use graph::traits::Graph;
use graph::{CompressedGraph, CompressionConfig};

fn main() {
    let k = 64;
    println!("Figure 6: Benchmark Set B (k = {})", k);
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
            println!(
                "  {:<36} time={:>7.2}s mem={:>12} rel.mem={:>5.2}",
                name,
                m.time.as_secs_f64(),
                memtrack::format_bytes(m.peak_memory_bytes),
                m.peak_memory_bytes as f64 / baseline_mem
            );
        }
        let gap_only = CompressedGraph::from_csr(&instance.graph, &CompressionConfig::gap_only());
        let full = CompressedGraph::from_csr(&instance.graph, &CompressionConfig::default());
        println!(
            "  compression ratio: gap only = {:.2}, gap + interval = {:.2}",
            gap_only.compression_ratio(&instance.graph),
            full.compression_ratio(&instance.graph)
        );
    }
}
