//! Figure 1: peak memory as the TeraPart optimizations are enabled one after another.
//!
//! Paper setting: eu-2015, p = 96 cores, k = 30 000. Here: a web-like synthetic graph
//! and k = 128 (scaled down). The instance is generated in memory, and the ladder gains
//! a final rung beyond the paper's: `partition_ondisk` on the instance written to a temp
//! `.tpg` container, where the input adjacency never enters memory at all — only the
//! offset index, node weights and a fixed page budget are resident.
//!
//! The paper's decrease shows at run level for every rung but one. On a 2-vCPU VM Graph
//! Compression lowers the peak from KaMinPar's 5.6 MiB to 4.7 MiB, One-Pass
//! Contraction to 2.7 MiB and the on-disk rung to 2.4 MiB. One-Pass Contraction's rung
//! holds because a coarse CSR stores its edge weights at the width of its heaviest edge
//! (one byte here): the level-1 CSR live during its refinement no longer sets the peak.
//! Two-Phase LP (5.7 MiB) still does not lower the peak: the rungs without compression
//! peak where KaMinPar does, and two-phase LP shrinks an earlier phase. Asserts, after
//! printing, that Graph Compression peaks below KaMinPar, One-Pass Contraction below
//! Graph Compression and the on-disk rung below One-Pass Contraction.
use bench::{config_ladder, measure_run, GenSpec};
use graph::store::write_tpg_from_graph;
use graph::traits::Graph;
use graph::CompressionConfig;
use terapart::{partition_ondisk, PartitionerConfig};

fn main() {
    let spec = GenSpec::Rmat {
        scale: 15,
        avg_deg: 12,
        seed: 7,
    };
    let graph = spec.materialize();
    let k = 128;
    println!(
        "Figure 1: peak memory ladder (web-like graph, n={}, m={}, k={})",
        graph.xadj().len() - 1,
        graph.m(),
        k
    );
    println!(
        "{:<36} {:>14} {:>10}",
        "configuration", "peak memory", "time [s]"
    );
    let mut peaks = Vec::new();
    for (name, input, config) in config_ladder(k) {
        let m = measure_run("weblike-2^15", name, &graph, input, &config.with_threads(2));
        println!(
            "{:<36} {:>14} {:>10.2}",
            name,
            memtrack::format_bytes(m.peak_memory_bytes),
            m.time.as_secs_f64()
        );
        peaks.push(m.peak_memory_bytes);
    }
    // The rung the paper doesn't have: the adjacency stays on disk.
    let page_budget = 512 * 1024;
    let config = PartitionerConfig::terapart(k)
        .with_threads(2)
        .with_page_budget(page_budget);
    let path = std::env::temp_dir().join(format!("terapart_fig1_{}.tpg", std::process::id()));
    write_tpg_from_graph(&graph, &path, &CompressionConfig::default())
        .expect("failed to write the container");
    let result = partition_ondisk(&path, &config).expect("on-disk run failed");
    std::fs::remove_file(&path).ok();
    let peak = result.peak_memory_bytes;
    println!(
        "{:<36} {:>14} {:>10.2}",
        format!(
            "On-Disk Store ({} pages)",
            memtrack::format_bytes(page_budget)
        ),
        memtrack::format_bytes(peak),
        result.total_time.as_secs_f64()
    );
    let csr_bytes = graph.plain_size_in_bytes();
    println!(
        "uncompressed CSR reference: {} — on-disk peak is {:.2}x of it",
        memtrack::format_bytes(csr_bytes),
        peak as f64 / csr_bytes.max(1) as f64
    );
    let [kaminpar, _, compression, one_pass] = peaks[..] else {
        unreachable!("the ladder has four rungs")
    };
    assert!(
        compression < kaminpar,
        "Graph Compression peak {compression} B not below KaMinPar's {kaminpar} B"
    );
    assert!(
        one_pass < compression,
        "One-Pass Contraction peak {one_pass} B not below Graph Compression's {compression} B"
    );
    assert!(
        peak < one_pass,
        "on-disk peak {peak} B not below One-Pass Contraction's {one_pass} B"
    );
}
