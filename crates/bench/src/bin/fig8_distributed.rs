//! Figure 8: distributed-memory comparison (growing graphs on a fixed number of PEs) and
//! weak scaling. Expected shape: XTeraPart (compressed shards) uses less per-PE memory
//! than DKaMinPar (uncompressed shards) at similar quality, and the single-level baseline
//! has far worse cuts on the geometric graphs.
//!
//! Measured on a 2-vCPU VM: XtraPuLP-like cuts 5.0–10.0x XTeraPart's edges on `rgg2d`
//! (four runs).
//! On `rhg_like` every partitioner cuts about 76 % of the edges, so no partitioner
//! stands out there. The weak-scaling throughput is printed, not checked. Asserts, after
//! printing, that XTeraPart's max-PE memory is below DKaMinPar's on every graph and that
//! XtraPuLP-like cuts at least 3x XTeraPart's edges on every `rgg2d` graph.
use baselines::xtrapulp_partition;
use graph::gen;
use graph::traits::Graph;
use xterapart::{dist_partition, DistPartitionConfig};

fn main() {
    let k = 16;
    println!(
        "Figure 8 (left/middle): growing rgg2D/rhg graphs on 4 PEs, k = {}",
        k
    );
    println!(
        "{:<10} {:>10} {:<14} {:>10} {:>14} {:>12}",
        "family", "edges", "algorithm", "cut", "max PE mem", "time [s]"
    );
    let mut rows = Vec::new();
    for exponent in [14u32, 15, 16] {
        let n = 1usize << exponent;
        for (family, graph) in [
            ("rgg2d", gen::rgg2d(n, 16, exponent as u64)),
            ("rhg", gen::rhg_like(n, 16, 3.0, exponent as u64)),
        ] {
            let xterapart = dist_partition(&graph, &DistPartitionConfig::xterapart(k, 4));
            let dkaminpar = dist_partition(&graph, &DistPartitionConfig::dkaminpar(k, 4));
            for (name, result) in [("XTeraPart", &xterapart), ("DKaMinPar", &dkaminpar)] {
                println!(
                    "{:<10} {:>10} {:<14} {:>10} {:>14} {:>12.2}",
                    family,
                    graph.m(),
                    name,
                    result.edge_cut,
                    memtrack::format_bytes(result.max_pe_memory_bytes),
                    result.total_time.as_secs_f64()
                );
            }
            let xp = xtrapulp_partition(&graph, k, 0.03, 1);
            println!(
                "{:<10} {:>10} {:<14} {:>10} {:>14} {:>12.2}",
                family,
                graph.m(),
                "XtraPuLP-like",
                xp.edge_cut,
                memtrack::format_bytes(xp.peak_memory_bytes),
                xp.total_time.as_secs_f64()
            );
            rows.push((family, graph.m(), xterapart, dkaminpar, xp.edge_cut));
        }
    }
    println!("\nFigure 8 (right): weak scaling (work per PE kept constant)");
    println!("{:<8} {:>10} {:>18}", "PEs", "edges", "throughput [E/s]");
    for pes in [1usize, 2, 4] {
        let graph = gen::rgg2d(8_000 * pes, 16, 77 + pes as u64);
        let result = dist_partition(&graph, &DistPartitionConfig::xterapart(k, pes));
        println!(
            "{:<8} {:>10} {:>18.0}",
            pes,
            graph.m(),
            result.throughput_edges_per_sec
        );
    }
    for (family, m, xterapart, dkaminpar, xtrapulp_cut) in rows {
        assert!(
            xterapart.max_pe_memory_bytes < dkaminpar.max_pe_memory_bytes,
            "{family} m={m}: XTeraPart max-PE memory {} B not below DKaMinPar's {} B",
            xterapart.max_pe_memory_bytes,
            dkaminpar.max_pe_memory_bytes
        );
        if family == "rgg2d" {
            assert!(
                xtrapulp_cut >= 3 * xterapart.edge_cut,
                "{family} m={m}: XtraPuLP-like cut {xtrapulp_cut} below 3x XTeraPart's {}",
                xterapart.edge_cut
            );
        }
    }
}
