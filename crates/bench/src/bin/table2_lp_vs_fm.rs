//! Table II: TeraPart-LP vs TeraPart-FM on the huge web-like graphs of Set B (k = 64):
//! cut, time and memory. Expected shape: FM reduces the cut (factor ~0.87–0.96 in the
//! paper) at the cost of more time and memory.
//!
//! One thread, so that both rows of a graph are deterministic and differ by what FM does
//! alone: at two threads parallel LP makes two runs of the *same* configuration differ by
//! ±5 % on `uk-like`, more than FM gains there.
use bench::{benchmark_set_b, measure_run, Input};
use graph::traits::Graph;
use terapart::PartitionerConfig;

fn main() {
    let k = 64;
    println!("Table II: TeraPart-LP vs TeraPart-FM on Set B (k = {})", k);
    println!(
        "{:<18} {:<14} {:>12} {:>10} {:>14}",
        "graph", "algorithm", "cut", "time [s]", "memory"
    );
    for instance in benchmark_set_b() {
        let lp = measure_run(
            instance.name,
            "TeraPart-LP",
            &instance.graph,
            Input::Compressed,
            &PartitionerConfig::terapart(k).with_threads(1),
        );
        let fm = measure_run(
            instance.name,
            "TeraPart-FM",
            &instance.graph,
            Input::Compressed,
            &PartitionerConfig::terapart_fm(k).with_threads(1),
        );
        let total_edges = instance.graph.m() as f64;
        println!(
            "{:<18} {:<14} {:>11.2}% {:>10.2} {:>14}",
            instance.name,
            "TeraPart-LP",
            100.0 * lp.edge_cut as f64 / total_edges,
            lp.time.as_secs_f64(),
            memtrack::format_bytes(lp.peak_memory_bytes)
        );
        println!(
            "{:<18} {:<14} {:>11.2}x {:>10.2} {:>14}",
            "",
            "TeraPart-FM",
            fm.edge_cut as f64 / lp.edge_cut.max(1) as f64,
            fm.time.as_secs_f64(),
            memtrack::format_bytes(fm.peak_memory_bytes)
        );
    }
}
