//! Table I / Figure 9: properties of the benchmark instances (n, m, average and maximum
//! degree) for both benchmark sets, with the size of each instance's `.tpg` container
//! and how much smaller it is than the uncompressed CSR. Every instance is generated in
//! memory and written to a container in a temp directory, which is removed afterwards.
use bench::{set_a_specs, set_b_specs};
use graph::stats::GraphStats;
use graph::store::write_tpg_from_graph;
use graph::CompressionConfig;

fn main() {
    let dir = std::env::temp_dir().join(format!("terapart_table1_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("failed to create the temp directory");
    println!("Table I / Figure 9: benchmark instance properties");
    println!(
        "{:<20} {:>12} {:>14} {:>8} {:>10} {:>14} {:>12}",
        "graph", "n", "m", "d(G)", "max deg", "container", "vs CSR"
    );
    for set in [set_a_specs(), set_b_specs()] {
        for instance in set {
            let graph = instance.spec.materialize();
            let container = write_tpg_from_graph(
                &graph,
                dir.join(format!("{}.tpg", instance.name)),
                &CompressionConfig::default(),
            )
            .expect("failed to write the container")
            .file_bytes;
            println!(
                "{} {:>14} {:>11.2}x",
                GraphStats::of(&graph).table_row(instance.name),
                memtrack::format_bytes(container as usize),
                graph.size_in_bytes() as f64 / container.max(1) as f64
            );
        }
        println!("---");
    }
    std::fs::remove_dir_all(&dir).ok();
}
