//! Table IV: TeraPart vs the semi-external-memory partitioner (k = 16): cut, time,
//! memory. Expected shape: SEM is substantially slower at somewhat higher cuts.
use baselines::sem_partition;
use bench::{measure_run, Input};
use graph::gen;
use terapart::PartitionerConfig;

fn main() {
    let k = 16;
    println!(
        "Table IV: TeraPart vs semi-external memory partitioning (k = {})",
        k
    );
    println!(
        "{:<16} {:<10} {:>10} {:>10} {:>14}",
        "graph", "algorithm", "cut", "time [s]", "memory"
    );
    for (name, graph) in [
        ("arabic-like", gen::weblike(14, 10, 41)),
        ("uk-like", gen::rgg2d(12_000, 16, 42)),
        ("sk-like", gen::rhg_like(16_000, 14, 2.8, 43)),
        ("uk07-like", gen::weblike(15, 8, 44)),
    ] {
        let tp = measure_run(
            name,
            "TeraPart",
            &graph,
            Input::Compressed,
            &PartitionerConfig::terapart(k).with_threads(2),
        );
        let sem = sem_partition(&graph, k, 0.03, 1);
        println!(
            "{:<16} {:<10} {:>10} {:>10.2} {:>14}",
            name,
            "TeraPart",
            tp.edge_cut,
            tp.time.as_secs_f64(),
            memtrack::format_bytes(tp.peak_memory_bytes)
        );
        println!(
            "{:<16} {:<10} {:>10} {:>10.2} {:>14}",
            "",
            "SEM",
            sem.edge_cut,
            sem.total_time.as_secs_f64(),
            memtrack::format_bytes(sem.peak_memory_bytes)
        );
    }
}
