//! Figure 7: FM refinement with no gain table, the full O(nk) table, and the
//! space-efficient O(m) table — relative time, peak memory, the table's own bytes and
//! quality.
//! Expected shape: sparse table ~= dense table in time and quality but much less memory;
//! no table is substantially slower.
use bench::harness::measure_run_reported;
use bench::{benchmark_set_a, geometric_mean, performance_profile, Input};
use graph::traits::Graph;
use terapart::{GainTableKind, PartitionerConfig};

fn main() {
    let k = 64;
    let variants = [
        ("TeraPart-LP (no FM)", None),
        ("No Table", Some(GainTableKind::None)),
        ("Full Table", Some(GainTableKind::Dense)),
        ("TeraPart-FM (sparse table)", Some(GainTableKind::Sparse)),
    ];
    let set = benchmark_set_a();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut mems: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut tables: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut cuts: Vec<Vec<u64>> = vec![Vec::new(); variants.len()];
    for instance in set.iter().filter(|i| i.graph.m() > 10_000) {
        for (i, (name, table)) in variants.iter().enumerate() {
            let config = match table {
                None => PartitionerConfig::terapart(k),
                Some(kind) => PartitionerConfig::terapart_fm(k).with_gain_table(*kind),
            };
            let (m, report) = measure_run_reported(
                instance.name,
                name,
                &instance.graph,
                Input::Compressed,
                &config.with_threads(2),
            );
            tables[i].push(report.counter(obs::Counter::GainTableBytes) as f64);
            times[i].push(m.time.as_secs_f64());
            mems[i].push(m.peak_memory_bytes as f64);
            cuts[i].push(m.edge_cut);
        }
    }
    println!("Figure 7: FM gain table variants (k = {})", k);
    println!(
        "{:<30} {:>12} {:>14} {:>16}",
        "variant", "time (gm) s", "memory (gm)", "gain table (gm)"
    );
    for (i, (name, _)) in variants.iter().enumerate() {
        // Without a table every run reports 0 bytes, which has no geometric mean.
        let table = if tables[i].iter().all(|&b| b > 0.0) {
            geometric_mean(&tables[i]) as usize
        } else {
            0
        };
        println!(
            "{:<30} {:>12.3} {:>14} {:>16}",
            name,
            geometric_mean(&times[i]),
            memtrack::format_bytes(geometric_mean(&mems[i]) as usize),
            memtrack::format_bytes(table)
        );
    }
    let taus = [1.0, 1.05, 1.1, 1.5, 2.0];
    let profile = performance_profile(&cuts, &taus);
    println!("\nPerformance profile:");
    for ((name, _), row) in variants.iter().zip(&profile) {
        println!(
            "{:<30} {:?}",
            name,
            row.iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
}
