//! Figure 5: self-relative speedups of TeraPart for varying thread counts.
//!
//! Paper setting: p in {12, 24, 48, 96} on a 96-core machine. Here: p in {1, 2, 4} on the
//! available cores; the expected shape is monotone (if modest) speedup with more threads.
use bench::{benchmark_set_a, harmonic_mean, measure_run, Input};
use graph::traits::Graph;
use terapart::PartitionerConfig;

fn main() {
    let k = 16;
    let set = benchmark_set_a();
    let threads = [1usize, 2, 4];
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); threads.len()];
    for instance in set.iter().filter(|i| i.graph.m() > 20_000) {
        let sequential = measure_run(
            instance.name,
            "p=1",
            &instance.graph,
            Input::Compressed,
            &PartitionerConfig::terapart(k).with_threads(1),
        );
        let t1 = sequential.time.as_secs_f64();
        for (i, &p) in threads.iter().enumerate() {
            let m = measure_run(
                instance.name,
                "terapart",
                &instance.graph,
                Input::Compressed,
                &PartitionerConfig::terapart(k).with_threads(p),
            );
            speedups[i].push(t1 / m.time.as_secs_f64().max(1e-9));
        }
    }
    println!("Figure 5: self-relative speedups (k = {})", k);
    println!("{:>8} {:>22}", "threads", "harmonic mean speedup");
    for (i, &p) in threads.iter().enumerate() {
        println!("{:>8} {:>22.2}", p, harmonic_mean(&speedups[i]));
    }
}
