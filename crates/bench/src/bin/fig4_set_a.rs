//! Figure 4: relative running time, relative peak memory and solution quality on the
//! medium-sized Benchmark Set A, for the configuration ladder plus the Mt-METIS-like
//! baseline. Expected shape: TeraPart uses roughly half the memory of KaMinPar at equal
//! quality; Mt-METIS-like is slower, heavier and sometimes imbalanced.
use baselines::mtmetis_partition;
use bench::{benchmark_set_a, config_ladder, geometric_mean, measure_run, performance_profile};

fn main() {
    let k = 8;
    let set = benchmark_set_a();
    let ladder = config_ladder(k);
    let mut rel_time: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut rel_mem: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut cuts: Vec<Vec<u64>> = vec![Vec::new(); ladder.len() + 1];
    let mut mtmetis_slowdown = Vec::new();
    let mut mtmetis_imbalanced = 0;
    println!("Figure 4: Benchmark Set A, k = {}", k);
    for instance in &set {
        let mut baseline_time = 1.0;
        let mut baseline_mem = 1.0;
        for (i, (name, input, config)) in ladder.iter().enumerate() {
            let m = measure_run(
                instance.name,
                name,
                &instance.graph,
                *input,
                &config.clone().with_threads(2),
            );
            if i == 0 {
                baseline_time = m.time.as_secs_f64().max(1e-9);
                baseline_mem = m.peak_memory_bytes.max(1) as f64;
            }
            rel_time[i].push(m.time.as_secs_f64() / baseline_time);
            rel_mem[i].push(m.peak_memory_bytes as f64 / baseline_mem);
            cuts[i].push(m.edge_cut);
        }
        let mt = mtmetis_partition(&instance.graph, k, 0.03, 1);
        mtmetis_slowdown.push(mt.total_time.as_secs_f64() / baseline_time);
        if !mt.balanced {
            mtmetis_imbalanced += 1;
        }
        cuts[ladder.len()].push(mt.edge_cut);
    }
    println!(
        "{:<36} {:>16} {:>16}",
        "configuration", "rel. time (gm)", "rel. memory (gm)"
    );
    for (i, (name, _, _)) in ladder.iter().enumerate() {
        println!(
            "{:<36} {:>16.3} {:>16.3}",
            name,
            geometric_mean(&rel_time[i]),
            geometric_mean(&rel_mem[i])
        );
    }
    println!(
        "{:<36} {:>16.3} {:>16}",
        "Mt-METIS-like",
        geometric_mean(&mtmetis_slowdown),
        "-"
    );
    println!(
        "Mt-METIS-like imbalanced instances: {}/{}",
        mtmetis_imbalanced,
        set.len()
    );
    let taus = [1.0, 1.05, 1.1, 1.5, 2.0];
    let profile = performance_profile(&cuts, &taus);
    println!("\nPerformance profile (fraction of instances within tau of the best cut):");
    print!("{:<36}", "algorithm");
    for t in taus {
        print!(" tau={:<5}", t);
    }
    println!();
    let mut names: Vec<&str> = ladder.iter().map(|(n, _, _)| *n).collect();
    names.push("Mt-METIS-like");
    for (name, row) in names.iter().zip(&profile) {
        print!("{:<36}", name);
        for v in row {
            print!(" {:<9.2}", v);
        }
        println!();
    }
}
