//! Cut-vs-time Pareto sweep across the quality presets and the instance-family
//! ladder, recorded as `BENCH_quality.json`.
//!
//! For every family of [`bench::setup::quality_families`] and every rung in it, the
//! sweep generates the rung in memory, runs all three presets (`fast` / `default` /
//! `strong`) and records cut, wall-clock time and peak accounted memory — the Pareto
//! frontier the presets are supposed to span. On top of the sweep it runs one frontier-vs-full-sweep check
//! per rung: the `fast` preset as shipped (frontier-driven LP) against the identical
//! configuration with full-sweep rounds, flagging any instance where the frontier
//! degrades the cut beyond the accepted tolerance.
//!
//! Usage:
//!
//! ```text
//! bench_quality [--smoke] [--golden] [--out PATH]
//! ```
//!
//! * `--smoke`  — first (smallest) rung per family only; the CI quality-smoke job.
//! * `--golden` — regenerate the golden-cut table instead of sweeping: print the
//!   pinned single-threaded cuts of every (preset, golden instance) pair for this
//!   build's ID width, in the row format of `crates/bench/src/golden.rs`.
//! * `--out`    — output path (default `BENCH_quality.json`).

use bench::golden::{golden_run, golden_specs, GOLDEN_K};
use bench::harness::{
    geometric_mean, measure_run, measure_run_reported, write_quality_json, FrontierCheck, Input,
    QualityRun,
};
use bench::setup::{preset_ladder, quality_families};
use graph::traits::Graph;
use terapart::{PartitionerConfig, Preset};

/// Blocks of every sweep run.
const QUALITY_K: usize = 16;
/// Accepted `frontier_cut / full_sweep_cut` ratio; above this a check is degraded.
const FRONTIER_TOLERANCE: f64 = 1.05;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--golden") {
        regenerate_golden_table();
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_quality.json"));

    let mut runs: Vec<QualityRun> = Vec::new();
    let mut frontier_checks: Vec<FrontierCheck> = Vec::new();
    // One representative recorded run (the first rung's `default` preset), embedded as
    // the compact `observability` section of BENCH_quality.json.
    let mut obs_report: Option<obs::RunReport> = None;

    for family in quality_families() {
        let rung_count = if smoke { 1 } else { family.rungs.len() };
        for rung in family.rungs.iter().take(rung_count) {
            let graph = rung.spec.materialize();
            let mut fast_cut = None;
            for (preset_name, config) in preset_ladder(QUALITY_K) {
                let m = if obs_report.is_none() && preset_name == "default" {
                    let (m, report) = measure_run_reported(
                        rung.name,
                        preset_name,
                        &graph,
                        Input::Compressed,
                        &config,
                    );
                    obs_report = Some(report);
                    m
                } else {
                    measure_run(rung.name, preset_name, &graph, Input::Compressed, &config)
                };
                println!("{:<18} {}", family.family, m.row());
                if preset_name == "fast" {
                    fast_cut = Some(m.edge_cut);
                }
                runs.push(QualityRun {
                    family: family.family.to_string(),
                    instance: rung.name.to_string(),
                    n: graph.n(),
                    m: graph.m(),
                    preset: preset_name.to_string(),
                    edge_cut: m.edge_cut,
                    seconds: m.time.as_secs_f64(),
                    peak_memory_bytes: m.peak_memory_bytes,
                    balanced: m.balanced,
                });
            }
            // Frontier-vs-full-sweep check: the fast preset's frontier cut (from the
            // sweep above) against the identical configuration with full-sweep
            // rounds.
            let mut full_sweep = PartitionerConfig::preset(Preset::Fast, QUALITY_K);
            full_sweep.coarsening.lp_frontier = false;
            full_sweep.refinement.lp_frontier = false;
            let full = measure_run(
                rung.name,
                "fast-full-sweep",
                &graph,
                Input::Compressed,
                &full_sweep,
            );
            let frontier_cut = fast_cut.expect("the ladder always contains 'fast'");
            let ratio = frontier_cut as f64 / full.edge_cut.max(1) as f64;
            let degraded = ratio > FRONTIER_TOLERANCE;
            if degraded {
                println!(
                    "  FLAG: frontier LP degrades {} ({} vs {} full sweep, ratio {:.3})",
                    rung.name, frontier_cut, full.edge_cut, ratio
                );
            }
            frontier_checks.push(FrontierCheck {
                family: family.family.to_string(),
                instance: rung.name.to_string(),
                frontier_cut,
                full_sweep_cut: full.edge_cut,
                ratio,
                degraded,
            });
        }
    }

    // Per-family strong-vs-fast verdict over the geometric-mean cut of the swept
    // rungs: the presets only earn their names if `strong` actually buys quality.
    let mut strong_beats_fast: Vec<String> = Vec::new();
    let mut families: Vec<String> = runs.iter().map(|r| r.family.clone()).collect();
    families.dedup();
    for family in &families {
        let cuts_of = |preset: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| &r.family == family && r.preset == preset)
                .map(|r| r.edge_cut.max(1) as f64)
                .collect()
        };
        let fast = geometric_mean(&cuts_of("fast"));
        let strong = geometric_mean(&cuts_of("strong"));
        println!(
            "family {:<18} gm-cut fast={:.0} strong={:.0} ({})",
            family,
            fast,
            strong,
            if strong < fast {
                "strong wins"
            } else {
                "strong does not win"
            }
        );
        if strong < fast {
            strong_beats_fast.push(family.clone());
        }
    }

    write_quality_json(
        &out_path,
        QUALITY_K,
        FRONTIER_TOLERANCE,
        &runs,
        &frontier_checks,
        &strong_beats_fast,
        obs_report.as_ref(),
    )
    .expect("failed to write the quality sweep");
    println!(
        "wrote {} ({} runs, {} frontier checks, strong beats fast on {}/{} families)",
        out_path.display(),
        runs.len(),
        frontier_checks.len(),
        strong_beats_fast.len(),
        families.len()
    );
    let flagged = frontier_checks.iter().filter(|c| c.degraded).count();
    if flagged > 0 {
        println!(
            "WARNING: frontier LP degraded the cut beyond {:.0}% on {} instance(s)",
            (FRONTIER_TOLERANCE - 1.0) * 100.0,
            flagged
        );
    }
}

/// `--golden`: print the pinned single-threaded cut of every (preset, golden
/// instance) pair for this build's ID width, in the source row format of
/// `crates/bench/src/golden.rs`.
fn regenerate_golden_table() {
    let width = graph::NodeId::BITS;
    println!(
        "// golden cuts at id_width={} (k={}, single-threaded, preset default seeds)",
        width, GOLDEN_K
    );
    for preset in Preset::ALL {
        for (name, spec) in golden_specs() {
            let cut = golden_run(preset, &spec);
            println!(
                "entry({:?}, \"{}\", {}, ..),  // fill the w{} column with {}",
                preset, name, cut, width, cut
            );
        }
    }
}
