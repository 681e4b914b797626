//! Cut-vs-time Pareto sweep across the quality presets and the instance-family
//! ladder, recorded as `BENCH_quality.json`.
//!
//! For every family of [`bench::setup::quality_families`] and every rung in it, the
//! sweep generates the rung in memory, runs all three presets (`fast` / `default` /
//! `strong`) and records cut, wall-clock time and peak accounted memory — the Pareto
//! frontier the presets are supposed to span. Every run is single-threaded, so its cut
//! and peak repeat exactly and the presets' times compare; `seconds` is the median of
//! [`TIMED_RUNS`] runs.
//!
//! Asserts, after writing, that on every family `default`'s geometric-mean peak is at
//! most [`DEFAULT_OVER_FAST_PEAK`] × `fast`'s: k-way FM's gain table, which keeps rows for
//! the boundary only, must not set the preset's memory.
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
    geometric_mean, measure_run, measure_run_reported, write_quality_json, Input, QualityRun,
};
use bench::setup::{preset_ladder, quality_families};
use graph::traits::Graph;
use terapart::Preset;

/// Blocks of every sweep run.
const QUALITY_K: usize = 16;

/// Runs of one (rung, preset), one thread each; the recorded `seconds` is their median.
const TIMED_RUNS: usize = 3;

/// Bound on `default`'s geometric-mean peak over `fast`'s, per family. Measured at
/// 32-bit ids: 1.000 on mesh, 1.258 on geometric, 1.146 on power-law-cluster, 1.006 on
/// web and 1.077 on social. The geometric figure is `rgg3d-10k`'s refine@0: at 14
/// neighbours a vertex, half its vertices are on the boundary and a boundary row is a
/// dense 16-slot row. With an 8-byte row for every vertex it read 1.4× on mesh, 3.1× on
/// geometric and 1.9× on power-law-cluster.
const DEFAULT_OVER_FAST_PEAK: f64 = 1.3;

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
    // One representative recorded run (the first rung's `default` preset), embedded as
    // the compact `observability` section of BENCH_quality.json.
    let mut obs_report: Option<obs::RunReport> = None;

    for family in quality_families() {
        let rung_count = if smoke { 1 } else { family.rungs.len() };
        for rung in family.rungs.iter().take(rung_count) {
            let graph = rung.spec.materialize();
            for (preset_name, config) in preset_ladder(QUALITY_K) {
                let config = config.with_threads(1);
                if obs_report.is_none() && preset_name == "default" {
                    let (_, report) = measure_run_reported(
                        rung.name,
                        preset_name,
                        &graph,
                        Input::Compressed,
                        &config,
                    );
                    obs_report = Some(report);
                }
                let mut timed: Vec<_> = (0..TIMED_RUNS)
                    .map(|_| {
                        measure_run(rung.name, preset_name, &graph, Input::Compressed, &config)
                    })
                    .collect();
                timed.sort_by_key(|m| m.time);
                let m = timed.swap_remove(TIMED_RUNS / 2);
                println!("{:<18} {}", family.family, m.row());
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
        }
    }

    // Per-family strong-vs-fast verdict over the geometric-mean cut of the swept
    // rungs: the presets only earn their names if `strong` actually buys quality.
    let mut strong_beats_fast: Vec<String> = Vec::new();
    let mut memory_violations: Vec<String> = Vec::new();
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
        let peaks_of = |preset: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| &r.family == family && r.preset == preset)
                .map(|r| r.peak_memory_bytes as f64)
                .collect()
        };
        let peak_ratio = geometric_mean(&peaks_of("default")) / geometric_mean(&peaks_of("fast"));
        println!(
            "family {:<18} gm-peak default / fast = {:.3}",
            family, peak_ratio
        );
        memory_violations.extend(
            (peak_ratio > DEFAULT_OVER_FAST_PEAK)
                .then(|| format!("{family}: default peaks at {peak_ratio:.3} x fast")),
        );
    }

    write_quality_json(
        &out_path,
        QUALITY_K,
        &runs,
        &strong_beats_fast,
        obs_report.as_ref(),
    )
    .expect("failed to write the quality sweep");
    println!(
        "wrote {} ({} runs, strong beats fast on {}/{} families)",
        out_path.display(),
        runs.len(),
        strong_beats_fast.len(),
        families.len()
    );
    assert!(
        memory_violations.is_empty(),
        "default's geometric-mean peak above {DEFAULT_OVER_FAST_PEAK} x fast's: {memory_violations:?}"
    );
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
