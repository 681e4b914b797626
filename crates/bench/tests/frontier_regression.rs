//! Frontier-vs-full-sweep quality regression (the flag raised by `bench_quality`).
//!
//! Frontier-driven LP rounds revisit only vertices whose neighbourhood changed; on
//! structured meshes the frontier quiesces before the label boundaries finish
//! smoothing, so the `fast` preset can lose cut quality versus full sweeps — the
//! quality sweep flags grid3d at ~9% degradation, while every other family stays
//! within 5%. This is a **documented, tolerated relaxation** of the `fast` preset,
//! not a bug: `fast` trades that cut for frontier speed, and the `default` / `strong`
//! presets (k-way FM, full sweeps) recover it. See `docs/ARCHITECTURE.md` § Presets.
//!
//! This test pins the relaxation so it cannot silently widen: on every smoke rung of
//! the quality ladder, the single-threaded frontier cut must stay within the
//! per-family bound of the single-threaded full-sweep cut, both taken as the mean over
//! five fixed seeds. One seed per family measures the seed, not the relaxation: on
//! `rgg2d-6k` single-seed ratios range over ±12 % while the 60-run mean moves by 1.5 %.
//! Single-threaded runs are deterministic, so the ratios are exact, not flaky.

use bench::quality_families;
use graph::traits::Graph;
use graph::{CompressedGraph, CompressionConfig};
use terapart::{partition, PartitionerConfig, Preset};

/// Partitioner seeds every family is averaged over.
const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// Accepted `frontier_cut / full_sweep_cut` per family. Meshes get the documented
/// wider bound; everything else must stay within the sweep's 5% tolerance (plus a
/// hair of slack — five pinned seeds are a small sample).
fn tolerated_ratio(family: &str) -> f64 {
    match family {
        "mesh" => 1.15,
        _ => 1.06,
    }
}

#[test]
fn frontier_lp_degradation_stays_within_the_documented_bounds() {
    for family in quality_families() {
        let rung = &family.rungs[0];
        let graph = rung.spec.materialize();
        let compressed = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
        let (mut frontier_cut, mut full_sweep_cut) = (0, 0);
        for seed in SEEDS {
            let mut frontier_config = PartitionerConfig::preset(Preset::Fast, 16).with_threads(1);
            frontier_config.seed = seed;
            let mut full_sweep_config = frontier_config.clone();
            full_sweep_config.coarsening.lp_frontier = false;
            full_sweep_config.refinement.lp_frontier = false;
            frontier_cut += partition(&compressed, &frontier_config).edge_cut;
            full_sweep_cut += partition(&compressed, &full_sweep_config).edge_cut;
        }
        let ratio = frontier_cut as f64 / full_sweep_cut.max(1) as f64;
        println!(
            "{:<18} {:<12} n={:<7} 5-seed sums: frontier={} full={} ratio={:.4}",
            family.family,
            rung.name,
            graph.n(),
            frontier_cut,
            full_sweep_cut,
            ratio
        );
        assert!(
            ratio <= tolerated_ratio(family.family),
            "frontier LP degradation widened on {} ({}): ratio {:.4} exceeds the \
             documented bound {:.2} — fix the regression or re-document the relaxation",
            family.family,
            rung.name,
            ratio,
            tolerated_ratio(family.family)
        );
    }
}
