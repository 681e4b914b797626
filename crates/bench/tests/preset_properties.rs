//! Property tests of the preset pipeline's partition invariants.
//!
//! Across randomly drawn (preset, instance family, k, seed) combinations, every
//! result must be a *valid* partition, whatever the cut: complete, balance-feasible
//! (no block above `L_max`), using exactly `k` non-empty blocks, and with the
//! reported edge cut equal to a from-scratch recomputation on the graph. The same
//! properties are exercised at both ID widths by CI (`--features wide-ids` builds
//! this test unchanged).

use bench::GenSpec;
use graph::{CompressedGraph, CompressionConfig};
use proptest::prelude::*;
use terapart::{partition, PartitionerConfig, Preset};

fn family_spec(family: usize, seed: u64) -> GenSpec {
    match family {
        0 => GenSpec::Grid2d { rows: 18, cols: 22 },
        1 => GenSpec::Rgg2d {
            n: 900,
            avg_deg: 8,
            seed,
        },
        2 => GenSpec::PowerLawCluster {
            n: 800,
            attach: 3,
            triad_p: 0.4,
            seed,
        },
        _ => GenSpec::Rmat {
            scale: 10,
            avg_deg: 6,
            seed,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn presets_always_produce_valid_partitions(
        preset_index in 0usize..3,
        family in 0usize..4,
        k in 2usize..9,
        seed in 0u64..1_000,
    ) {
        let spec = family_spec(family, seed);
        let graph = spec.materialize();
        let preset = Preset::ALL[preset_index];
        let config = PartitionerConfig::preset(preset, k)
            .with_threads(2)
            .with_seed(seed ^ 0x5eed);
        let compressed = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
        let result = partition(&compressed, &config);
        let partition = &result.partition;

        // Complete, with exactly k blocks, all of them non-empty.
        prop_assert!(partition.is_complete());
        prop_assert_eq!(partition.k(), k);
        let sizes = partition.block_sizes();
        prop_assert_eq!(sizes.len(), k);
        prop_assert!(
            sizes.iter().all(|&s| s > 0),
            "preset {:?} left an empty block on {:?}: sizes {:?}",
            preset, spec, sizes
        );

        // Balance-feasible: no block above L_max.
        for b in 0..k as terapart::BlockId {
            prop_assert!(
                partition.block_weight(b) <= partition.max_block_weight(),
                "preset {:?} violated balance on {:?}: block {} weighs {} > {}",
                preset, spec, b, partition.block_weight(b), partition.max_block_weight()
            );
        }
        prop_assert!(partition.is_balanced());

        // The reported cut is the recomputed cut.
        prop_assert_eq!(result.edge_cut, partition.edge_cut_on(&graph));
        prop_assert_eq!(result.edge_cut, partition.edge_cut());
    }
}
