//! What TeraPart-FM means in this repository: `PartitionerConfig::terapart_fm` is the
//! `default` preset, and its FM does work label propagation cannot. (A binary of its own:
//! `tests/pipeline_integration.rs` hosts a test that compares `memtrack::global()` peaks,
//! and twelve more pipeline runs next to it move them.)
use graph::gen;
use terapart::{partition_csr, PartitionerConfig, Preset};

/// TeraPart-FM is TeraPart-LP plus a refiner that finds what label propagation leaves:
/// LP refinement stops once no single move improves the cut, so an FM that only takes
/// positive-gain moves hands LP's cut back unchanged. One thread, so both runs are
/// deterministic and share coarsening, initial partition and every LP round.
#[test]
fn terapart_fm_moves_vertices_and_cuts_fewer_edges_than_lp_alone() {
    let k = 16;
    assert_eq!(
        PartitionerConfig::preset(Preset::Default, k),
        PartitionerConfig::terapart_fm(k)
    );
    for (name, graph) in [
        ("rgg2d", gen::rgg2d(6_144, 8, 3)),
        ("weblike", gen::weblike(14, 8, 3)),
    ] {
        for seed in [3, 5, 7] {
            let run = |config: PartitionerConfig| {
                partition_csr(&graph, &config.with_threads(1).with_seed(seed))
            };
            let lp = run(PartitionerConfig::terapart(k));
            let fm = run(PartitionerConfig::terapart_fm(k));
            assert_eq!(lp.refinement.fm_moves, 0);
            assert!(
                fm.refinement.fm_moves > 0,
                "{name}, seed {seed}: FM kept no move"
            );
            assert!(
                fm.edge_cut < lp.edge_cut,
                "{name}, seed {seed}: FM cut {} vs LP cut {}",
                fm.edge_cut,
                lp.edge_cut
            );
        }
    }
}
