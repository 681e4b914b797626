//! Criterion micro-benchmarks of refinement: label propagation refinement and FM with the
//! three gain-table variants (the per-component counterpart of Figure 7 left).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::gen;
use terapart::context::GainTableKind;
use terapart::partition::{BlockId, Partition};
use terapart::refinement::{fm_refine, lp_refine};

fn scrambled(graph: &graph::CsrGraph, k: usize) -> Partition {
    use graph::traits::Graph;
    let assignment: Vec<BlockId> = (0..graph.n() as u32)
        .map(|u| (u.wrapping_mul(2_654_435_761) >> 8) % k as u32)
        .collect();
    Partition::from_assignment(graph, k, 0.1, assignment)
}

fn bench_lp_refinement(c: &mut Criterion) {
    let graph = gen::rgg2d(10_000, 16, 5);
    c.bench_function("lp_refine/rgg2d_10k", |b| {
        b.iter_batched(
            || scrambled(&graph, 8),
            |mut p| lp_refine(&graph, &mut p, 2, 1),
            criterion::BatchSize::SmallInput,
        );
    });
    // Frontier-driven rounds on the bench RMAT instance, starting from a
    // projected-like (pre-refined) partition as mid-pipeline refinement does.
    let rmat = gen::weblike(14, 12, 9);
    let mut projected = scrambled(&rmat, 8);
    lp_refine(&rmat, &mut projected, 2, 99);
    let mut scratch = terapart::HierarchyScratch::new();
    c.bench_function("lp_refine_rmat14_rounds5/frontier", |b| {
        b.iter_batched(
            || projected.clone(),
            |mut p| {
                terapart::refinement::lp_refine_with_scratch(
                    &rmat,
                    &mut p,
                    5,
                    1,
                    true,
                    &mut scratch,
                )
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_fm_gain_tables(c: &mut Criterion) {
    let graph = gen::rgg2d(10_000, 16, 6);
    let mut group = c.benchmark_group("fm_refine");
    for (name, kind) in [
        ("no_table", GainTableKind::None),
        ("full_table", GainTableKind::Dense),
        ("sparse_table", GainTableKind::Sparse),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &kind| {
            b.iter_batched(
                || scrambled(&graph, 64),
                |mut p| fm_refine(&graph, &mut p, kind, 2, 1.0),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lp_refinement, bench_fm_gain_tables);
criterion_main!(benches);
