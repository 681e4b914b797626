//! Criterion micro-benchmarks of the coarsening stage: label propagation clustering
//! (per-thread rating maps vs two-phase) and contraction (buffered vs one-pass).
//! These are the per-component counterparts of Figures 1/2/4.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::gen;
use terapart::coarsening::{cluster, contract};
use terapart::context::{CoarseningConfig, ContractionAlgorithm, LabelPropagationMode};

fn bench_clustering(c: &mut Criterion) {
    let graph = gen::rgg2d(20_000, 16, 1);
    let mut group = c.benchmark_group("lp_clustering");
    for (name, mode) in [
        ("per_thread_maps", LabelPropagationMode::PerThreadRatingMaps),
        ("two_phase", LabelPropagationMode::TwoPhase),
    ] {
        let config = CoarseningConfig {
            lp_mode: mode,
            lp_rounds: 2,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| cluster(&graph, config, 32, 7));
        });
    }
    group.finish();
}

fn bench_contraction(c: &mut Criterion) {
    // The bench RMAT instance (same as bench_pipeline / BENCH_pipeline.json): skewed
    // degrees exercise both aggregation phases and the chunked neighbourhood sort.
    let graph = gen::weblike(14, 12, 9);
    let config = CoarseningConfig::default();
    let clustering = cluster(&graph, &config, 32, 3);
    let mut group = c.benchmark_group("contraction");
    for (name, algorithm) in [
        ("buffered", ContractionAlgorithm::Buffered),
        ("one_pass", ContractionAlgorithm::OnePass),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &algorithm,
            |b, &algorithm| {
                b.iter(|| contract(&graph, &clustering, algorithm, 256));
            },
        );
    }
    // The pipeline configuration: one-pass contraction through a reused scratch arena.
    let mut scratch = terapart::HierarchyScratch::new();
    group.bench_with_input(
        BenchmarkId::from_parameter("one_pass_scratch"),
        &(),
        |b, ()| {
            b.iter(|| {
                terapart::coarsening::contract_with_scratch(
                    &graph,
                    &clustering,
                    ContractionAlgorithm::OnePass,
                    256,
                    &mut scratch,
                )
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_clustering, bench_contraction);
criterion_main!(benches);
