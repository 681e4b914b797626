//! Emits `BENCH_pipeline.json`: one full pipeline run on the bench RMAT instance
//! (phase timings + cut + peak memory), the streamed-ingest micro, the on-disk
//! store ladder and the concurrent-sessions ladder. Run from the repo root:
//!
//! ```text
//! cargo run --release -p bench --bin bench_pipeline
//! ```
//!
//! The perf trajectory across PRs lives in `benchmark/` (see `BENCHMARK.json`); this
//! file is the single-instance snapshot with the per-phase breakdown.
//!
//! To record the `wide-ids` overhead alongside the default width, run the wide build
//! first and then merge its headline numbers into the default-width JSON:
//!
//! ```text
//! cargo run --release --features wide-ids -p bench --bin bench_pipeline -- /tmp/wide.json
//! cargo run --release -p bench --bin bench_pipeline -- BENCH_pipeline.json /tmp/wide.json
//! ```

use std::path::{Path, PathBuf};

use bench::harness::{
    best_seconds, read_width_run, write_pipeline_json, ConcurrentSessionsRun, OndiskRun,
    StreamIngestRun,
};
use graph::gen;
use graph::store::StreamingTpgBuilder;
use graph::traits::Graph;
use memtrack::PhaseTracker;
use terapart::{EngineConfig, PartitionEngine, PartitionRequest, PartitionerConfig};

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_pipeline.json"));
    // Optional: a BENCH_pipeline.json produced by a build at the other ID width, whose
    // headline numbers are embedded into this run's `width_runs` ladder.
    let other_width_runs: Vec<bench::harness::WidthRun> = std::env::args()
        .nth(2)
        .map(|p| {
            let run = read_width_run(Path::new(&p)).expect("failed to read the width-run JSON");
            assert_ne!(
                run.id_width,
                graph::NodeId::BITS,
                "{} was produced at this build's own id width",
                p
            );
            vec![run]
        })
        .unwrap_or_default();
    println!("id width: {} bits", graph::NodeId::BITS);

    // The bench RMAT instance: web-like R-MAT graph, as in the compression benches.
    let instance = "rmat-14";
    let graph = gen::weblike(14, 12, 9);
    println!("instance {instance}: n={}, m={}", graph.n(), graph.m());

    // ---- Micro: streamed .tpg ingest — the pipelined finish (flat bucket
    // aggregation + packet-ordered commit) on a spilled R-MAT stream. ----
    let ingest_dir =
        std::env::temp_dir().join(format!("terapart_bench_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&ingest_dir).expect("failed to create the ingest bench dir");
    let (ingest_scale, ingest_deg, ingest_seed, ingest_buckets) = (14u32, 10usize, 5u64, 8usize);
    let ingest_runs = 9;
    // The effective worker count: finish() clamps its workers to the bucket count.
    let ingest_threads = terapart::context::default_threads().min(ingest_buckets);
    let mut ingest_edges = 0usize;
    let spill_edges = |dir: &Path| {
        let mut builder = StreamingTpgBuilder::new(1usize << ingest_scale, ingest_buckets, dir)
            .expect("failed to open the ingest builder");
        gen::for_each_rmat_edge(ingest_scale, ingest_deg, ingest_seed, &mut |u, v| {
            builder.add_edge(u, v, 1).expect("spill failed");
        });
        builder
    };
    let mut ingest_spill = graph::store::SpillStats::default();
    let pipe_container = ingest_dir.join("ingest_pipe.tpg");
    let mut container_bytes = 0u64;
    let pipelined_seconds = best_seconds(
        ingest_runs,
        || spill_edges(&ingest_dir),
        |builder| {
            ingest_edges = builder.edges_added();
            ingest_spill = builder.spill_stats();
            let summary = builder
                .finish(&pipe_container, &graph::CompressionConfig::default())
                .expect("pipelined finish failed");
            container_bytes = summary.file_bytes;
            summary
        },
    );
    std::fs::remove_dir_all(&ingest_dir).ok();
    let stream_ingest = StreamIngestRun {
        n: 1usize << ingest_scale,
        edges_added: ingest_edges,
        buckets: ingest_buckets,
        threads: ingest_threads,
        pipelined_seconds,
        container_bytes,
        spill: ingest_spill,
    };
    println!(
        "stream_ingest: pipelined {:.1} ms ({:.0} edges/s)",
        stream_ingest.pipelined_seconds * 1e3,
        stream_ingest.edges_per_second()
    );
    println!(
        "spill volume: {} unit + {} weighted records, {} vs {} full-width ({:.1}% saved)",
        ingest_spill.unit_records,
        ingest_spill.weighted_records,
        memtrack::format_bytes(ingest_spill.bytes as usize),
        memtrack::format_bytes(ingest_spill.full_width_bytes as usize),
        ingest_spill.savings() * 100.0
    );

    // ---- Full pipeline with phase breakdown, recorded through the obs layer. ----
    let config = PartitionerConfig::terapart(16);
    let tracker = PhaseTracker::new();
    memtrack::global().reset_peak();
    let (measurement, run_report) = {
        let recording_config = config.clone().with_run_report(true);
        let result = terapart::partition_csr_with_tracker(&graph, &recording_config, &tracker);
        let report = result
            .run_report
            .expect("recording config attaches a run report");
        (
            bench::harness::Measurement {
                instance: instance.to_string(),
                algorithm: "terapart".to_string(),
                k: config.k,
                edge_cut: result.edge_cut,
                time: result.total_time,
                peak_memory_bytes: result.peak_memory_bytes.max(tracker.overall_peak()),
                balanced: result.partition.is_balanced(),
            },
            report,
        )
    };
    println!("{}", measurement.row());
    println!(
        "run report: total {:.3}s, span coverage {:.1}% ({} spans, {} counters)",
        run_report.total_seconds(),
        run_report.span_coverage * 100.0,
        run_report.all_spans().len(),
        run_report.counters.len()
    );
    // 0.9993 and above since PR 13; the floor keeps a slow slide (0.9925 → 0.9658 over
    // PRs 8–10) from recurring unnoticed.
    assert!(
        run_report.span_coverage >= 0.98,
        "span tree covers only {:.1}% of the pipeline wall time",
        run_report.span_coverage * 100.0
    );

    // ---- Observability determinism check: recording must not perturb the result.
    // Single-threaded, because parallel LP applies moves in scheduling order and is
    // only reproducible sequentially (see tests/observability.rs for the LP-free
    // multi-thread check). ----
    let det_config = config.clone().with_threads(1);
    let noop_run = terapart::partition_csr(&graph, &det_config);
    assert!(noop_run.run_report.is_none());
    let recorded_run = terapart::partition_csr(&graph, &det_config.clone().with_run_report(true));
    assert_eq!(noop_run.edge_cut, recorded_run.edge_cut);
    assert_eq!(
        noop_run.partition.assignment(),
        recorded_run.partition.assignment(),
        "recording perturbed the fixed-seed rmat-14 result"
    );
    println!(
        "determinism: recording run bit-identical to noop run (cut {})",
        noop_run.edge_cut
    );

    // ---- On-disk pipeline: same instance through the `.tpg` store at two page
    // budgets (a starved cache and a comfortable one). ----
    let ondisk_dir =
        std::env::temp_dir().join(format!("terapart_bench_ondisk_{}", std::process::id()));
    std::fs::create_dir_all(&ondisk_dir).expect("failed to create the on-disk bench dir");
    let tpg_path = ondisk_dir.join("rmat-14.tpg");
    graph::store::write_tpg_from_graph(&graph, &tpg_path, &graph::CompressionConfig::default())
        .expect("failed to write the bench container");
    let meta = graph::store::read_tpg_meta(&tpg_path).expect("bench container unreadable");
    println!(
        "offset index: elias-fano {} B ({:.2} B/node; plain u64s would take {} B)",
        meta.offsets_len_bytes(),
        meta.offsets_len_bytes() as f64 / graph.n() as f64,
        8 * (graph.n() + 1),
    );
    let csr_bytes = graph.size_in_bytes();
    let mut ondisk_runs = Vec::new();
    // 8 KiB pages: the rmat-14 data section spans enough pages that the cold-sweep
    // hit rate is actually observable.
    let page_size = 8 * 1024usize;
    for page_budget in [128 * 1024usize, 2 * 1024 * 1024] {
        let mut ondisk_config = PartitionerConfig::terapart(16).with_page_budget(page_budget);
        ondisk_config.ondisk.page_size = page_size;
        let ondisk_tracker = PhaseTracker::new();
        memtrack::global().reset_peak();
        let result =
            terapart::partition_ondisk_with_tracker(&tpg_path, &ondisk_config, &ondisk_tracker)
                .expect("on-disk bench run failed");
        let peak = result.peak_memory_bytes.max(ondisk_tracker.overall_peak());
        let cache = result.cache_stats;
        println!(
            "partition_ondisk @ {:>10}: cut={} peak={} ({:.2}x of CSR) time={:.2}s \
             hit_rate={:.3}",
            memtrack::format_bytes(page_budget),
            result.edge_cut,
            memtrack::format_bytes(peak),
            peak as f64 / csr_bytes as f64,
            result.total_time.as_secs_f64(),
            cache.map(|c| c.hit_rate()).unwrap_or(0.0),
        );
        ondisk_runs.push(OndiskRun {
            backend: "paged",
            offset_index_bytes: meta.offsets_len_bytes(),
            n: graph.n(),
            page_budget_bytes: page_budget,
            page_size_bytes: page_size,
            prefetch: false,
            time: result.total_time,
            peak_memory_bytes: peak,
            edge_cut: result.edge_cut,
            csr_bytes,
            phases: result.phase_reports,
            cache,
        });
    }

    // ---- Store-backend ladder: paged, paged with hint-driven readahead, and the mmap
    // fast path on the same container. Single-threaded (the reproducible regime), so
    // the cut must be identical throughout and the paged/mmap wall-time comparison
    // stays apples to apples. The 2 MiB budget is the "container fits in RAM" point —
    // mmap's home turf. ----
    let mut ladder_cut: Option<u64> = None;
    let mut ladder_times: Vec<(String, f64)> = Vec::new();
    for (backend, prefetch) in [
        (graph::store::OnDiskBackend::Paged, false),
        (graph::store::OnDiskBackend::Paged, true),
        (graph::store::OnDiskBackend::Mmap, false),
    ] {
        let is_mmap = backend == graph::store::OnDiskBackend::Mmap;
        let mut ladder_config = PartitionerConfig::terapart(16)
            .with_threads(1)
            .with_store_backend(backend)
            .with_prefetch(prefetch);
        if !is_mmap {
            ladder_config = ladder_config.with_page_budget(2 * 1024 * 1024);
            ladder_config.ondisk.page_size = page_size;
        }
        let ladder_tracker = PhaseTracker::new();
        memtrack::global().reset_peak();
        let result =
            terapart::partition_ondisk_with_tracker(&tpg_path, &ladder_config, &ladder_tracker)
                .expect("store-backend ladder run failed");
        let peak = result.peak_memory_bytes.max(ladder_tracker.overall_peak());
        match ladder_cut {
            None => ladder_cut = Some(result.edge_cut),
            Some(cut) => assert_eq!(
                result.edge_cut, cut,
                "{:?} (prefetch {}) diverged from the ladder cut",
                backend, prefetch
            ),
        }
        let label = format!(
            "{}{}",
            if is_mmap { "mmap" } else { "paged" },
            if prefetch { "+prefetch" } else { "" },
        );
        println!(
            "partition_ondisk ladder {:<20}: cut={} peak={} ({:.2}x of CSR) time={:.2}s",
            label,
            result.edge_cut,
            memtrack::format_bytes(peak),
            peak as f64 / csr_bytes as f64,
            result.total_time.as_secs_f64(),
        );
        ladder_times.push((label, result.total_time.as_secs_f64()));
        ondisk_runs.push(OndiskRun {
            backend: if is_mmap { "mmap" } else { "paged" },
            offset_index_bytes: meta.offsets_len_bytes(),
            n: graph.n(),
            page_budget_bytes: if is_mmap { 0 } else { 2 * 1024 * 1024 },
            page_size_bytes: if is_mmap { 0 } else { page_size },
            prefetch,
            time: result.total_time,
            peak_memory_bytes: peak,
            edge_cut: result.edge_cut,
            csr_bytes,
            phases: result.phase_reports,
            cache: result.cache_stats,
        });
    }
    let paged_seconds = ladder_times[0].1;
    let mmap_seconds = ladder_times[2].1;
    println!(
        "store-backend ladder: mmap {:.2}s vs paged {:.2}s ({:.2}x) at identical cut {}",
        mmap_seconds,
        paged_seconds,
        paged_seconds / mmap_seconds.max(1e-9),
        ladder_cut.unwrap_or(0),
    );

    // ---- Concurrent sessions: one engine, one shared mmap store, N simultaneous
    // single-threaded requests on their own OS threads. Each session must be
    // bit-identical to a solo run of the same request on a fresh engine, while the
    // engine's scratch pool bounds the arena count by the simultaneity level. ----
    let session_base = PartitionerConfig::terapart(16)
        .with_threads(1)
        .with_store_backend(graph::store::OnDiskBackend::Mmap);
    let engine_cfg = EngineConfig::from_partitioner(&session_base);
    let mut concurrent_runs = Vec::new();
    for sessions in [4usize, 8] {
        let requests: Vec<PartitionRequest> = (0..sessions)
            .map(|i| PartitionRequest::from_config(&session_base).with_seed(500 + i as u64))
            .collect();
        // Sequential references on fresh engines: the bit-identity anchors and the
        // single-arena memory reference point.
        let mut references = Vec::new();
        let mut sequential_seconds = 0.0f64;
        let mut single_arena_bytes = 0usize;
        for request in &requests {
            let fresh = PartitionEngine::with_config(engine_cfg.clone());
            let start = std::time::Instant::now();
            let result = fresh
                .partition_path(&tpg_path, request)
                .expect("sequential reference run failed");
            sequential_seconds += start.elapsed().as_secs_f64();
            single_arena_bytes = single_arena_bytes.max(fresh.scratch_pool().parked_bytes());
            references.push(result);
        }
        let engine = PartitionEngine::with_config(engine_cfg.clone());
        let store = engine
            .open_store(&tpg_path)
            .expect("failed to open the shared bench store");
        memtrack::global().reset_peak();
        let start = std::time::Instant::now();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|request| {
                    let engine = &engine;
                    let store = &*store;
                    scope.spawn(move || {
                        engine
                            .partition_store(store, request)
                            .expect("concurrent session failed")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("concurrent session panicked"))
                .collect()
        });
        let wall_seconds = start.elapsed().as_secs_f64();
        let peak_memory_bytes = memtrack::global().peak();
        let bit_identical = results
            .iter()
            .zip(&references)
            .all(|(run, reference)| run.partition.assignment() == reference.partition.assignment());
        assert!(
            bit_identical,
            "a concurrent session diverged from its sequential reference"
        );
        let run = ConcurrentSessionsRun {
            sessions,
            wall_seconds,
            sequential_seconds,
            pool_high_water: engine.scratch_pool().high_water(),
            pool_parked_bytes: engine.scratch_pool().parked_bytes(),
            single_arena_bytes,
            peak_memory_bytes,
            bit_identical,
        };
        println!(
            "concurrent_sessions n={}: wall {:.2}s vs sequential {:.2}s ({:.2}x), \
             pool high-water {} arenas, parked {} (single arena {}), peak {}",
            run.sessions,
            run.wall_seconds,
            run.sequential_seconds,
            run.throughput_gain(),
            run.pool_high_water,
            memtrack::format_bytes(run.pool_parked_bytes),
            memtrack::format_bytes(run.single_arena_bytes),
            memtrack::format_bytes(run.peak_memory_bytes),
        );
        concurrent_runs.push(run);
        drop(store);
    }
    std::fs::remove_dir_all(&ondisk_dir).ok();

    write_pipeline_json(
        &path,
        instance,
        &graph,
        &config,
        &tracker,
        &measurement,
        Some(&stream_ingest),
        &ondisk_runs,
        &concurrent_runs,
        &other_width_runs,
        Some(&run_report),
    )
    .expect("failed to write BENCH_pipeline.json");
    println!("wrote {}", path.display());
}
