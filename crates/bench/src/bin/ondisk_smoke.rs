//! CI smoke test of the external-memory path: stream a small instance into a `.tpg`
//! container in a temp directory, run `partition_ondisk` at a page budget far below the
//! instance size, and assert that (a) the uncompressed CSR exceeds the page budget, (b)
//! the peak accounted memory stays below the uncompressed CSR byte size, and (c) the
//! result is a complete, balanced partition. Then exercise the concurrent
//! external-memory path end to end: (d) the streamed ingest, whose time is printed,
//! must reproduce the materialised container byte for byte, and (e) paged at the
//! default and at 4 KiB pages and mmap reach one identical cut on the one container
//! format, and every paged run read and checksummed exactly the pages it missed
//! (`verified_bytes == bytes_read == misses · page`, the last page of the data section
//! short). Exits non-zero on any violation, so CI fails loudly.
//!
//! Usage: `ondisk_smoke [dir]` (default: a fresh temp directory, removed afterwards).

use graph::store::{read_tpg_meta, stream_rgg2d_to_tpg, CacheStatsSnapshot};
use graph::CompressionConfig;
use terapart::{partition_ondisk, PartitionerConfig};

/// Prints what the page cache of one paged run read and checksummed, in total and per
/// miss, and asserts that a miss reads and verifies its own page and nothing else:
/// `verified_bytes == bytes_read`, and `bytes_read` is `misses` whole pages less, for
/// each miss of the short last page of a `data_len`-byte section, what that page lacks.
fn report_read_amplification(label: &str, cache: &CacheStatsSnapshot, data_len: u64) {
    let page = cache.page_size;
    let per_miss = |bytes: u64| bytes as f64 / cache.misses.max(1) as f64;
    println!(
        "{:<18} store reads: page={} misses={} bytes_read={} ({:.2} pages/miss) verified_bytes={} ({:.2} pages/miss)",
        label,
        page,
        cache.misses,
        cache.bytes_read,
        per_miss(cache.bytes_read) / page as f64,
        cache.verified_bytes,
        per_miss(cache.verified_bytes) / page as f64
    );
    // The shortfall against whole pages must be a whole number of last-page misses.
    let last_page_lacks = (page - data_len % page) % page;
    let exact = match (cache.misses * page).checked_sub(cache.bytes_read) {
        Some(0) => true,
        Some(short) => {
            last_page_lacks > 0
                && short % last_page_lacks == 0
                && short / last_page_lacks <= cache.misses
        }
        None => false,
    };
    assert!(
        cache.verified_bytes == cache.bytes_read && exact,
        "SMOKE FAIL: {} run read or verified more than the {}-byte pages it missed: {:?}",
        label,
        page,
        cache
    );
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("terapart_ondisk_smoke_{}", std::process::id()))
        });
    std::fs::create_dir_all(&dir).expect("failed to create the smoke directory");
    // Geometric instance: dense enough that the CSR size dominates the pipeline's O(n)
    // auxiliary structures, and localized enough that coarse graphs shrink fast — the
    // regime where the "peak < CSR" assertion is meaningful.
    let (n, avg_deg, seed, buckets) = (40_000, 20, 99, 16);
    let path = dir.join("smoke_streamed.tpg");
    let ingest = std::time::Instant::now();
    stream_rgg2d_to_tpg(
        n,
        avg_deg,
        seed,
        &path,
        dir.join("spill"),
        buckets,
        &CompressionConfig::default(),
    )
    .expect("failed to generate the smoke instance");
    let ingest_s = ingest.elapsed().as_secs_f64();
    let meta = read_tpg_meta(&path).expect("failed to read instance header");
    let csr_bytes = meta.csr_size_in_bytes();
    let container_bytes = std::fs::metadata(&path).unwrap().len();
    let page_budget = 256 * 1024;
    println!(
        "instance: rgg2d(n={}, d={}, seed={}) (CSR {}, container {}), page budget {}",
        n,
        avg_deg,
        seed,
        memtrack::format_bytes(csr_bytes),
        memtrack::format_bytes(container_bytes as usize),
        memtrack::format_bytes(page_budget)
    );
    println!(
        "streamed ingest: {:.3}s for {} half-edges over {} buckets (sample + spill + finish)",
        ingest_s,
        2 * meta.m,
        buckets
    );
    assert!(
        csr_bytes > page_budget,
        "SMOKE FAIL: instance CSR ({} B) does not exceed the page budget ({} B)",
        csr_bytes,
        page_budget
    );

    let config = PartitionerConfig::terapart(16)
        .with_threads(2)
        .with_seed(1)
        .with_page_budget(page_budget);
    let result = partition_ondisk(&path, &config).expect("on-disk run failed");
    let peak = result.peak_memory_bytes;
    println!(
        "cut={} balanced={} peak={} ({:.2}x of CSR) time={:.2}s",
        result.edge_cut,
        result.partition.is_balanced(),
        memtrack::format_bytes(peak),
        peak as f64 / csr_bytes as f64,
        result.total_time.as_secs_f64()
    );
    let mut by_peak = result.phase_reports.clone();
    by_peak.sort_by_key(|r| std::cmp::Reverse(r.peak_bytes));
    for r in by_peak.iter().take(6) {
        println!(
            "  phase {:<18} level {:<2} peak {:>12} (aux {:>12})",
            r.name,
            r.level,
            memtrack::format_bytes(r.peak_bytes),
            memtrack::format_bytes(r.auxiliary_bytes())
        );
    }
    assert!(
        result.partition.is_complete(),
        "SMOKE FAIL: incomplete partition"
    );
    assert!(
        result.partition.is_balanced(),
        "SMOKE FAIL: imbalanced partition"
    );
    assert!(
        peak < csr_bytes,
        "SMOKE FAIL: peak accounted memory {} B is not below the uncompressed CSR size {} B",
        peak,
        csr_bytes
    );

    // ---- Streamed-ingest byte-identity: the external builder (spill → aggregate and
    // encode bucket by bucket) must reproduce the materialised container exactly:
    // compare it against a container written from the fully materialised in-memory
    // graph. ----
    let materialized = dir.join("smoke_materialized.tpg");
    graph::store::write_tpg_from_graph(
        &graph::gen::rgg2d(n, avg_deg, seed),
        &materialized,
        &CompressionConfig::default(),
    )
    .expect("failed to write the materialised reference container");
    assert_eq!(
        std::fs::read(&path).expect("read streamed container"),
        std::fs::read(&materialized).expect("read materialised container"),
        "SMOKE FAIL: streamed-ingest container is not byte-identical to the materialised one"
    );
    println!("streamed ingest byte-identical to the materialised container");

    report_read_amplification(
        "paged t2",
        &result.cache_stats.expect("on-disk runs expose cache stats"),
        meta.data_len,
    );
    // ---- Store-backend ladder (single-threaded, the bit-reproducible regime): paged at
    // the default and at 4 KiB pages and mmap must produce the *identical* cut — and
    // the Elias-Fano offset index must undercut what plain u64 offsets would cost. ----
    use graph::store::OnDiskBackend;
    let plain_offset_bytes = 8 * (meta.n as u64 + 1);
    println!(
        "offset index: elias-fano {} B vs {} B as plain u64s",
        meta.offsets_len_bytes(),
        plain_offset_bytes
    );
    assert!(
        meta.offsets_len_bytes() < plain_offset_bytes,
        "SMOKE FAIL: Elias-Fano offset index ({} B) is not smaller than 8·(n+1) = {} B",
        meta.offsets_len_bytes(),
        plain_offset_bytes
    );
    let ladder_base = config.clone().with_threads(1);
    let mut small_pages = ladder_base.clone();
    small_pages.ondisk.page_size = 4 * 1024;
    let mut ladder_cut: Option<u64> = None;
    for (label, ladder_config) in [
        ("paged", ladder_base.clone()),
        ("paged 4 KiB", small_pages),
        (
            "mmap",
            ladder_base.clone().with_store_backend(OnDiskBackend::Mmap),
        ),
    ] {
        let run = partition_ondisk(&path, &ladder_config)
            .unwrap_or_else(|e| panic!("SMOKE FAIL: ladder run {} failed: {}", label, e));
        println!(
            "ladder {:<16}: cut={} time={:.2}s",
            label,
            run.edge_cut,
            run.total_time.as_secs_f64()
        );
        assert!(
            run.partition.is_complete() && run.partition.is_balanced(),
            "SMOKE FAIL: ladder run {} produced an invalid partition",
            label
        );
        if let Some(cache) = &run.cache_stats {
            report_read_amplification(label, cache, meta.data_len);
        }
        match ladder_cut {
            None => ladder_cut = Some(run.edge_cut),
            Some(cut) => assert_eq!(
                run.edge_cut, cut,
                "SMOKE FAIL: ladder run {} diverged from the common cut",
                label
            ),
        }
    }
    println!(
        "store-backend ladder: identical cut {} across all three runs",
        ladder_cut.unwrap()
    );

    // ---- Engine/session smoke: one engine serving 8 sessions against a single
    // shared mmap store must (a) deduplicate the open (the registry returns the same
    // Arc), (b) reproduce each session's sequential single-session cut, and (c) keep
    // the pooled scratch-arena footprint below 8 independent arenas — arenas scale
    // with *simultaneity*, not with request count. ----
    use std::sync::Arc;
    use terapart::{EngineConfig, PartitionEngine, PartitionRequest};
    const SESSIONS: usize = 8;
    const RUNNERS: usize = 4; // 4 threads x 2 requests each: simultaneity < sessions
    let mut engine_cfg = EngineConfig::from_partitioner(&ladder_base);
    engine_cfg.ondisk.backend = OnDiskBackend::Mmap;
    let engine = Arc::new(PartitionEngine::with_config(engine_cfg.clone()));
    let store = engine.open_store(&path).expect("engine open failed");
    let reopened = engine.open_store(&path).expect("engine re-open failed");
    assert!(
        Arc::ptr_eq(&store, &reopened),
        "SMOKE FAIL: the registry did not return the same Arc for a repeated open"
    );
    assert_eq!(engine.registry().open_count(), 1);

    // Sequential references: one fresh engine per request, so every run pays for its
    // own arena — the baseline the pooled run must beat.
    let requests: Vec<PartitionRequest> = (0..SESSIONS)
        .map(|i| PartitionRequest::from_config(&ladder_base).with_seed(1000 + i as u64))
        .collect();
    let mut sequential_cuts = Vec::new();
    let mut single_arena_bytes = 0usize;
    for request in &requests {
        let fresh = PartitionEngine::with_config(engine_cfg.clone());
        let run = fresh
            .partition_path(&path, request)
            .expect("sequential reference run failed");
        single_arena_bytes = single_arena_bytes.max(fresh.scratch_pool().parked_bytes());
        sequential_cuts.push(run.edge_cut);
    }

    let concurrent_cuts: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for runner in 0..RUNNERS {
            let engine = Arc::clone(&engine);
            let store = Arc::clone(&store);
            let requests = &requests;
            handles.push(scope.spawn(move || {
                let mut cuts = Vec::new();
                for i in (runner..SESSIONS).step_by(RUNNERS) {
                    let run = engine
                        .partition_store(&store, &requests[i])
                        .expect("concurrent session failed");
                    cuts.push((i, run.edge_cut));
                }
                cuts
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    for &(i, cut) in &concurrent_cuts {
        assert_eq!(
            cut, sequential_cuts[i],
            "SMOKE FAIL: concurrent session {} diverged from its sequential run",
            i
        );
    }
    let pool = engine.scratch_pool();
    println!(
        "engine: {} sessions on one store, arena high-water {} (pooled {} vs {} for 8 independent arenas)",
        SESSIONS,
        pool.high_water(),
        memtrack::format_bytes(pool.parked_bytes()),
        memtrack::format_bytes(SESSIONS * single_arena_bytes)
    );
    assert!(
        pool.high_water() <= RUNNERS,
        "SMOKE FAIL: arena high-water {} exceeds the {} simultaneous runners",
        pool.high_water(),
        RUNNERS
    );
    assert!(
        pool.parked_bytes() < SESSIONS * single_arena_bytes,
        "SMOKE FAIL: pooled arena bytes {} not below 8 independent arenas {}",
        pool.parked_bytes(),
        SESSIONS * single_arena_bytes
    );

    println!("ondisk smoke OK");
    // Best-effort cleanup when we created the temp directory ourselves.
    drop((store, reopened));
    if std::env::args().nth(1).is_none() {
        std::fs::remove_dir_all(dir).ok();
    } else {
        std::fs::remove_file(materialized).ok();
    }
}
