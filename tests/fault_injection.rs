//! Fault-injection harness: the full on-disk partitioning pipeline driven over a
//! [`FaultyBackend`] under seeded fault schedules. The contract under test is the
//! tentpole guarantee of the fault-tolerant storage layer: every run either
//! completes with a partition bit-identical to the fault-free reference cut, or
//! returns a structured [`PartitionError`] — it never panics, never deadlocks,
//! never silently degrades the cut, and never leaks temporary files.

use graph::store::{stream_rgg2d_to_tpg, FaultPlan, FaultyBackend, FileBackend, TpgWriter};
use graph::traits::Graph;
use graph::{gen, NodeId, PagedGraph};
use std::time::Duration;
use terapart::{
    partition_ondisk, EngineConfig, PartitionEngine, PartitionRequest, PartitionerConfig,
    RetryPolicy, StoreHandle,
};

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "terapart_faults_it_{}_{}",
        std::process::id(),
        name
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Streams a fixed geometric instance into `dir` and returns its path.
fn make_instance(dir: &std::path::Path, n: usize, degree: usize) -> std::path::PathBuf {
    let path = dir.join("instance.tpg");
    stream_rgg2d_to_tpg(n, degree, 77, &path, dir, 4, &Default::default()).unwrap();
    path
}

/// After a fault campaign the scratch directory must hold exactly the instance
/// container — no writer temp files, no spill buckets, nothing half-published.
fn assert_no_leaked_files(dir: &std::path::Path, expected: &[&str]) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(names, expected, "fault campaign leaked files in {:?}", dir);
}

/// Opens the instance through a fault-injecting backend and partitions it.
fn partition_under_faults(
    path: &std::path::Path,
    config: &PartitionerConfig,
    plan: FaultPlan,
) -> (
    Result<terapart::PartitionResult, terapart::PartitionError>,
    std::sync::Arc<graph::store::FaultStats>,
) {
    let backend = FaultyBackend::new(FileBackend::open(path).unwrap(), plan);
    let stats = backend.stats();
    let result = match PagedGraph::open_with_backend(Box::new(backend), &config.ondisk) {
        Ok(paged) => {
            let store = StoreHandle::Paged(paged);
            let engine = PartitionEngine::with_config(EngineConfig::from_partitioner(config));
            let result = engine.partition_store(&store, &PartitionRequest::from_config(config));
            // The poison protocol is drain-once: after the driver consumed the
            // fatal error (or there was none), nothing is left behind.
            let paged = store.as_paged().expect("the handle was built as paged");
            assert!(paged.take_fatal_error().is_none());
            result
        }
        Err(e) => Err(terapart::PartitionError {
            phase: Some("open_store@0".into()),
            context: "opening the .tpg container".into(),
            source: e,
        }),
    };
    (result, stats)
}

/// Transient schedules (periodic EIO, short reads, bit flips) across several
/// seeds: each run must finish bit-identical to the fault-free cut or fail with
/// a structured error. At least one schedule must complete, faults must actually
/// fire, and completed runs must show the retry/checksum counters ticking.
#[test]
fn transient_fault_schedules_complete_identically_or_fail_structured() {
    let dir = scratch_dir("transient");
    let path = make_instance(&dir, 12_000, 16);
    // The transient plan faults roughly a third of all reads, so surviving a
    // schedule needs a deeper retry budget than the default two attempts, and a
    // page budget that covers the instance — a starved cache re-reads pages
    // tens of thousands of times, which makes eventually exhausting the retries
    // a near-certainty under this fault density. Short backoff keeps it fast.
    let mut config = PartitionerConfig::terapart(4)
        .with_threads(1)
        .with_seed(9)
        .with_retry(RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(500),
        });
    config.ondisk.page_size = 16 * 1024;
    config.ondisk.budget_bytes = 512 * 1024;
    let reference = partition_ondisk(&path, &config).unwrap();

    let mut total_faults = 0u64;
    let mut completed = 0u32;
    let mut recovered_reads = 0u64;
    for seed in 1..=6u64 {
        let (result, stats) = partition_under_faults(&path, &config, FaultPlan::transient(seed));
        match result {
            Ok(run) => {
                assert_eq!(run.edge_cut, reference.edge_cut, "seed {}", seed);
                assert_eq!(
                    run.partition.assignment(),
                    reference.partition.assignment(),
                    "faulty run (seed {}) diverged from the fault-free cut",
                    seed
                );
                let cache = run.cache_stats.expect("on-disk runs expose cache stats");
                recovered_reads += cache.retried_reads;
                completed += 1;
            }
            Err(err) => {
                // Structured failure: a display chain with context and a source.
                let msg = err.to_string();
                assert!(!err.context.is_empty(), "empty context: {}", msg);
                assert!(std::error::Error::source(&err).is_some(), "{}", msg);
            }
        }
        total_faults += stats.total();
    }
    assert!(total_faults > 0, "no faults were injected at all");
    assert!(
        completed >= 1,
        "no transient schedule completed; retries never recovered"
    );
    assert!(
        recovered_reads > 0,
        "completed runs never exercised the retry path"
    );
    assert_no_leaked_files(&dir, &["instance.tpg"]);
    std::fs::remove_dir_all(dir).ok();
}

/// A permanent outage beginning mid-pipeline: retries are exhausted, the paged
/// graph poisons itself, and the driver surfaces one structured error naming the
/// pipeline phase the outage interrupted — instead of panicking inside
/// clustering or refinement.
#[test]
fn hard_outage_mid_pipeline_returns_a_structured_error() {
    let dir = scratch_dir("outage");
    let path = make_instance(&dir, 12_000, 16);
    let mut config = PartitionerConfig::terapart(4).with_threads(1).with_seed(9);
    config.ondisk.page_size = 4 * 1024;
    config.ondisk.budget_bytes = 64 * 1024;

    let plan = FaultPlan {
        fail_reads_from: Some(64),
        ..FaultPlan::default()
    };
    let (result, stats) = partition_under_faults(&path, &config, plan);
    let err = result.expect_err("a permanent outage must fail the run");
    assert!(
        stats
            .outage_reads
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the outage never fired"
    );
    assert!(
        err.phase.is_some(),
        "outage error lost its pipeline phase: {}",
        err
    );
    let msg = err.to_string();
    assert!(msg.contains("failed in phase"), "{}", msg);
    assert_no_leaked_files(&dir, &["instance.tpg"]);
    std::fs::remove_dir_all(dir).ok();
}

/// The mmap backend front-loads every read (header, offset index, node weights and
/// the full checksummed data section) into the open, so fault schedules hit it
/// there: transient faults heal through the same per-section retry policy the
/// paged open uses — and the opened graph decodes identically to a fault-free
/// open — while a permanent outage fails the open with a structured [`IoError`],
/// never a panic. A fault-injecting backend exposes no mappable file, so the
/// verification flows through `read_at` on the heap-fallback path by design.
#[test]
fn mmap_open_path_heals_transients_and_fails_outages_structurally() {
    let dir = scratch_dir("mmap_faults");
    let path = make_instance(&dir, 12_000, 16);
    let clean = graph::MmapGraph::open(&path).unwrap();
    let options = graph::PagedGraphOptions {
        retry: RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_micros(500),
        },
        ..graph::PagedGraphOptions::default()
    };

    let mut total_faults = 0u64;
    let mut healed = 0u32;
    for seed in 1..=6u64 {
        let backend = FaultyBackend::new(
            FileBackend::open(&path).unwrap(),
            FaultPlan::transient(seed),
        );
        let stats = backend.stats();
        match graph::MmapGraph::open_with_backend(Box::new(backend), &options) {
            Ok(g) => {
                assert!(
                    !g.is_mmap(),
                    "a fault-injecting backend must route onto the heap fallback"
                );
                for u in (0..g.n() as NodeId).step_by(97) {
                    assert_eq!(g.neighbors_vec(u), clean.neighbors_vec(u), "seed {}", seed);
                }
                healed += 1;
            }
            Err(err) => {
                // Structured failure with a readable display chain.
                assert!(!err.to_string().is_empty());
            }
        }
        total_faults += stats.total();
    }
    assert!(total_faults > 0, "no faults were injected at all");
    assert!(
        healed >= 1,
        "no transient schedule healed through the open-time retries"
    );

    // A permanent outage a few reads in: retries exhaust, the open fails cleanly.
    let backend = FaultyBackend::new(
        FileBackend::open(&path).unwrap(),
        FaultPlan {
            fail_reads_from: Some(2),
            ..FaultPlan::default()
        },
    );
    let stats = backend.stats();
    let err = graph::MmapGraph::open_with_backend(Box::new(backend), &options)
        .expect_err("a permanent outage must fail the mmap open");
    assert!(
        stats
            .outage_reads
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the outage never fired"
    );
    assert!(!err.to_string().is_empty());
    std::fs::remove_dir_all(dir).ok();
}

/// Write and fsync faults during container creation surface as errors from
/// `push_neighborhood`/`finish` — never a panic, never a torn container
/// published at the destination.
#[test]
fn writer_faults_fail_cleanly() {
    let dir = scratch_dir("writer");
    let g = gen::weblike(9, 8, 5);

    // Every write fails: creation, some push, or the finish must error out —
    // the writer buffers appends, so the failure surfaces at whichever call
    // actually flushes.
    let out = dir.join("writes.tpg");
    let backend = FaultyBackend::new(
        FileBackend::create(&out).unwrap(),
        FaultPlan {
            seed: 1,
            write_fail_period: 1,
            ..FaultPlan::default()
        },
    );
    let stats = backend.stats();
    let failed = (|| -> Result<_, graph::io::IoError> {
        let mut writer = TpgWriter::create_with_backend(
            Box::new(backend),
            g.n(),
            g.is_edge_weighted(),
            &Default::default(),
        )?;
        for u in 0..g.n() as NodeId {
            let mut nbrs = g.neighbors_vec(u);
            nbrs.sort_unstable_by_key(|&(v, _)| v);
            writer.push_neighborhood(u, &nbrs, g.node_weight(u))?;
        }
        writer.finish()
    })()
    .expect_err("every write fails; the container cannot be committed");
    assert!(!failed.to_string().is_empty());
    assert!(
        stats
            .write_failures
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );

    // Fsync failure at commit time: data writes succeed, finish still errors.
    let out2 = dir.join("sync.tpg");
    let backend = FaultyBackend::new(
        FileBackend::create(&out2).unwrap(),
        FaultPlan {
            seed: 2,
            sync_fail_period: 1,
            ..FaultPlan::default()
        },
    );
    let stats = backend.stats();
    let mut writer = TpgWriter::create_with_backend(
        Box::new(backend),
        g.n(),
        g.is_edge_weighted(),
        &Default::default(),
    )
    .unwrap();
    for u in 0..g.n() as NodeId {
        let mut nbrs = g.neighbors_vec(u);
        nbrs.sort_unstable_by_key(|&(v, _)| v);
        writer
            .push_neighborhood(u, &nbrs, g.node_weight(u))
            .unwrap();
    }
    writer
        .finish()
        .expect_err("a failing fsync must fail the commit");
    assert!(
        stats
            .sync_failures
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );

    std::fs::remove_dir_all(dir).ok();
}
