//! Integration tests of graph I/O, streaming compression and the memory accounting
//! working together across crates. (Tests that read `memtrack::global()` directly live
//! in `global_memtrack.rs`, where they own their process.)
use graph::traits::Graph;
use graph::{gen, io, CompressionConfig};
use terapart::{partition, PartitionerConfig};

/// Write a graph in METIS format, stream-compress it back in, and partition the result.
#[test]
fn metis_roundtrip_then_partition() {
    let graph = gen::rhg_like(1_500, 10, 3.0, 8);
    let mut path = std::env::temp_dir();
    path.push(format!("terapart_integration_{}.graph", std::process::id()));
    io::write_metis(&graph, &path).unwrap();
    let compressed = io::read_metis_compressed(&path, &CompressionConfig::default()).unwrap();
    assert_eq!(compressed.n(), graph.n());
    assert_eq!(compressed.m(), graph.m());
    let result = partition(&compressed, &PartitionerConfig::terapart(4).with_threads(2));
    assert!(result.partition.is_balanced());
    assert!(result.edge_cut > 0);
    std::fs::remove_file(path).ok();
}

/// The run's phase reports attribute memory to every pipeline stage and its overall peak
/// bounds each individual phase peak.
#[test]
fn phase_tracking_covers_the_whole_pipeline() {
    let graph = gen::grid2d(60, 60);
    let config = PartitionerConfig::terapart(8).with_threads(2);
    let result = terapart::partition_csr(&graph, &config);
    let reports = &result.phase_reports;
    assert!(reports.len() >= 4);
    let overall = result.peak_memory_bytes;
    for report in reports {
        assert!(report.peak_bytes <= overall);
        assert!(report.peak_bytes >= report.bytes_at_entry);
    }
}
