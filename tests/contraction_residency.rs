//! One-pass contraction reserves the bytes of its coarse graph for the upper bound of `2m`
//! encoded half-edges — a gap and a weight delta of at most `reserved_bytes`' VarInt
//! lengths each — and must leave the part it never writes non-resident (paper §IV-B2).
//! This
//! reads the process's resident set around one contraction, so it is the only `#[test]`
//! of its binary: a sibling test allocating concurrently would move the reading.

#[cfg(target_os = "linux")]
fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("no /proc/self/status");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmRSS:"))
        .expect("no VmRSS line in /proc/self/status");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|value| value.parse().ok())
        .expect("unparsable VmRSS line");
    kib * 1024
}

#[test]
#[cfg(target_os = "linux")]
fn one_pass_contraction_backs_only_the_edges_it_writes() {
    use graph::gen;
    use graph::traits::Graph;
    use terapart::coarsening::{cluster, contract_with_scratch, reserved_bytes};
    use terapart::context::{CoarseningConfig, ContractionAlgorithm};
    use terapart::HierarchyScratch;

    let graph = gen::rgg2d(100_000, 8, 5);
    let config = CoarseningConfig::default();
    let clustering = cluster(&graph, &config, 64, 11);
    assert!(
        clustering.num_clusters < graph.n() / 4,
        "the instance must shrink for the reservation to dwarf the coarse graph"
    );
    let mut scratch = HierarchyScratch::new();

    let before = resident_bytes();
    let result = contract_with_scratch(
        &graph,
        &clustering,
        ContractionAlgorithm::OnePass,
        config.bump_threshold,
        64,
        &mut scratch,
    );
    let after = resident_bytes();

    let reservation = reserved_bytes(&graph, clustering.num_clusters);
    let growth = after.saturating_sub(before);
    println!(
        "reserved {reservation} B for 2m = {} half-edges, wrote {} half-edges in {} B, \
         resident set grew by {growth} B",
        2 * graph.m(),
        2 * result.coarse.m(),
        result.coarse.size_in_bytes()
    );
    assert!(
        growth < reservation / 4,
        "contracting to {} of {} reserved half-edges grew the resident set by {growth} B, \
         reservation {reservation} B",
        2 * result.coarse.m(),
        2 * graph.m()
    );
}
