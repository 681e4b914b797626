//! Parallel single-pass compression with ordered packet commit (paper §III-B).
//!
//! Compressing the graph in parallel poses a prefix-sum problem: the byte position of a
//! neighbourhood in the output array depends on the compressed sizes of all preceding
//! neighbourhoods, which are unknown until they have been compressed. The paper's
//! solution — reproduced here — is to have threads compress *packets* of consecutive
//! vertices (balanced by edge count) into thread-local buffers and then commit the
//! buffers to the shared output array in packet order, so the data is compressed exactly
//! once and written exactly once. The output array is over-reserved with a worst-case
//! bound and only committed bytes are charged to the memory accounting
//! ([`memtrack::ReservedVec`]), mirroring the paper's use of virtual-memory
//! overcommitment.

use std::sync::atomic::{AtomicUsize, Ordering};

use memtrack::ReservedVec;
use parking_lot::Mutex;

use crate::compressed::{CompressedGraph, CompressionConfig, EncodedSection, SectionEncoder};
use crate::csr::CsrGraph;
use crate::traits::Graph;
use crate::varint::MAX_VARINT_LEN;
use crate::NodeId;

/// A contiguous range of vertices processed by one thread at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// First vertex of the packet (inclusive).
    pub begin: NodeId,
    /// One past the last vertex of the packet (exclusive).
    pub end: NodeId,
}

/// Splits the vertices of `graph` into packets containing roughly `target_edges_per_packet`
/// half-edges each, so that packet compression work is balanced even on skewed graphs.
pub fn make_packets(graph: &impl Graph, target_edges_per_packet: usize) -> Vec<Packet> {
    let n = graph.n();
    let mut packets = Vec::new();
    let mut begin: NodeId = 0;
    let mut edges_in_packet = 0usize;
    for u in 0..n as NodeId {
        edges_in_packet += graph.degree(u);
        let is_last = u as usize + 1 == n;
        if edges_in_packet >= target_edges_per_packet || is_last {
            packets.push(Packet { begin, end: u + 1 });
            begin = u + 1;
            edges_in_packet = 0;
        }
    }
    if n == 0 {
        packets.push(Packet { begin: 0, end: 0 });
    }
    packets
}

/// Upper bound on the number of bytes the compressed form of `graph` can occupy.
///
/// Every gap/interval/weight entry occupies at most [`MAX_VARINT_LEN`] bytes, and every
/// vertex has its degree and interval count in front. This is the "requested"
/// (reserved) size; only the bytes that are actually written end up committed.
pub fn compressed_size_upper_bound(graph: &impl Graph) -> usize {
    let n = graph.n();
    let half_edges = 2 * graph.m();
    let per_edge = if graph.is_edge_weighted() {
        2 * MAX_VARINT_LEN
    } else {
        MAX_VARINT_LEN
    };
    n * 2 * MAX_VARINT_LEN + half_edges * per_edge
}

/// Compresses `csr` into a [`CompressedGraph`] using `num_threads` worker threads and the
/// ordered packet-commit protocol described in the paper.
///
/// The output is byte-for-byte identical to the sequential
/// [`CompressedGraph::from_csr`], which the tests assert.
pub fn compress_csr_parallel(
    csr: &CsrGraph,
    config: &CompressionConfig,
    num_threads: usize,
) -> CompressedGraph {
    let n = csr.n();
    let target = (2 * csr.m() / (num_threads.max(1) * 8)).max(1024);
    let packets = make_packets(csr, target);
    let num_packets = packets.len();

    let upper_bound = compressed_size_upper_bound(csr);
    let output = Mutex::new((
        ReservedVec::with_reservation(upper_bound),
        EncodedSection::with_capacity(0, n),
    ));
    let next_packet = AtomicUsize::new(0);
    let next_commit = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..num_threads.max(1) {
            scope.spawn(|| {
                loop {
                    let packet_idx = next_packet.fetch_add(1, Ordering::Relaxed);
                    if packet_idx >= num_packets {
                        break;
                    }
                    let packet = packets[packet_idx];
                    // Compress the packet into a thread-local section.
                    let mut encoder =
                        SectionEncoder::new(packet.begin, csr.is_edge_weighted(), config);
                    for u in packet.begin..packet.end {
                        let mut nbrs = csr.neighbors_vec(u);
                        nbrs.sort_unstable_by_key(|&(v, _)| v);
                        encoder.push_neighborhood(u, &nbrs, csr.node_weight(u));
                    }
                    let section = encoder.section;
                    // Wait until all preceding packets have committed, then append.
                    while next_commit.load(Ordering::Acquire) != packet_idx {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                    {
                        let (data, totals) = &mut *output.lock();
                        data.extend_from_slice(&section.bytes);
                        totals.absorb(&section);
                    }
                    next_commit.store(packet_idx + 1, Ordering::Release);
                }
            });
        }
    });

    let (data, totals) = output.into_inner();
    totals.into_graph(
        data.into_vec(),
        csr.is_edge_weighted(),
        csr.is_node_weighted(),
        config.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn assert_equal_compression(csr: &CsrGraph, config: &CompressionConfig, threads: usize) {
        let sequential = CompressedGraph::from_csr(csr, config);
        let parallel = compress_csr_parallel(csr, config, threads);
        assert_eq!(
            sequential.encoded_data_bytes(),
            parallel.encoded_data_bytes()
        );
        assert_eq!(sequential.n(), parallel.n());
        assert_eq!(sequential.m(), parallel.m());
        for u in 0..csr.n() as NodeId {
            assert_eq!(sequential.degree(u), parallel.degree(u));
            assert_eq!(sequential.neighbors_vec(u), parallel.neighbors_vec(u));
        }
    }

    #[test]
    fn parallel_matches_sequential_on_grid() {
        let g = gen::grid2d(40, 40);
        assert_equal_compression(&g, &CompressionConfig::default(), 4);
    }

    #[test]
    fn parallel_matches_sequential_on_skewed_graph() {
        let g = gen::rhg_like(3000, 10, 3.0, 17);
        assert_equal_compression(&g, &CompressionConfig::default(), 3);
        let weighted = gen::with_random_edge_weights(&g, 100, 5);
        assert_equal_compression(&weighted, &CompressionConfig::default(), 2);
    }

    #[test]
    fn parallel_matches_sequential_on_a_hub() {
        let degree = 12_345;
        for weighted in [false, true] {
            let g = crate::compressed::tests::hub_graph(
                degree,
                &crate::compressed::tests::HUB_RUNS,
                1,
                weighted,
            );
            assert_equal_compression(&g, &CompressionConfig::default(), 4);
        }
    }

    #[test]
    fn single_thread_works() {
        let g = gen::erdos_renyi(200, 600, 3);
        assert_equal_compression(&g, &CompressionConfig::default(), 1);
    }

    #[test]
    fn packets_cover_all_vertices_without_overlap() {
        let g = gen::rhg_like(1000, 12, 3.0, 9);
        let packets = make_packets(&g, 256);
        assert!(packets.len() > 1);
        assert_eq!(packets[0].begin, 0);
        assert_eq!(packets.last().unwrap().end as usize, g.n());
        for w in packets.windows(2) {
            assert_eq!(w[0].end, w[1].begin);
            assert!(w[0].begin < w[0].end);
        }
    }

    #[test]
    fn packets_are_balanced_by_edges() {
        let g = gen::grid2d(50, 50);
        let packets = make_packets(&g, 500);
        for p in &packets[..packets.len() - 1] {
            let edges: usize = (p.begin..p.end).map(|u| g.degree(u)).sum();
            assert!(edges >= 500, "packet with only {} edges", edges);
            assert!(edges <= 500 + g.max_degree());
        }
    }

    #[test]
    fn upper_bound_is_an_upper_bound() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(300, 1500, seed);
            let config = CompressionConfig::default();
            let bound = compressed_size_upper_bound(&g);
            let actual = CompressedGraph::from_csr(&g, &config).encoded_data_bytes();
            assert!(actual <= bound, "{} > {}", actual, bound);
        }
    }

    #[test]
    fn empty_graph_compresses() {
        let g = crate::csr::CsrGraphBuilder::new(0).build();
        let c = compress_csr_parallel(&g, &CompressionConfig::default(), 2);
        assert_eq!(c.n(), 0);
        assert_eq!(c.m(), 0);
    }
}
