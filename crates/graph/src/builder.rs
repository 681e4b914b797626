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
//! ([`GraphWriter`], over a [`memtrack::ReservedVec`]), mirroring the paper's use of
//! virtual-memory overcommitment. [`commit_in_packet_order`] is the protocol on its own:
//! one-pass contraction writes each coarse graph through it too.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::compressed::{CompressedGraph, CompressionConfig, GraphWriter, SectionEncoder};
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
    let target = (2 * csr.m() / (num_threads.max(1) * 8)).max(1024);
    let writer = GraphWriter::new(
        csr.n(),
        compressed_size_upper_bound(csr),
        csr.is_edge_weighted(),
        csr.heaviest_node(),
        config,
    );
    let writer = commit_in_packet_order(
        writer,
        &make_packets(csr, target),
        num_threads,
        Vec::new,
        |packet, nbrs, encoder| {
            for u in packet.begin..packet.end {
                nbrs.clear();
                csr.for_each_neighbor(u, &mut |v, w| nbrs.push((v, w)));
                nbrs.sort_unstable_by_key(|&(v, _)| v);
                encoder.push_neighborhood(u, nbrs, csr.node_weight(u));
            }
        },
    );
    writer.finish().0
}

/// The committing end of [`commit_in_packet_order`], behind its lock.
struct Committer {
    writer: GraphWriter,
    /// The packet to commit next.
    next: usize,
    /// Encoded packets that finished before their turn, with their indices.
    parked: Vec<(usize, SectionEncoder)>,
    /// Encoders of committed parked packets, for the next worker that parks one.
    spare: Vec<SectionEncoder>,
    /// A worker panicked: the others stop.
    aborted: bool,
}

impl Committer {
    /// Commits `encoder`, packet `next`, then every parked packet whose turn follows.
    fn commit(&mut self, encoder: &SectionEncoder) {
        self.writer.commit(encoder);
        self.next += 1;
        while let Some(i) = self
            .parked
            .iter()
            .position(|&(index, _)| index == self.next)
        {
            let (_, parked) = self.parked.swap_remove(i);
            self.writer.commit(&parked);
            self.next += 1;
            self.spare.push(parked);
        }
    }
}

/// Marks the run aborted when its worker unwinds.
struct AbortOnPanic<'a>(&'a Mutex<Committer>);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
        }
    }
}

/// The ordered packet commit (paper §III-B): `threads` workers claim `packets` one at a
/// time, each encodes its packet with `encode` into an encoder of its own (restarted at
/// the packet's first vertex; `state` is the worker's, built once by `worker_state`), and
/// the packets are committed to `writer` in packet order. A packet finished before its
/// turn is parked, and its worker goes on with the next one, while fewer than `2 ·
/// threads` are parked; whoever commits a packet commits the parked ones that follow it.
/// The packets must cover the vertices in order; the committed bytes are those of one
/// sequential pass, whatever the number of threads. At one thread the caller runs
/// everything; a panicking worker makes the others stop and the panic propagates.
pub fn commit_in_packet_order<S>(
    writer: GraphWriter,
    packets: &[Packet],
    threads: usize,
    worker_state: impl Fn() -> S + Sync,
    encode: impl Fn(Packet, &mut S, &mut SectionEncoder) + Sync,
) -> GraphWriter {
    let parked_limit = 2 * threads.max(1);
    let committer = Mutex::new(Committer {
        writer,
        next: 0,
        parked: Vec::new(),
        spare: Vec::new(),
        aborted: false,
    });
    let next_packet = AtomicUsize::new(0);
    let work = || {
        let _abort = AbortOnPanic(&committer);
        let mut state = worker_state();
        let mut encoder = committer.lock().writer.encoder();
        loop {
            let index = next_packet.fetch_add(1, Ordering::Relaxed);
            let Some(&packet) = packets.get(index) else {
                return;
            };
            encoder.restart(packet.begin as usize);
            encode(packet, &mut state, &mut encoder);
            loop {
                let mut committer = committer.lock();
                if committer.aborted {
                    return;
                }
                if committer.next == index {
                    committer.commit(&encoder);
                    break;
                }
                if committer.parked.len() < parked_limit {
                    let spare = match committer.spare.pop() {
                        Some(spare) => spare,
                        None => committer.writer.encoder(),
                    };
                    committer
                        .parked
                        .push((index, std::mem::replace(&mut encoder, spare)));
                    break;
                }
                drop(committer);
                std::thread::yield_now();
            }
        }
    };
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            work();
            // Joined here, a worker's panic propagates with its own payload.
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }
    let committer = committer.into_inner();
    debug_assert!(committer.parked.is_empty());
    committer.writer
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
    #[should_panic(expected = "packet 5 fails")]
    fn a_panicking_worker_stops_the_others_and_the_panic_propagates() {
        let g = gen::grid2d(40, 40);
        let writer = GraphWriter::new(
            g.n(),
            compressed_size_upper_bound(&g),
            false,
            None,
            &CompressionConfig::default(),
        );
        let packets = make_packets(&g, 16);
        assert!(packets.len() > 20);
        commit_in_packet_order(
            writer,
            &packets,
            3,
            || (),
            |packet, _, encoder| {
                if packet == packets[5] {
                    panic!("packet 5 fails");
                }
                for u in packet.begin..packet.end {
                    encoder.push_neighborhood(u, &g.neighbors_vec(u), 1);
                }
            },
        );
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
