//! Robustness properties of the two input formats, in the spirit of `corruption.rs`.
//!
//! Every format has one reader (`graph::io`), and every way into the library goes through
//! it: the CSR reader (`read_X`), the compressing reader (`read_X_compressed`), the
//! `.tpg` converter (`write_tpg_from_X`, read back with `read_tpg`) and, for the binary
//! format, the bare vertex stream (`BinaryReader::for_each_vertex`). The properties:
//! for any single flipped byte or truncation of a valid file, and for hand-made files
//! of each kind of damage, every reader of the format returns the same graph or every
//! reader returns an `IoError`. No reader panics, and none
//! returns a graph with a neighbour id ≥ n, a self-loop, a one-sided edge or totals that
//! disagree with its neighbourhoods. They run at both id widths via `wide-ids`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use graph::io::{
    read_binary, read_binary_compressed, read_metis, read_metis_compressed, write_binary,
    write_metis, BinaryReader, IoError,
};
use graph::store::{read_tpg, write_tpg_from_binary, write_tpg_from_metis, TpgSummary};
use graph::traits::Graph;
use graph::{gen, CompressionConfig, CsrGraph, EdgeWeight, NodeId, NodeWeight};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Metis,
    Binary,
}

/// A graph as plain values: node weights and sorted neighbourhoods.
#[derive(Debug, PartialEq, Eq)]
struct Plain {
    node_weights: Vec<NodeWeight>,
    neighborhoods: Vec<Vec<(NodeId, EdgeWeight)>>,
}

/// Checks that the neighbourhoods form a graph — ids below n, no self-loop, every
/// `(u, v, w)` matched by a `(v, u, w)` — and returns them sorted.
fn plain(
    node_weights: Vec<NodeWeight>,
    mut neighborhoods: Vec<Vec<(NodeId, EdgeWeight)>>,
) -> Plain {
    let n = neighborhoods.len();
    let mut balance: HashMap<(NodeId, NodeId, EdgeWeight), i64> = HashMap::new();
    for (u, nbrs) in neighborhoods.iter_mut().enumerate() {
        nbrs.sort_unstable();
        for &(v, w) in nbrs.iter() {
            assert!(
                (v as usize) < n,
                "vertex {} has neighbour {} >= n = {}",
                u,
                v,
                n
            );
            assert_ne!(v as usize, u, "self-loop at vertex {}", u);
            let u = u as NodeId;
            *balance.entry((u.min(v), u.max(v), w)).or_default() += if u < v { 1 } else { -1 };
        }
    }
    assert!(
        balance.values().all(|&count| count == 0),
        "a reader returned a one-sided edge"
    );
    Plain {
        node_weights,
        neighborhoods,
    }
}

/// A reader's graph as plain values, after checking that the totals it reports add up.
fn from_graph(g: &impl Graph) -> Plain {
    let neighborhoods: Vec<_> = (0..g.n() as NodeId).map(|u| g.neighbors_vec(u)).collect();
    let node_weights: Vec<_> = (0..g.n() as NodeId).map(|u| g.node_weight(u)).collect();
    let half_edges: usize = neighborhoods.iter().map(Vec::len).sum();
    let edge_weight: EdgeWeight = neighborhoods.iter().flatten().map(|&(_, w)| w).sum();
    assert_eq!(2 * g.m(), half_edges, "m disagrees with the neighbourhoods");
    assert_eq!(2 * g.total_edge_weight(), edge_weight, "edge-weight total");
    assert_eq!(
        g.total_node_weight(),
        node_weights.iter().sum::<NodeWeight>()
    );
    let max_degree = neighborhoods.iter().map(Vec::len).max().unwrap_or(0);
    assert_eq!(g.max_degree(), max_degree, "max degree");
    plain(node_weights, neighborhoods)
}

fn tmp_path(ext: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "terapart_input_formats_{}_{}.{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
        ext
    ))
}

/// Converts `src` to a `.tpg` and reads that back; a failed conversion publishes nothing.
fn via_tpg(
    src: &Path,
    convert: impl Fn(&Path, &Path, &CompressionConfig) -> Result<TpgSummary, IoError>,
) -> Result<Plain, IoError> {
    let dst = src.with_extension("tpg");
    let result = convert(src, &dst, &CompressionConfig::default());
    let read = result.and_then(|_| read_tpg(&dst)).map(|g| from_graph(&g));
    if read.is_err() {
        assert!(!dst.exists(), "a failed conversion left a container behind");
    }
    std::fs::remove_file(&dst).ok();
    read
}

/// The bare vertex stream of the binary reader.
fn streamed(src: &Path) -> Result<Plain, IoError> {
    let reader = BinaryReader::open(src)?;
    let (mut node_weights, mut neighborhoods) = (Vec::new(), Vec::new());
    reader.for_each_vertex(&mut |_, w, nbrs| {
        node_weights.push(w);
        neighborhoods.push(nbrs.to_vec());
        Ok(())
    })?;
    Ok(plain(node_weights, neighborhoods))
}

/// Every reader of `format` on `bytes`, by name.
fn read_all(format: Format, bytes: &[u8]) -> Vec<(&'static str, Result<Plain, IoError>)> {
    let config = CompressionConfig::default();
    let src = tmp_path(match format {
        Format::Metis => "graph",
        Format::Binary => "bin",
    });
    std::fs::write(&src, bytes).unwrap();
    let answers = match format {
        Format::Metis => vec![
            ("read_metis", read_metis(&src).map(|g| from_graph(&g))),
            (
                "read_metis_compressed",
                read_metis_compressed(&src, &config).map(|g| from_graph(&g)),
            ),
            (
                "write_tpg_from_metis",
                via_tpg(&src, |s, d, c| write_tpg_from_metis(s, d, c)),
            ),
        ],
        Format::Binary => vec![
            ("read_binary", read_binary(&src).map(|g| from_graph(&g))),
            (
                "read_binary_compressed",
                read_binary_compressed(&src, &config).map(|g| from_graph(&g)),
            ),
            (
                "write_tpg_from_binary",
                via_tpg(&src, |s, d, c| write_tpg_from_binary(s, d, c)),
            ),
            ("BinaryReader (stream)", streamed(&src)),
        ],
    };
    std::fs::remove_file(&src).ok();
    answers
}

/// Asserts that every reader returned the same graph, or every reader an error;
/// returns the graph.
fn agreed(format: Format, bytes: &[u8], what: &str) -> Option<Plain> {
    let mut answers = read_all(format, bytes).into_iter();
    let (first_name, first) = answers.next().unwrap();
    for (name, answer) in answers {
        match (&first, &answer) {
            (Ok(a), Ok(b)) => assert!(
                a == b,
                "{}: {} and {} read different graphs",
                what,
                first_name,
                name
            ),
            (Err(_), Err(_)) => {}
            _ => panic!(
                "{}: {} answered {:?} but {} answered {:?}",
                what,
                first_name,
                first.as_ref().err(),
                name,
                answer.as_ref().err()
            ),
        }
    }
    first.ok()
}

fn write_fixture(graph: &CsrGraph, format: Format) -> Vec<u8> {
    let path = tmp_path("fixture");
    match format {
        Format::Metis => write_metis(graph, &path).unwrap(),
        Format::Binary => write_binary(graph, &path).unwrap(),
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(path).ok();
    bytes
}

fn sources() -> [CsrGraph; 2] {
    let weblike = gen::with_random_edge_weights(&gen::weblike(7, 6, 3), 9, 4);
    [
        gen::with_random_node_weights(&weblike, 5, 6),
        gen::rgg2d(150, 6, 7),
    ]
}

/// Valid files of both formats: a weighted, node-weighted `weblike` and an unweighted
/// `rgg2d`, built once.
fn fixtures() -> &'static [(Format, Vec<u8>)] {
    static FIXTURES: OnceLock<Vec<(Format, Vec<u8>)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let sources = sources();
        [Format::Metis, Format::Binary]
            .into_iter()
            .flat_map(|format| {
                sources
                    .iter()
                    .map(move |g| (format, write_fixture(g, format)))
            })
            .collect()
    })
}

#[test]
fn clean_fixtures_read_back_as_their_source_at_every_reader() {
    let expected: Vec<Plain> = sources().iter().map(from_graph).collect();
    for (i, (format, bytes)) in fixtures().iter().enumerate() {
        let graph = agreed(*format, bytes, &format!("clean {:?} fixture", format));
        assert!(
            graph.as_ref() == Some(&expected[i % 2]),
            "{:?} fixture {}",
            format,
            i
        );
    }
}

/// An unweighted binary file, written field by field so it can say anything.
fn binary_file(n: u64, half_edges: u64, xadj: &[u64], adjacency: &[u32]) -> Vec<u8> {
    let mut bytes = b"TPGB".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&n.to_le_bytes());
    bytes.extend_from_slice(&half_edges.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    xadj.iter()
        .for_each(|x| bytes.extend_from_slice(&x.to_le_bytes()));
    adjacency
        .iter()
        .for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
    bytes
}

#[test]
fn hand_made_damage_is_an_error_or_one_graph_at_every_reader() {
    let rejected = [
        ("neighbour id >= n", binary_file(2, 2, &[0, 1, 2], &[5, 0])),
        (
            "duplicate neighbour",
            binary_file(2, 4, &[0, 2, 4], &[1, 1, 0, 0]),
        ),
        (
            "non-monotone xadj",
            binary_file(3, 2, &[0, 2, 1, 2], &[1, 0]),
        ),
        (
            "xadj[n] != half-edge count",
            binary_file(2, 2, &[0, 1, 1], &[1, 0]),
        ),
        ("one-sided edge", binary_file(3, 2, &[0, 1, 2, 2], &[1, 2])),
    ];
    for (what, bytes) in rejected {
        assert!(
            agreed(Format::Binary, &bytes, what).is_none(),
            "{} was accepted",
            what
        );
    }
    // A self-loop is dropped: every reader returns the one edge {0, 1}.
    let looped = binary_file(2, 3, &[0, 2, 3], &[0, 1, 0]);
    let graph = agreed(Format::Binary, &looped, "self-loop").expect("self-loop file rejected");
    assert_eq!(graph.neighborhoods, vec![vec![(1, 1)], vec![(0, 1)]]);
    // Every edge listed once (by its smaller endpoint only) is one-sided.
    assert!(agreed(Format::Metis, b"3 2\n2 3\n\n\n", "METIS edges listed once").is_none());
    // The same graph listed from both sides reads fine.
    let both = agreed(Format::Metis, b"3 2\n2 3\n1\n1\n", "METIS").expect("valid file");
    assert_eq!(both.neighborhoods[0], vec![(1, 1), (2, 1)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Any single flipped byte of a valid file: every reader returns the same graph
    // (the flip may have produced a different but valid one) or every reader an error.
    #[test]
    fn prop_flipped_bytes_never_panic_and_every_reader_agrees(
        fixture in 0usize..4,
        pos_seed in any::<u64>(),
        mask in 1u32..256,
    ) {
        let (format, clean) = &fixtures()[fixture];
        let pos = (pos_seed % clean.len() as u64) as usize;
        let mut bytes = clean.clone();
        bytes[pos] ^= mask as u8;
        agreed(*format, &bytes, &format!("fixture {}, byte {} ^ {:#04x}", fixture, pos, mask));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Truncated anywhere: the same graph everywhere (a METIS file cut inside trailing
    // whitespace) or an error everywhere.
    #[test]
    fn prop_truncations_never_panic_and_every_reader_agrees(
        fixture in 0usize..4,
        cut_seed in any::<u64>(),
    ) {
        let (format, clean) = &fixtures()[fixture];
        let keep = (cut_seed % clean.len() as u64) as usize;
        agreed(*format, &clean[..keep], &format!("fixture {} cut to {} bytes", fixture, keep));
    }
}
