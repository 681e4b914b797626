//! Synthetic graph generators.
//!
//! These stand in for the paper's benchmark instances, which do not fit this environment
//! (the sets built from them are in `crates/bench/src/setup.rs`): `rgg2d` reproduces the mesh-like random geometric family, [`rhg_like`]
//! reproduces the skewed power-law family used for the tera-scale experiments, and
//! [`weblike`] produces R-MAT-style graphs with hub vertices and neighbour-ID locality
//! similar to web crawls. Small deterministic graphs (grids, stars, paths, complete
//! graphs) are used heavily by unit and property tests.
//!
//! All generators are deterministic for a fixed seed (ChaCha8 PRNG), so experiments are
//! reproducible.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::csr::{CsrGraph, CsrGraphBuilder};
use crate::ids::{self, NodeId};
use crate::EdgeWeight;

/// 2D grid (mesh) graph with `rows * cols` vertices connected to their horizontal and
/// vertical neighbours. Models the "finite element"-style instances of Benchmark Set A.
pub fn grid2d(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    ids::assert_node_count(n, "grid2d");
    let mut b = CsrGraphBuilder::new(n);
    let id = |r: usize, c: usize| ids::nid(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), 1);
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), 1);
            }
        }
    }
    b.build()
}

/// 3D grid graph (`x * y * z` vertices, 6-neighbourhood).
pub fn grid3d(x: usize, y: usize, z: usize) -> CsrGraph {
    let n = x * y * z;
    ids::assert_node_count(n, "grid3d");
    let mut b = CsrGraphBuilder::new(n);
    let id = |i: usize, j: usize, k: usize| ids::nid(i * y * z + j * z + k);
    for i in 0..x {
        for j in 0..y {
            for k in 0..z {
                if i + 1 < x {
                    b.add_edge(id(i, j, k), id(i + 1, j, k), 1);
                }
                if j + 1 < y {
                    b.add_edge(id(i, j, k), id(i, j + 1, k), 1);
                }
                if k + 1 < z {
                    b.add_edge(id(i, j, k), id(i, j, k + 1), 1);
                }
            }
        }
    }
    b.build()
}

/// Path graph 0 — 1 — 2 — ... — (n-1).
pub fn path(n: usize) -> CsrGraph {
    ids::assert_node_count(n, "path");
    let mut b = CsrGraphBuilder::new(n);
    for u in 1..n {
        b.add_edge(ids::nid(u - 1), ids::nid(u), 1);
    }
    b.build()
}

/// Cycle graph on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    ids::assert_node_count(n, "cycle");
    let mut b = CsrGraphBuilder::new(n);
    for u in 0..n {
        b.add_edge(ids::nid(u), ids::nid((u + 1) % n), 1);
    }
    b.build()
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> CsrGraph {
    ids::assert_node_count(n, "complete");
    let mut b = CsrGraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(ids::nid(u), ids::nid(v), 1);
        }
    }
    b.build()
}

/// Star graph: vertex 0 is connected to all other `n - 1` vertices. Used to exercise the
/// high-degree (two-phase) code paths.
pub fn star(n: usize) -> CsrGraph {
    ids::assert_node_count(n, "star");
    let mut b = CsrGraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, ids::nid(v), 1);
    }
    b.build()
}

/// Disconnected union of `k` cliques of size `clique_size` with a single bridge edge
/// between consecutive cliques. The optimal `k`-way cut of this graph is known, which
/// makes it ideal for quality assertions.
pub fn clique_chain(k: usize, clique_size: usize) -> CsrGraph {
    let n = k * clique_size;
    ids::assert_node_count(n, "clique_chain");
    let mut b = CsrGraphBuilder::new(n);
    for c in 0..k {
        let base = c * clique_size;
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                b.add_edge(ids::nid(base + i), ids::nid(base + j), 1);
            }
        }
        if c + 1 < k {
            b.add_edge(
                ids::nid(base + clique_size - 1),
                ids::nid(base + clique_size),
                1,
            );
        }
    }
    b.build()
}

/// Erdős–Rényi style random graph with `n` vertices and approximately `m` undirected
/// edges (duplicates are merged, so the final count can be slightly lower).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2);
    ids::assert_node_count(n, "erdos_renyi");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = CsrGraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..ids::nid_count(n));
        let v = rng.gen_range(0..ids::nid_count(n));
        if u != v {
            b.add_edge(u, v, 1);
        }
    }
    b.build()
}

/// Random geometric graph on the unit square with expected average degree `avg_deg`.
///
/// Vertices are random points; two vertices are adjacent iff their Euclidean distance is
/// at most the connection radius. The vertex IDs are assigned in row-major cell order,
/// which gives the neighbour-ID locality real rgg2D instances have (and which interval
/// encoding exploits). This is the `rgg2D` family of the paper (KaGen).
pub fn rgg2d(n: usize, avg_deg: usize, seed: u64) -> CsrGraph {
    let mut b = CsrGraphBuilder::new(n);
    for_each_rgg2d_edge(n, avg_deg, seed, &mut |u, v| b.add_edge(u, v, 1));
    b.build()
}

/// Invokes `f(u, v)` for every edge of the random geometric graph [`rgg2d`] would build
/// from the same parameters. Point generation holds 16 bytes a vertex of positions and
/// one offset array over the cells (about π / `avg_deg` ids a vertex), but no
/// adjacency is ever materialised, so the streaming `.tpg` generator
/// ([`crate::store::stream_rgg2d_to_tpg`]) can emit edges straight into spill buckets
/// and still produce the *identical* graph for a fixed seed.
pub fn for_each_rgg2d_edge(n: usize, avg_deg: usize, seed: u64, f: &mut dyn FnMut(NodeId, NodeId)) {
    try_for_each_rgg2d_edge(n, avg_deg, seed, &mut |u, v| {
        f(u, v);
        true
    });
}

/// [`for_each_rgg2d_edge`] with a visitor that can stop the stream: returning `false`
/// aborts edge emission immediately (e.g. the streaming `.tpg` builder stops driving
/// the sampler once a spill I/O error is recorded). Returns `false` iff the visitor
/// stopped early.
pub fn try_for_each_rgg2d_edge(
    n: usize,
    avg_deg: usize,
    seed: u64,
    f: &mut dyn FnMut(NodeId, NodeId) -> bool,
) -> bool {
    assert!(n >= 2);
    ids::assert_node_count(n, "rgg2d");
    // Expected degree of a point is n * pi * r^2 (ignoring boundary effects).
    let radius = ((avg_deg as f64) / (n as f64 * std::f64::consts::PI)).sqrt();
    let cells = ((1.0 / radius).floor() as usize).clamp(1, 4096);
    CellIndex::<2>::sample(n, cells, seed).try_for_each_pair_within(radius, f)
}

/// Random geometric graph on the unit cube with expected average degree `avg_deg` —
/// the 3D sibling of [`rgg2d`] (`rgg3D` in KaGen terms). Vertex IDs follow the
/// row-major cell order of the underlying 3D grid, giving the same neighbour-ID
/// locality as the 2D family.
pub fn rgg3d(n: usize, avg_deg: usize, seed: u64) -> CsrGraph {
    let mut b = CsrGraphBuilder::new(n);
    for_each_rgg3d_edge(n, avg_deg, seed, &mut |u, v| b.add_edge(u, v, 1));
    b.build()
}

/// Invokes `f(u, v)` for every edge of the graph [`rgg3d`] would build from the same
/// parameters. Point generation holds 24 bytes a vertex of positions and one offset
/// array over the cells (about 4π / (3 · `avg_deg`) ids a vertex), but no adjacency is
/// materialised, so the streaming `.tpg` generator
/// ([`crate::store::stream_rgg3d_to_tpg`]) can emit edges straight into spill buckets
/// and still produce the *identical* graph.
pub fn for_each_rgg3d_edge(n: usize, avg_deg: usize, seed: u64, f: &mut dyn FnMut(NodeId, NodeId)) {
    try_for_each_rgg3d_edge(n, avg_deg, seed, &mut |u, v| {
        f(u, v);
        true
    });
}

/// [`for_each_rgg3d_edge`] with a visitor that can stop the stream early by returning
/// `false`. Returns `false` iff the visitor stopped early.
pub fn try_for_each_rgg3d_edge(
    n: usize,
    avg_deg: usize,
    seed: u64,
    f: &mut dyn FnMut(NodeId, NodeId) -> bool,
) -> bool {
    assert!(n >= 2);
    ids::assert_node_count(n, "rgg3d");
    // Expected degree of a point is n * (4/3)π r³ (ignoring boundary effects).
    let radius = ((avg_deg as f64) * 3.0 / (n as f64 * 4.0 * std::f64::consts::PI)).cbrt();
    let cells = ((1.0 / radius).floor() as usize).clamp(1, 256);
    CellIndex::<3>::sample(n, cells, seed).try_for_each_pair_within(radius, f)
}

/// The random points of [`rgg2d`] (`D = 2`) and [`rgg3d`] (`D = 3`), numbered in
/// row-major cell order, with a flat index of the cells.
///
/// A point's cell *key* is row-major over `cells + 1` slots per axis, the last
/// coordinate most significant: a coordinate within an ulp of 1.0 can divide to
/// `cells`, and the ids order such a point after the last cell of its row. Its *cell*
/// for the neighbourhood query clamps the coordinate at `cells - 1`, so the points of
/// the query's cells still form one contiguous id range per row of keys.
struct CellIndex<const D: usize> {
    /// Cells per axis.
    cells: usize,
    cell_size: f64,
    /// The points in id order: by cell key, within a cell by coordinates, and ties in
    /// stream order.
    points: Vec<[f64; D]>,
    /// `offsets[k]..offsets[k + 1]` are the ids of the points with cell key `k`.
    offsets: Vec<NodeId>,
}

impl<const D: usize> CellIndex<D> {
    /// Samples `n` points from the seeded stream and numbers them.
    fn sample(n: usize, cells: usize, seed: u64) -> Self {
        Self::number(cells, || {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..n).map(move |_| std::array::from_fn(|_| rng.gen()))
        })
    }

    /// Numbers the points `stream()` yields (the same points on every call). One pass
    /// over the stream counts the points per cell key, a second pass scatters each
    /// point into its key's next slot (so a cell keeps stream order), and each cell's
    /// few points are then stable-sorted by their coordinates.
    fn number<I: Iterator<Item = [f64; D]>>(cells: usize, stream: impl Fn() -> I) -> Self {
        let cell_size = 1.0 / cells as f64;
        let width = cells + 1;
        let key_of = |p: &[f64; D]| {
            p.iter()
                .rev()
                .fold(0, |key, &x| key * width + (x / cell_size) as usize)
        };
        let keys = width.pow(D as u32);
        let mut offsets: Vec<NodeId> = vec![0; keys + 1];
        for p in stream() {
            offsets[key_of(&p) + 1] += 1;
        }
        // Shift the counts into starts: `offsets[k + 1]` is the first slot of key `k`,
        // and the scatter advances it to where key `k + 1` starts.
        let mut total = 0;
        for offset in &mut offsets[1..] {
            let count = *offset;
            *offset = total;
            total += count;
        }
        let mut points = vec![[0.0; D]; total as usize];
        for p in stream() {
            let slot = &mut offsets[key_of(&p) + 1];
            points[*slot as usize] = p;
            *slot += 1;
        }
        for key in 0..keys {
            points[offsets[key] as usize..offsets[key + 1] as usize]
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        }
        Self {
            cells,
            cell_size,
            points,
            offsets,
        }
    }

    /// Calls `f(i, j)` for every pair of points `i < j` at distance at most `radius`
    /// (at most the cell size), each pair once, looking only into the cells around
    /// `i`'s. Returns `false` iff `f` stopped the stream.
    fn try_for_each_pair_within(
        &self,
        radius: f64,
        f: &mut dyn FnMut(NodeId, NodeId) -> bool,
    ) -> bool {
        let (cells, width) = (self.cells, self.cells + 1);
        let r2 = radius * radius;
        for (i, p) in self.points.iter().enumerate() {
            // Per axis, the keys of the cells next to `i`'s (clamped) cell; a range that
            // reaches the last cell takes in key `cells`, which the last cell holds.
            let ranges: [(usize, usize); D] = std::array::from_fn(|d| {
                let c = ((p[d] / self.cell_size) as usize).min(cells - 1);
                let hi = (c + 1).min(cells - 1);
                (
                    c.saturating_sub(1),
                    if hi == cells - 1 { cells } else { hi },
                )
            });
            // Walk the rows of keys (every axis but the first) like an odometer; each
            // row's keys are one contiguous id range.
            let lows = ranges.map(|(lo, _)| lo);
            let mut row = lows;
            loop {
                let base = (1..D).rev().fold(0, |key, d| key * width + row[d]) * width;
                let first = self.offsets[base + ranges[0].0] as usize;
                let end = self.offsets[base + ranges[0].1 + 1] as usize;
                for j in first.max(i + 1)..end {
                    let q = &self.points[j];
                    let mut d2 = 0.0;
                    for d in 0..D {
                        d2 += (p[d] - q[d]).powi(2);
                    }
                    if d2 <= r2 && !f(ids::nid(i), ids::nid(j)) {
                        return false;
                    }
                }
                let Some(d) = (1..D).find(|&d| row[d] < ranges[d].1) else {
                    break;
                };
                row[d] += 1;
                row[1..d].copy_from_slice(&lows[1..d]);
            }
        }
        true
    }
}

/// Power-law *clustered* graph (Holme–Kim preferential attachment with triad
/// formation): the hyperbolic-style family combining a skewed degree distribution with
/// high clustering, which neither [`rhg_like`] (no clustering) nor [`weblike`]
/// (no triangles beyond sampling noise) produces. Each new vertex attaches `attach`
/// edges: the first by preferential attachment, each further edge with probability
/// `triad_p` to a random neighbour of the previous target (closing a triangle) and by
/// preferential attachment otherwise. Models the social-network instances whose tight
/// communities make frontier-based local search hardest.
pub fn powerlaw_cluster(n: usize, attach: usize, triad_p: f64, seed: u64) -> CsrGraph {
    assert!(attach >= 1, "each vertex must attach at least one edge");
    assert!((0.0..=1.0).contains(&triad_p));
    assert!(n > attach, "need more vertices than attachment edges");
    ids::assert_node_count(n, "powerlaw_cluster");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m0 = attach + 1;
    let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    // Flat list of edge endpoints: sampling it uniformly is degree-proportional.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * attach);
    let add = |adjacency: &mut Vec<Vec<NodeId>>, endpoints: &mut Vec<NodeId>, u, v| {
        adjacency[u as usize].push(v);
        adjacency[v as usize].push(u);
        endpoints.push(u);
        endpoints.push(v);
    };
    // Seed clique on the first `attach + 1` vertices.
    for u in 0..m0 {
        for v in (u + 1)..m0 {
            add(&mut adjacency, &mut endpoints, ids::nid(u), ids::nid(v));
        }
    }
    for u in m0..n {
        let u = ids::nid(u);
        let mut last_target: Option<NodeId> = None;
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < attach && attempts < 8 * attach {
            attempts += 1;
            let triad = added > 0 && rng.gen::<f64>() < triad_p;
            let candidate = if triad {
                // Close a triangle: a random neighbour of the previous target.
                let t = last_target.expect("triad steps follow an attachment");
                let nbrs = &adjacency[t as usize];
                nbrs[rng.gen_range(0..nbrs.len())]
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if candidate == u || adjacency[u as usize].contains(&candidate) {
                continue;
            }
            add(&mut adjacency, &mut endpoints, u, candidate);
            last_target = Some(candidate);
            added += 1;
        }
    }
    let mut b = CsrGraphBuilder::new(n);
    for (u, neighbors) in adjacency.iter().enumerate() {
        let un = ids::nid(u);
        for &v in neighbors {
            if un < v {
                b.add_edge(un, v, 1);
            }
        }
    }
    b.build()
}

/// Power-law random graph standing in for the random hyperbolic (`rhg`) family.
///
/// Generates a degree sequence from a power law with exponent `gamma`, then pairs stubs
/// uniformly at random (configuration-model style, dropping self-loops and merging
/// multi-edges). Produces the skewed degree distribution with high-degree hubs that
/// models real-world social networks, as the paper describes for rhg graphs.
pub fn rhg_like(n: usize, avg_deg: usize, gamma: f64, seed: u64) -> CsrGraph {
    assert!(n >= 2);
    ids::assert_node_count(n, "rhg_like");
    assert!(gamma > 2.0, "power-law exponent must exceed 2");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Sample degrees proportional to a Pareto distribution, clamp to [1, n/4], and scale
    // to the requested average degree.
    let alpha = gamma - 1.0;
    let raw: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-9..1.0);
            u.powf(-1.0 / alpha)
        })
        .collect();
    let raw_sum: f64 = raw.iter().sum();
    let target_sum = (n * avg_deg) as f64;
    let max_deg = (n / 4).max(2) as f64;
    let mut degrees: Vec<usize> = raw
        .iter()
        .map(|&r| ((r / raw_sum * target_sum).round() as usize).clamp(1, max_deg as usize))
        .collect();
    // Make the stub count even.
    let total: usize = degrees.iter().sum();
    if total % 2 == 1 {
        degrees[0] += 1;
    }
    let mut stubs: Vec<NodeId> = Vec::with_capacity(degrees.iter().sum());
    for (u, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(ids::nid(u), d));
    }
    stubs.shuffle(&mut rng);
    let mut b = CsrGraphBuilder::new(n);
    for pair in stubs.chunks_exact(2) {
        if pair[0] != pair[1] {
            b.add_edge(pair[0], pair[1], 1);
        }
    }
    b.build()
}

/// R-MAT style "web-like" graph: recursive quadrant sampling with the classic
/// `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)` parameters, which yields hubs, a heavy-tailed
/// degree distribution and locality in the ID space — the structural properties of the
/// paper's web crawl instances (Benchmark Set B).
pub fn weblike(scale: u32, avg_deg: usize, seed: u64) -> CsrGraph {
    let mut builder = CsrGraphBuilder::new(1usize << scale);
    for_each_rmat_edge(scale, avg_deg, seed, &mut |u, v| builder.add_edge(u, v, 1));
    builder.build()
}

/// Invokes `f(u, v)` for every sampled R-MAT edge [`weblike`] would add for the same
/// parameters (self-loop samples are skipped, duplicates are emitted as sampled). The
/// sampler keeps no per-edge state, so the streaming `.tpg` generator
/// ([`crate::store::stream_rmat_to_tpg`]) can produce graphs far larger than the memory
/// an in-memory build would need — while remaining bit-identical to [`weblike`] for a
/// fixed seed (duplicate samples merge into edge weights either way).
pub fn for_each_rmat_edge(
    scale: u32,
    avg_deg: usize,
    seed: u64,
    f: &mut dyn FnMut(NodeId, NodeId),
) {
    try_for_each_rmat_edge(scale, avg_deg, seed, &mut |u, v| {
        f(u, v);
        true
    });
}

/// [`for_each_rmat_edge`] with a visitor that can stop the stream: returning `false`
/// aborts sampling immediately (e.g. the streaming `.tpg` builder stops driving the
/// sampler once a spill I/O error is recorded). Returns `false` iff the visitor
/// stopped early.
pub fn try_for_each_rmat_edge(
    scale: u32,
    avg_deg: usize,
    seed: u64,
    f: &mut dyn FnMut(NodeId, NodeId) -> bool,
) -> bool {
    let n = 1usize << scale;
    ids::assert_node_count(n, "rmat");
    let m = n * avg_deg / 2;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (a, b_, c) = (0.57, 0.19, 0.19);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for level in (0..scale).rev() {
            let r: f64 = rng.gen();
            let bit = 1usize << level;
            if r < a {
                // upper-left quadrant: no bits set
            } else if r < a + b_ {
                v |= bit;
            } else if r < a + b_ + c {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
        }
        if u != v && !f(ids::nid(u), ids::nid(v)) {
            return false;
        }
    }
    true
}

/// Rebuilds `graph` with uniformly random edge weights in `1..=max_weight`.
/// Used to model the weighted "text compression" instances of Benchmark Set A.
pub fn with_random_edge_weights(graph: &CsrGraph, max_weight: EdgeWeight, seed: u64) -> CsrGraph {
    use crate::traits::Graph;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = CsrGraphBuilder::new(graph.n());
    for u in 0..graph.n() as NodeId {
        graph.for_each_neighbor(u, &mut |v, _| {
            if u < v {
                b.add_edge(u, v, rng.gen_range(1..=max_weight));
            }
        });
    }
    b.build()
}

/// Rebuilds `graph` with uniformly random node weights in `1..=max_weight`.
pub fn with_random_node_weights(graph: &CsrGraph, max_weight: u64, seed: u64) -> CsrGraph {
    use crate::traits::Graph;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights: Vec<u64> = (0..graph.n())
        .map(|_| rng.gen_range(1..=max_weight))
        .collect();
    let mut b = CsrGraphBuilder::with_node_weights(weights);
    for u in 0..graph.n() as NodeId {
        graph.for_each_neighbor(u, &mut |v, w| {
            if u < v {
                b.add_edge(u, v, w);
            }
        });
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Graph;

    #[test]
    fn grid_has_expected_shape() {
        let g = grid2d(4, 5);
        assert_eq!(g.n(), 20);
        // Horizontal edges: 4 * 4, vertical edges: 3 * 5.
        assert_eq!(g.m(), 16 + 15);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_symmetric());
    }

    #[test]
    fn grid3d_has_expected_edges() {
        let g = grid3d(3, 3, 3);
        assert_eq!(g.n(), 27);
        assert_eq!(g.m(), 3 * (2 * 3 * 3));
        assert_eq!(g.max_degree(), 6);
    }

    #[test]
    fn path_and_cycle() {
        let p = path(10);
        assert_eq!(p.m(), 9);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(5), 2);
        let c = cycle(10);
        assert_eq!(c.m(), 10);
        assert!((0..10).all(|u| c.degree(u) == 2));
    }

    #[test]
    fn complete_and_star() {
        let k = complete(6);
        assert_eq!(k.m(), 15);
        assert!((0..6).all(|u| k.degree(u) == 5));
        let s = star(6);
        assert_eq!(s.m(), 5);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.degree(1), 1);
    }

    #[test]
    fn clique_chain_structure() {
        let g = clique_chain(3, 4);
        assert_eq!(g.n(), 12);
        // 3 cliques of 6 edges each plus 2 bridges.
        assert_eq!(g.m(), 3 * 6 + 2);
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        let a = erdos_renyi(100, 300, 7);
        let b = erdos_renyi(100, 300, 7);
        assert_eq!(a, b);
        let c = erdos_renyi(100, 300, 8);
        assert!(a.m() > 0);
        assert_ne!(a, c);
    }

    #[test]
    fn rgg2d_has_reasonable_degree_and_locality() {
        let g = rgg2d(2000, 16, 3);
        assert_eq!(g.n(), 2000);
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            avg > 4.0 && avg < 40.0,
            "average degree {} out of range",
            avg
        );
        // No high-degree hubs in a geometric graph.
        assert!(g.max_degree() < 100);
    }

    /// The numbering and edge set of the sampler before its flat cell index, on explicit
    /// points: a comparator sort on the unclamped cell key, then a `Vec` of ids per
    /// clamped cell and a scan of the 3 × 3 cells around each point.
    fn grid_oracle(
        points: &[[f64; 2]],
        cells: usize,
        radius: f64,
    ) -> (Vec<[f64; 2]>, Vec<(usize, usize)>) {
        let cell_size = 1.0 / cells as f64;
        let mut points = points.to_vec();
        points.sort_by(|a, b| {
            let ca = ((a[1] / cell_size) as usize, (a[0] / cell_size) as usize);
            let cb = ((b[1] / cell_size) as usize, (b[0] / cell_size) as usize);
            ca.cmp(&cb)
                .then(a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        });
        let cell = |x: f64| ((x / cell_size) as usize).min(cells - 1);
        let mut grid: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
        for (i, p) in points.iter().enumerate() {
            grid[cell(p[1]) * cells + cell(p[0])].push(i);
        }
        let mut edges = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let (cx, cy) = (cell(p[0]) as i64, cell(p[1]) as i64);
            for ny in (cy - 1).max(0)..=(cy + 1).min(cells as i64 - 1) {
                for nx in (cx - 1).max(0)..=(cx + 1).min(cells as i64 - 1) {
                    for &j in &grid[ny as usize * cells + nx as usize] {
                        let q = points[j];
                        let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
                        if j > i && d2 <= radius * radius {
                            edges.push((i, j));
                        }
                    }
                }
            }
        }
        edges.sort_unstable();
        (points, edges)
    }

    #[test]
    fn the_flat_cell_index_numbers_and_joins_like_the_grid() {
        // A coordinate within an ulp of 1.0 divides to `cells` at 3 and 7 cells, not at
        // 1 or 10: the unclamped key sorts it after the last cell of its row, the query
        // clamps it into that cell. Repeated points tie on their coordinates.
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for (cells, past_the_last_cell) in [(1usize, false), (3, true), (7, true), (10, false)] {
            assert_eq!(
                (below_one / (1.0 / cells as f64)) as usize == cells,
                past_the_last_cell
            );
            let mut points: Vec<[f64; 2]> = (0..400).map(|_| [rng.gen(), rng.gen()]).collect();
            for k in 0..12 {
                let x: f64 = rng.gen();
                points.push(match k % 4 {
                    0 => [below_one, x],
                    1 => [x, below_one],
                    2 => [below_one, below_one],
                    _ => points[k],
                });
            }
            let radius = 1.0 / cells as f64;
            let index = CellIndex::<2>::number(cells, || points.iter().copied());
            let mut edges = Vec::new();
            assert!(index.try_for_each_pair_within(radius, &mut |i, j| {
                edges.push((i as usize, j as usize));
                true
            }));
            edges.sort_unstable();
            let (numbered, oracle_edges) = grid_oracle(&points, cells, radius);
            assert_eq!(index.points, numbered, "{cells} cells");
            assert_eq!(edges, oracle_edges, "{cells} cells");
        }
    }

    #[test]
    fn rhg_like_has_skewed_degrees() {
        let g = rhg_like(2000, 16, 3.0, 11);
        assert_eq!(g.n(), 2000);
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(avg > 2.0, "average degree too small: {}", avg);
        // Power-law graphs have hubs well above the average degree.
        assert!(
            g.max_degree() > 4 * avg as usize,
            "max degree {} not skewed",
            g.max_degree()
        );
    }

    #[test]
    fn weblike_is_heavy_tailed_and_deterministic() {
        let g = weblike(10, 8, 5);
        assert_eq!(g.n(), 1024);
        assert!(g.m() > 1000);
        assert!(g.max_degree() > 20);
        assert_eq!(g, weblike(10, 8, 5));
    }

    #[test]
    fn edge_samplers_short_circuit_when_the_visitor_stops() {
        // A visitor that fails (an I/O error in the streaming builder) must stop the
        // sampler immediately instead of driving the generator to completion.
        let mut seen = 0usize;
        let completed = try_for_each_rmat_edge(10, 8, 3, &mut |_, _| {
            seen += 1;
            seen < 5
        });
        assert!(
            !completed,
            "visitor stopped, sampler must report early exit"
        );
        assert_eq!(seen, 5, "sampler kept emitting after the visitor stopped");

        let mut seen = 0usize;
        let completed = try_for_each_rgg2d_edge(2000, 12, 7, &mut |_, _| {
            seen += 1;
            seen < 5
        });
        assert!(!completed);
        assert_eq!(seen, 5);

        // A visitor that never stops sees the full stream and `true`.
        let mut total = 0usize;
        assert!(try_for_each_rmat_edge(8, 6, 3, &mut |_, _| {
            total += 1;
            true
        }));
        assert!(total > 0);
    }

    #[test]
    fn rgg3d_is_geometric_and_deterministic() {
        let g = rgg3d(1500, 10, 7);
        assert_eq!(g.n(), 1500);
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            (4.0..20.0).contains(&avg),
            "average degree {} far from requested 10",
            avg
        );
        assert_eq!(g, rgg3d(1500, 10, 7));
        // Streaming sampler emits exactly the in-memory edge set.
        let mut streamed = 0usize;
        for_each_rgg3d_edge(1500, 10, 7, &mut |_, _| streamed += 1);
        assert_eq!(streamed, g.m());
        // Cell-order IDs give neighbour locality: most edges are short in ID space.
        let mut local = 0usize;
        let mut total = 0usize;
        for u in 0..g.n() as NodeId {
            crate::traits::Graph::for_each_neighbor(&g, u, &mut |v, _| {
                total += 1;
                if (v as i64 - u as i64).unsigned_abs() < 300 {
                    local += 1;
                }
            });
        }
        assert!(local * 2 > total, "IDs lack locality: {}/{}", local, total);
    }

    #[test]
    fn rgg3d_sampler_short_circuits() {
        let mut seen = 0usize;
        let completed = try_for_each_rgg3d_edge(1200, 10, 3, &mut |_, _| {
            seen += 1;
            seen < 5
        });
        assert!(!completed);
        assert_eq!(seen, 5);
    }

    #[test]
    fn powerlaw_cluster_is_skewed_clustered_and_deterministic() {
        let g = powerlaw_cluster(2000, 4, 0.6, 11);
        assert_eq!(g.n(), 2000);
        assert!(g.m() >= 2000 * 3, "too few edges: {}", g.m());
        assert!(
            g.max_degree() > 40,
            "degree distribution not skewed: max {}",
            g.max_degree()
        );
        assert_eq!(g, powerlaw_cluster(2000, 4, 0.6, 11));
        // Triad formation must produce many triangles; the configuration-model
        // power-law family has almost none. Count wedges closed at a sample of
        // vertices.
        let triangles = |g: &CsrGraph| {
            let mut count = 0usize;
            for u in (0..g.n() as NodeId).step_by(17) {
                let nbrs = crate::traits::Graph::neighbors_vec(g, u);
                for i in 0..nbrs.len().min(20) {
                    for j in (i + 1)..nbrs.len().min(20) {
                        let (a, b) = (nbrs[i].0, nbrs[j].0);
                        if crate::traits::Graph::neighbors_vec(g, a)
                            .iter()
                            .any(|&(x, _)| x == b)
                        {
                            count += 1;
                        }
                    }
                }
            }
            count
        };
        let clustered = triangles(&g);
        let unclustered = triangles(&rhg_like(2000, 8, 2.8, 11));
        assert!(
            clustered > 4 * unclustered.max(1),
            "expected far more triangles than the configuration model: {} vs {}",
            clustered,
            unclustered
        );
    }

    #[test]
    fn random_weights_preserve_structure() {
        let g = grid2d(6, 6);
        let w = with_random_edge_weights(&g, 50, 1);
        assert_eq!(g.n(), w.n());
        assert_eq!(g.m(), w.m());
        assert!(w.is_edge_weighted());
        let nw = with_random_node_weights(&g, 9, 2);
        assert_eq!(nw.n(), g.n());
        assert!(nw.is_node_weighted());
        assert!(nw.total_node_weight() >= g.total_node_weight());
    }
}
