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
/// high-degree (chunked / two-phase) code paths.
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
/// from the same parameters. Point generation needs `O(n)` memory (positions plus the
/// cell grid) but no adjacency is ever materialised, so the streaming `.tpg` generator
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
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Expected degree of a point is n * pi * r^2 (ignoring boundary effects).
    let radius = ((avg_deg as f64) / (n as f64 * std::f64::consts::PI)).sqrt();
    let cells = ((1.0 / radius).floor() as usize).clamp(1, 4096);
    let cell_size = 1.0 / cells as f64;
    // Generate points, then sort them into row-major cell order so that nearby points get
    // nearby IDs.
    let mut points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    points.sort_by(|a, b| {
        let ca = ((a.1 / cell_size) as usize, (a.0 / cell_size) as usize);
        let cb = ((b.1 / cell_size) as usize, (b.0 / cell_size) as usize);
        ca.cmp(&cb)
            .then(a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    });
    // Bucket points by cell for neighbourhood queries.
    let mut grid: Vec<Vec<NodeId>> = vec![Vec::new(); cells * cells];
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 / cell_size) as usize).min(cells - 1);
        let cy = ((p.1 / cell_size) as usize).min(cells - 1);
        cy * cells + cx
    };
    for (i, &p) in points.iter().enumerate() {
        grid[cell_of(p)].push(ids::nid(i));
    }
    let r2 = radius * radius;
    for (i, &p) in points.iter().enumerate() {
        let cx = ((p.0 / cell_size) as usize).min(cells - 1);
        let cy = ((p.1 / cell_size) as usize).min(cells - 1);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                    continue;
                }
                for &j in &grid[ny as usize * cells + nx as usize] {
                    if (j as usize) <= i {
                        continue;
                    }
                    let q = points[j as usize];
                    let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
                    if d2 <= r2 && !f(ids::nid(i), j) {
                        return false;
                    }
                }
            }
        }
    }
    true
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
/// parameters. Point generation needs `O(n)` memory but no adjacency is materialised,
/// so the streaming `.tpg` generator ([`crate::store::stream_rgg3d_to_tpg`]) can emit
/// edges straight into spill buckets and still produce the *identical* graph.
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
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Expected degree of a point is n * (4/3)π r³ (ignoring boundary effects).
    let radius = ((avg_deg as f64) * 3.0 / (n as f64 * 4.0 * std::f64::consts::PI)).cbrt();
    let cells = ((1.0 / radius).floor() as usize).clamp(1, 256);
    let cell_size = 1.0 / cells as f64;
    let mut points: Vec<(f64, f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    // Sort into row-major cell order (z, then y, then x) so nearby points get nearby IDs.
    points.sort_by(|a, b| {
        let ca = (
            (a.2 / cell_size) as usize,
            (a.1 / cell_size) as usize,
            (a.0 / cell_size) as usize,
        );
        let cb = (
            (b.2 / cell_size) as usize,
            (b.1 / cell_size) as usize,
            (b.0 / cell_size) as usize,
        );
        ca.cmp(&cb)
            .then(a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    });
    let cell_coord = |x: f64| ((x / cell_size) as usize).min(cells - 1);
    let cell_of =
        |p: (f64, f64, f64)| (cell_coord(p.2) * cells + cell_coord(p.1)) * cells + cell_coord(p.0);
    let mut grid: Vec<Vec<NodeId>> = vec![Vec::new(); cells * cells * cells];
    for (i, &p) in points.iter().enumerate() {
        grid[cell_of(p)].push(ids::nid(i));
    }
    let r2 = radius * radius;
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy, cz) = (cell_coord(p.0), cell_coord(p.1), cell_coord(p.2));
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let (nx, ny, nz) = (cx as i64 + dx, cy as i64 + dy, cz as i64 + dz);
                    if nx < 0 || ny < 0 || nz < 0 {
                        continue;
                    }
                    let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);
                    if nx >= cells || ny >= cells || nz >= cells {
                        continue;
                    }
                    for &j in &grid[(nz * cells + ny) * cells + nx] {
                        if (j as usize) <= i {
                            continue;
                        }
                        let q = points[j as usize];
                        let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2) + (p.2 - q.2).powi(2);
                        if d2 <= r2 && !f(ids::nid(i), j) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
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
