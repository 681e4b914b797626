//! Generator recipes of the benchmark instances.
//!
//! The paper's experiments run over fixed benchmark sets (Sets A and B); this module
//! names each instance of their scaled-down stand-ins by the generator call that
//! builds it ([`GenSpec`]), so every experiment binary regenerates the identical graph
//! in memory with [`GenSpec::materialize`]. Generating all of them takes under a
//! second; a binary that needs a `.tpg` container writes one from the graph.

use graph::csr::CsrGraph;
use graph::gen;

/// A generator recipe identifying one benchmark instance exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSpec {
    /// 2D grid (`gen::grid2d`).
    Grid2d { rows: usize, cols: usize },
    /// 3D grid (`gen::grid3d`).
    Grid3d { x: usize, y: usize, z: usize },
    /// Random geometric graph (`gen::rgg2d`).
    Rgg2d { n: usize, avg_deg: usize, seed: u64 },
    /// 3D random geometric graph (`gen::rgg3d`).
    Rgg3d { n: usize, avg_deg: usize, seed: u64 },
    /// Power-law clustered graph (`gen::powerlaw_cluster`, Holme–Kim).
    PowerLawCluster {
        n: usize,
        attach: usize,
        triad_p: f64,
        seed: u64,
    },
    /// Power-law configuration-model graph (`gen::rhg_like`).
    RhgLike {
        n: usize,
        avg_deg: usize,
        gamma: f64,
        seed: u64,
    },
    /// Erdős–Rényi random graph (`gen::erdos_renyi`).
    ErdosRenyi { n: usize, m: usize, seed: u64 },
    /// R-MAT web-like graph (`gen::weblike`).
    Rmat {
        scale: u32,
        avg_deg: usize,
        seed: u64,
    },
    /// Star graph (`gen::star`).
    Star { n: usize },
    /// Any spec re-weighted with random edge weights (`gen::with_random_edge_weights`).
    WeightedEdges {
        base: Box<GenSpec>,
        max_weight: u64,
        seed: u64,
    },
}

impl GenSpec {
    /// Wraps a spec with random edge weights.
    pub fn weighted(self, max_weight: u64, seed: u64) -> Self {
        GenSpec::WeightedEdges {
            base: Box::new(self),
            max_weight,
            seed,
        }
    }

    /// Materialises the instance in memory.
    pub fn materialize(&self) -> CsrGraph {
        match *self {
            GenSpec::Grid2d { rows, cols } => gen::grid2d(rows, cols),
            GenSpec::Grid3d { x, y, z } => gen::grid3d(x, y, z),
            GenSpec::Rgg2d { n, avg_deg, seed } => gen::rgg2d(n, avg_deg, seed),
            GenSpec::Rgg3d { n, avg_deg, seed } => gen::rgg3d(n, avg_deg, seed),
            GenSpec::PowerLawCluster {
                n,
                attach,
                triad_p,
                seed,
            } => gen::powerlaw_cluster(n, attach, triad_p, seed),
            GenSpec::RhgLike {
                n,
                avg_deg,
                gamma,
                seed,
            } => gen::rhg_like(n, avg_deg, gamma, seed),
            GenSpec::ErdosRenyi { n, m, seed } => gen::erdos_renyi(n, m, seed),
            GenSpec::Rmat {
                scale,
                avg_deg,
                seed,
            } => gen::weblike(scale, avg_deg, seed),
            GenSpec::Star { n } => gen::star(n),
            GenSpec::WeightedEdges {
                ref base,
                max_weight,
                seed,
            } => gen::with_random_edge_weights(&base.materialize(), max_weight, seed),
        }
    }
}

/// A named benchmark instance backed by a [`GenSpec`] recipe.
pub struct InstanceSpec {
    /// Instance name used in report rows.
    pub name: &'static str,
    /// Application-domain class (mirrors the classes of Figure 9/10).
    pub class: &'static str,
    /// The generator recipe.
    pub spec: GenSpec,
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::traits::Graph;

    #[test]
    fn weighted_specs_materialise_edge_weighted() {
        let spec = GenSpec::Grid2d { rows: 12, cols: 9 }.weighted(17, 5);
        let graph = spec.materialize();
        let reference = gen::with_random_edge_weights(&gen::grid2d(12, 9), 17, 5);
        assert!(graph.is_edge_weighted());
        assert_eq!(graph.total_edge_weight(), reference.total_edge_weight());
    }
}
