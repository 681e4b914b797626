//! Benchmark instance sets (scaled-down stand-ins for the paper's Sets A and B).
//!
//! Set A in the paper contains 72 graphs from several application domains with 5.4M–1.8B
//! edges; Set B contains five huge web crawls. Neither fits this environment, so the
//! sets are reproduced *structurally*: a mix of mesh-like, geometric, power-law, random,
//! web-like and weighted instances whose sizes are chosen so every experiment binary
//! finishes in seconds.
//!
//! Each set is defined once as [`InstanceSpec`] recipes ([`set_a_specs`] /
//! [`set_b_specs`]); experiment binaries resolve them through the on-disk
//! [`InstanceStore`](crate::instances::InstanceStore) cache, while
//! [`benchmark_set_a`] / [`benchmark_set_b`] materialise the identical graphs in
//! memory for tests and quick runs.

use graph::csr::CsrGraph;
use terapart::{PartitionerConfig, Preset};

use crate::instances::{GenSpec, InstanceSpec};

/// A named benchmark instance.
pub struct Instance {
    /// Instance name used in report rows.
    pub name: &'static str,
    /// Application-domain class (mirrors the classes of Figure 9/10).
    pub class: &'static str,
    /// The graph.
    pub graph: CsrGraph,
}

/// The recipes of the scaled-down Benchmark Set A: diverse medium-sized instances.
pub fn set_a_specs() -> Vec<InstanceSpec> {
    vec![
        InstanceSpec {
            name: "grid-64x64",
            class: "finite-element",
            spec: GenSpec::Grid2d { rows: 64, cols: 64 },
        },
        InstanceSpec {
            name: "grid3d-12",
            class: "finite-element",
            spec: GenSpec::Grid3d {
                x: 12,
                y: 12,
                z: 12,
            },
        },
        InstanceSpec {
            name: "rgg2d-4k",
            class: "geometric",
            spec: GenSpec::Rgg2d {
                n: 4_000,
                avg_deg: 12,
                seed: 11,
            },
        },
        InstanceSpec {
            name: "rgg2d-8k",
            class: "geometric",
            spec: GenSpec::Rgg2d {
                n: 8_000,
                avg_deg: 16,
                seed: 12,
            },
        },
        InstanceSpec {
            name: "rhg-4k",
            class: "social",
            spec: GenSpec::RhgLike {
                n: 4_000,
                avg_deg: 10,
                gamma: 3.0,
                seed: 13,
            },
        },
        InstanceSpec {
            name: "rhg-8k",
            class: "social",
            spec: GenSpec::RhgLike {
                n: 8_000,
                avg_deg: 12,
                gamma: 2.6,
                seed: 14,
            },
        },
        InstanceSpec {
            name: "er-4k",
            class: "random",
            spec: GenSpec::ErdosRenyi {
                n: 4_000,
                m: 24_000,
                seed: 15,
            },
        },
        InstanceSpec {
            name: "rmat-12",
            class: "web",
            spec: GenSpec::Rmat {
                scale: 12,
                avg_deg: 10,
                seed: 16,
            },
        },
        InstanceSpec {
            name: "rmat-13",
            class: "web",
            spec: GenSpec::Rmat {
                scale: 13,
                avg_deg: 8,
                seed: 17,
            },
        },
        InstanceSpec {
            name: "weighted-grid",
            class: "text-compression",
            spec: GenSpec::Grid2d { rows: 48, cols: 48 }.weighted(40, 18),
        },
        InstanceSpec {
            name: "weighted-rhg",
            class: "text-compression",
            spec: GenSpec::RhgLike {
                n: 3_000,
                avg_deg: 10,
                gamma: 3.0,
                seed: 19,
            }
            .weighted(20, 20),
        },
        InstanceSpec {
            name: "star-5k",
            class: "irregular",
            spec: GenSpec::Star { n: 5_000 },
        },
    ]
}

/// The recipes of the scaled-down Benchmark Set B: "huge" web-like instances (relative
/// to Set A).
pub fn set_b_specs() -> Vec<InstanceSpec> {
    vec![
        InstanceSpec {
            name: "gsh-like",
            class: "web-huge",
            spec: GenSpec::Rmat {
                scale: 14,
                avg_deg: 12,
                seed: 31,
            },
        },
        InstanceSpec {
            name: "clueweb-like",
            class: "web-huge",
            spec: GenSpec::Rmat {
                scale: 14,
                avg_deg: 16,
                seed: 32,
            },
        },
        InstanceSpec {
            name: "uk-like",
            class: "web-huge",
            spec: GenSpec::Rgg2d {
                n: 20_000,
                avg_deg: 24,
                seed: 33,
            },
        },
        InstanceSpec {
            name: "eu-like",
            class: "web-huge",
            spec: GenSpec::Rmat {
                scale: 15,
                avg_deg: 12,
                seed: 34,
            },
        },
        InstanceSpec {
            name: "hyperlink-like",
            class: "web-huge",
            spec: GenSpec::RhgLike {
                n: 24_000,
                avg_deg: 20,
                gamma: 2.8,
                seed: 35,
            },
        },
    ]
}

/// One instance family of the quality ladder: a named class with rungs of increasing
/// size, all sharing one generator family.
pub struct QualityFamily {
    /// Family name used in `BENCH_quality.json` (e.g. `"web"`).
    pub family: &'static str,
    /// The rungs, smallest first. The first rung is the smoke rung.
    pub rungs: Vec<InstanceSpec>,
}

/// The instance ladder of the quality sweep: five generator families — mesh,
/// geometric (2D and 3D), power-law clustered, web (R-MAT up to scale 18) and
/// social — each with a small smoke rung first and larger rungs after. Streamable
/// families (rgg2d, rgg3d, rmat) go through the bounded-memory `.tpg` path of the
/// [`InstanceStore`](crate::instances::InstanceStore), so the big web rungs never
/// materialise their adjacency during generation.
pub fn quality_families() -> Vec<QualityFamily> {
    vec![
        QualityFamily {
            family: "mesh",
            rungs: vec![
                InstanceSpec {
                    name: "grid3d-16",
                    class: "mesh",
                    spec: GenSpec::Grid3d {
                        x: 16,
                        y: 16,
                        z: 16,
                    },
                },
                InstanceSpec {
                    name: "grid3d-24",
                    class: "mesh",
                    spec: GenSpec::Grid3d {
                        x: 24,
                        y: 24,
                        z: 24,
                    },
                },
            ],
        },
        QualityFamily {
            family: "geometric",
            rungs: vec![
                InstanceSpec {
                    name: "rgg2d-6k",
                    class: "geometric",
                    spec: GenSpec::Rgg2d {
                        n: 6_000,
                        avg_deg: 12,
                        seed: 41,
                    },
                },
                InstanceSpec {
                    name: "rgg3d-10k",
                    class: "geometric",
                    spec: GenSpec::Rgg3d {
                        n: 10_000,
                        avg_deg: 14,
                        seed: 42,
                    },
                },
            ],
        },
        QualityFamily {
            family: "powerlaw-cluster",
            rungs: vec![
                InstanceSpec {
                    name: "plc-6k",
                    class: "social",
                    spec: GenSpec::PowerLawCluster {
                        n: 6_000,
                        attach: 6,
                        triad_p: 0.4,
                        seed: 43,
                    },
                },
                InstanceSpec {
                    name: "plc-12k",
                    class: "social",
                    spec: GenSpec::PowerLawCluster {
                        n: 12_000,
                        attach: 8,
                        triad_p: 0.5,
                        seed: 44,
                    },
                },
            ],
        },
        QualityFamily {
            family: "web",
            rungs: vec![
                InstanceSpec {
                    name: "rmat-14",
                    class: "web",
                    spec: GenSpec::Rmat {
                        scale: 14,
                        avg_deg: 8,
                        seed: 45,
                    },
                },
                InstanceSpec {
                    name: "rmat-16",
                    class: "web",
                    spec: GenSpec::Rmat {
                        scale: 16,
                        avg_deg: 8,
                        seed: 46,
                    },
                },
                InstanceSpec {
                    name: "rmat-18",
                    class: "web",
                    spec: GenSpec::Rmat {
                        scale: 18,
                        avg_deg: 8,
                        seed: 47,
                    },
                },
            ],
        },
        QualityFamily {
            family: "social",
            rungs: vec![
                InstanceSpec {
                    name: "rhg-6k",
                    class: "social",
                    spec: GenSpec::RhgLike {
                        n: 6_000,
                        avg_deg: 10,
                        gamma: 2.8,
                        seed: 48,
                    },
                },
                InstanceSpec {
                    name: "rhg-16k",
                    class: "social",
                    spec: GenSpec::RhgLike {
                        n: 16_000,
                        avg_deg: 12,
                        gamma: 2.6,
                        seed: 49,
                    },
                },
            ],
        },
    ]
}

/// The preset ladder of the quality sweep: every [`Preset`] with its configuration at
/// the given `k`, in speed order (fastest first).
pub fn preset_ladder(k: usize) -> Vec<(&'static str, PartitionerConfig)> {
    Preset::ALL
        .iter()
        .map(|p| (p.name(), PartitionerConfig::preset(*p, k)))
        .collect()
}

fn materialize(specs: Vec<InstanceSpec>) -> Vec<Instance> {
    specs
        .into_iter()
        .map(|s| Instance {
            name: s.name,
            class: s.class,
            graph: s.spec.materialize(),
        })
        .collect()
}

/// The scaled-down Benchmark Set A, materialised in memory.
pub fn benchmark_set_a() -> Vec<Instance> {
    materialize(set_a_specs())
}

/// The scaled-down Benchmark Set B, materialised in memory.
pub fn benchmark_set_b() -> Vec<Instance> {
    materialize(set_b_specs())
}

/// The configuration ladder of Figures 1, 4 and 6: the KaMinPar baseline with the
/// TeraPart optimizations enabled one after another.
pub fn config_ladder(k: usize) -> Vec<(&'static str, PartitionerConfig)> {
    vec![
        ("KaMinPar", PartitionerConfig::kaminpar(k)),
        ("Two-Phase LP", PartitionerConfig::kaminpar_two_phase_lp(k)),
        (
            "Graph Compression",
            PartitionerConfig::kaminpar_compressed(k),
        ),
        (
            "One-Pass Contraction (TeraPart)",
            PartitionerConfig::terapart(k),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::traits::Graph;

    #[test]
    fn set_a_is_diverse_and_nontrivial() {
        let set = benchmark_set_a();
        assert!(set.len() >= 10);
        let classes: std::collections::HashSet<_> = set.iter().map(|i| i.class).collect();
        assert!(classes.len() >= 5, "need several application domains");
        for instance in &set {
            assert!(instance.graph.m() > 1_000, "{} too small", instance.name);
        }
        assert!(set.iter().any(|i| i.graph.is_edge_weighted()));
    }

    #[test]
    fn set_b_graphs_are_larger_than_set_a_median() {
        let a = benchmark_set_a();
        let b = benchmark_set_b();
        let mut a_sizes: Vec<usize> = a.iter().map(|i| i.graph.m()).collect();
        a_sizes.sort_unstable();
        let median_a = a_sizes[a_sizes.len() / 2];
        for instance in &b {
            assert!(
                instance.graph.m() > median_a,
                "{} not huge enough",
                instance.name
            );
        }
    }

    #[test]
    fn quality_ladder_covers_enough_families_and_presets() {
        let families = quality_families();
        assert!(families.len() >= 4, "quality sweep needs >= 4 families");
        for family in &families {
            assert!(!family.rungs.is_empty(), "{} has no rungs", family.family);
        }
        assert!(
            families.iter().any(|f| f
                .rungs
                .iter()
                .any(|r| matches!(r.spec, GenSpec::Rmat { scale: 18, .. }))),
            "web family must reach rmat-18"
        );
        let ladder = preset_ladder(16);
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[0].0, "fast");
        assert_eq!(ladder[2].0, "strong");
    }

    #[test]
    fn config_ladder_has_four_steps_in_paper_order() {
        let ladder = config_ladder(8);
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder[0].0, "KaMinPar");
        assert!(ladder[3].0.contains("TeraPart"));
        assert!(!ladder[0].1.use_compression);
        assert!(ladder[3].1.use_compression);
    }
}
