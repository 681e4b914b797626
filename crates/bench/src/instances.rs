//! The on-disk instance set: a cache of `.tpg` containers keyed by generator
//! parameters.
//!
//! The paper's experiments run over fixed benchmark sets (Sets A and B); this module
//! gives those sets a durable on-disk home so experiment binaries resolve instances
//! through a cache instead of regenerating them in memory on every run — and so runs
//! can exercise graphs **larger than RAM**: streamable families (R-MAT, random
//! geometric) are generated straight into the container through the bounded-memory
//! spilling builder ([`graph::store::stream`]), never materialising the adjacency.
//!
//! The cache lives under `$TERAPART_INSTANCE_CACHE` (default: `target/instance-cache`).
//! Every container is keyed by its full generator parameters — e.g.
//! `rmat-s14-d12-x31.tpg` — so a cache hit is exact by construction; a
//! `MANIFEST.tsv` in the cache directory records `file, n, m, file_bytes` for each
//! generated instance.

use std::io::Write;
use std::path::{Path, PathBuf};

use graph::csr::CsrGraph;
use graph::gen;
use graph::io::IoError;
use graph::store::container::TPG_CHECKSUM_BLOCK_LEN;
use graph::store::{
    read_tpg, read_tpg_meta, stream_rgg2d_to_tpg, stream_rgg3d_to_tpg, stream_rmat_to_tpg,
    write_tpg_from_graph, PagedGraph, PagedGraphOptions,
};
use graph::CompressionConfig;

/// A generator recipe identifying one benchmark instance exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSpec {
    /// 2D grid (`gen::grid2d`).
    Grid2d { rows: usize, cols: usize },
    /// 3D grid (`gen::grid3d`).
    Grid3d { x: usize, y: usize, z: usize },
    /// Random geometric graph (`gen::rgg2d`) — streamable.
    Rgg2d { n: usize, avg_deg: usize, seed: u64 },
    /// 3D random geometric graph (`gen::rgg3d`) — streamable.
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
    /// R-MAT web-like graph (`gen::weblike`) — streamable.
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

    /// The cache file name encoding every parameter of the recipe — including the ID
    /// width: containers written by a `wide-ids` build differ byte-wise (the `.tpg`
    /// header records the writer's width), so wide builds use their own cache
    /// namespace while the default width keeps the historical names.
    pub fn cache_file_name(&self) -> String {
        if graph::NodeId::BITS == 64 {
            format!("{}-w64.tpg", self.key())
        } else {
            format!("{}.tpg", self.key())
        }
    }

    fn key(&self) -> String {
        match self {
            GenSpec::Grid2d { rows, cols } => format!("grid2d-{}x{}", rows, cols),
            GenSpec::Grid3d { x, y, z } => format!("grid3d-{}x{}x{}", x, y, z),
            GenSpec::Rgg2d { n, avg_deg, seed } => format!("rgg2d-n{}-d{}-x{}", n, avg_deg, seed),
            GenSpec::Rgg3d { n, avg_deg, seed } => format!("rgg3d-n{}-d{}-x{}", n, avg_deg, seed),
            GenSpec::PowerLawCluster {
                n,
                attach,
                triad_p,
                seed,
            } => format!("plc-n{}-a{}-p{}-x{}", n, attach, triad_p, seed),
            GenSpec::RhgLike {
                n,
                avg_deg,
                gamma,
                seed,
            } => format!("rhg-n{}-d{}-g{}-x{}", n, avg_deg, gamma, seed),
            GenSpec::ErdosRenyi { n, m, seed } => format!("er-n{}-m{}-x{}", n, m, seed),
            GenSpec::Rmat {
                scale,
                avg_deg,
                seed,
            } => format!("rmat-s{}-d{}-x{}", scale, avg_deg, seed),
            GenSpec::Star { n } => format!("star-n{}", n),
            GenSpec::WeightedEdges {
                base,
                max_weight,
                seed,
            } => format!("{}-ew{}-x{}", base.key(), max_weight, seed),
        }
    }

    /// Whether this family can be generated straight to disk with bounded memory.
    pub fn is_streamable(&self) -> bool {
        matches!(
            self,
            GenSpec::Rmat { .. } | GenSpec::Rgg2d { .. } | GenSpec::Rgg3d { .. }
        )
    }

    /// Materialises the instance in memory. Cached runs should prefer
    /// [`InstanceStore::load_csr`].
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

/// The `.tpg` instance cache (see the module docs).
pub struct InstanceStore {
    root: PathBuf,
}

impl InstanceStore {
    /// Opens the cache at `$TERAPART_INSTANCE_CACHE` or `target/instance-cache`.
    pub fn open_default() -> Result<Self, IoError> {
        let root = std::env::var_os("TERAPART_INSTANCE_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/instance-cache"));
        Self::at(root)
    }

    /// Opens (creating if needed) the cache rooted at `root`.
    pub fn at(root: impl Into<PathBuf>) -> Result<Self, IoError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the manifest file listing the generated instances.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("MANIFEST.tsv")
    }

    /// Resolves a spec to its cached `.tpg` path, generating the container on a miss.
    /// Streamable families are generated with bounded memory straight into the
    /// container; the rest are materialised once and written out. A cached file whose
    /// header this build rejects as a format (a container version or offset encoding
    /// that no longer has a reader), or whose checksum block length is not the
    /// writer's default, counts as a miss and is regenerated in place: the experiments
    /// measure the containers this build writes.
    pub fn resolve(&self, spec: &GenSpec) -> Result<PathBuf, IoError> {
        let path = self.root.join(spec.cache_file_name());
        if path.exists() {
            match read_tpg_meta(&path) {
                Ok(meta) if meta.checksum_block_len as usize == TPG_CHECKSUM_BLOCK_LEN => {
                    return Ok(path)
                }
                Ok(_) | Err(IoError::Format(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let config = CompressionConfig::default();
        // Generate into a process-unique temp name first: a crash never leaves a
        // half-written container under the final key, and two processes racing to
        // generate the same missing instance never interleave writes into one file
        // (the loser's rename simply overwrites the winner's identical container).
        use std::sync::atomic::{AtomicU64, Ordering};
        static PARTIAL_COUNTER: AtomicU64 = AtomicU64::new(0);
        let partial = self.root.join(format!(
            "{}.partial.{}.{}",
            spec.cache_file_name(),
            std::process::id(),
            PARTIAL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let summary = match *spec {
            GenSpec::Rmat {
                scale,
                avg_deg,
                seed,
            } => stream_rmat_to_tpg(
                scale,
                avg_deg,
                seed,
                &partial,
                self.root.join("spill"),
                16,
                &config,
            )?,
            GenSpec::Rgg2d { n, avg_deg, seed } => stream_rgg2d_to_tpg(
                n,
                avg_deg,
                seed,
                &partial,
                self.root.join("spill"),
                16,
                &config,
            )?,
            GenSpec::Rgg3d { n, avg_deg, seed } => stream_rgg3d_to_tpg(
                n,
                avg_deg,
                seed,
                &partial,
                self.root.join("spill"),
                16,
                &config,
            )?,
            ref other => write_tpg_from_graph(&other.materialize(), &partial, &config)?,
        };
        std::fs::rename(&partial, &path)?;
        self.append_manifest(spec, summary.n, summary.m, summary.file_bytes)?;
        Ok(path)
    }

    /// Resolves and fully loads an instance as an in-memory CSR graph.
    pub fn load_csr(&self, spec: &GenSpec) -> Result<CsrGraph, IoError> {
        read_tpg(self.resolve(spec)?)
    }

    /// Resolves and opens an instance through the page cache.
    pub fn open_paged(
        &self,
        spec: &GenSpec,
        options: &PagedGraphOptions,
    ) -> Result<PagedGraph, IoError> {
        PagedGraph::open_with_options(self.resolve(spec)?, options)
    }

    /// Size in bytes of the cached container for `spec` (resolving it first).
    pub fn container_bytes(&self, spec: &GenSpec) -> Result<u64, IoError> {
        Ok(std::fs::metadata(self.resolve(spec)?)?.len())
    }

    /// Uncompressed CSR size in bytes of the cached instance, from the header alone.
    pub fn csr_bytes(&self, spec: &GenSpec) -> Result<usize, IoError> {
        Ok(read_tpg_meta(self.resolve(spec)?)?.csr_size_in_bytes())
    }

    fn append_manifest(
        &self,
        spec: &GenSpec,
        n: usize,
        m: usize,
        bytes: u64,
    ) -> Result<(), IoError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.manifest_path())?;
        writeln!(f, "{}\t{}\t{}\t{}", spec.cache_file_name(), n, m, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::traits::Graph;

    fn scratch_store(name: &str) -> InstanceStore {
        let dir = std::env::temp_dir().join(format!(
            "terapart_instances_test_{}_{}",
            std::process::id(),
            name
        ));
        std::fs::remove_dir_all(&dir).ok();
        InstanceStore::at(dir).unwrap()
    }

    #[test]
    fn resolve_generates_once_and_hits_after() {
        let store = scratch_store("hits");
        let spec = GenSpec::Rmat {
            scale: 9,
            avg_deg: 6,
            seed: 4,
        };
        let path = store.resolve(&spec).unwrap();
        let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
        let again = store.resolve(&spec).unwrap();
        assert_eq!(path, again);
        assert_eq!(
            std::fs::metadata(&again).unwrap().modified().unwrap(),
            modified,
            "cache hit must not regenerate"
        );
        let manifest = std::fs::read_to_string(store.manifest_path()).unwrap();
        assert_eq!(manifest.lines().count(), 1);
        // Wide builds use their own cache namespace (the containers differ byte-wise).
        let expected = if graph::NodeId::BITS == 64 {
            "rmat-s9-d6-x4-w64.tpg\t"
        } else {
            "rmat-s9-d6-x4.tpg\t"
        };
        assert!(manifest.starts_with(expected));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn stale_format_cache_entries_are_regenerated() {
        let store = scratch_store("stale");
        let spec = GenSpec::Grid2d { rows: 9, cols: 7 };
        let path = store.resolve(&spec).unwrap();
        // Hand-stamp a version-3 header over the cached container, as a cache directory
        // that outlived a format change would hold.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_tpg_meta(&path), Err(IoError::Format(_))));
        assert_eq!(store.resolve(&spec).unwrap(), path);
        let reference = spec.materialize();
        let loaded = store.load_csr(&spec).unwrap();
        assert_eq!(loaded.n(), reference.n());
        assert_eq!(loaded.m(), reference.m());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn cache_entries_with_other_checksum_blocks_are_regenerated() {
        let store = scratch_store("old_blocks");
        let spec = GenSpec::Grid2d { rows: 9, cols: 7 };
        let path = store.resolve(&spec).unwrap();
        // Overwrite the cached container with a readable one at 64 KiB blocks, as a
        // cache directory written before the 4 KiB default would hold.
        let reference = spec.materialize();
        graph::store::TpgWriter::create(&path, reference.n(), false, &CompressionConfig::default())
            .unwrap()
            .with_checksum_block_len(64 * 1024)
            .write_graph(&reference)
            .unwrap();
        assert_eq!(read_tpg_meta(&path).unwrap().checksum_block_len, 64 * 1024);
        assert_eq!(store.resolve(&spec).unwrap(), path);
        let meta = read_tpg_meta(&path).unwrap();
        assert_eq!(meta.checksum_block_len as usize, TPG_CHECKSUM_BLOCK_LEN);
        assert_eq!((meta.n, meta.m), (reference.n(), reference.m()));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn streamed_and_materialized_paths_agree_with_generators() {
        let store = scratch_store("agree");
        // A streamable spec and a materialise-path spec.
        for (spec, reference) in [
            (
                GenSpec::Rmat {
                    scale: 9,
                    avg_deg: 8,
                    seed: 7,
                },
                gen::weblike(9, 8, 7),
            ),
            (
                GenSpec::RhgLike {
                    n: 400,
                    avg_deg: 8,
                    gamma: 3.0,
                    seed: 2,
                },
                gen::rhg_like(400, 8, 3.0, 2),
            ),
        ] {
            let loaded = store.load_csr(&spec).unwrap();
            assert_eq!(loaded.n(), reference.n());
            assert_eq!(loaded.m(), reference.m());
            for u in 0..reference.n() as graph::NodeId {
                assert_eq!(loaded.neighbors_vec(u), reference.neighbors_vec(u));
            }
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn quality_ladder_families_round_trip() {
        let store = scratch_store("ladder");
        // The streamed rgg3d path must agree with the in-memory generator, and the
        // power-law clustered family goes through the materialise path.
        for (spec, reference) in [
            (
                GenSpec::Rgg3d {
                    n: 500,
                    avg_deg: 8,
                    seed: 11,
                },
                gen::rgg3d(500, 8, 11),
            ),
            (
                GenSpec::PowerLawCluster {
                    n: 600,
                    attach: 4,
                    triad_p: 0.5,
                    seed: 3,
                },
                gen::powerlaw_cluster(600, 4, 0.5, 3),
            ),
        ] {
            let loaded = store.load_csr(&spec).unwrap();
            assert_eq!(loaded.n(), reference.n());
            assert_eq!(loaded.m(), reference.m());
            for u in 0..reference.n() as graph::NodeId {
                assert_eq!(loaded.neighbors_vec(u), reference.neighbors_vec(u));
            }
        }
        assert!(GenSpec::Rgg3d {
            n: 500,
            avg_deg: 8,
            seed: 11
        }
        .is_streamable());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn weighted_specs_round_trip() {
        let store = scratch_store("weighted");
        let spec = GenSpec::Grid2d { rows: 12, cols: 9 }.weighted(17, 5);
        let expected = if graph::NodeId::BITS == 64 {
            "grid2d-12x9-ew17-x5-w64.tpg"
        } else {
            "grid2d-12x9-ew17-x5.tpg"
        };
        assert_eq!(spec.cache_file_name(), expected);
        let loaded = store.load_csr(&spec).unwrap();
        let reference = spec.materialize();
        assert!(loaded.is_edge_weighted());
        assert_eq!(loaded.total_edge_weight(), reference.total_edge_weight());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn csr_and_container_sizes_are_consistent() {
        let store = scratch_store("sizes");
        let spec = GenSpec::Rgg2d {
            n: 600,
            avg_deg: 10,
            seed: 3,
        };
        let csr_bytes = store.csr_bytes(&spec).unwrap();
        assert_eq!(csr_bytes, spec.materialize().size_in_bytes());
        assert!(store.container_bytes(&spec).unwrap() > 0);
        std::fs::remove_dir_all(store.root()).ok();
    }
}
