//! What the benchmark declares: instances, workloads and metrics. `BENCHMARK.json` at
//! the repository root repeats the workload and metric declarations for the driver; a
//! test keeps the two in step.

use terapart::Preset;

/// Synthetic graph family of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `graph::gen::rgg2d(n, 8, seed)`: a mesh-like geometric graph, shrinks well.
    Rgg2d,
    /// `graph::gen::weblike(scale, 8, seed)`: a skewed-degree R-MAT graph, barely shrinks.
    Rmat,
}

/// One generated input; set-up writes each as `<name>.tpg`.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    pub name: &'static str,
    pub family: Family,
    /// Vertex count for `Rgg2d`, log2 of the vertex count for `Rmat`.
    pub size: usize,
}

impl Instance {
    /// Vertex count. `--smoke` shrinks every instance 16-fold, but not below 4096
    /// vertices: with fewer, the k = 64 workload would skip coarsening altogether.
    pub fn nodes(&self, smoke: bool) -> usize {
        let n = match self.family {
            Family::Rgg2d => self.size,
            Family::Rmat => 1 << self.size,
        };
        if smoke {
            (n / 16).max(4096)
        } else {
            n
        }
    }
}

/// Sized for a 2-vCPU box and a driver that allots ~16 s to a whole run: one request
/// takes 0.2–1.5 s, so a 12 s run holds about three rounds over a workload's
/// trajectories.
pub const INSTANCES: [Instance; 4] = [
    Instance {
        name: "rgg2d-250k",
        family: Family::Rgg2d,
        size: 250_000,
    },
    Instance {
        name: "rmat-15",
        family: Family::Rmat,
        size: 15,
    },
    Instance {
        name: "rmat-14",
        family: Family::Rmat,
        size: 14,
    },
    Instance {
        name: "rgg2d-6k",
        family: Family::Rgg2d,
        size: 6_144,
    },
];

/// How a workload reaches its container — the store layer it exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `read_tpg_compressed` into RAM, then `PartitionEngine::partition`.
    Compressed,
    /// `PartitionEngine::partition_path` through a `PagedGraph` with 4 KiB pages and a
    /// budget of half the data section, no prefetch: most lookups miss.
    PagedHalf,
    /// One engine, one shared mmap `StoreHandle`, several OS threads each sending
    /// `requests_per_thread` requests in a closed loop (`partition_store`).
    SharedMmap,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    One,
    /// `min(nproc, 4)`.
    Max,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub instance: &'static str,
    pub preset: Preset,
    pub k: usize,
    pub threads: Threads,
    pub access: Access,
    /// OS threads sending requests concurrently (1 except for the sessions workload).
    pub sessions: usize,
    pub requests_per_session: usize,
    /// Distinct partitioner seeds measured per round. A fixed count, so the reported
    /// mean is over the same number of trajectories on a fast and on a slow machine.
    pub trajectories: usize,
}

impl Workload {
    pub fn num_threads(&self, tmax: usize) -> usize {
        match self.threads {
            Threads::One => 1,
            Threads::Max => tmax,
        }
    }

    /// A fixed seed gives a bit-identical cut: true at one thread per request (parallel
    /// LP applies moves in scheduling order).
    pub fn cut_repeats_exactly(&self) -> bool {
        self.threads == Threads::One
    }

    /// The memtrack peak repeats exactly only when nothing else charges the
    /// process-global tracker meanwhile.
    pub fn peak_repeats_exactly(&self) -> bool {
        self.threads == Threads::One && self.sessions == 1
    }
}

pub const EPSILON: f64 = 0.03;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "rgg2d-250k.fast.t1",
        why: "coarsening-bound: LP clustering over the compressed store does most of the work, initial partitioning almost none; deterministic half of the thread pair",
        instance: "rgg2d-250k",
        preset: Preset::Fast,
        k: 16,
        threads: Threads::One,
        access: Access::Compressed,
        sessions: 1,
        requests_per_session: 1,
        trajectories: 5,
    },
    Workload {
        name: "rgg2d-250k.fast.tmax",
        why: "same layers used in parallel: the only workload where the rayon shim's spawn-per-call cost and static splitting can show",
        instance: "rgg2d-250k",
        preset: Preset::Fast,
        k: 16,
        threads: Threads::Max,
        access: Access::Compressed,
        sessions: 1,
        requests_per_session: 1,
        trajectories: 6,
    },
    Workload {
        name: "rmat-14.default.t1",
        why: "refinement-bound on a skewed-degree graph: k-way FM and the gain table dominate, coarsening is noise",
        instance: "rmat-14",
        preset: Preset::Default,
        k: 16,
        threads: Threads::One,
        access: Access::Compressed,
        sessions: 1,
        requests_per_session: 1,
        trajectories: 10,
    },
    Workload {
        name: "rmat-15.fast-k64.t1",
        why: "initial-partitioning-bound: R-MAT barely shrinks, so recursive bisection for k=64 runs on a large coarsest graph",
        instance: "rmat-15",
        preset: Preset::Fast,
        k: 64,
        threads: Threads::One,
        access: Access::Compressed,
        sessions: 1,
        requests_per_session: 1,
        trajectories: 5,
    },
    Workload {
        name: "rgg2d-6k.paged-half.t1",
        why: "store-bound: a page cache of half the data makes the page-miss path (pread, checksum re-verification, eviction) nearly all of the time",
        instance: "rgg2d-6k",
        preset: Preset::Fast,
        k: 16,
        threads: Threads::One,
        access: Access::PagedHalf,
        sessions: 1,
        requests_per_session: 1,
        trajectories: 3,
    },
    Workload {
        name: "rmat-14.sessions-x2",
        why: "engine used by co-tenants: 2 OS threads x 4 requests on one shared mmap store exercise registry dedup, the scratch pool and the process-global memtrack",
        instance: "rmat-14",
        preset: Preset::Fast,
        k: 16,
        threads: Threads::One,
        access: Access::SharedMmap,
        sessions: 2,
        requests_per_session: 4,
        trajectories: 4,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A declared metric. `bound` is the share of the baseline median by which an
/// end-to-end metric may worsen before it counts as a regression; per-layer metrics
/// have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WALL_S: &str = "wall_s";
pub const RSS_PEAK_BYTES: &str = "rss_peak_bytes";
pub const TRACKED_PEAK_BYTES: &str = "tracked_peak_bytes";
pub const EDGE_CUT: &str = "edge_cut";
pub const SETUP_S: &str = "setup_s";

/// Bounds follow the spreads measured on the reference box (interquartile range over
/// median of ten runs with ten seeds, two sets of seeds; table in README.md): at least
/// three times the widest spread of any workload, except that the tiny paged instance
/// spreads by up to 0.094 in `edge_cut` and 0.071 in `tracked_peak_bytes`.
pub const END_TO_END: [Metric; 5] = [
    e2e(WALL_S, "s", 0.25),
    e2e(RSS_PEAK_BYTES, "bytes", 0.05),
    e2e(TRACKED_PEAK_BYTES, "bytes", 0.20),
    e2e(EDGE_CUT, "edges", 0.20),
    e2e(SETUP_S, "s", 0.25),
];

use Better::{Higher, Lower};

pub const PER_LAYER: [Metric; 51] = [
    layer("gen.medges_per_s", "1/s", Higher),
    layer("store.write_tpg_s", "s", Lower),
    layer("store.bytes_per_edge", "bytes", Lower),
    layer("store.open_s", "s", Lower),
    layer("store.decode_csr_medges_per_s", "1/s", Higher),
    layer("store.decode_compressed_medges_per_s", "1/s", Higher),
    layer("store.decode_mmap_medges_per_s", "1/s", Higher),
    layer("store.decode_paged_fit_medges_per_s", "1/s", Higher),
    layer("store.page_hits", "count", Higher),
    layer("store.page_misses", "count", Lower),
    layer("store.page_hit_rate", "ratio", Higher),
    layer("store.miss_us", "us", Lower),
    layer("store.retried_reads", "count", Lower),
    layer("lp_cluster.s", "s", Lower),
    layer("lp_cluster.medges_per_s", "1/s", Higher),
    layer("lp_cluster.shrink", "ratio", Higher),
    layer("contract.s", "s", Lower),
    layer("contract.medges_per_s", "1/s", Higher),
    layer("contract.coarse_m", "edges", Lower),
    layer("coarsen.s", "s", Lower),
    layer("coarsen.levels", "count", Lower),
    layer("coarsen.coarsest_n", "count", Lower),
    layer("initial.s", "s", Lower),
    layer("initial.share", "ratio", Lower),
    layer("initial.cut", "edges", Lower),
    layer("refine.s", "s", Lower),
    layer("refine.lp_moves", "count", Lower),
    layer("refine.fm_moves", "count", Lower),
    layer("refine.rebalance_moves", "count", Lower),
    layer("refine.moves_per_s", "1/s", Higher),
    layer("refine.cut_gain", "edges", Higher),
    layer("refine.gain_per_kmove", "edges", Higher),
    layer("refine.gain_table_bytes", "bytes", Lower),
    layer("engine.first_request_s", "s", Lower),
    layer("engine.warm_request_s", "s", Lower),
    layer("engine.pool_high_water", "count", Lower),
    layer("engine.parked_bytes", "bytes", Lower),
    layer("engine.concurrency_gain", "ratio", Higher),
    layer("shim.par_call_us", "us", Lower),
    layer("shim.join_us", "us", Lower),
    layer("mem.tracked_over_rss", "ratio", Higher),
    layer("mem.peak_vs_csr", "ratio", Lower),
    layer("obs.trace_overhead", "ratio", Lower),
    layer("obs.span_coverage", "ratio", Higher),
    layer("phase.cluster_s", "s", Lower),
    layer("phase.contract_s", "s", Lower),
    layer("phase.initial_partition_s", "s", Lower),
    layer("phase.refine_s", "s", Lower),
    layer("phase.open_or_compress_s", "s", Lower),
    layer("probe.stage_sum_over_wall", "ratio", Lower),
    layer("calib_s", "s", Lower),
];

/// splitmix64 over the run seed and a label: every generator and partitioner seed is
/// derived this way, so one `--seed` fixes every input.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in label.bytes().chain(index.to_le_bytes()) {
        x = (x ^ u64::from(b)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
    }
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn derived_seeds_depend_on_every_input() {
        let base = derive_seed(1, "rmat-14", 0);
        assert_eq!(base, derive_seed(1, "rmat-14", 0));
        assert_ne!(base, derive_seed(2, "rmat-14", 0));
        assert_ne!(base, derive_seed(1, "rmat-15", 0));
        assert_ne!(base, derive_seed(1, "rmat-14", 1));
    }

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(INSTANCES.iter().any(|i| i.name == w.instance), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; it must declare exactly what this
    /// crate measures.
    #[test]
    fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let entries = |key: &str| manifest.get(key).unwrap().as_array().unwrap().to_vec();
        let text = |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();

        let declared: Vec<_> = entries("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let measured: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, measured);

        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<_> = entries(key)
                .iter()
                .map(|m| {
                    let bound = m.get("bound").and_then(Json::as_f64);
                    (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
                })
                .collect();
            let measured: Vec<_> = metrics
                .iter()
                .map(|m| {
                    let better = match m.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        better.to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(declared, measured, "{key}");
        }
        let seconds = manifest.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(crate::DEFAULT_SECONDS));
    }
}
