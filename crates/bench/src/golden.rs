//! Golden-cut regression table: pinned fixed-seed edge cuts per (preset, instance).
//!
//! Partition quality regressions are easy to introduce silently — a refinement tweak
//! that loses 3% cut still passes every invariant test. This module pins the exact
//! edge cut of a **single-threaded, fixed-seed** run of every [`Preset`] on a small
//! set of golden instances, one per quality-ladder family. Single-threaded runs are
//! bit-deterministic end to end (parallel label propagation only varies with the
//! thread count), so any cut change is a real algorithmic change — either fix it or
//! regenerate the table deliberately.
//!
//! # Regenerating the table
//!
//! ```text
//! cargo run --release -p bench --bin bench_quality -- --golden
//! cargo run --release -p bench --bin bench_quality -- --golden --features wide-ids
//! ```
//!
//! (The second run is `cargo run --release -p bench --features wide-ids ...` — each
//! prints the `GoldenEntry` rows for its ID width; paste them into [`golden_entries`]
//! below. Both widths get their own column defensively; today every golden run is
//! width-independent, so the columns coincide — a divergence is itself a signal.)

use terapart::{PartitionerConfig, Preset};

use crate::harness::{partition_input, Input};
use crate::instances::GenSpec;

/// Number of blocks of every golden run.
pub const GOLDEN_K: usize = 8;

/// One pinned golden cut: the expected single-threaded fixed-seed edge cut of
/// `preset` on `instance` at both ID widths.
#[derive(Debug, Clone)]
pub struct GoldenEntry {
    /// The preset of the run.
    pub preset: Preset,
    /// Golden instance name (see [`golden_specs`]).
    pub instance: &'static str,
    /// Expected edge cut at the default 32-bit `NodeId`.
    pub cut_w32: u64,
    /// Expected edge cut under `wide-ids` (64-bit `NodeId`).
    pub cut_w64: u64,
}

impl GoldenEntry {
    /// The expected cut at the ID width this binary was built with.
    pub fn expected_cut(&self) -> u64 {
        if graph::NodeId::BITS == 64 {
            self.cut_w64
        } else {
            self.cut_w32
        }
    }
}

/// The golden instances: one small, fast rung per quality-ladder family.
pub fn golden_specs() -> Vec<(&'static str, GenSpec)> {
    vec![
        (
            "grid3d-16",
            GenSpec::Grid3d {
                x: 16,
                y: 16,
                z: 16,
            },
        ),
        (
            "rgg2d-6k",
            GenSpec::Rgg2d {
                n: 6_000,
                avg_deg: 12,
                seed: 41,
            },
        ),
        (
            "plc-6k",
            GenSpec::PowerLawCluster {
                n: 6_000,
                attach: 6,
                triad_p: 0.4,
                seed: 43,
            },
        ),
        (
            "rmat-14",
            GenSpec::Rmat {
                scale: 14,
                avg_deg: 8,
                seed: 45,
            },
        ),
    ]
}

/// Runs `preset` on `instance` exactly as the golden table pins it: `k = GOLDEN_K`,
/// one thread, the preset's default seed. Returns the edge cut.
pub fn golden_cut(preset: Preset, instance: &str) -> u64 {
    let (_, spec) = golden_specs()
        .into_iter()
        .find(|(name, _)| *name == instance)
        .unwrap_or_else(|| panic!("unknown golden instance '{}'", instance));
    golden_run(preset, &spec)
}

/// The single-threaded fixed-seed run behind [`golden_cut`], on an explicit spec: the
/// preset runs on the compressed input, as TeraPart does.
pub fn golden_run(preset: Preset, spec: &GenSpec) -> u64 {
    let graph = spec.materialize();
    let mut config = PartitionerConfig::preset(preset, GOLDEN_K);
    config.num_threads = 1;
    partition_input(&graph, Input::Compressed, &config).edge_cut
}

/// The pinned golden cuts. Regenerate with
/// `cargo run --release -p bench --bin bench_quality -- --golden` (see module docs).
pub fn golden_entries() -> Vec<GoldenEntry> {
    use Preset::*;
    let entry = |preset, instance, cut_w32, cut_w64| GoldenEntry {
        preset,
        instance,
        cut_w32,
        cut_w64,
    };
    vec![
        entry(Fast, "grid3d-16", 1156, 1156),
        entry(Fast, "rgg2d-6k", 885, 885),
        entry(Fast, "plc-6k", 22038, 22038),
        entry(Fast, "rmat-14", 37838, 37838),
        entry(Default, "grid3d-16", 1115, 1115),
        entry(Default, "rgg2d-6k", 857, 857),
        entry(Default, "plc-6k", 21174, 21174),
        entry(Default, "rmat-14", 31396, 31396),
        entry(Strong, "grid3d-16", 1112, 1112),
        entry(Strong, "rgg2d-6k", 910, 910),
        entry(Strong, "plc-6k", 20960, 20960),
        entry(Strong, "rmat-14", 26575, 26575),
    ]
}
