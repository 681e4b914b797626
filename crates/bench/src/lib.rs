//! Experiment harness reproducing the tables and figures of the TeraPart paper.
//!
//! The binaries under `src/bin/` each regenerate one table or figure (the README's
//! "Running the experiment ladder" is the index); this library provides what they
//! share: the scaled-down benchmark instance sets ([`setup`]) and the
//! measurement/aggregation utilities ([`harness`]). Timings that carry a claim are
//! measured by the standalone `benchmark/` crate, not here.

pub mod golden;
pub mod harness;
pub mod instances;
pub mod setup;

pub use golden::{golden_cut, golden_entries, golden_run, GoldenEntry};
pub use harness::{
    geometric_mean, harmonic_mean, measure_run, performance_profile, Input, Measurement,
};
pub use instances::{GenSpec, InstanceSpec};
pub use setup::{
    benchmark_set_a, benchmark_set_b, config_ladder, preset_ladder, quality_families, set_a_specs,
    set_b_specs, Instance, QualityFamily,
};
