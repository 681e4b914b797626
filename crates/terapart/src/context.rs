//! Partitioner configuration ("context" in KaMinPar terminology).
//!
//! The experiments of the paper enable the TeraPart optimizations one after another on
//! top of the KaMinPar baseline (Figures 1, 4 and 6). [`PartitionerConfig`] exposes each
//! optimization as an independent switch plus named presets for the configurations the
//! paper evaluates:
//!
//! * [`PartitionerConfig::kaminpar`] — the baseline: per-thread rating maps, buffered
//!   contraction, uncompressed input, label propagation refinement.
//! * [`PartitionerConfig::kaminpar_two_phase_lp`] — + two-phase label propagation.
//! * [`PartitionerConfig::terapart`] — + one-pass contraction and frontier-driven LP
//!   rounds (the full TeraPart).
//! * [`PartitionerConfig::terapart_fm`] — TeraPart with k-way FM refinement on the
//!   space-efficient gain table (TeraPart-FM in the paper; also [`Preset::Default`]).
//!
//! Graph compression, the ladder's third step, is not a switch: it is the type of the
//! input. Passing a [`graph::CompressedGraph`] to
//! [`partition`](crate::partitioner::partition) runs the same configuration on the
//! compressed representation.

/// How the label propagation clustering allocates its rating maps (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelPropagationMode {
    /// One `O(n)` sparse-array rating map per thread — `O(n·p)` auxiliary memory.
    /// This is the original KaMinPar scheme.
    PerThreadRatingMaps,
    /// Two-phase label propagation: fixed-capacity per-thread hash tables in phase one,
    /// a single shared atomic sparse array for bumped vertices in phase two —
    /// `O(n + p·T_bump)` auxiliary memory.
    TwoPhase,
}

/// Which contraction algorithm builds the coarse graph (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractionAlgorithm {
    /// Aggregate coarse edges into per-cluster buffers, then copy them into the CSR
    /// arrays once all degrees are known (the original KaMinPar scheme; stores the
    /// coarse graph twice at its peak).
    Buffered,
    /// One-pass contraction: append coarse neighbourhoods directly to the coarse graph's
    /// edge arrays — reserved for `2m` entries, backed only where written — using the
    /// atomic dual counter, then remap vertex IDs in place.
    OnePass,
}

/// Gain-cache flavour used by FM refinement (paper §V / Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GainTableKind {
    /// No gain table: gains are recomputed from scratch whenever they are needed.
    None,
    /// The standard dense table with `k` entries per vertex (`O(nk)` memory).
    Dense,
    /// The space-efficient table: dense rows only for vertices with `deg(v) > k`, tiny
    /// linear-probing hash tables of capacity `Θ(deg(v))` otherwise (`O(m)` memory).
    Sparse,
}

/// Refinement algorithm run on every level during uncoarsening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementAlgorithm {
    /// Size-constrained label propagation refinement (KaMinPar default, TeraPart-LP).
    LabelPropagation,
    /// Label propagation followed by k-way FM
    /// ([`kway_fm`](crate::refinement::kway_fm), TeraPart-FM): the FM discipline over all
    /// `k` blocks with hill climbing and rollback to the best move prefix, on the §V
    /// gain tables. Deterministic at any thread count.
    KWayFmWithLabelPropagation,
}

/// Edge rating used by label propagation clustering to score candidate clusters
/// (advanced coarsening, Safro et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRating {
    /// Plain summed edge weight (the KaMinPar/TeraPart default).
    Weight,
    /// Degree-scaled rating `1 + (ω(u,v) << 8) / (1 + deg(u) + deg(v))`: an integer
    /// stand-in for the algebraic-distance-style ratings of Safro et al.'s advanced
    /// coarsening schemes. Edges between low-degree vertices are preferred over hub
    /// edges, which keeps hubs from absorbing whole neighbourhoods on power-law
    /// graphs and preserves cluster structure for the refinement to exploit.
    DegreeScaled,
}

/// Settings of the coarsening stage.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseningConfig {
    /// Rating-map strategy for label propagation clustering.
    pub lp_mode: LabelPropagationMode,
    /// Contraction algorithm.
    pub contraction: ContractionAlgorithm,
    /// Number of label propagation rounds per level (the paper performs 5).
    pub lp_rounds: usize,
    /// Bump threshold `T_bump`: vertices whose neighbourhood touches at least this many
    /// distinct clusters are deferred to the second phase. The paper uses 10 000; the
    /// default here is lower so the second phase is exercised at laptop scale.
    pub bump_threshold: usize,
    /// Coarsening stops once the graph has at most `contraction_limit · k` vertices.
    pub contraction_limit: usize,
    /// Maximum cluster weight as a fraction of the average block weight. KaMinPar uses
    /// `ε`-dependent limits; a constant fraction reproduces the behaviour at small scale.
    pub max_cluster_weight_fraction: f64,
    /// Frontier-driven rounds: after the full first round, only vertices whose
    /// neighbourhood changed in the previous round are revisited (active-set
    /// scheduling). Disable to reproduce the original full-sweep rounds.
    pub lp_frontier: bool,
    /// Edge rating used when scoring candidate clusters.
    pub edge_rating: EdgeRating,
}

impl Default for CoarseningConfig {
    fn default() -> Self {
        Self {
            lp_mode: LabelPropagationMode::TwoPhase,
            contraction: ContractionAlgorithm::OnePass,
            lp_rounds: 5,
            bump_threshold: 256,
            contraction_limit: 40,
            max_cluster_weight_fraction: 1.0,
            lp_frontier: true,
            edge_rating: EdgeRating::Weight,
        }
    }
}

/// Settings of the initial partitioning stage (run on the coarsest graph).
#[derive(Debug, Clone, PartialEq)]
pub struct InitialPartitioningConfig {
    /// Number of independent attempts of the greedy-growing + FM portfolio per
    /// bisection, at most: a bisection of a subgraph with more than
    /// [`PORTFOLIO_HALF_EDGES`](crate::initial::PORTFOLIO_HALF_EDGES) half-edges runs
    /// proportionally fewer, at least one. Each attempt derives its RNG stream from the
    /// bisection's seed and the attempt index; the winner is the best balanced result,
    /// ties broken by lower cut and then lower attempt index, so the outcome is
    /// independent of the order in which parallel attempts finish.
    pub attempts: usize,
    /// Number of 2-way FM passes applied to each bisection attempt (each pass stops
    /// early once it cannot improve the cut).
    pub fm_passes: usize,
}

impl Default for InitialPartitioningConfig {
    fn default() -> Self {
        Self {
            attempts: 4,
            fm_passes: 3,
        }
    }
}

/// Settings of the refinement stage (run on every level during uncoarsening).
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementConfig {
    /// Which refinement algorithm to run.
    pub algorithm: RefinementAlgorithm,
    /// Gain table used by FM refinement.
    pub gain_table: GainTableKind,
    /// Number of label propagation refinement rounds per level.
    pub lp_rounds: usize,
    /// Number of FM passes per level.
    pub fm_passes: usize,
    /// Frontier-driven LP refinement rounds: after the full first round, only vertices
    /// whose neighbourhood changed are revisited. Disable for full-sweep rounds.
    pub lp_frontier: bool,
    /// How many consecutive moves without a new best prefix an FM pass tolerates before
    /// it stops hill climbing (the rolled-back tail is bounded by this).
    pub fm_adverse_limit: usize,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        Self {
            algorithm: RefinementAlgorithm::LabelPropagation,
            gain_table: GainTableKind::Sparse,
            lp_rounds: 5,
            fm_passes: 2,
            lp_frontier: true,
            fm_adverse_limit: 64,
        }
    }
}

/// Observability settings: whether a run records spans and counters.
///
/// Recording is *read-only* with respect to the partitioning algorithms: a fixed-seed
/// run produces a bit-identical partition whether recording is off or on, at any thread
/// count (asserted by `tests/observability.rs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Record spans and counters into an [`obs::Recorder`] and attach the resulting
    /// [`obs::RunReport`] to the [`PartitionResult`](crate::partitioner::PartitionResult).
    /// When `false` (the default) the pipeline runs against [`obs::ObsHandle::noop`],
    /// which allocates nothing and compiles down to a branch on a `None`. A caller that
    /// wants a Chrome trace writes the report with [`obs::write_chrome_trace`].
    pub record: bool,
}

/// Settings of the on-disk (`.tpg`-backed) partitioning entry point
/// [`partition_ondisk`](crate::partitioner::partition_ondisk): the page-cache geometry
/// the [`graph::PagedGraph`] is opened with. This is exactly
/// [`graph::PagedGraphOptions`] (backend, page size, budget, retry policy); the alias
/// keeps the partitioner-facing name without a second struct that could drift.
pub type OnDiskConfig = graph::PagedGraphOptions;

/// Complete configuration of a partitioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionerConfig {
    /// Number of blocks `k`.
    pub k: usize,
    /// Allowed imbalance ε (the paper uses 3%).
    pub epsilon: f64,
    /// Number of worker threads (`p`).
    pub num_threads: usize,
    /// Random seed controlling vertex visit orders and initial partitioning.
    pub seed: u64,
    /// Coarsening settings.
    pub coarsening: CoarseningConfig,
    /// Initial partitioning settings.
    pub initial: InitialPartitioningConfig,
    /// Refinement settings.
    pub refinement: RefinementConfig,
    /// Page-cache settings of the on-disk entry point (ignored by in-memory runs).
    pub ondisk: OnDiskConfig,
    /// Observability settings (span recording).
    pub obs: ObsConfig,
}

impl PartitionerConfig {
    /// The KaMinPar baseline configuration (no TeraPart optimizations). Frontier-driven
    /// LP rounds are disabled too: the baseline models the original full-sweep
    /// behaviour, so the experiment ladder isolates each optimization's contribution.
    pub fn kaminpar(k: usize) -> Self {
        Self {
            k,
            epsilon: 0.03,
            num_threads: default_threads(),
            seed: 1,
            coarsening: CoarseningConfig {
                lp_mode: LabelPropagationMode::PerThreadRatingMaps,
                contraction: ContractionAlgorithm::Buffered,
                lp_frontier: false,
                ..CoarseningConfig::default()
            },
            initial: InitialPartitioningConfig::default(),
            refinement: RefinementConfig {
                lp_frontier: false,
                ..RefinementConfig::default()
            },
            ondisk: OnDiskConfig::default(),
            obs: ObsConfig::default(),
        }
    }

    /// KaMinPar + two-phase label propagation (first optimization step in Fig. 1/4/6).
    pub fn kaminpar_two_phase_lp(k: usize) -> Self {
        let mut config = Self::kaminpar(k);
        config.coarsening.lp_mode = LabelPropagationMode::TwoPhase;
        config
    }

    /// The full TeraPart configuration: two-phase LP, one-pass contraction and
    /// frontier-driven LP rounds, with label propagation refinement (TeraPart-LP in the
    /// paper). Run it on a [`graph::CompressedGraph`] for TeraPart's compressed input.
    pub fn terapart(k: usize) -> Self {
        let mut config = Self::kaminpar_two_phase_lp(k);
        config.coarsening.contraction = ContractionAlgorithm::OnePass;
        config.coarsening.lp_frontier = true;
        config.refinement.lp_frontier = true;
        config
    }

    /// TeraPart with k-way FM refinement after label propagation, on the
    /// space-efficient gain table (TeraPart-FM in the paper, §V).
    pub fn terapart_fm(k: usize) -> Self {
        let mut config = Self::terapart(k);
        config.refinement.algorithm = RefinementAlgorithm::KWayFmWithLabelPropagation;
        config.refinement.gain_table = GainTableKind::Sparse;
        config
    }

    /// The configuration of a quality [`Preset`]. See the preset docs for what each
    /// level enables.
    pub fn preset(preset: Preset, k: usize) -> Self {
        match preset {
            Preset::Fast => Self::terapart(k),
            Preset::Default => Self::terapart_fm(k),
            Preset::Strong => {
                let mut config = Self::preset(Preset::Default, k);
                // Full-sweep LP rounds: revisit every vertex each round instead of
                // only the active frontier.
                config.coarsening.lp_frontier = false;
                config.refinement.lp_frontier = false;
                // Advanced-coarsening edge rating (Safro et al.).
                config.coarsening.edge_rating = EdgeRating::DegreeScaled;
                // More local search everywhere.
                config.coarsening.lp_rounds = 8;
                config.refinement.lp_rounds = 8;
                config.refinement.fm_passes = 4;
                config.refinement.fm_adverse_limit = 192;
                config.initial.attempts = 8;
                config.initial.fm_passes = 5;
                config
            }
        }
    }

    /// Sets the number of threads, returning the modified configuration.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads.max(1);
        self
    }

    /// Sets the random seed, returning the modified configuration.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the imbalance parameter, returning the modified configuration.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the gain-table kind used by FM refinement.
    pub fn with_gain_table(mut self, kind: GainTableKind) -> Self {
        self.refinement.gain_table = kind;
        self
    }

    /// Sets the page-cache budget (bytes) of the on-disk entry point.
    pub fn with_page_budget(mut self, bytes: usize) -> Self {
        self.ondisk.budget_bytes = bytes;
        self
    }

    /// Selects the store backend ([`OnDiskConfig::backend`]) of the on-disk entry
    /// point: [`Paged`](graph::store::OnDiskBackend::Paged) (default) decodes through
    /// the budgeted page cache, [`Mmap`](graph::store::OnDiskBackend::Mmap) decodes
    /// zero-copy out of a verified read-only memory mapping — the fits-in-RAM fast
    /// path. Fixed-seed results are bit-identical across backends.
    pub fn with_store_backend(mut self, backend: graph::store::OnDiskBackend) -> Self {
        self.ondisk.backend = backend;
        self
    }

    /// Sets the transient-read retry policy ([`OnDiskConfig::retry`]) of the on-disk
    /// entry point: how many times (and with what backoff) a failed page read is
    /// repeated before the run gives up with a structured error.
    pub fn with_retry(mut self, retry: graph::store::RetryPolicy) -> Self {
        self.ondisk.retry = retry;
        self
    }

    /// Enables span/counter recording: the run attaches an [`obs::RunReport`] (span
    /// tree, phase wall times, unified counters) to its
    /// [`PartitionResult`](crate::partitioner::PartitionResult). Results are
    /// bit-identical with recording on or off; the overhead is one timestamp pair and
    /// one mutex push per phase, nothing per vertex or edge.
    pub fn with_run_report(mut self, record: bool) -> Self {
        self.obs.record = record;
        self
    }
}

/// Quality presets: named points on the cut-vs-time trade-off, built on top of the
/// paper's optimization ladder. `BENCH_quality.json` (written by the `bench_quality`
/// binary) records the Pareto sweep across these presets and the instance families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Today's frontier-driven TeraPart-LP pipeline: frontier LP clustering and
    /// refinement, label propagation refinement only. Fastest, coarsest cuts.
    Fast,
    /// TeraPart-FM ([`PartitionerConfig::terapart_fm`]): frontier LP plus k-way FM
    /// refinement with the space-efficient gain table. The recommended balance of
    /// quality and speed.
    Default,
    /// Full-sweep LP rounds, the degree-scaled advanced-coarsening edge rating
    /// ([`EdgeRating::DegreeScaled`], per Safro et al.), more LP rounds, more k-way FM
    /// passes with a longer hill-climbing budget and a larger initial-partitioning
    /// portfolio. Best cuts, slowest.
    Strong,
}

impl Preset {
    /// Every preset, fastest first — the order bench sweeps report.
    pub const ALL: [Preset; 3] = [Preset::Fast, Preset::Default, Preset::Strong];

    /// The lowercase name used in CLI flags, bench reports and golden-cut tables.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Fast => "fast",
            Preset::Default => "default",
            Preset::Strong => "strong",
        }
    }

    /// Parses [`Preset::name`] back. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        Preset::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Default thread count: all available parallelism, matching the paper's "use all cores
/// unless stated otherwise".
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_enable_optimizations_incrementally() {
        let base = PartitionerConfig::kaminpar(16);
        assert_eq!(
            base.coarsening.lp_mode,
            LabelPropagationMode::PerThreadRatingMaps
        );
        assert_eq!(base.coarsening.contraction, ContractionAlgorithm::Buffered);
        assert!(!base.coarsening.lp_frontier && !base.refinement.lp_frontier);

        let two_phase = PartitionerConfig::kaminpar_two_phase_lp(16);
        assert_eq!(two_phase.coarsening.lp_mode, LabelPropagationMode::TwoPhase);
        assert_eq!(
            two_phase.coarsening.contraction,
            ContractionAlgorithm::Buffered
        );

        let terapart = PartitionerConfig::terapart(16);
        assert_eq!(
            terapart.coarsening.contraction,
            ContractionAlgorithm::OnePass
        );
        assert!(terapart.coarsening.lp_frontier && terapart.refinement.lp_frontier);
        assert_eq!(
            terapart.refinement.algorithm,
            RefinementAlgorithm::LabelPropagation
        );

        let fm = PartitionerConfig::terapart_fm(16);
        assert_eq!(
            fm.refinement.algorithm,
            RefinementAlgorithm::KWayFmWithLabelPropagation
        );
        assert_eq!(fm.refinement.gain_table, GainTableKind::Sparse);
    }

    #[test]
    fn builder_style_setters() {
        let config = PartitionerConfig::terapart(4)
            .with_threads(2)
            .with_seed(99)
            .with_epsilon(0.1)
            .with_gain_table(GainTableKind::Dense);
        assert_eq!(config.num_threads, 2);
        assert_eq!(config.seed, 99);
        assert!((config.epsilon - 0.1).abs() < 1e-12);
        assert_eq!(config.refinement.gain_table, GainTableKind::Dense);
    }

    #[test]
    fn threads_are_clamped_to_one() {
        let config = PartitionerConfig::terapart(4).with_threads(0);
        assert_eq!(config.num_threads, 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn quality_presets_trade_speed_for_quality() {
        let fast = PartitionerConfig::preset(Preset::Fast, 8);
        assert_eq!(fast, PartitionerConfig::terapart(8));
        assert_eq!(
            fast.refinement.algorithm,
            RefinementAlgorithm::LabelPropagation
        );

        let default = PartitionerConfig::preset(Preset::Default, 8);
        assert_eq!(default, PartitionerConfig::terapart_fm(8));
        assert!(default.coarsening.lp_frontier, "default keeps frontier LP");

        let strong = PartitionerConfig::preset(Preset::Strong, 8);
        assert!(!strong.coarsening.lp_frontier && !strong.refinement.lp_frontier);
        assert_eq!(strong.coarsening.edge_rating, EdgeRating::DegreeScaled);
        assert!(strong.refinement.fm_passes > default.refinement.fm_passes);
        assert!(strong.initial.attempts > default.initial.attempts);
    }

    #[test]
    fn preset_names_round_trip() {
        for preset in Preset::ALL {
            assert_eq!(Preset::from_name(preset.name()), Some(preset));
        }
        assert_eq!(Preset::from_name("fastest"), None);
        assert_eq!(Preset::ALL.map(|p| p.name()), ["fast", "default", "strong"]);
    }

    #[test]
    fn observability_builders() {
        let config = PartitionerConfig::terapart(4);
        assert!(!config.obs.record);
        assert!(config.with_run_report(true).obs.record);
    }

    #[test]
    fn paper_defaults() {
        let config = PartitionerConfig::terapart(8);
        assert!((config.epsilon - 0.03).abs() < 1e-12);
        assert_eq!(config.coarsening.lp_rounds, 5);
    }
}
