//! CI smoke test of the observability layer: runs one recorded pipeline on a small
//! web-like instance, writes its run report as a Chrome trace-event file with
//! `obs::write_chrome_trace`, then validates that the file parses and that its span
//! tree nests correctly (`pipeline ⊇ level ⊇ phase ⊇ round`). A second, untraced run
//! holds the span tree to covering ≥ 98 % of the wall time.
//!
//! Run at both ID widths by the `obs-smoke` CI job:
//!
//! ```text
//! cargo run --release -p bench --bin obs_smoke
//! cargo run --release --features wide-ids -p bench --bin obs_smoke
//! ```
//!
//! The validator is a minimal hand-rolled scanner over this workspace's own trace
//! output (one complete event per line) — no JSON dependency exists in the workspace.

use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig};
use obs::Counter;
use terapart::coarsening::MIN_CONTRACTIBLE_SHARE;
use terapart::{PartitionerConfig, Preset};

/// One parsed `"ph": "X"` complete event of the trace file.
#[derive(Debug)]
struct TraceEvent {
    name: String,
    /// Span kind (`pipeline` / `level` / `phase` / `round`), from the `cat` field.
    cat: String,
    /// Recorder-unique id from `args.id`.
    id: u64,
    /// Id of the enclosing span from `args.parent` (0 for a root).
    parent: u64,
    /// Start timestamp in microseconds.
    ts: f64,
    /// Duration in microseconds.
    dur: f64,
}

/// Extracts `"key": <value>` from one event line, up to the next `,` or `}`.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn string_field(line: &str, key: &str) -> Option<String> {
    raw_field(line, key).map(|v| v.trim_matches('"').to_string())
}

fn parse_trace(text: &str) -> Vec<TraceEvent> {
    assert!(
        text.trim_start().starts_with('['),
        "trace must be a JSON array"
    );
    assert!(
        text.trim_end().ends_with(']'),
        "trace array is unterminated"
    );
    text.lines()
        .filter(|line| line.contains("\"ph\": \"X\""))
        .map(|line| TraceEvent {
            name: string_field(line, "name").expect("event without a name"),
            cat: string_field(line, "cat").expect("event without a cat"),
            id: raw_field(line, "id")
                .and_then(|v| v.parse().ok())
                .expect("event without an args.id"),
            parent: raw_field(line, "parent")
                .and_then(|v| v.parse().ok())
                .expect("event without an args.parent"),
            ts: raw_field(line, "ts")
                .and_then(|v| v.parse().ok())
                .expect("event without a ts"),
            dur: raw_field(line, "dur")
                .and_then(|v| v.parse().ok())
                .expect("event without a dur"),
        })
        .collect()
}

/// Nesting rank of a span kind; a child's rank must be strictly greater than its
/// parent's.
fn rank(cat: &str) -> u32 {
    match cat {
        "pipeline" => 0,
        "level" => 1,
        "phase" => 2,
        "round" => 3,
        other => panic!("unknown span kind {other:?} in the trace"),
    }
}

/// Vertices of hierarchy level `level` of a run on an input of `input_n` vertices: the
/// coarse graphs' sizes are on the coarsening spans; level 0 is the input.
fn level_nodes(report: &obs::RunReport, input_n: usize, level: u64) -> u64 {
    match level {
        0 => input_n as u64,
        _ => report
            .all_spans()
            .iter()
            .find(|span| span.name == "coarsen_level" && span.level == Some(level - 1))
            .and_then(|span| span.attr("coarse_nodes"))
            .expect("a refined level that was never coarsened"),
    }
}

/// k-way FM's gain table has rows for boundary vertices only, read off a `RunReport`:
/// every FM level's `refine` span carries the rows built from the boundary superset
/// (`rows_built`) and the rows appended for vertices that moves put on the boundary
/// (`rows_added`). A vertex holds at most one row, so together they stay within the
/// level's `n`.
fn gain_table_rows(report: &obs::RunReport, input_n: usize) {
    let mut levels = 0;
    for span in report
        .all_spans()
        .iter()
        .filter(|span| span.name == "refine")
    {
        let level = span.level.expect("a refine span without a level");
        let n = level_nodes(report, input_n, level);
        let attr = |key| {
            span.attr(key)
                .expect("an FM refine span without its gain-table rows")
        };
        let (built, added) = (attr("rows_built"), attr("rows_added"));
        println!(
            "refine@{level}: n={n}, gain-table rows built {built} ({:.3} n), added {added}",
            built as f64 / n as f64
        );
        assert!(
            built + added <= n,
            "{built} rows built and {added} added for {n} vertices"
        );
        levels += 1;
    }
    assert!(levels > 0, "no refine span in the report");
}

/// How much of each level refinement looked at, read off a `RunReport` alone: the
/// `refine` spans carry the boundary superset going in (`candidates`), the vertices
/// label propagation visited over all rounds (`visited`) and the superset coming out
/// (`boundary`). On a mesh the input level must be visited in part, not swept.
fn uncoarsening_proportion() {
    let graph = gen::rgg2d(40_000, 8, 3);
    let config = PartitionerConfig::preset(Preset::Fast, 16)
        .with_threads(1)
        .with_run_report(true);
    let result = terapart::partition(
        &CompressedGraph::from_csr(&graph, &CompressionConfig::default()),
        &config,
    );
    let report = result.run_report.as_ref().expect("the run recorded");
    let mut levels: Vec<(u64, u64, u64, u64)> = report
        .all_spans()
        .iter()
        .filter(|span| span.name == "refine")
        .map(|span| {
            let attr = |key| {
                span.attr(key)
                    .expect("a refine span without its attributes")
            };
            (
                span.level.expect("a refine span without a level"),
                attr("candidates"),
                attr("visited"),
                attr("boundary"),
            )
        })
        .collect();
    levels.sort_unstable();
    for &(level, candidates, visited, boundary) in &levels {
        let n = level_nodes(report, graph.n(), level);
        println!(
            "refine@{level}: n={n}, candidates {candidates}, visited {visited} ({:.3} n), boundary {boundary}",
            visited as f64 / n as f64
        );
        assert!(boundary <= n && candidates <= n);
    }
    let &(level, _, visited, _) = levels.first().expect("no refine span in the report");
    assert_eq!(level, 0);
    assert!(
        visited < graph.n() as u64,
        "the input level was swept: {visited} visits of {} vertices",
        graph.n()
    );
    assert_eq!(
        report.counter(Counter::LpRefineVisited),
        levels
            .iter()
            .map(|&(_, _, visited, _)| visited)
            .sum::<u64>()
    );
}

/// The span tree must account for the run: the pipeline root's direct children cover
/// ≥ 98 % of its wall time on `rmat-14` at k = 16, default threads. It reads 0.9993 and
/// above since PR 13; the floor keeps a slow slide (0.9925 → 0.9658 over PRs 8–10)
/// from recurring unnoticed.
///
/// The same report shows, per level, how much of one-pass contraction's edge-array
/// reservation (2m slots) was ever written (2m′): what is resident is the committed part;
/// and why coarsening stalls: how many half-edges the cluster-weight limit still lets
/// label propagation contract, and that a level with fewer than
/// `MIN_CONTRACTIBLE_SHARE` of its half-edges contractible runs no round. Last, what
/// initial partitioning's portfolio decoded, and that its half-edge budget
/// (`initial::PORTFOLIO_HALF_EDGES`) ran between one and `attempts` attempts a bisection.
fn span_coverage_floor() -> f64 {
    let graph = gen::weblike(14, 12, 9);
    let config = PartitionerConfig::terapart(16).with_run_report(true);
    let result = terapart::partition(
        &CompressedGraph::from_csr(&graph, &CompressionConfig::default()),
        &config,
    );
    let report = result.run_report.expect("the run recorded");
    let coverage = report.span_coverage;
    assert!(
        coverage >= 0.98,
        "span tree covers only {:.1}% of the pipeline wall time",
        coverage * 100.0
    );
    let spans = report.all_spans();
    let contractions: Vec<_> = spans
        .iter()
        .filter(|span| span.name == "contract")
        .collect();
    assert!(!contractions.is_empty(), "rmat-14 was not coarsened");
    for span in contractions {
        let attr = |key| {
            span.attr(key)
                .expect("a contraction without its byte attributes")
        };
        let (reserved, written) = (attr("reserved_bytes"), attr("coarse_bytes"));
        println!(
            "contract@{}: reserved {reserved} B, wrote a level of {written} B ({:.3})",
            span.level.expect("a phase span without a level"),
            written as f64 / reserved as f64
        );
    }
    // The half-edges of level `l`'s graph: those of the coarse graph level `l - 1` built.
    let half_edges_of = |level: u64| {
        spans
            .iter()
            .find(|span| span.name == "coarsen_level" && span.level == Some(level - 1))
            .and_then(|span| span.attr("coarse_edges"))
            .map(|edges| 2 * edges)
            .expect("a counted level without the contraction that built it")
    };
    for span in spans.iter().filter(|span| span.name == "cluster") {
        let level = span.level.expect("a cluster span without a level");
        let rounds = span
            .children
            .iter()
            .filter(|c| c.name == "lp_round")
            .count();
        match (span.attr("contractible_half_edges"), span.attr("movable")) {
            (Some(contractible), Some(movable)) => {
                let share = contractible as f64 / half_edges_of(level) as f64;
                println!("cluster@{level}: {contractible} contractible half-edges ({:.1} %), {movable} movable vertices, {rounds} rounds", 100.0 * share);
                assert!(
                    share >= MIN_CONTRACTIBLE_SHARE || rounds == 0,
                    "level {level} ran {rounds} rounds with {:.1} % of its half-edges \
                     contractible, below the share that gives it up",
                    100.0 * share
                );
            }
            // Unit weights: every edge is contractible and nothing was counted.
            (None, None) => assert_eq!(level, 0, "a coarse level was not counted"),
            _ => panic!("cluster@{level} carries one of its two attributes"),
        }
    }
    // The portfolio's work in half-edges, and how many attempts its budget let it run.
    let (grow_half_edges, fm_half_edges, extract_half_edges) = (
        report.counter(Counter::InitialGrowHalfEdges),
        report.counter(Counter::InitialFmHalfEdges),
        report.counter(Counter::InitialExtractHalfEdges),
    );
    let (bisections, attempts) = (
        report.counter(Counter::InitialBisections),
        report.counter(Counter::InitialAttempts),
    );
    println!(
        "initial: {attempts} attempts in {bisections} bisections (at most {} each); growing \
         decoded {grow_half_edges} half-edges, fm flipped {fm_half_edges} (rollbacks included), \
         the extractions below the root decoded {extract_half_edges}",
        config.initial.attempts
    );
    assert!(grow_half_edges > 0 && fm_half_edges > 0);
    assert!(
        bisections <= attempts && attempts <= config.initial.attempts as u64 * bisections,
        "{attempts} attempts in {bisections} bisections"
    );
    coverage
}

fn main() {
    let dir = std::env::temp_dir().join(format!("terapart_obs_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("failed to create the smoke dir");
    let trace_path = dir.join("trace.json");

    let graph = gen::weblike(12, 10, 7);
    println!(
        "obs smoke: id width {} bits, n={}, m={}",
        graph::NodeId::BITS,
        graph.n(),
        graph.m()
    );
    // The `default` preset, so the trace also carries k-way FM's `fm_pass` rounds.
    let config = PartitionerConfig::preset(Preset::Default, 8)
        .with_threads(2)
        .with_run_report(true);
    let result = terapart::partition(
        &CompressedGraph::from_csr(&graph, &CompressionConfig::default()),
        &config,
    );
    assert!(result.partition.is_balanced(), "smoke run is imbalanced");
    let report = result.run_report.as_ref().expect("the run recorded");
    obs::write_chrome_trace(&trace_path, report).expect("failed to write the chrome trace");

    // Refinement's moves tried vs. kept per second, read off the report alone.
    let (tried, accepted, rolled_back) = (
        report.counter(Counter::FmMovesTried),
        report.counter(Counter::FmMovesAccepted),
        report.counter(Counter::FmMovesRolledBack),
    );
    assert!(
        accepted > 0 && tried >= accepted + rolled_back,
        "fm counters inconsistent: {accepted} kept + {rolled_back} rolled back of {tried} tried"
    );
    let fm_seconds: f64 = report
        .all_spans()
        .iter()
        .filter(|span| span.name == "fm_pass")
        .map(|span| span.seconds())
        .sum();
    println!(
        "fm: {accepted} kept of {tried} tried ({rolled_back} rolled back, {} gain queries) in {fm_seconds:.4} s — {:.0} tried/s, {:.0} kept/s",
        report.counter(Counter::FmGainQueries),
        tried as f64 / fm_seconds,
        accepted as f64 / fm_seconds
    );

    // The same for the 2-way FM of initial partitioning (sums over the whole portfolio).
    let (initial_tried, initial_kept) = (
        report.counter(Counter::InitialFmMovesTried),
        report.counter(Counter::InitialFmMovesKept),
    );
    assert!(
        initial_tried >= initial_kept,
        "initial fm counters inconsistent: {initial_kept} kept of {initial_tried} tried"
    );
    println!(
        "initial fm: {initial_kept} kept of {initial_tried} tried in {} passes of {} attempts",
        report.counter(Counter::InitialFmPasses),
        report.counter(Counter::InitialAttempts)
    );

    gain_table_rows(report, graph.n());

    uncoarsening_proportion();
    let coverage = span_coverage_floor();

    // ---- Validate the Chrome trace. ----
    let text = std::fs::read_to_string(&trace_path).expect("trace file missing");
    let events = parse_trace(&text);
    assert!(!events.is_empty(), "trace contains no events");
    let by_id: std::collections::HashMap<u64, &TraceEvent> =
        events.iter().map(|e| (e.id, e)).collect();
    assert_eq!(by_id.len(), events.len(), "duplicate span ids in the trace");

    let pipeline = events
        .iter()
        .find(|e| e.cat == "pipeline")
        .expect("no pipeline span in the trace");
    assert_eq!(pipeline.parent, 0, "the pipeline span must be a root");
    let mut levels = 0usize;
    let mut phases_under_level = 0usize;
    for event in &events {
        if event.parent == 0 {
            // Roots: the pipeline itself plus `open_store`, the one phase that ends
            // before the pipeline span begins.
            assert!(
                event.cat == "pipeline" || (event.cat == "phase" && event.name == "open_store"),
                "unexpected root span {} ({})",
                event.name,
                event.cat
            );
            continue;
        }
        let parent = by_id
            .get(&event.parent)
            .unwrap_or_else(|| panic!("span {} has a dangling parent id", event.name));
        assert!(
            rank(&event.cat) > rank(&parent.cat),
            "span {} ({}) nested under {} ({})",
            event.name,
            event.cat,
            parent.name,
            parent.cat
        );
        // Timestamp containment, with 1µs slack for the truncation to microseconds.
        assert!(
            event.ts + 1e-3 >= parent.ts && event.ts + event.dur <= parent.ts + parent.dur + 1e-3,
            "span {} [{}, {}] escapes its parent {} [{}, {}]",
            event.name,
            event.ts,
            event.ts + event.dur,
            parent.name,
            parent.ts,
            parent.ts + parent.dur
        );
        if event.cat == "level" {
            assert_eq!(
                parent.cat, "pipeline",
                "level span {} not directly under the pipeline",
                event.name
            );
            levels += 1;
        }
        if event.cat == "phase" && parent.cat == "level" {
            phases_under_level += 1;
        }
    }
    assert!(levels > 0, "no level spans under the pipeline");
    assert!(phases_under_level > 0, "no phase spans under a level");

    std::fs::remove_dir_all(&dir).ok();
    println!(
        "obs smoke OK: {} events, {} level spans, {} nested phases, coverage {:.1}%",
        events.len(),
        levels,
        phases_under_level,
        coverage * 100.0
    );
}
