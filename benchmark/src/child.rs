//! What runs inside a fresh child process: one measured batch of one workload
//! (`run_timed`), or the traced walk through its layers (`run_traced`). A fresh process
//! per measurement makes `VmHWM` that measurement's own peak.

use std::path::Path;
use std::time::Instant;

use crate::adapter::{self, Graph, Source};
use crate::json::Json;
use crate::machine;
use crate::spec::{Access, Workload};
use crate::trace::Tracer;
use crate::verify::verify_partition;

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// One batch of `workload` with tracing off: open the store, partition, then — outside
/// the timed part — verify every partition. Returns the end-to-end figures.
pub fn run_timed(workload: &Workload, container: &Path, seed: u64) -> Result<Json, String> {
    let config = adapter::config(workload, container, machine::tmax(), seed)?;
    let requests = adapter::requests(workload, &config);
    let engine = adapter::engine(&config);
    let (results, wall_s) = seconds(|| {
        let source = adapter::open_source(&engine, workload, container)?;
        Ok::<_, String>(adapter::run_batch(
            &engine,
            &source,
            &requests,
            workload.sessions,
        ))
    });
    let rss_peak_bytes = machine::rss_peak_bytes()?;

    let results = results?.into_iter().collect::<Result<Vec<_>, _>>()?;
    // An in-RAM copy of the container, whatever access mode the measured run used.
    let reference = Source::InMemory(adapter::open_compressed(container)?);
    for (request, result) in requests.iter().zip(&results) {
        adapter::with_graph(&engine, &reference, |graph| {
            verify_partition(
                graph,
                result.partition.assignment(),
                workload.k,
                result.edge_cut,
            )
        })?
        .map_err(|e| format!("request with seed {}: {e}", request.seed))?;
        if workload.access == Access::PagedHalf {
            // Both stores decode the same bytes in the same order.
            let in_ram = adapter::partition(&engine, &reference, request)?;
            if in_ram.edge_cut != result.edge_cut {
                return Err(format!(
                    "paged cut {} differs from the in-RAM cut {} of the same container",
                    result.edge_cut, in_ram.edge_cut
                ));
            }
        }
    }
    let tracked = results.iter().map(|r| r.peak_memory_bytes).max();
    Ok(Json::obj([
        ("wall_s", Json::Num(wall_s)),
        ("rss_peak_bytes", Json::Num(rss_peak_bytes as f64)),
        ("tracked_peak_bytes", Json::Num(tracked.unwrap_or(0) as f64)),
        (
            "edge_cut",
            Json::Num(results.iter().map(|r| r.edge_cut).sum::<u64>() as f64),
        ),
    ]))
}

/// Half-edges decoded per second (in millions) by a full sweep; one sweep warms pages
/// and caches first, so the four store representations are compared resident.
fn sweep_rate(graph: &dyn Graph) -> f64 {
    let sweep = || {
        let mut sum = 0u64;
        for u in 0..graph.n() {
            graph.for_each_neighbor(u as adapter::NodeId, &mut |v, w| sum += u64::from(v) + w);
        }
        std::hint::black_box(sum);
    };
    sweep();
    let ((), s) = seconds(sweep);
    2.0 * graph.m() as f64 / s / 1e6
}

/// What the rebuilt pipeline measured, stage by stage.
struct Stages {
    n: usize,
    m: usize,
    lp_cluster_s: f64,
    clusters: usize,
    contract_s: f64,
    coarse_m: usize,
    coarsen_s: f64,
    levels: usize,
    coarsest_n: usize,
    initial_s: f64,
    initial_cut: u64,
    project_s: f64,
    refine_s: f64,
    final_evaluate_s: f64,
    lp_moves: usize,
    fm_moves: usize,
    rebalance_moves: usize,
    gain_table_bytes: usize,
    cut_gain: i64,
    final_cut: u64,
}

/// The pipeline rebuilt from the public per-layer functions, each call inside a span.
fn walk_layers(
    graph: &dyn Graph,
    config: &adapter::PartitionerConfig,
    tracer: &mut Tracer,
) -> Result<Stages, String> {
    let (clustering, lp_cluster_s) = tracer.span("coarsening::lp_clustering", |_| {
        adapter::cluster_input_level(graph, config)
    });
    let (contracted, contract_s) = tracer.span("coarsening::contract", |_| {
        adapter::contract_input_level(graph, &clustering, config)
    });
    let coarse_m = contracted.coarse.m();
    drop(contracted);
    let (hierarchy, coarsen_s) = tracer.span("coarsening", |_| adapter::coarsen(graph, config));
    let depth = hierarchy.depth();
    let coarsest = hierarchy
        .coarsest()
        .ok_or("the instance is too small to be coarsened")?;
    let (mut partition, initial_s) =
        tracer.span("initial", |_| adapter::initial_partition(coarsest, config));

    let mut stages = Stages {
        n: graph.n(),
        m: graph.m(),
        lp_cluster_s,
        clusters: clustering.num_clusters,
        contract_s,
        coarse_m,
        coarsen_s,
        levels: depth,
        coarsest_n: coarsest.n(),
        initial_s,
        initial_cut: 0,
        project_s: 0.0,
        refine_s: 0.0,
        final_evaluate_s: 0.0,
        lp_moves: 0,
        fm_moves: 0,
        rebalance_moves: 0,
        gain_table_bytes: 0,
        cut_gain: 0,
        final_cut: 0,
    };
    let mut cut_before = 0;
    for level in (0..=depth).rev() {
        let level_graph: &dyn Graph = match level {
            0 => graph,
            _ => &hierarchy.levels[level - 1].coarse,
        };
        tracer.span(&format!("uncoarsen_level_{level}"), |tracer| {
            if level < depth {
                let mapping = &hierarchy.levels[level].mapping;
                let (projected, s) = tracer.span("partition::project", |_| {
                    adapter::project(&partition, level_graph, mapping)
                });
                partition = projected;
                stages.project_s += s;
            } else {
                // Only the coarsest cut is not already known from the level below.
                let (cut, _) =
                    tracer.span("evaluate", |_| adapter::edge_cut(&partition, level_graph));
                stages.initial_cut = cut;
                cut_before = cut;
            }
            let (stats, s) = tracer.span("refinement", |_| {
                adapter::refine(level_graph, &mut partition, config, level, depth)
            });
            stages.refine_s += s;
            stages.lp_moves += stats.lp_moves;
            stages.fm_moves += stats.fm_moves;
            stages.rebalance_moves += stats.rebalance_moves;
            stages.gain_table_bytes = stages.gain_table_bytes.max(stats.gain_table_bytes);
            // Projection keeps the cut, so this is also the next level's cut before.
            let (cut, s) = tracer.span("evaluate", |_| adapter::edge_cut(&partition, level_graph));
            stages.final_evaluate_s = s;
            stages.cut_gain += cut_before as i64 - cut as i64;
            cut_before = cut;
        });
    }
    stages.final_cut = cut_before;
    Ok(stages)
}

/// The traced run of `workload`: every layer measured once from outside, plus the real
/// request with the program's own report as a cross-check. Writes the spans to
/// `trace_path` and returns the per-layer metrics it can see from inside the child.
pub fn run_traced(
    workload: &Workload,
    container: &Path,
    seed: u64,
    trace_path: &Path,
) -> Result<Json, String> {
    let tmax = machine::tmax();
    let config = adapter::config(workload, container, tmax, seed)?;
    let requests = adapter::requests(workload, &config);
    let request = &requests[0];
    let mut tracer = Tracer::new(workload.name);
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), Json::Num(value)));

    // ---- engine: the same request three times on one engine ----
    let engine = adapter::engine(&config);
    let (opened, first_s) = tracer.span("engine.first_request", |tracer| {
        let (source, open_s) = tracer.span("store::open", |_| {
            adapter::open_source(&engine, workload, container)
        });
        let source = source?;
        let (first, _) = tracer.span("partition", |_| {
            adapter::partition(&engine, &source, request)
        });
        Ok::<_, String>((source, open_s, first?))
    });
    let (source, open_s, first) = opened?;
    let (warm, warm_s) = tracer.span("engine.warm_request", |_| {
        adapter::partition(&engine, &source, request)
    });
    let warm = warm?;
    let (recorded, recorded_s) = tracer.span("engine.recorded_request", |_| {
        adapter::partition(&engine, &source, &adapter::with_run_report(request))
    });
    let recorded = recorded?;
    let rss = machine::rss_peak_bytes()?;
    if workload.cut_repeats_exactly()
        && (warm.edge_cut != first.edge_cut || recorded.edge_cut != first.edge_cut)
    {
        return Err(format!(
            "the same request cut {}, then {}, then {} with recording on",
            first.edge_cut, warm.edge_cut, recorded.edge_cut
        ));
    }
    put("engine.first_request_s", first_s);
    put("engine.warm_request_s", warm_s);
    put("store.open_s", open_s);
    put(
        "mem.tracked_over_rss",
        first.peak_memory_bytes as f64 / rss as f64,
    );
    put("obs.trace_overhead", recorded_s / warm_s);
    let report = recorded
        .run_report
        .as_ref()
        .ok_or("a recording request came back without a run report")?;
    put("obs.span_coverage", report.span_coverage);
    let phase_s = |names: &[&str]| -> f64 {
        recorded
            .phase_reports
            .iter()
            .filter(|p| names.contains(&p.name.as_str()))
            .map(|p| p.elapsed.as_secs_f64())
            .sum()
    };
    put("phase.cluster_s", phase_s(&["cluster"]));
    put("phase.contract_s", phase_s(&["contract"]));
    put("phase.initial_partition_s", phase_s(&["initial_partition"]));
    put("phase.refine_s", phase_s(&["refine"]));
    put(
        "phase.open_or_compress_s",
        phase_s(&["open_store", "compress_input"]),
    );
    let cache = first.cache_stats.unwrap_or_default();
    put("store.page_hits", cache.hits as f64);
    put("store.page_misses", cache.misses as f64);
    put("store.page_hit_rate", cache.hit_rate());
    put(
        "store.miss_us",
        if cache.misses == 0 {
            0.0
        } else {
            first_s * 1e6 / cache.misses as f64
        },
    );
    put("store.retried_reads", cache.retried_reads as f64);

    // ---- engine: the batch sent by one thread, then by several ----
    let (batch, senders) = if workload.sessions > 1 {
        (requests.clone(), workload.sessions)
    } else {
        (
            vec![request.clone(), request.clone().with_seed(seed ^ 1)],
            2,
        )
    };
    let (sequential, sequential_s) = tracer.span("engine.batch_sequential", |_| {
        adapter::run_batch(&engine, &source, &batch, 1)
    });
    let (concurrent, concurrent_s) = tracer.span("engine.batch_concurrent", |_| {
        adapter::run_batch(&engine, &source, &batch, senders)
    });
    for result in sequential.into_iter().chain(concurrent) {
        result?;
    }
    put("engine.concurrency_gain", sequential_s / concurrent_s);
    let (high_water, parked_bytes) = adapter::scratch_pool_stats(&engine);
    put("engine.pool_high_water", high_water as f64);
    put("engine.parked_bytes", parked_bytes as f64);

    // ---- store: one full sweep per representation ----
    let file_bytes = std::fs::metadata(container)
        .map_err(|e| format!("{}: {e}", container.display()))?
        .len();
    let (csr, csr_bytes) = adapter::open_csr(container)?;
    put(
        "mem.peak_vs_csr",
        first.peak_memory_bytes as f64 / csr_bytes as f64,
    );
    tracer
        .span("store::sweeps", |tracer| {
            let mut sweep = |name: &str, graph: &dyn Graph| {
                let (rate, _) = tracer.span(name, |_| sweep_rate(graph));
                put(&format!("store.decode_{name}_medges_per_s"), rate);
            };
            sweep("csr", &csr);
            sweep("compressed", &adapter::open_compressed(container)?);
            sweep("mmap", &adapter::open_mmap(container)?);
            sweep(
                "paged_fit",
                &adapter::open_paged_fit(container, file_bytes)?,
            );
            Ok::<_, String>(())
        })
        .0?;
    drop(csr);

    // ---- pipeline layers, one call each ----
    let threads = workload.num_threads(tmax);
    let layer_config = adapter::effective_config(&engine, request);
    let (stages, _) = tracer.span("layers", |tracer| {
        adapter::with_graph(&engine, &source, |graph| {
            adapter::in_pool(threads, || walk_layers(graph, &layer_config, tracer))
        })
    });
    let stages = stages??;
    if workload.cut_repeats_exactly() && stages.final_cut != first.edge_cut {
        return Err(format!(
            "the rebuilt pipeline cut {}, the real request {}",
            stages.final_cut, first.edge_cut
        ));
    }
    let half_edges = 2.0 * stages.m as f64;
    put("lp_cluster.s", stages.lp_cluster_s);
    put(
        "lp_cluster.medges_per_s",
        half_edges / stages.lp_cluster_s / 1e6,
    );
    put(
        "lp_cluster.shrink",
        stages.n as f64 / stages.clusters as f64,
    );
    put("contract.s", stages.contract_s);
    put(
        "contract.medges_per_s",
        half_edges / stages.contract_s / 1e6,
    );
    put("contract.coarse_m", stages.coarse_m as f64);
    put("coarsen.s", stages.coarsen_s);
    put("coarsen.levels", stages.levels as f64);
    put("coarsen.coarsest_n", stages.coarsest_n as f64);
    // The stages the real request runs: it evaluates the cut once, at the end.
    let stage_sum = open_s
        + stages.coarsen_s
        + stages.initial_s
        + stages.project_s
        + stages.refine_s
        + stages.final_evaluate_s;
    put("initial.s", stages.initial_s);
    put("initial.share", stages.initial_s / stage_sum);
    put("initial.cut", stages.initial_cut as f64);
    let moves = (stages.lp_moves + stages.fm_moves + stages.rebalance_moves) as f64;
    put("refine.s", stages.refine_s);
    put("refine.lp_moves", stages.lp_moves as f64);
    put("refine.fm_moves", stages.fm_moves as f64);
    put("refine.rebalance_moves", stages.rebalance_moves as f64);
    put("refine.moves_per_s", moves / stages.refine_s);
    put("refine.cut_gain", stages.cut_gain as f64);
    put(
        "refine.gain_per_kmove",
        if moves == 0.0 {
            0.0
        } else {
            stages.cut_gain as f64 / (moves / 1e3)
        },
    );
    put("refine.gain_table_bytes", stages.gain_table_bytes as f64);
    put("probe.stage_sum_over_wall", stage_sum / first_s);

    // ---- shim: what one parallel call costs, whatever the workload ----
    let ((par_call_us, join_us), _) =
        tracer.span("shims::rayon", |_| adapter::shim_call_costs_us(tmax));
    put("shim.par_call_us", par_call_us);
    put("shim.join_us", join_us);

    tracer
        .write_chrome(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    Ok(Json::Obj(metrics))
}
