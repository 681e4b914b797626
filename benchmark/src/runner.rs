//! The parent process: set-up, scheduling of the child runs, aggregation.
//!
//! Set-up generates every instance from the seed and writes one `.tpg` per instance.
//! Rounds then go round-robin — round `r` of every workload (and of every set, for
//! `selfcheck`) before round `r + 1` — so drift of the machine over minutes lands on
//! all of them alike. Every measurement is a fresh child process, one at a time.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::adapter::{self, ContainerInfo};
use crate::json::Json;
use crate::machine::{self, Calibration};
use crate::results::{ResultSet, WorkloadResult};
use crate::spec::{self, derive_seed, Workload, INSTANCES};
use crate::stats::{self, OverRounds, Summary};

/// Set-up is repeated so that `setup_s` is a median, not one draw.
const SETUP_REPEATS: usize = 3;
/// At least two rounds, so that every trajectory is seen twice and exact repeats can be
/// checked (`--smoke` runs one).
const MIN_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed rounds only: the end-to-end metrics.
    Timed,
    /// The traced run only: the per-layer metrics.
    Traced,
    /// Timed rounds, then one traced run per workload.
    Both,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: f64,
    pub smoke: bool,
    pub mode: Mode,
    /// Where containers (while running), traces and results go.
    pub out_dir: PathBuf,
}

/// The containers of one set-up; the directory goes away with the value.
struct Containers {
    dir: PathBuf,
    info: Vec<(&'static str, ContainerInfo)>,
}

impl Containers {
    fn path(&self, instance: &str) -> PathBuf {
        self.dir.join(format!("{instance}.tpg"))
    }

    fn info(&self, instance: &str) -> ContainerInfo {
        self.info
            .iter()
            .find(|(name, _)| *name == instance)
            .expect("set-up writes every declared instance")
            .1
    }
}

impl Drop for Containers {
    fn drop(&mut self) {
        // Best effort: a leftover directory under out/ is ignored by git.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct SetupTimes {
    total_s: f64,
    gen_s: f64,
    write_s: f64,
}

/// Generates and writes every instance, always from scratch. The times are scaled by the
/// calibration runs around the set-up (see [`Calibration::scale_since_last`]).
fn set_up(
    options: &Options,
    calibration: &mut Calibration,
) -> Result<(Containers, SetupTimes), String> {
    let dir = options.out_dir.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut containers = Containers {
        dir,
        info: Vec::new(),
    };
    let start = Instant::now();
    let (mut gen_s, mut write_s) = (0.0, 0.0);
    for instance in &INSTANCES {
        let t = Instant::now();
        let graph = adapter::generate(instance, options.seed, options.smoke);
        gen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let info = adapter::write_container(&graph, &containers.path(instance.name))?;
        write_s += t.elapsed().as_secs_f64();
        containers.info.push((instance.name, info));
    }
    let total_s = start.elapsed().as_secs_f64();
    let scale = calibration.scale_since_last();
    let times = SetupTimes {
        total_s: total_s * scale,
        gen_s: gen_s * scale,
        write_s: write_s * scale,
    };
    Ok((containers, times))
}

/// One timed child run.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    rss_peak_bytes: f64,
    tracked_peak_bytes: f64,
    edge_cut: f64,
}

/// Runs this executable as `run-one …` on one trajectory of `workload` — timed, or
/// traced into `trace_out` — and parses the JSON line it prints.
fn run_child(
    options: &Options,
    workload: &Workload,
    container: &Path,
    trajectory: usize,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run-one", "--workload", workload.name, "--container"])
        .arg(container)
        .arg("--seed")
        .arg(derive_seed(options.seed, workload.name, trajectory as u64).to_string());
    if let Some(trace_out) = trace_out {
        command.arg("--trace-out").arg(trace_out);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let reply = Json::parse(line)
        .map_err(|e| format!("child run ({}) printed no result: {e}", output.status))?;
    match reply.get("error").and_then(Json::as_str) {
        Some(error) => Err(error.to_string()),
        None => reply
            .get("ok")
            .cloned()
            .ok_or_else(|| "child run printed neither a result nor an error".to_string()),
    }
}

fn run_timed_child(
    options: &Options,
    workload: &Workload,
    container: &Path,
    trajectory: usize,
) -> Result<Sample, String> {
    let reply = run_child(options, workload, container, trajectory, None)?;
    let field = |key: &str| {
        reply
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("child run reported no {key}"))
    };
    Ok(Sample {
        wall_s: field(spec::WALL_S)?,
        rss_peak_bytes: field(spec::RSS_PEAK_BYTES)?,
        tracked_peak_bytes: field(spec::TRACKED_PEAK_BYTES)?,
        edge_cut: field(spec::EDGE_CUT)?,
    })
}

/// Everything measured for one workload in one set.
struct Collected {
    workload: &'static Workload,
    /// `rounds[r][t]`: trajectory `t` in round `r`; `None` if that run failed.
    rounds: Vec<Vec<Option<Sample>>>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    measuring_s: f64,
    last_round_s: f64,
    per_layer: Vec<(String, f64)>,
}

impl Collected {
    fn new(workload: &'static Workload) -> Self {
        Self {
            workload,
            rounds: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            measuring_s: 0.0,
            last_round_s: 0.0,
            per_layer: Vec::new(),
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        eprintln!("benchmark: {}: {error}", self.workload.name);
        self.errors.push(error);
    }

    /// A sample that contradicts the first sample of its trajectory, where the workload
    /// promises exact repeats.
    fn contradiction(&self, trajectory: usize, sample: &Sample) -> Option<String> {
        let first = self.rounds.iter().find_map(|round| round[trajectory])?;
        if self.workload.cut_repeats_exactly() && sample.edge_cut != first.edge_cut {
            return Some(format!(
                "trajectory {trajectory}: cut {} in one round, {} in another",
                first.edge_cut, sample.edge_cut
            ));
        }
        if self.workload.peak_repeats_exactly()
            && sample.tracked_peak_bytes != first.tracked_peak_bytes
        {
            return Some(format!(
                "trajectory {trajectory}: tracked peak {} in one round, {} in another",
                first.tracked_peak_bytes, sample.tracked_peak_bytes
            ));
        }
        None
    }

    fn run_round(
        &mut self,
        options: &Options,
        containers: &Containers,
        calibration: &mut Calibration,
    ) {
        let start = Instant::now();
        let container = containers.path(self.workload.instance);
        let mut round = Vec::with_capacity(self.workload.trajectories);
        for trajectory in 0..self.workload.trajectories {
            self.attempted += 1;
            let sample = run_timed_child(options, self.workload, &container, trajectory);
            let scale = calibration.scale_since_last();
            let sample = sample.and_then(|sample| match self.contradiction(trajectory, &sample) {
                Some(contradiction) => Err(contradiction),
                None => Ok(Sample {
                    wall_s: sample.wall_s * scale,
                    ..sample
                }),
            });
            round.push(match sample {
                Ok(sample) => Some(sample),
                Err(error) => {
                    self.fail(error);
                    None
                }
            });
        }
        self.rounds.push(round);
        self.last_round_s = start.elapsed().as_secs_f64();
        self.measuring_s += self.last_round_s;
    }

    /// Another round fits if at least half of it ends within the measuring time.
    fn wants_another_round(&self, options: &Options) -> bool {
        if options.smoke {
            return self.rounds.is_empty();
        }
        self.rounds.len() < MIN_ROUNDS
            || self.measuring_s + self.last_round_s / 2.0 <= options.seconds
    }

    /// The traced run. `from_parent` holds the per-layer metrics only the parent can
    /// measure (set-up, calibration).
    fn run_traced(
        &mut self,
        options: &Options,
        containers: &Containers,
        from_parent: &[(&str, f64)],
    ) {
        self.attempted += 1;
        let trace_path = options
            .out_dir
            .join(format!("trace-{}.json", self.workload.name));
        let container = containers.path(self.workload.instance);
        let reply = run_child(options, self.workload, &container, 0, Some(&trace_path));
        let mut measured: Vec<(String, f64)> = match reply {
            Ok(reply) => reply
                .as_object()
                .unwrap_or_default()
                .iter()
                .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
                .collect(),
            Err(error) => return self.fail(error),
        };
        measured.extend(
            from_parent
                .iter()
                .map(|&(name, value)| (name.to_string(), value)),
        );
        let own = containers.info(self.workload.instance);
        measured.push((
            "store.bytes_per_edge".to_string(),
            own.file_bytes as f64 / own.m as f64,
        ));
        // Reported in the declared order; a declared metric nobody measured is a failure.
        for metric in &spec::PER_LAYER {
            match measured.iter().find(|(name, _)| name == metric.name) {
                Some((name, value)) => self.per_layer.push((name.clone(), *value)),
                None => self.fail(format!("the traced run did not measure {}", metric.name)),
            }
        }
    }

    fn into_result(self, setup_s: Summary) -> Result<WorkloadResult, String> {
        let mut end_to_end = Vec::new();
        if !self.rounds.is_empty() {
            let mut summarize = |name: &str, field: fn(&Sample) -> f64, over_rounds| {
                let rounds: Vec<Vec<Option<f64>>> = self
                    .rounds
                    .iter()
                    .map(|round| round.iter().map(|s| s.as_ref().map(field)).collect())
                    .collect();
                let summary = Summary::of_rounds(&rounds, over_rounds).ok_or_else(|| {
                    format!(
                        "{}: a trajectory failed in every round, {name} cannot be reported",
                        self.workload.name
                    )
                })?;
                end_to_end.push((name.to_string(), summary));
                Ok::<_, String>(())
            };
            summarize(spec::WALL_S, |s| s.wall_s, OverRounds::Min)?;
            summarize(
                spec::RSS_PEAK_BYTES,
                |s| s.rss_peak_bytes,
                OverRounds::Median,
            )?;
            summarize(
                spec::TRACKED_PEAK_BYTES,
                |s| s.tracked_peak_bytes,
                OverRounds::Median,
            )?;
            summarize(spec::EDGE_CUT, |s| s.edge_cut, OverRounds::Median)?;
            end_to_end.push((spec::SETUP_S.to_string(), setup_s));
        }
        Ok(WorkloadResult {
            name: self.workload.name.to_string(),
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            rounds: self.rounds.len(),
            end_to_end,
            per_layer: self.per_layer,
        })
    }
}

/// Measures `workloads` `sets` times over, the sets' rounds interleaved, and returns
/// one result set per set.
pub fn collect(
    sets: usize,
    workloads: &[&'static Workload],
    options: &Options,
) -> Result<Vec<ResultSet>, String> {
    let start = Instant::now();
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("creating {}: {e}", options.out_dir.display()))?;
    let mut calibration = Calibration::new();

    // Every set gets its own set-ups, interleaved like the rounds; all sets then read
    // the containers the last set-up wrote (the same seed writes the same bytes).
    let mut setups: Vec<Vec<SetupTimes>> = (0..sets).map(|_| Vec::new()).collect();
    let mut containers = None;
    for _ in 0..SETUP_REPEATS {
        for setups in &mut setups {
            drop(containers.take());
            let (written, times) = set_up(options, &mut calibration)?;
            containers = Some(written);
            setups.push(times);
        }
    }
    let containers = containers.expect("at least one set and SETUP_REPEATS >= 1");
    let median_of = |setups: &[SetupTimes], f: fn(&SetupTimes) -> f64| {
        stats::median(&mut setups.iter().map(f).collect::<Vec<_>>())
    };

    let mut collected: Vec<Vec<Collected>> = (0..sets)
        .map(|_| workloads.iter().map(|&w| Collected::new(w)).collect())
        .collect();
    if options.mode != Mode::Traced {
        let mut open: Vec<usize> = (0..workloads.len()).collect();
        while !open.is_empty() {
            for set in &mut collected {
                for &w in &open {
                    set[w].run_round(options, &containers, &mut calibration);
                }
            }
            open.retain(|&w| {
                collected
                    .iter()
                    .any(|set| set[w].wants_another_round(options))
            });
        }
    }
    if options.mode != Mode::Timed {
        let edges: usize = containers.info.iter().map(|(_, info)| info.m).sum();
        for (set, setups) in collected.iter_mut().zip(&setups) {
            let gen_medges_per_s = edges as f64 / median_of(setups, |s| s.gen_s) / 1e6;
            let write_tpg_s = median_of(setups, |s| s.write_s);
            for c in set {
                // How fast the machine is as the traced run starts; its times are not scaled.
                calibration.scale_since_last();
                let from_parent = [
                    ("gen.medges_per_s", gen_medges_per_s),
                    ("store.write_tpg_s", write_tpg_s),
                    ("calib_s", calibration.last_s()),
                ];
                c.run_traced(options, &containers, &from_parent);
            }
        }
    }
    drop(containers);

    // One machine: the sets of a selfcheck share the calibration record. Deciles, not
    // extremes, decide whether it was disturbed: one slow calibration run in a hundred
    // says little about the measurements around the other ninety-nine.
    let calib = Summary::of_repeats(calibration.seen_s());
    let mut seen_s = calibration.seen_s().to_vec();
    let calib_spread = stats::quantile(&mut seen_s, 0.9) / stats::quantile(&mut seen_s, 0.1);
    collected
        .into_iter()
        .zip(&setups)
        .map(|(set, setups)| {
            let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
            let setup_s = Summary::of_repeats(&setup_s);
            let workloads = set
                .into_iter()
                .map(|c| c.into_result(setup_s))
                .collect::<Result<Vec<_>, _>>()?;
            let mut stamp = machine::stamp();
            let number = Json::Num;
            stamp.extend([
                ("seed".to_string(), number(options.seed as f64)),
                ("smoke".to_string(), Json::Bool(options.smoke)),
                ("seconds_per_workload".to_string(), number(options.seconds)),
                (
                    "rounds".to_string(),
                    Json::Obj(
                        workloads
                            .iter()
                            .map(|w| (w.name.clone(), number(w.rounds as f64)))
                            .collect(),
                    ),
                ),
                ("calib_s".to_string(), number(calib.value)),
                ("calib_s_min".to_string(), number(calib.min)),
                ("calib_s_max".to_string(), number(calib.max)),
                ("calib_s_p90_over_p10".to_string(), number(calib_spread)),
                (
                    "noisy".to_string(),
                    Json::Bool(calib_spread > machine::NOISY_CALIB_RATIO),
                ),
                (
                    "total_seconds".to_string(),
                    number(start.elapsed().as_secs_f64()),
                ),
            ]);
            Ok(ResultSet { stamp, workloads })
        })
        .collect()
}
