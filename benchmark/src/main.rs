//! The repository's benchmark. See `README.md` beside this crate for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, as the driver calls it
//! benchmark run [--seed n] [--seconds s] [--smoke] [--out file]        every workload, timed and traced
//! benchmark selfcheck [--seed n] [--seconds s] [--smoke]               two interleaved sets must agree
//! benchmark compare <a.json> <b.json>                                  one row per (metric, workload)
//! ```

mod adapter;
mod child;
mod json;
mod machine;
mod results;
mod runner;
mod spec;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use results::{ResultSet, Verdict};
use runner::{Mode, Options};
use spec::{Workload, WORKLOADS};

/// Measuring time per workload when `--seconds` is not given; `BENCHMARK.json` passes
/// the same value.
const DEFAULT_SECONDS: f64 = 12.0;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

impl Args {
    const SWITCHES: [&'static str; 1] = ["--smoke"];

    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if Self::SWITCHES.contains(&arg.as_str()) {
                parsed.switches.push(arg);
            } else if arg.starts_with("--") {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.flags.push((arg, value));
            } else {
                parsed.words.push(arg);
            }
        }
        Ok(parsed)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: {text:?} is not a valid number")),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.flag("--workload").ok_or("--workload is required")?;
        spec::workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }

    fn options(&self, mode: Mode) -> Result<Options, String> {
        let seconds = self.number("--seconds", DEFAULT_SECONDS)?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Options {
            seed: self.number("--seed", 1)?,
            seconds,
            smoke: self.switches.iter().any(|s| s == "--smoke"),
            mode,
            out_dir: PathBuf::from(self.flag("--out-dir").unwrap_or("benchmark/out")),
        })
    }
}

/// One run of one workload, as the driver calls it: the last line printed is the result.
fn driver_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let traced = match args.flag("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let mode = if traced { Mode::Traced } else { Mode::Timed };
    let options = args.options(mode)?;
    let set = runner::collect(1, &[workload], &options)?.remove(0);
    eprint!("{}", set.table());
    println!("{}", set.workloads[0].driver_line(traced));
    Ok(ExitCode::SUCCESS)
}

fn all_workloads() -> Vec<&'static Workload> {
    WORKLOADS.iter().collect()
}

fn failed_runs(set: &ResultSet) -> usize {
    set.workloads.iter().map(|w| w.failed).sum()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let options = args.options(Mode::Both)?;
    let set = runner::collect(1, &all_workloads(), &options)?.remove(0);
    print!("{}", set.table());
    let default_out = options.out_dir.join("results.json");
    let out = args.flag("--out").map_or(default_out, PathBuf::from);
    std::fs::write(&out, set.to_json().pretty())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("\nresults written to {}", out.display());
    Ok(if failed_runs(&set) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let options = args.options(Mode::Timed)?;
    let sets = runner::collect(2, &all_workloads(), &options)?;
    let rows = results::compare(&sets[0], &sets[1]);
    print!("{}", results::comparison_table(&rows));
    let disagreeing = rows.iter().filter(|row| !row.agrees()).count();
    let failed = failed_runs(&sets[0]) + failed_runs(&sets[1]);
    println!(
        "\n{disagreeing} of {} rows differ by more than their bound; {failed} failed runs",
        rows.len()
    );
    Ok(if disagreeing == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, base, other] = args.words.as_slice() else {
        return Err("usage: compare <base.json> <other.json>".to_string());
    };
    let rows = results::compare(&ResultSet::read(base)?, &ResultSet::read(other)?);
    print!("{}", results::comparison_table(&rows));
    Ok(
        if rows.iter().any(|row| row.verdict == Verdict::Regressed) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        },
    )
}

/// The child side of `runner::run_child`: one JSON line, `{"ok": …}` or `{"error": …}`.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let container = PathBuf::from(args.flag("--container").ok_or("--container is required")?);
    let seed = args.number("--seed", 1u64)?;
    let outcome = match args.flag("--trace-out") {
        None => child::run_timed(workload, &container, seed),
        Some(path) => child::run_traced(workload, &container, seed, &PathBuf::from(path)),
    };
    let reply = match outcome {
        Ok(result) => Json::obj([("ok", result)]),
        Err(error) => Json::obj([("error", Json::Str(error))]),
    };
    println!("{reply}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None => driver_run(&args),
            Some("run") => run(&args),
            Some("selfcheck") => selfcheck(&args),
            Some("compare") => compare(&args),
            Some("run-one") => run_one(&args),
            Some(other) => Err(format!("unknown subcommand {other:?}")),
        }
    });
    outcome.unwrap_or_else(|error| {
        eprintln!("benchmark: {error}");
        ExitCode::from(2)
    })
}
