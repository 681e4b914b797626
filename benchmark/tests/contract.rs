//! Runs the built benchmark the way its users do and checks what it prints and writes
//! against `BENCHMARK.json`. Uses `--smoke`, so the whole file takes well under a minute.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// `(name, unit)` of every entry under `key` of `BENCHMARK.json`.
fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let text = |entry: &Json, field: &str| {
        entry
            .get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_default()
    };
    manifest
        .get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|entry| (text(entry, "name"), text(entry, "unit")))
        .collect()
}

fn names_and_units(metrics: &Json) -> Vec<(String, String)> {
    metrics
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, entry)| {
            assert!(
                entry.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            let unit = entry.get("unit").and_then(Json::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the benchmark binary and returns the last line it printed.
fn benchmark(args: &[&str], out_dir: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn a_driver_run_prints_the_contract_line_for_both_trace_settings() {
    let manifest = manifest();
    let out = out_dir("driver");
    let workload = "rmat-15.fast-k64.t1";
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = benchmark(
            &[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
            &out,
        );
        let result = Json::parse(&line).unwrap();
        let keys: Vec<&str> = result
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            names_and_units(result.get("metrics").unwrap()),
            declared(&manifest, key),
            "--trace {trace} must print exactly the {key} metrics"
        );
    }
    // The traced run left its spans behind, each pointing at the span that caused it.
    let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json"))).unwrap();
    let trace = Json::parse(&trace).unwrap();
    let events = trace.as_array().unwrap();
    let named = |name: &str| {
        events
            .iter()
            .position(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no span {name}"))
    };
    let layers = named("layers");
    let refinement = &events[named("refinement")];
    let level = refinement
        .get("args")
        .and_then(|a| a.get("parent"))
        .and_then(Json::as_f64);
    let level = &events[level.unwrap() as usize];
    assert_eq!(
        level
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_f64),
        Some(layers as f64)
    );
    assert!(events
        .iter()
        .all(|e| e.get("dur").and_then(Json::as_f64).is_some()));
    // Nothing of the set-up stays behind.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("work-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn a_full_smoke_run_names_exactly_what_benchmark_json_declares() {
    let manifest = manifest();
    let out = out_dir("run");
    let results_path = out.join("results.json");
    benchmark(
        &[
            "run",
            "--smoke",
            "--seed",
            "2",
            "--out",
            results_path.to_str().unwrap(),
        ],
        &out,
    );
    let results = Json::parse(&std::fs::read_to_string(&results_path).unwrap()).unwrap();

    let stamp = results.get("stamp").unwrap();
    for field in [
        "nproc",
        "cpu_model",
        "tmax",
        "rustc",
        "git_commit",
        "seed",
        "rounds",
        "calib_s",
        "calib_s_min",
        "calib_s_max",
        "calib_s_p90_over_p10",
        "noisy",
        "total_seconds",
    ] {
        assert!(stamp.get(field).is_some(), "the stamp lacks {field}");
    }

    let workloads = results.get("workloads").and_then(Json::as_array).unwrap();
    let names: Vec<String> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let declared_names: Vec<String> = declared(&manifest, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(names, declared_names);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(
            w.get("failed"),
            Some(&Json::Num(0.0)),
            "{name}: {:?}",
            w.get("errors")
        );
        for key in ["end_to_end", "per_layer"] {
            assert_eq!(
                names_and_units(w.get(key).unwrap()),
                declared(&manifest, key),
                "{name}: {key}"
            );
        }
        assert!(
            out.join(format!("trace-{name}.json")).exists(),
            "{name}: no trace"
        );
    }

    // A set of results agrees with itself, and `compare` says so row by row.
    let path = results_path.to_str().unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["compare", path, path])
        .output()
        .unwrap();
    assert!(output.status.success());
    let table = String::from_utf8(output.stdout).unwrap();
    let rows = declared_names.len() * declared(&manifest, "end_to_end").len();
    assert_eq!(table.lines().count(), 1 + rows, "{table}");
    assert!(!table.contains("regressed"), "{table}");
}
