//! Runs the built benchmark in `--quick` mode (1/50 of the operations,
//! every oracle on) and checks what it prints against
//! `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

// The harness is a binary crate; the test shares its JSON codec.
#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

const WORKLOADS: [&str; 5] =
    ["point_small", "point_large", "bulk_catalog", "async_fanout", "replica_mixed"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xivm_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| panic!("no output: {stdout}"));
    let line = Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    line
}

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// Every metric `BENCHMARK.json` lists under `key` is in the result
/// line, finite, with its unit — and nothing else is.
fn assert_metrics(line: &Json, key: &str, workload: &str) {
    let spec = spec();
    let declared = spec.get(key).expect("metric list").as_arr();
    let metrics = line.get("metrics").expect("metrics");
    assert_eq!(metrics.entries().len(), declared.len(), "{workload}: metric count under {key}");
    for d in declared {
        let name = d.get("name").and_then(Json::as_str).expect("name");
        let m = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} is missing"));
        let value = m.get("value").and_then(Json::as_f64).expect("value");
        assert!(value.is_finite(), "{workload}: {name} is not finite");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            d.get("unit").and_then(Json::as_str),
            "{workload}: unit of {name}"
        );
    }
}

fn value(line: &Json, name: &str) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} is missing"))
}

#[test]
fn benchmark_json_names_the_workloads_the_binary_runs() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(bench(&["--workload", "nonesuch"]).status.code(), Some(2));
}

#[test]
fn every_workload_runs_traced_in_quick_mode() {
    for w in WORKLOADS {
        let out =
            bench(&["--workload", w, "--seed", "3", "--seconds", "15", "--trace", "1", "--quick"]);
        let line = result_line(&out);
        assert!(out.status.success(), "{w}: {}", String::from_utf8_lossy(&out.stdout));
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true), "{w}");
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0), "{w}: ops_failed");
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
        assert_metrics(&line, "per_layer", w);
        assert_eq!(value(&line, "core.subscribe.lagged"), 0.0, "{w}");
        assert_eq!(value(&line, "feed.reconnects"), 0.0, "{w}");
        if w != "async_fanout" && w != "replica_mixed" {
            let coverage = value(&line, "trace.coverage");
            assert!(coverage >= 0.9, "{w}: trace.coverage {coverage}");
        }
    }
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric() {
    let out = bench(&[
        "--workload",
        "replica_mixed",
        "--seed",
        "3",
        "--seconds",
        "15",
        "--trace",
        "0",
        "--quick",
    ]);
    let line = result_line(&out);
    assert!(out.status.success());
    assert_metrics(&line, "end_to_end", "replica_mixed");
    for (name, _) in line.get("metrics").expect("metrics").entries() {
        assert!(value(&line, name) > 0.0, "{name} must never read 0");
    }
}

/// Skipping one compensating delete must fail the oracle (the closed
/// stream no longer restores the seed document) and the exit code.
#[test]
fn a_broken_stream_fails_the_run() {
    let out = bench(&[
        "--workload",
        "point_small",
        "--seed",
        "3",
        "--seconds",
        "15",
        "--trace",
        "0",
        "--quick",
        "--sabotage",
    ]);
    let line = result_line(&out);
    assert!(!out.status.success(), "a failed oracle must exit non-zero");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    assert!(line.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
}
