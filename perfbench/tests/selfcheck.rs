//! Self-check at tiny sizes: every workload, untraced and traced, prints
//! exactly the metrics `BENCHMARK.json` names, each with its unit, and
//! passes every correctness gate.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn spec() -> Spec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line parses")
}

fn check(workload: &str, trace: u8, want: &[Metric]) {
    let out = run(workload, trace);
    assert!(
        out.correct,
        "{workload} --trace {trace}: a correctness gate failed"
    );
    assert!(out.attempted >= 1);
    assert_eq!(out.failed, 0);
    let names: Vec<&str> = want.iter().map(|m| m.name.as_str()).collect();
    let got: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(got, sorted, "{workload} --trace {trace}: metric names");
    for m in want {
        let v = &out.metrics[&m.name];
        assert_eq!(v.unit, m.unit, "{workload}: unit of {}", m.name);
        assert!(v.value.is_finite(), "{workload}: {} = {}", m.name, v.value);
    }
}

#[test]
fn workloads_are_the_two_named() {
    let names: Vec<String> = spec().workloads.into_iter().map(|w| w.name).collect();
    assert_eq!(names, ["sweep", "oracle"]);
}

#[test]
fn sweep_prints_every_metric() {
    let s = spec();
    check("sweep", 0, &s.end_to_end);
    check("sweep", 1, &s.per_layer);
}

#[test]
fn serve_prints_every_metric() {
    let s = spec();
    check("serve", 0, &s.end_to_end);
    check("serve", 1, &s.per_layer);
}

#[test]
fn oracle_prints_every_metric() {
    let s = spec();
    check("oracle", 0, &s.end_to_end);
    check("oracle", 1, &s.per_layer);
}
