//! Self-test at `Scale::TEST`: every workload runs in both modes, passes
//! its correctness checks, and prints exactly the metrics `BENCHMARK.json`
//! declares, each with its declared unit.

use ddrace_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "sim-phoenix",
    "sim-sharing",
    "ingest-serial",
    "native-monitor",
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list, sorted.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = spec.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    let mut out: Vec<(String, String)> = items
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, trace: bool) -> Value {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ddbench-selftest");
    let output = Command::new(env!("CARGO_BIN_EXE_ddbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "test"])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let spec = benchmark_json();
    let declared_workloads: Vec<&str> = match spec.get("workloads") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no workloads"),
    };
    assert_eq!(declared_workloads, WORKLOADS);
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&spec, list);
        for workload in WORKLOADS {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} has no finite value"
                    );
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{workload} (trace {trace})");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload no-such-workload --seed 1 --seconds 1 --trace 0",
        "--workload sim-phoenix --seconds 1 --trace 0",
        "--workload sim-phoenix --seed 1 --seconds 0 --trace 0",
        "--workload sim-phoenix --seed 1 --seconds 1 --trace 2",
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ddbench"))
            .args(args.split(' '))
            .output()
            .expect("the benchmark binary runs");
        assert!(!output.status.success(), "`{args}` must be refused");
        assert!(output.stdout.is_empty(), "`{args}` must print no result");
    }
}
