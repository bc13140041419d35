//! End-to-end tests of the `ddrace` CLI binary.

use std::process::Command;

fn ddrace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddrace"))
}

fn stdout_of(mut cmd: Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn list_shows_all_suites() {
    let out = stdout_of({
        let mut c = ddrace();
        c.arg("list");
        c
    });
    for name in ["linear_regression", "canneal", "x264", "sparse_race"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn run_reports_races_on_a_racy_kernel() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "unprotected_counter",
            "--scale",
            "test",
            "--mode",
            "continuous",
        ]);
        c
    });
    assert!(out.contains("races (distinct)"));
    assert!(!out.contains("races (distinct):   0"), "{out}");
}

#[test]
fn run_with_timeline_and_detail() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "mostly_locked",
            "--scale",
            "test",
            "--mode",
            "demand-hitm",
            "--timeline",
            "--detail",
        ]);
        c
    });
    assert!(out.contains("analysis timeline:"));
    assert!(out.contains("WARNING: data race"));
}

#[test]
fn run_json_is_parseable() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "swaptions",
            "--scale",
            "test",
            "--mode",
            "native",
            "--json",
        ]);
        c
    });
    let v: ddrace::json::Value = ddrace::json::from_str(&out).expect("valid JSON");
    assert_eq!(v["mode"], "native");
    assert!(v["makespan"].as_u64().unwrap() > 0);
}

#[test]
fn compare_prints_all_modes() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args(["compare", "--bench", "string_match", "--scale", "test"]);
        c
    });
    for mode in ["native", "continuous", "demand-hitm", "demand-oracle"] {
        assert!(out.contains(mode), "missing {mode} in:\n{out}");
    }
}

#[test]
fn binary_record_analyze_ingest_pipeline() {
    let dir = std::env::temp_dir().join(format!("ddrace-cli-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("sparse.ddrt");
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "record",
            "--bench",
            "sparse_race",
            "--scale",
            "test",
            "--out",
            trace.to_str().unwrap(),
        ]);
        c
    });
    assert!(out.contains("recorded"));
    assert_eq!(&std::fs::read(&trace).unwrap()[..4], b"DDRT");

    // `analyze` finds the race the recorded schedule contains.
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "analyze",
            "--trace",
            trace.to_str().unwrap(),
            "--mode",
            "continuous",
        ]);
        c
    });
    assert!(out.contains("races (distinct)"));
    assert!(!out.contains("races (distinct):   0"), "{out}");

    // `ingest` replays it through both HB detectors; the aggregate is
    // byte-identical no matter how many workers ran the pool.
    let aggregate = |workers: &str, out: &std::path::Path| {
        stdout_of({
            let mut c = ddrace();
            c.args([
                "ingest",
                "--traces",
                trace.to_str().unwrap(),
                "--detectors",
                "fasttrack,djit",
                "--workers",
                workers,
                "--quiet",
                "--out",
                out.to_str().unwrap(),
            ]);
            c
        });
        std::fs::read(out).unwrap()
    };
    let one = aggregate("1", &dir.join("agg1.json"));
    let eight = aggregate("8", &dir.join("agg8.json"));
    assert!(!one.is_empty());
    assert_eq!(one, eight, "ingest aggregate must not depend on workers");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_traces_are_refused_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("ddrace-cli-refuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("ok.ddrt");
    stdout_of({
        let mut c = ddrace();
        c.args([
            "record",
            "--bench",
            "sparse_race",
            "--scale",
            "test",
            "--out",
            trace.to_str().unwrap(),
        ]);
        c
    });

    let refuse = |path: &std::path::Path| -> String {
        let out = ddrace()
            .args(["ingest", "--traces", path.to_str().unwrap(), "--quiet"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "corrupt traces must exit 2, got {:?}",
            out.status.code()
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // Truncated mid-record: refused with the failing byte offset.
    let mut bytes = std::fs::read(&trace).unwrap();
    bytes.truncate(bytes.len() - 3);
    let cut = dir.join("cut.ddrt");
    std::fs::write(&cut, &bytes).unwrap();
    let stderr = refuse(&cut);
    assert!(stderr.contains("refusing to ingest"), "{stderr}");
    assert!(stderr.contains("byte"), "needs a byte offset: {stderr}");

    // Foreign file: refused on the magic check.
    let foreign = dir.join("foreign.ddrt");
    std::fs::write(&foreign, b"PNG\x0d\x0a not ours").unwrap();
    let stderr = refuse(&foreign);
    assert!(stderr.contains("refusing to ingest"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_benchmark_fails_helpfully() {
    let out = ddrace()
        .args(["run", "--bench", "nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark"), "{stderr}");
}

#[test]
fn zero_sample_period_is_refused_with_exit_2() {
    // `period:0` would previously panic deep inside SharingIndicator
    // construction; it must now be refused up front, naming the flag.
    let out = ddrace()
        .args([
            "campaign",
            "--suite",
            "parsec",
            "--scale",
            "test",
            "--variants",
            "bad=period:0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "refusals exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--variants"), "names the flag: {stderr}");
    assert!(stderr.contains("period:0"), "names the value: {stderr}");
    assert!(stderr.contains("must be ≥ 1"), "states the rule: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn native_probe_reports_a_backend() {
    let out = stdout_of({
        let mut c = ddrace();
        c.arg("native-probe");
        c
    });
    assert!(out.contains("backend:"), "{out}");
    assert!(out.contains("event:"), "{out}");
}

#[test]
fn native_probe_json_falls_back_with_structured_reason() {
    // DDRACE_PMU_DISABLE pins the ladder outcome on any host: the probe
    // must still exit 0 and report the simulator plus a machine-readable
    // reason rather than failing.
    let out = stdout_of({
        let mut c = ddrace();
        c.args(["native-probe", "--json"]);
        c.env("DDRACE_PMU_DISABLE", "1");
        c
    });
    let v: ddrace::json::Value = ddrace::json::from_str(&out).expect("valid JSON");
    assert_eq!(v["backend"], "sim");
    assert_eq!(v["fallback_reason"], "disabled by DDRACE_PMU_DISABLE=1");
    assert_eq!(v["counter_works"], true);
}

#[test]
fn inject_race_flag_plants_races() {
    let out = stdout_of({
        let mut c = ddrace();
        c.args([
            "run",
            "--bench",
            "string_match",
            "--scale",
            "test",
            "--mode",
            "continuous",
            "--inject-race",
            "50",
        ]);
        c
    });
    assert!(!out.contains("races (distinct):   0"), "{out}");
}

/// Runs `ddrace args…` and returns its exit code and standard error.
fn failure_of(args: &[&str]) -> (Option<i32>, String) {
    let out = ddrace().args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn json_traces_are_refused_with_exit_2() {
    // DDRT is the only trace format: a JSON file fails the magic check.
    let dir = std::env::temp_dir().join(format!("ddrace-cli-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("trace.json");
    std::fs::write(&json, br#"{"events":[]}"#).unwrap();
    let (code, stderr) = failure_of(&["analyze", "--trace", json.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("byte offset 0"), "{stderr}");
    assert!(stderr.contains("refusing to ingest"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_cores_are_refused_not_panicked() {
    for cores in ["0", "65"] {
        let cases: [&[&str]; 2] = [
            &[
                "run", "--bench", "kmeans", "--scale", "test", "--cores", cores,
            ],
            &["analyze", "--trace", "unused.ddrt", "--cores", cores],
        ];
        for args in cases {
            let (code, stderr) = failure_of(args);
            assert_eq!(code, Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains("--cores must be in 1..=64"), "{stderr}");
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
}

#[test]
fn unknown_flags_are_refused() {
    // DDRT is the only trace format, so `--format json` is refused rather
    // than silently writing DDRT; a typo'd flag is refused the same way.
    for (args, flag, command) in [
        (
            ["record", "--bench", "kmeans", "--format", "json"],
            "--format",
            "record",
        ),
        (
            ["run", "--bench", "kmeans", "--scael", "test"],
            "--scael",
            "run",
        ),
    ] {
        let (code, stderr) = failure_of(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        let want = format!("unknown flag {flag} for `ddrace {command}`");
        assert!(stderr.contains(&want), "{stderr}");
    }
}

#[test]
fn analyze_names_the_trace_on_io_errors() {
    let (code, stderr) = failure_of(&["analyze", "--trace", "/nonexistent/trace.ddrt"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("error: --trace /nonexistent/trace.ddrt: "),
        "{stderr}"
    );
}
