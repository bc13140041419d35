//! The experiment binaries' environment contract, driven end to end
//! through `exp_f2_sharing_fraction` (a `run_matrix` experiment):
//!
//! * `DDRACE_EVENTS` streams one `job_finished` event per job;
//! * `DDRACE_RESUME` restores every job from that stream and writes a
//!   byte-identical results file;
//! * a malformed knob exits with code 2 and names the variable and value.

use ddrace_workloads::all_benchmarks;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddrace-exp-env-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs F2 at test scale with `envs` on top of a clean experiment
/// environment.
fn run_f2(envs: &[(&str, &Path)], extra: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_f2_sharing_fraction"));
    for var in [
        "DDRACE_SEED",
        "DDRACE_SEEDS",
        "DDRACE_CORES",
        "DDRACE_EVENTS",
        "DDRACE_RESUME",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("DDRACE_SCALE", "test").env("DDRACE_WORKERS", "2");
    for (var, path) in envs {
        cmd.env(var, path);
    }
    for (var, value) in extra {
        cmd.env(var, value);
    }
    cmd.output().expect("spawn exp_f2_sharing_fraction")
}

/// The `job_finished` lines of a JSONL event stream.
fn job_finished(events: &Path) -> Vec<String> {
    std::fs::read_to_string(events)
        .unwrap_or_else(|e| panic!("{}: {e}", events.display()))
        .lines()
        .filter(|l| l.contains(r#""event":"job_finished""#))
        .map(str::to_string)
        .collect()
}

#[test]
fn events_checkpoint_and_resume_reproduce_results() {
    let dir = scratch("resume");
    let events = dir.join("events.jsonl");
    let first = run_f2(
        &[
            ("DDRACE_EVENTS", &events),
            ("DDRACE_RESULTS_DIR", &dir.join("a")),
        ],
        &[],
    );
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let jobs = all_benchmarks().len();
    let finished = job_finished(&events);
    assert_eq!(finished.len(), jobs, "one job_finished per job");
    let mut ids: Vec<&str> = finished
        .iter()
        .map(|l| {
            l.split(r#""id":"#)
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), jobs, "every job finished exactly once");

    let resumed_events = dir.join("events2.jsonl");
    let second = run_f2(
        &[
            ("DDRACE_RESUME", &events),
            ("DDRACE_EVENTS", &resumed_events),
            ("DDRACE_RESULTS_DIR", &dir.join("b")),
        ],
        &[],
    );
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let restored = job_finished(&resumed_events);
    assert_eq!(restored.len(), jobs);
    assert!(
        restored.iter().all(|l| l.contains(r#""resumed":true"#)),
        "a resumed run must restore every job, not re-run it"
    );
    let result =
        |sub: &str| std::fs::read(dir.join(sub).join("exp_f2_sharing_fraction.json")).unwrap();
    assert_eq!(
        result("a"),
        result("b"),
        "resumed results must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_knobs_exit_2_naming_variable_and_value() {
    let dir = scratch("refuse");
    for (var, value) in [
        ("DDRACE_CORES", "0"),
        ("DDRACE_CORES", "65"),
        ("DDRACE_SEED", "forty-two"),
        ("DDRACE_WORKERS", "0"),
        ("DDRACE_SCALE", "Large"),
    ] {
        let out = run_f2(&[("DDRACE_RESULTS_DIR", &dir)], &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(
            stderr.contains(var) && stderr.contains(&format!("`{value}`")),
            "{var}={value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{var}={value}: {stderr}");
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a refused run writes no results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
