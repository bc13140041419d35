//! What one run reports: metrics, correctness checks, notes, and the
//! result line the benchmark prints last.

use crate::spans::Tracer;
use crate::RunOpts;
use ddrace_json::Value;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPS: usize = 3;

/// The accumulating result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts units of work: `attempted` operations of which `failed`
    /// failed (jobs, trace replays, issued native records).
    pub fn work(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one correctness check; `detail` explains a failure.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl FnOnce() -> String) {
        let name = name.into();
        if !ok {
            eprintln!("check failed: {name}: {}", detail());
        }
        self.checks.push((name, ok));
    }

    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a human-readable `#` line printed before the result.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Attaches the spans of a traced run, written out by [`finish`].
    ///
    /// [`finish`]: Outcome::finish
    pub fn spans(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Prints the notes and peak memory, and writes the spans of a
    /// traced run into `--out`.
    pub fn finish(mut self, workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
        // Not a gated metric: with glibc's per-thread arenas the peak is
        // bimodal across runs of the same inputs (14 or 31 MB on
        // sim-phoenix), wider than any regression bound.
        self.note(format!("peak_rss_mb {:.2} MB", peak_rss_mb()?));
        if let Some(tracer) = self.tracer.take() {
            let path = opts
                .out
                .join(format!("spans-{workload}-s{}.jsonl", opts.seed));
            tracer
                .write(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            self.note(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            ));
        }
        let failed_checks = self.checks.iter().filter(|(_, ok)| !ok).count() as u64;
        self.note(format!(
            "checks: {} passed, {failed_checks} failed; failed_frac {:.6}",
            self.checks.len() as u64 - failed_checks,
            (self.failed + failed_checks) as f64
                / (self.attempted + self.checks.len() as u64).max(1) as f64
        ));
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!(
                    "metric {name} is not a finite number ({value} {unit})"
                ));
            }
        }
        Ok(self)
    }

    /// `true` when no operation and no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The single JSON line the benchmark prints last.
    pub fn result_line(&self) -> String {
        let failed_checks = self.checks.iter().filter(|(_, ok)| !ok).count() as u64;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::UInt(self.attempted + self.checks.len() as u64),
            ),
            (
                "failed".to_string(),
                Value::UInt(self.failed + failed_checks),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        line.to_compact()
    }
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every timed phase runs at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `set_up` [`SETUP_REPS`] times and returns the last result with
/// the median wall time in seconds.
pub fn timed_setup<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up());
        walls.push(start.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), median(&walls))
}

/// Repeats `pass` while another one is expected to end within `budget`
/// (at least once), returning every pass's result.
pub fn repeat_for<T>(budget: Duration, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut results = vec![pass()];
    let mut last = start.elapsed();
    while start.elapsed() + last <= budget {
        let before = Instant::now();
        results.push(pass());
        last = before.elapsed();
    }
    results
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
