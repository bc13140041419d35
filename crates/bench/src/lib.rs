//! Experiment harness for the ddrace paper reproduction.
//!
//! One binary per table/figure (see `DESIGN.md` for the experiment
//! index); this library holds what they share: an environment-driven
//! [`ExpContext`], mode runners built on the [`ddrace_harness`] campaign
//! executor (each simulated run is single-threaded and deterministic, so
//! the harness parallelizes *across* jobs), plain-text table printing,
//! and JSON result dumps under `results/`.
//!
//! Two more binaries measure multi-thread scaling: `bench_native` (the
//! native monitor at 1, 8 and 64 threads, `BENCH_native.json`) and
//! `bench_ingest` (parallel replay at 1, 4 and 8 workers,
//! `BENCH_ingest.json`). Host wall clock end to end and per layer is
//! the `ddbench/` benchmark's job.
//!
//! Environment knobs:
//!
//! * `DDRACE_SCALE` — `test`, `small` (default), or `large`;
//! * `DDRACE_SEED` — base RNG seed (default 42);
//! * `DDRACE_SEEDS` — comma-separated seed axis for campaign-backed
//!   experiments (default: just `DDRACE_SEED`);
//! * `DDRACE_CORES` — simulated cores, 1 to 64 (default 8);
//! * `DDRACE_WORKERS` — host worker threads, at least 1 (default: all
//!   cores);
//! * `DDRACE_EVENTS` — JSONL event-stream path for campaign-backed
//!   experiments (doubles as a resume checkpoint);
//! * `DDRACE_RESUME` — a prior `DDRACE_EVENTS` stream to restore
//!   finished jobs from;
//! * `DDRACE_RESULTS_DIR` — where JSON dumps go (default `results/`).
//!
//! A malformed or out-of-range value is an error (exit 2, naming the
//! variable and the value), never a silent fallback to the default.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use ddrace_core::{AnalysisMode, RunResult, SimConfig, Simulation};
use ddrace_harness::{
    resume_campaign, run_campaign, Campaign, CampaignReport, EventSink, ResumeLog,
};
use ddrace_json::ToJson;
use ddrace_program::SchedulerConfig;
use ddrace_workloads::{Scale, WorkloadSpec};
use std::io::Write as _;
use std::path::PathBuf;

pub use ddrace_harness::SuiteRow as ModeRow;

/// Shared experiment configuration, read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpContext {
    /// Workload scale.
    pub scale: Scale,
    /// Base seed; workload generation and the scheduler derive from it.
    pub seed: u64,
    /// Simulated core count.
    pub cores: usize,
}

impl ExpContext {
    /// Reads the context from `DDRACE_*` environment variables.
    ///
    /// A bad `DDRACE_SCALE`, `DDRACE_SEED` or `DDRACE_CORES` value
    /// terminates the process with exit code 2: a typo like
    /// `DDRACE_SCALE=Large` used to silently run at SMALL, wasting the
    /// whole (possibly hours-long) experiment.
    pub fn from_env() -> Self {
        let defaults = ExpContext::default();
        ExpContext {
            scale: env_or_exit("DDRACE_SCALE", parse_scale_name).unwrap_or(defaults.scale),
            seed: env_or_exit("DDRACE_SEED", parse_seed).unwrap_or(defaults.seed),
            cores: env_or_exit("DDRACE_CORES", parse_cores).unwrap_or(defaults.cores),
        }
    }

    /// The scheduler configuration every experiment uses: jittered with
    /// the context seed, so interleavings vary by seed but are
    /// reproducible.
    pub fn scheduler(&self) -> SchedulerConfig {
        SchedulerConfig {
            quantum: 32,
            seed: self.seed,
            jitter: true,
        }
    }

    /// A simulation config for `mode` under this context.
    pub fn sim_config(&self, mode: AnalysisMode) -> SimConfig {
        let mut cfg = SimConfig::new(self.cores, mode);
        cfg.scheduler = self.scheduler();
        cfg
    }
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: Scale::SMALL,
            seed: 42,
            cores: 8,
        }
    }
}

/// Runs one workload under one mode.
///
/// # Panics
///
/// Panics if the workload program is ill-formed (a bug in the generator,
/// not in user input).
pub fn run_one(ctx: &ExpContext, spec: &WorkloadSpec, mode: AnalysisMode) -> RunResult {
    run_one_with(ctx, spec, ctx.sim_config(mode))
}

/// Runs one workload under an explicit simulation config (for sweeps that
/// vary more than the mode).
///
/// # Panics
///
/// Panics if the workload program is ill-formed.
pub fn run_one_with(ctx: &ExpContext, spec: &WorkloadSpec, config: SimConfig) -> RunResult {
    let program = spec.program(ctx.scale, ctx.seed);
    Simulation::new(config)
        .run(program)
        .unwrap_or_else(|e| panic!("workload {} failed to schedule: {e}", spec.name))
}

/// Parses a scale preset name as used by `DDRACE_SCALE` and the CLI:
/// `test`, `small`, or `large`.
///
/// # Errors
///
/// Returns a message naming the bad value and the accepted names.
pub fn parse_scale_name(name: &str) -> Result<Scale, String> {
    match name {
        "test" => Ok(Scale::TEST),
        "small" => Ok(Scale::SMALL),
        "large" => Ok(Scale::LARGE),
        other => Err(format!(
            "unknown scale `{other}` (expected test, small, or large)"
        )),
    }
}

/// Parses a `DDRACE_SEED` value: any `u64`.
fn parse_seed(value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("expected an unsigned 64-bit seed, got `{value}`"))
}

/// Parses a `DDRACE_CORES` value: 1 to 64 simulated cores, the range of
/// the CLI's `--cores`.
fn parse_cores(value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(cores) if (1..=64).contains(&cores) => Ok(cores),
        _ => Err(format!("expected a core count in 1..=64, got `{value}`")),
    }
}

/// Parses a `DDRACE_WORKERS` value: at least 1 host worker thread.
fn parse_workers(value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(workers) if workers > 0 => Ok(workers),
        _ => Err(format!(
            "expected a worker count of at least 1, got `{value}`"
        )),
    }
}

/// Reads environment variable `var` through `parse`: `None` when unset;
/// a value `parse` refuses terminates the process with exit code 2 and
/// a message naming the variable.
fn env_or_exit<T>(var: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let value = std::env::var(var).ok()?;
    Some(parse(&value).unwrap_or_else(|e| {
        eprintln!("error: {var}: {e}");
        std::process::exit(2);
    }))
}

/// The preset name of a scale (inverse of [`parse_scale_name`]); ad-hoc
/// ratios print as `num/den`.
pub fn scale_label(scale: Scale) -> String {
    if scale == Scale::TEST {
        "test".to_string()
    } else if scale == Scale::SMALL {
        "small".to_string()
    } else if scale == Scale::LARGE {
        "large".to_string()
    } else {
        format!("{}/{}", scale.num, scale.den)
    }
}

/// Caps `scale` at `cap` (comparing the scaling ratios). Returns the
/// effective scale and whether a remap happened — callers must announce
/// the remap instead of silently downgrading the run.
pub fn cap_scale(scale: Scale, cap: Scale) -> (Scale, bool) {
    if scale.num * cap.den > cap.num * scale.den {
        (cap, true)
    } else {
        (scale, false)
    }
}

/// The experiment seed axis: `DDRACE_SEEDS` as a comma-separated list,
/// or just `base` (the `DDRACE_SEED` value) when unset. A malformed
/// list terminates the process with exit code 2 rather than silently
/// running a different sweep than asked for.
pub fn seeds_from_env(base: u64) -> Vec<u64> {
    match std::env::var("DDRACE_SEEDS") {
        Ok(list) => {
            let seeds: Result<Vec<u64>, _> = list.split(',').map(|s| s.trim().parse()).collect();
            match seeds {
                Ok(seeds) if !seeds.is_empty() => seeds,
                _ => {
                    eprintln!(
                        "error: DDRACE_SEEDS takes comma-separated numbers, e.g. 1,2,3 \
                         (got `{list}`)"
                    );
                    std::process::exit(2);
                }
            }
        }
        Err(_) => vec![base],
    }
}

/// Runs an experiment campaign with the shared environment plumbing:
/// host workers from `DDRACE_WORKERS`, a JSONL event stream to
/// `DDRACE_EVENTS` (making the run checkpointable), and resume from a
/// prior stream named by `DDRACE_RESUME`.
///
/// The resume log is read *before* the events path is opened, so
/// resuming a run into the same path it came from does not truncate
/// the checkpoint being replayed.
///
/// # Panics
///
/// Panics if any job fails — experiment workloads are expected to be
/// well-formed. Bad resume/events paths terminate with exit code 2.
pub fn run_exp_campaign(campaign: &Campaign) -> CampaignReport {
    let resume_log = std::env::var("DDRACE_RESUME").ok().map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: DDRACE_RESUME {path}: {e}");
            std::process::exit(2);
        });
        ResumeLog::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: DDRACE_RESUME {path}: {e}");
            std::process::exit(2);
        })
    });
    let jsonl: Option<Box<dyn std::io::Write + Send>> =
        std::env::var("DDRACE_EVENTS")
            .ok()
            .map(|path| -> Box<dyn std::io::Write + Send> {
                Box::new(std::fs::File::create(&path).unwrap_or_else(|e| {
                    eprintln!("error: DDRACE_EVENTS {path}: {e}");
                    std::process::exit(2);
                }))
            });
    let sink = EventSink::new(jsonl, false);
    let report = match &resume_log {
        Some(log) => resume_campaign(campaign, host_workers(), &sink, log).unwrap_or_else(|e| {
            eprintln!("error: DDRACE_RESUME does not match this campaign: {e}");
            std::process::exit(2);
        }),
        None => run_campaign(campaign, host_workers(), &sink),
    };
    for record in &report.records {
        if let Err(reason) = &record.outcome {
            panic!("job {} failed: {reason}", record.label);
        }
    }
    report
}

/// Host worker-thread count for campaign execution: `DDRACE_WORKERS`, or
/// every available core. A bad `DDRACE_WORKERS` value terminates the
/// process with exit code 2.
pub fn host_workers() -> usize {
    env_or_exit("DDRACE_WORKERS", parse_workers).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Builds the [`Campaign`] that [`run_matrix`] executes: every workload
/// under every mode at the context's scale, seed, and core count.
pub fn matrix_campaign(
    ctx: &ExpContext,
    name: &str,
    specs: &[WorkloadSpec],
    modes: &[AnalysisMode],
) -> Campaign {
    matrix_campaign_seeded(ctx, name, specs, modes, &[ctx.seed])
}

/// Like [`matrix_campaign`], with an explicit seed axis: the cross
/// product workload × mode × seed, seed innermost. Both workload
/// generation and the interleaving scheduler derive from the job's seed.
pub fn matrix_campaign_seeded(
    ctx: &ExpContext,
    name: &str,
    specs: &[WorkloadSpec],
    modes: &[AnalysisMode],
    seeds: &[u64],
) -> Campaign {
    Campaign::builder(name)
        .workloads(specs.iter().cloned())
        .modes(modes.iter().copied())
        .seeds(seeds.iter().copied())
        .scale(ctx.scale)
        .cores(ctx.cores)
        .build()
}

/// Runs every workload under every mode on the campaign harness's worker
/// pool, through [`run_exp_campaign`]. Results keep the input order.
///
/// # Panics
///
/// Panics if any job fails — experiment workloads are expected to be
/// well-formed, so a failure is a generator or simulator bug.
pub fn run_matrix(
    ctx: &ExpContext,
    specs: &[WorkloadSpec],
    modes: &[AnalysisMode],
) -> Vec<ModeRow> {
    run_matrix_seeded(ctx, specs, modes, &[ctx.seed])
}

/// Runs the full workload × mode × seed cross product on the campaign
/// harness, through [`run_exp_campaign`] (so `DDRACE_EVENTS` and
/// `DDRACE_RESUME` apply). Rows keep workload order; within a row, runs
/// are mode-major with the seed axis innermost
/// (`runs[m * seeds.len() + s]`), and multi-seed sweeps carry per-mode
/// mean/min/max fold-downs in
/// [`SuiteRow::seed_stats`](ddrace_harness::SuiteRow).
///
/// # Panics
///
/// Panics if any job fails — experiment workloads are expected to be
/// well-formed, so a failure is a generator or simulator bug.
pub fn run_matrix_seeded(
    ctx: &ExpContext,
    specs: &[WorkloadSpec],
    modes: &[AnalysisMode],
    seeds: &[u64],
) -> Vec<ModeRow> {
    run_exp_campaign(&matrix_campaign_seeded(ctx, "matrix", specs, modes, seeds)).rows()
}

/// Prints a fixed-width table: a header row then data rows.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
    for row in rows {
        print_row(row);
    }
}

/// Serializes `value` to `results/<name>.json` (directory from
/// `DDRACE_RESULTS_DIR`), creating the directory if needed. Prints the
/// path written. Failures are reported but not fatal — the printed table
/// is the primary output.
pub fn save_json<T: ToJson>(name: &str, value: &T) {
    let dir = std::env::var("DDRACE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let dir = PathBuf::from(dir);
    let write = || -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        let mut f = std::fs::File::create(&path)?;
        let json = ddrace_json::to_string_pretty(value).map_err(std::io::Error::other)?;
        f.write_all(json.as_bytes())?;
        Ok(path)
    };
    match write() {
        Ok(path) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not save {name}.json: {e}"),
    }
}

/// Formats a ratio like `12.3x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.1}x")
}

/// Formats a fraction as a percentage like `12.3%`.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrace_workloads::racy;

    #[test]
    fn context_defaults() {
        let ctx = ExpContext::default();
        assert_eq!(ctx.cores, 8);
        assert_eq!(ctx.scale, Scale::SMALL);
        assert!(ctx.scheduler().jitter);
    }

    #[test]
    fn run_matrix_preserves_order_and_modes() {
        let ctx = ExpContext {
            scale: Scale::TEST,
            seed: 1,
            cores: 4,
        };
        let specs = racy::kernels();
        let modes = [AnalysisMode::Native, AnalysisMode::Continuous];
        let rows = run_matrix(&ctx, &specs, &modes);
        assert_eq!(rows.len(), specs.len());
        for (row, spec) in rows.iter().zip(&specs) {
            assert_eq!(row.name, spec.name);
            assert_eq!(row.runs.len(), 2);
            assert_eq!(row.runs[0].mode, "native");
            assert_eq!(row.runs[1].mode, "continuous");
            // Same program, same schedule: identical op counts.
            assert_eq!(row.runs[0].ops, row.runs[1].ops);
        }
    }

    #[test]
    fn run_matrix_seeded_is_mode_major_seed_innermost() {
        let ctx = ExpContext {
            scale: Scale::TEST,
            seed: 1,
            cores: 4,
        };
        let specs = [racy::kernels()[0].clone()];
        let modes = [AnalysisMode::Native, AnalysisMode::Continuous];
        let seeds = [3, 9];
        let rows = run_matrix_seeded(&ctx, &specs, &modes, &seeds);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.runs.len(), 4);
        assert_eq!(row.runs[0].mode, "native");
        assert_eq!(row.runs[1].mode, "native");
        assert_eq!(row.runs[2].mode, "continuous");
        assert_eq!(row.runs[3].mode, "continuous");
        // Multi-seed rows carry the per-mode fold-downs.
        assert_eq!(row.seed_stats.len(), 2);
        assert_eq!(row.seed_stats[0].seeds, 2);
        // A seeded run matches the same seed run alone: the harness seed
        // axis reproduces what per-seed ExpContext runs produced.
        let solo = run_matrix_seeded(&ctx, &specs, &modes, &[9]);
        assert_eq!(row.runs[1].makespan, solo[0].runs[0].makespan);
        assert_eq!(row.runs[3].makespan, solo[0].runs[1].makespan);
    }

    #[test]
    fn scale_names_round_trip_and_reject_unknown() {
        for name in ["test", "small", "large"] {
            assert_eq!(scale_label(parse_scale_name(name).unwrap()), name);
        }
        // The old from_env treated these as SMALL silently; they must be
        // errors now.
        for bad in ["Large", "LARGE", "huge", ""] {
            assert!(parse_scale_name(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(scale_label(Scale { num: 3, den: 2 }), "3/2");
    }

    #[test]
    fn seed_cores_and_workers_parse_and_reject_bad_values() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in ["-1", "42x", "0x2a", "18446744073709551616", ""] {
            let err = parse_seed(bad).expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
        assert_eq!(parse_cores("1"), Ok(1));
        assert_eq!(parse_cores("64"), Ok(64));
        // Out of range would panic later, in CacheConfig.
        for bad in ["0", "65", "-8", "eight", ""] {
            let err = parse_cores(bad).expect_err(bad);
            assert!(
                err.contains("1..=64") && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers("8"), Ok(8));
        // 0 is refused, not read as "every available core".
        for bad in ["0", "-1", "all", ""] {
            let err = parse_workers(bad).expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn cap_scale_only_remaps_larger_scales() {
        assert_eq!(cap_scale(Scale::LARGE, Scale::SMALL), (Scale::SMALL, true));
        assert_eq!(cap_scale(Scale::SMALL, Scale::SMALL), (Scale::SMALL, false));
        assert_eq!(cap_scale(Scale::TEST, Scale::SMALL), (Scale::TEST, false));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(12.34), "12.3x");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
