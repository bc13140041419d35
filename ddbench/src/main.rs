//! The ddrace benchmark: one command, four workloads, one result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path ddbench/Cargo.toml -- \
//!     --workload sim-phoenix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `sim-phoenix`, `sim-sharing` — the campaign path
//!   (`ddrace_harness::run_campaign`) in native, continuous and
//!   demand-hitm modes on one harness worker;
//! * `ingest-serial` — the `ddrace ingest` path (serial replay) over a
//!   DDRT corpus recorded during set-up;
//! * `native-monitor` — two real threads driving `ddrace_native::Monitor`
//!   hooks over a generated stream.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs one
//! untraced pass, then drives every layer from streams captured out of
//! the same inputs with a span around each call into a layer, and
//! prints the per-layer metrics. Every run checks its outputs; a failed
//! check is counted in `failed` and makes the exit code 1. The last line
//! of standard output is the JSON result; lines before it start with `#`.

mod layers;
mod native;
mod report;
mod sim;
mod spans;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: equal seeds give equal inputs.
    pub seed: u64,
    /// How long the timed phase measures.
    pub budget: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrink every input to `Scale::TEST` size (the self-test).
    pub quick: bool,
    /// Where corpus traces and span files are written.
    pub out: PathBuf,
}

const USAGE: &str =
    "usage: ddbench --workload sim-phoenix|sim-sharing|ingest-serial|native-monitor \
--seed N --seconds N --trace 0|1 [--scale full|test] [--out DIR]";

fn parse_args() -> Result<(String, RunOpts), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut out = PathBuf::from("ddbench/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--scale" => {
                quick = match value()?.as_str() {
                    "full" => false,
                    "test" => true,
                    other => return Err(format!("--scale takes full or test, not `{other}`")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let opts = RunOpts {
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        quick,
        out,
    };
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&str, &RunOpts) -> Outcome = match workload.as_str() {
        "sim-phoenix" | "sim-sharing" => sim::run,
        "ingest-serial" => |_, opts| sim::run_ingest(opts),
        "native-monitor" => |_, opts| native::run(opts),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("error: --out {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let outcome = run(&workload, &opts);
    let outcome = match outcome.finish(&workload, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
