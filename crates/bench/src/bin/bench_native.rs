//! Native-monitor scaling bench: measures the in-process [`Monitor`]
//! data path across real thread counts and shard counts, and emits the
//! machine-readable `BENCH_native.json` at the repo root.
//!
//! Matrix: threads {1, 8, 64} × variants {uninstrumented, hooks
//! disabled, enabled with 1 shard (the serialized layout), enabled with
//! 64 shards}. Every cell drives the *same* deterministic address
//! stream, so the only difference between variants is the hook.
//!
//! Two throughput views are reported, because wall-clock alone cannot
//! show lock scaling on a host with fewer cores than worker threads:
//!
//! * **wall** — events/s over the real multi-threaded run. Meaningful as
//!   a contention measurement only when the host actually runs the
//!   threads in parallel.
//! * **capacity** — the serialization ceiling implied by the lock
//!   structure: the measured single-thread critical-section rate divided
//!   by the maximum shard-load fraction the 64-thread cell actually
//!   produced ([`Monitor::shard_loads`] after the run). With one shard
//!   the fraction is 1.0 and the ceiling is the single-thread rate; with
//!   64 shards a balanced stream admits up to 64 concurrent critical
//!   sections. The monitor routes by 4 KiB page, so the stream's one
//!   shared-read page (1/16 of all events) has a single home shard and
//!   bounds the ceiling. The figure is host-parallelism-independent.
//!
//! The summary's `basis` field records which view the headline
//! `sharded_vs_unsharded_64t` ratio uses: `"wall"` when the host offers
//! ≥ 8 hardware threads, `"capacity"` otherwise.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ddrace-bench --bin bench_native          # full run, writes JSON
//! cargo run -p ddrace-bench --bin bench_native -- --smoke         # tiny budget, no JSON (CI)
//! ```
//!
//! `DDRACE_BENCH_OUT` overrides the output path.

use ddrace_json::Value;
use ddrace_native::{Monitor, MonitorConfig};
use ddrace_program::Addr;
use std::time::Instant;

/// Thread counts exercised by the matrix.
const THREAD_COUNTS: [usize; 3] = [1, 8, 64];
/// Shard count for the "sharded" variant (the monitor default).
const SHARDED: usize = 64;

/// One measured cell of the matrix.
struct Run {
    threads: usize,
    variant: &'static str,
    median_ns: u64,
    events: u64,
    /// Checked accesses per shard (empty unless enabled); the stream is
    /// deterministic, so every sample yields the same loads.
    shard_loads: Vec<u64>,
}

impl Run {
    fn events_per_s(&self) -> f64 {
        self.events as f64 * 1e9 / self.median_ns.max(1) as f64
    }
}

/// Which hook (if any) each generated event is fed through.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Address generation + accumulate only; no monitor in the process.
    Uninstrumented,
    /// Full hooks compiled in, `Monitor::disable()`d: each event pays
    /// one atomic load and a branch.
    Disabled,
    /// Hooks enabled against a monitor with this many shards.
    Enabled(usize),
}

impl Mode {
    fn variant(self) -> &'static str {
        match self {
            Mode::Uninstrumented => "uninstrumented",
            Mode::Disabled => "disabled",
            Mode::Enabled(1) => "enabled_shards_1",
            Mode::Enabled(SHARDED) => "enabled_shards_64",
            Mode::Enabled(_) => "enabled",
        }
    }
}

/// splitmix64 finalizer: used for address generation and, chained
/// serially through the accumulator ([`KERNEL_ROUNDS`] rounds per
/// event), as the bench's compute kernel.
#[inline(always)]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Serial compute rounds per event. The kernel is a data-dependent mix
/// chain through the accumulator, so neither variant's loop can be
/// vectorized away — every cell pays the same per-event work and the
/// disabled/uninstrumented delta isolates the hook itself (one atomic
/// load and a branch), which the ≤ 10% acceptance bound is about. Two
/// rounds ≈ a couple dozen cycles: a stand-in for the real computation
/// an instrumented program does between memory accesses.
const KERNEL_ROUNDS: usize = 2;

/// The per-event compute kernel: serially data-dependent on `acc`.
#[inline(always)]
fn kernel(mut acc: u64, addr: u64) -> u64 {
    acc ^= addr;
    for _ in 0..KERNEL_ROUNDS {
        acc = mix(acc);
    }
    acc
}

/// The deterministic per-event address stream for worker `w`, event `i`.
///
/// 1-in-16 events read one of 64 shared words (cross-thread read-shared
/// data: exercises the adaptive read state without manufacturing races);
/// the rest hit a 4096-word private region per worker, 1-in-4 of those
/// as writes. Returns `(addr, is_write)`.
#[inline(always)]
fn event(w: usize, i: u64) -> (Addr, bool) {
    let r = mix((w as u64) << 32 | i);
    if r.is_multiple_of(16) {
        (Addr(0x5000_0000 + (r >> 32) % 64 * 8), false)
    } else {
        let base = 0x1000_0000 + 0x10_0000 * (w as u64 + 1);
        (Addr(base + (r >> 32) % 4096 * 8), r.is_multiple_of(4))
    }
}

/// Runs one sample of the matrix cell: `threads` workers, `per_thread`
/// events each, through `mode`'s hook. Returns elapsed nanoseconds and,
/// when enabled, the monitor's per-shard loads.
fn sample(threads: usize, per_thread: u64, mode: Mode) -> (u64, Vec<u64>) {
    let monitor = match mode {
        Mode::Uninstrumented => None,
        Mode::Disabled => Some(Monitor::new()),
        Mode::Enabled(shards) => Some(Monitor::with_monitor_config(MonitorConfig {
            shards,
            ..MonitorConfig::default()
        })),
    };
    if let (Some((m, _)), Mode::Disabled) = (&monitor, mode) {
        m.disable();
    }
    let tokens: Vec<_> = monitor
        .as_ref()
        .map(|(m, root)| (0..threads).map(|_| m.fork(*root)).collect())
        .unwrap_or_default();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let monitor = monitor.as_ref().map(|(m, _)| m);
            let token = tokens.get(w).copied();
            scope.spawn(move || {
                let mut acc = 0u64;
                for i in 0..per_thread {
                    let (addr, is_write) = event(w, i);
                    acc = kernel(acc, addr.0);
                    if let (Some(m), Some(t)) = (monitor, token) {
                        if is_write {
                            m.write(t, addr);
                        } else {
                            m.read(t, addr);
                        }
                    }
                }
                criterion::black_box(acc);
            });
        }
    });
    let elapsed = start.elapsed().as_nanos() as u64;

    let mut loads = Vec::new();
    if let Some((m, root)) = &monitor {
        for token in tokens {
            m.join(*root, token);
        }
        // The stream is race-free by construction (shared words are
        // read-only, private regions are per-thread); a nonzero count
        // here would mean the bench is measuring report bookkeeping.
        assert_eq!(m.race_count(), 0, "bench workload must be race-free");
        if mode != Mode::Disabled {
            let checked = m.stats().accesses_checked;
            let issued = threads as u64 * per_thread;
            assert_eq!(checked, issued, "every issued event must be checked");
            loads = m.shard_loads();
        }
    }
    (elapsed.max(1), loads)
}

/// Median-of-samples measurement for one matrix cell.
fn measure_cell(threads: usize, total_events: u64, samples: usize, mode: Mode) -> Run {
    let per_thread = (total_events / threads as u64).max(1);
    let events = per_thread * threads as u64;
    let mut shard_loads = Vec::new();
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let (ns, loads) = sample(threads, per_thread, mode);
            shard_loads = loads;
            ns
        })
        .collect();
    times.sort_unstable();
    Run {
        threads,
        variant: mode.variant(),
        median_ns: times[times.len() / 2],
        events,
        shard_loads,
    }
}

/// Maximum shard-load fraction a run measured: the busiest shard's
/// share of all checked accesses.
fn max_shard_load_fraction(run: &Run) -> f64 {
    let max = run.shard_loads.iter().copied().max().unwrap_or(0);
    max as f64 / run.shard_loads.iter().sum::<u64>().max(1) as f64
}

fn measurement_json(r: &Run) -> Value {
    Value::Object(vec![
        ("median_ns".into(), Value::UInt(r.median_ns)),
        ("events".into(), Value::UInt(r.events)),
        ("events_per_s".into(), Value::Float(r.events_per_s())),
    ])
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var("DDRACE_BENCH_SMOKE").is_ok();
    let samples = if smoke { 2 } else { 5 };
    let total_events: u64 = if smoke { 1 << 13 } else { 1 << 20 };
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());

    println!(
        "native monitor bench: {total_events} events/cell, {samples} samples, host parallelism {parallelism}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let modes = [
        Mode::Uninstrumented,
        Mode::Disabled,
        Mode::Enabled(1),
        Mode::Enabled(SHARDED),
    ];
    let mut runs: Vec<Run> = Vec::new();
    for &threads in &THREAD_COUNTS {
        for &mode in &modes {
            let run = measure_cell(threads, total_events, samples, mode);
            println!(
                "  {:>2} threads  {:<18} {:>12.0} events/s",
                run.threads,
                run.variant,
                run.events_per_s()
            );
            assert!(run.events_per_s() > 0.0, "throughput must be nonzero");
            runs.push(run);
        }
    }

    let cell = |threads: usize, variant: &str| -> &Run {
        runs.iter()
            .find(|r| r.threads == threads && r.variant == variant)
            .expect("matrix cell present")
    };
    let rate = |threads: usize, variant: &str| -> f64 { cell(threads, variant).events_per_s() };

    // Serialization-capacity ceilings at 64 threads: single-thread
    // critical-section rate ÷ the 64-thread cell's measured max
    // shard-load fraction.
    let frac_1 = max_shard_load_fraction(cell(64, "enabled_shards_1"));
    let frac_64 = max_shard_load_fraction(cell(64, "enabled_shards_64"));
    let cap_1 = rate(1, "enabled_shards_1") / frac_1;
    let cap_64 = rate(1, "enabled_shards_64") / frac_64;
    assert!(
        (frac_1 - 1.0).abs() < f64::EPSILON,
        "one shard takes all load"
    );

    let wall_ratio = rate(64, "enabled_shards_64") / rate(64, "enabled_shards_1");
    let capacity_ratio = cap_64 / cap_1;
    let basis = if parallelism >= 8 { "wall" } else { "capacity" };
    let ratio = if basis == "wall" {
        wall_ratio
    } else {
        capacity_ratio
    };

    // Disabled-hook overhead, measured where it is cleanest: one thread,
    // wall clock (multi-thread cells on an oversubscribed host measure
    // the scheduler, not the hook).
    let disabled_overhead_pct =
        (rate(1, "uninstrumented") / rate(1, "disabled") - 1.0).max(0.0) * 100.0;

    let sharded_pass = ratio >= 4.0;
    let disabled_pass = disabled_overhead_pct <= 10.0;
    println!(
        "summary: sharded_vs_unsharded_64t {ratio:.2}x ({basis} basis; wall {wall_ratio:.2}x, capacity {capacity_ratio:.2}x)"
    );
    println!("summary: disabled hook overhead {disabled_overhead_pct:.2}% (1-thread wall)");

    let doc = Value::Object(vec![
        ("bench".into(), Value::Str("native_monitor".into())),
        (
            "build".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("smoke".into(), Value::Bool(smoke)),
        ("host_parallelism".into(), Value::UInt(parallelism as u64)),
        (
            "config".into(),
            Value::Object(vec![
                ("total_events_per_cell".into(), Value::UInt(total_events)),
                ("samples".into(), Value::UInt(samples as u64)),
                ("sharded_shards".into(), Value::UInt(SHARDED as u64)),
                (
                    "workload".into(),
                    Value::Str("race-free mix: 1/16 shared reads, private 3:1 read:write".into()),
                ),
                ("kernel_rounds".into(), Value::UInt(KERNEL_ROUNDS as u64)),
            ]),
        ),
        (
            "runs".into(),
            Value::Array(
                runs.iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("threads".into(), Value::UInt(r.threads as u64)),
                            ("variant".into(), Value::Str(r.variant.into())),
                            ("wall".into(), measurement_json(r)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "capacity_64t".into(),
            Value::Object(vec![
                (
                    "enabled_shards_1".into(),
                    Value::Object(vec![
                        (
                            "single_thread_events_per_s".into(),
                            Value::Float(rate(1, "enabled_shards_1")),
                        ),
                        ("max_shard_load_fraction".into(), Value::Float(frac_1)),
                        ("events_per_s".into(), Value::Float(cap_1)),
                    ]),
                ),
                (
                    "enabled_shards_64".into(),
                    Value::Object(vec![
                        (
                            "single_thread_events_per_s".into(),
                            Value::Float(rate(1, "enabled_shards_64")),
                        ),
                        ("max_shard_load_fraction".into(), Value::Float(frac_64)),
                        ("events_per_s".into(), Value::Float(cap_64)),
                    ]),
                ),
            ]),
        ),
        (
            "summary".into(),
            Value::Object(vec![
                (
                    "sharded_vs_unsharded_64t".into(),
                    Value::Object(vec![
                        ("basis".into(), Value::Str(basis.into())),
                        ("ratio".into(), Value::Float(ratio)),
                        ("wall_ratio".into(), Value::Float(wall_ratio)),
                        ("capacity_ratio".into(), Value::Float(capacity_ratio)),
                    ]),
                ),
                (
                    "disabled_overhead_pct".into(),
                    Value::Object(vec![
                        ("basis".into(), Value::Str("1-thread wall".into())),
                        ("pct".into(), Value::Float(disabled_overhead_pct)),
                    ]),
                ),
                (
                    "acceptance".into(),
                    Value::Object(vec![
                        ("sharded_4x_at_64t".into(), Value::Bool(sharded_pass)),
                        ("disabled_within_10pct".into(), Value::Bool(disabled_pass)),
                        ("pass".into(), Value::Bool(sharded_pass && disabled_pass)),
                    ]),
                ),
            ]),
        ),
    ]);

    let json = ddrace_json::to_string_pretty(&doc).expect("serialize bench doc");
    if smoke {
        // Schema sanity for CI: the full document must build and carry
        // every field a consumer depends on; the file itself only comes
        // from full runs so the committed numbers stay release-grade.
        for field in [
            "events_per_s",
            "capacity_64t",
            "max_shard_load_fraction",
            "sharded_vs_unsharded_64t",
            "disabled_overhead_pct",
            "acceptance",
        ] {
            assert!(json.contains(field), "smoke schema check: missing {field}");
        }
        println!("smoke mode: skipping BENCH_native.json");
        return;
    }
    let out = std::env::var("DDRACE_BENCH_OUT").unwrap_or_else(|_| "BENCH_native.json".into());
    std::fs::write(&out, json + "\n").expect("write bench JSON");
    println!("wrote {out}");
}
