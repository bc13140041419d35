//! `native-monitor`: two real threads drive `ddrace_native::Monitor`
//! hooks over a generated stream, in four passes per round:
//!
//! * uninstrumented — the stream's own work, no monitor;
//! * hooks disabled — every hook called, `Monitor::disable()`d;
//! * always enabled — full analysis;
//! * demand-toggled — `enable()`/`disable()` at fixed phase boundaries
//!   (two of eight phases enabled), so the analyzed share is exact.
//!
//! Nothing is simulated: every figure here is host time.

use crate::layers::{self, Subject, Untraced};
use crate::report::{median, repeat_for, timed_setup, Outcome};
use crate::sim::{modes, CORES};
use crate::spans::Tracer;
use crate::RunOpts;
use ddrace_core::{AnalysisMode, SimConfig};
use ddrace_harness::{fnv1a, run_campaign, Campaign, EventSink, TraceSource};
use ddrace_native::{Monitor, ThreadToken};
use ddrace_program::{Addr, LockId, Op, Prng, Program, StartMode};
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Real threads per pass: the host's core count.
const THREADS: usize = 2;
/// Phases per thread stream; both threads meet at every boundary.
const PHASES: usize = 8;
/// Phases `p` with `p % ENABLE_EVERY == 0` are enabled in the demand
/// pass: two of eight, a 25% analyzed share.
const ENABLE_EVERY: usize = 4;
const PRIVATE_WORDS: u64 = 4096;
const SHARED_WORDS: u64 = 64;
const SHARED_BASE: u64 = 0x5000_0000;
/// Written once by each thread, unsynchronized: the one planted race.
const RACE_WORD: Addr = Addr(0x6000_0000);
/// Written only under the stream's lock.
const COUNTER_WORD: Addr = Addr(0x6000_0040);
const LOCK: u32 = 0;

/// One hooked operation of the stream.
#[derive(Debug, Clone, Copy)]
enum NOp {
    Read(Addr),
    Write(Addr),
    Lock,
    Unlock,
}

/// Per-thread streams of `phase_len * PHASES` operations.
struct Streams {
    threads: Vec<Vec<NOp>>,
    phase_len: usize,
}

impl Streams {
    /// Mostly private accesses (a quarter of them writes), one in
    /// sixteen a read of a read-only shared word, one in sixty-four a
    /// lock cycle around a shared counter update. Lock cycles never
    /// straddle a phase boundary, where the threads wait for each other.
    fn generate(seed: u64, phase_len: usize) -> Streams {
        let threads = (0..THREADS)
            .map(|t| {
                let mut rng = Prng::seed_from_u64(seed ^ ((t as u64 + 1) << 40));
                let private = 0x1000_0000 + 0x10_0000 * (t as u64 + 1);
                let mut ops = Vec::with_capacity(phase_len * PHASES);
                for phase in 0..PHASES {
                    let end = ops.len() + phase_len;
                    if phase == 0 {
                        ops.push(NOp::Write(RACE_WORD));
                    }
                    while ops.len() < end {
                        let r = rng.below(64);
                        if r == 0 && end - ops.len() >= 4 {
                            ops.extend([
                                NOp::Lock,
                                NOp::Read(COUNTER_WORD),
                                NOp::Write(COUNTER_WORD),
                                NOp::Unlock,
                            ]);
                        } else if r < 5 {
                            ops.push(NOp::Read(Addr(SHARED_BASE + rng.below(SHARED_WORDS) * 8)));
                        } else {
                            let addr = Addr(private + rng.below(PRIVATE_WORDS) * 8);
                            ops.push(if rng.below(4) == 0 {
                                NOp::Write(addr)
                            } else {
                                NOp::Read(addr)
                            });
                        }
                    }
                }
                ops
            })
            .collect();
        Streams { threads, phase_len }
    }

    fn for_run(opts: &RunOpts) -> Streams {
        Streams::generate(opts.seed, if opts.quick { 1 << 10 } else { 1 << 17 })
    }

    /// Hook calls per pass.
    fn calls(&self) -> u64 {
        self.threads.iter().map(|t| t.len() as u64).sum()
    }

    fn data_accesses(&self) -> u64 {
        self.threads
            .iter()
            .flatten()
            .filter(|op| matches!(op, NOp::Read(_) | NOp::Write(_)))
            .count() as u64
    }

    /// The same streams as simulator thread bodies.
    fn program_ops(&self) -> Vec<Vec<Op>> {
        self.threads
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|op| match *op {
                        NOp::Read(addr) => Op::Read { addr },
                        NOp::Write(addr) => Op::Write { addr },
                        NOp::Lock => Op::Lock { lock: LockId(LOCK) },
                        NOp::Unlock => Op::Unlock { lock: LockId(LOCK) },
                    })
                    .collect()
            })
            .collect()
    }
}

/// splitmix64 finalizer, the stream's stand-in for real work between
/// memory accesses (serially dependent, so it cannot be vectorized away).
#[inline(always)]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs one slice of a thread's stream, optionally through the hooks.
/// `guard` carries a held lock across calls.
fn run_ops<'a>(
    ops: &[NOp],
    hooks: Option<(&Monitor, ThreadToken)>,
    lock: &'a Mutex<u64>,
    guard: &mut Option<MutexGuard<'a, u64>>,
    mut acc: u64,
) -> u64 {
    for op in ops {
        match *op {
            NOp::Read(addr) => {
                acc = mix(mix(acc ^ addr.0));
                if let Some((m, t)) = hooks {
                    m.read(t, addr);
                }
            }
            NOp::Write(addr) => {
                acc = mix(mix(acc ^ addr.0));
                if let Some((m, t)) = hooks {
                    m.write(t, addr);
                }
            }
            NOp::Lock => {
                let mut g = lock.lock().expect("stream lock poisoned");
                *g += 1;
                *guard = Some(g);
                if let Some((m, t)) = hooks {
                    m.lock_acquired(t, LOCK);
                }
            }
            NOp::Unlock => {
                if let Some((m, t)) = hooks {
                    m.lock_released(t, LOCK);
                }
                *guard = None;
            }
        }
    }
    acc
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Uninstrumented,
    Disabled,
    Enabled,
    Demand,
}

const PASSES: [PassKind; 4] = [
    PassKind::Uninstrumented,
    PassKind::Disabled,
    PassKind::Enabled,
    PassKind::Demand,
];

/// A monitor with one token per stream thread (thread 0 is the root).
fn monitor_for(kind: PassKind) -> Option<(Arc<Monitor>, Vec<ThreadToken>)> {
    if kind == PassKind::Uninstrumented {
        return None;
    }
    let (m, root) = Monitor::new();
    let mut tokens = vec![root];
    tokens.extend((1..THREADS).map(|_| m.fork(root)));
    if kind == PassKind::Disabled {
        m.disable();
    }
    Some((m, tokens))
}

/// Runs one pass on `THREADS` real threads; returns its wall in seconds.
fn threaded_pass(
    streams: &Streams,
    kind: PassKind,
    monitor: Option<&(Arc<Monitor>, Vec<ThreadToken>)>,
) -> f64 {
    let barrier = Barrier::new(THREADS);
    let lock = Mutex::new(0u64);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (t, ops) in streams.threads.iter().enumerate() {
            let (barrier, lock) = (&barrier, &lock);
            scope.spawn(move || {
                let hooks = monitor.map(|(m, tokens)| (&**m, tokens[t]));
                let mut guard = None;
                let mut acc = 0;
                for (phase, chunk) in ops.chunks(streams.phase_len).enumerate() {
                    barrier.wait();
                    if let (0, PassKind::Demand, Some((m, _))) = (t, kind, hooks) {
                        if phase % ENABLE_EVERY == 0 {
                            m.enable();
                        } else {
                            m.disable();
                        }
                    }
                    barrier.wait();
                    acc = run_ops(chunk, hooks, lock, &mut guard, acc);
                }
                black_box(acc);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn join_all(monitor: &(Arc<Monitor>, Vec<ThreadToken>)) {
    let (m, tokens) = monitor;
    for &child in &tokens[1..] {
        m.join(tokens[0], child);
    }
}

/// One round: every pass once. Returns the walls and a digest of the
/// monitors' deterministic outcomes.
fn round(streams: &Streams) -> ([f64; 4], u64) {
    let mut walls = [0.0; 4];
    let mut text = String::new();
    for (i, kind) in PASSES.into_iter().enumerate() {
        let monitor = monitor_for(kind);
        walls[i] = threaded_pass(streams, kind, monitor.as_ref());
        if let Some(monitor) = &monitor {
            join_all(monitor);
            let stats = monitor.0.stats();
            text.push_str(&format!(
                "{kind:?} r{} c{} s{}\n",
                monitor.0.race_count(),
                stats.accesses_checked,
                stats.sync_ops
            ));
        }
    }
    (walls, fnv1a(text.as_bytes()))
}

/// Single-threaded hook costs on a stream.
#[derive(Debug, Clone, Copy)]
pub struct Hooks {
    /// The stream's own work per operation, no monitor.
    pub kernel_ns: f64,
    /// Added per hook call with analysis on.
    pub enabled_ns: f64,
    /// Added per hook call with analysis off.
    pub disabled_ns: f64,
    /// Per lock hook call (`lock_acquired` or `lock_released`).
    pub lock_ns: f64,
    /// Records dropped by a recording monitor after a quiesced run.
    pub dropped: u64,
}

fn measure_hooks(streams: &Streams) -> Hooks {
    let calls = streams.calls() as f64;
    let sequential = |kind: PassKind| -> f64 {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let monitor = monitor_for(kind);
                let lock = Mutex::new(0u64);
                let mut guard = None;
                let start = Instant::now();
                let mut acc = 0;
                for (t, ops) in streams.threads.iter().enumerate() {
                    let hooks = monitor.as_ref().map(|(m, tokens)| (&**m, tokens[t]));
                    acc = run_ops(ops, hooks, &lock, &mut guard, acc);
                }
                black_box(acc);
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    };
    let kernel = sequential(PassKind::Uninstrumented);
    let disabled = sequential(PassKind::Disabled);
    let enabled = sequential(PassKind::Enabled);
    const PAIRS: u32 = 100_000;
    let (m, root) = Monitor::new();
    let start = Instant::now();
    for _ in 0..PAIRS {
        m.lock_acquired(root, LOCK);
        m.lock_released(root, LOCK);
    }
    let lock_ns = start.elapsed().as_nanos() as f64 / f64::from(2 * PAIRS);
    let (recording, root) =
        Monitor::recording(Box::new(std::io::sink())).expect("writing to a sink cannot fail");
    let lock = Mutex::new(0u64);
    let mut guard = None;
    for ops in &streams.threads {
        black_box(run_ops(ops, Some((&recording, root)), &lock, &mut guard, 0));
    }
    let _ = recording.finish_recording();
    Hooks {
        kernel_ns: kernel / calls,
        enabled_ns: (enabled - kernel) / calls,
        disabled_ns: (disabled - kernel) / calls,
        lock_ns,
        dropped: recording.dropped_records(),
    }
}

/// The native hook layer on the seed's stream; every workload's traced
/// run reports it.
pub fn hook_layer(opts: &RunOpts) -> Hooks {
    measure_hooks(&Streams::for_run(opts))
}

/// Records an enabled two-thread pass as a DDRT trace, checks the record
/// accounting, and replays the trace through the harness's FastTrack.
/// Returns the ingest report's harness figures.
fn check_recording(outcome: &mut Outcome, streams: &Streams, opts: &RunOpts) -> (f64, u64, u64) {
    let path = opts.out.join(format!("native-s{}.ddrt", opts.seed));
    let file = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            outcome.check("native trace written", false, || {
                format!("{}: {e}", path.display())
            });
            return (0.0, 0, 0);
        }
    };
    let (m, root) = Monitor::recording(Box::new(std::io::BufWriter::new(file)))
        .expect("the trace header fits in the write buffer");
    let mut tokens = vec![root];
    tokens.extend((1..THREADS).map(|_| m.fork(root)));
    let monitor = (m, tokens);
    threaded_pass(streams, PassKind::Enabled, Some(&monitor));
    join_all(&monitor);
    let (m, _) = &monitor;
    let written = m.finish_recording();
    let dropped = m.dropped_records();
    // The root's and each fork's start, every hook call, and each join's
    // finish-plus-join pair.
    let issued = 1 + 3 * (THREADS as u64 - 1) + streams.calls();
    outcome.work(issued, dropped);
    let source = match (written, TraceSource::load(&path)) {
        (Ok(_), Ok(source)) => source,
        (w, s) => {
            outcome.check("native trace recorded and readable", false, || {
                format!(
                    "finish {:?}, load {:?}",
                    w.err(),
                    s.err().map(|e| e.to_string())
                )
            });
            return (0.0, 0, 0);
        }
    };
    outcome.check(
        "native: decoded + dropped == issued",
        source.records + dropped == issued,
        || {
            format!(
                "{} decoded + {dropped} dropped vs {issued} issued",
                source.records
            )
        },
    );
    let campaign = Campaign::builder("native-replay")
        .trace_corpus([source])
        .modes([AnalysisMode::Continuous])
        .seeds([0])
        .cores(CORES)
        .build();
    let start = Instant::now();
    let report = run_campaign(&campaign, 1, &EventSink::null());
    let wall = start.elapsed().as_secs_f64();
    outcome.work(report.records.len() as u64, report.failed() as u64);
    let replayed = report.records[0].outcome.as_ref().map(|r| r.races.distinct);
    outcome.check(
        "native: enabled race count equals a FastTrack replay of the stream",
        replayed.as_ref().ok() == Some(&m.race_count()),
        || format!("monitor {} vs replay {replayed:?}", m.race_count()),
    );
    let job_wall: f64 = report.records.iter().map(|r| r.wall.as_secs_f64()).sum();
    (
        wall - job_wall,
        report.records.len() as u64,
        report.failed() as u64,
    )
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut outcome = Outcome::default();
    // Set-up generates the streams and warms every pass once on them.
    let (streams, setup_s) = timed_setup(|| {
        let streams = Streams::for_run(opts);
        round(&streams);
        streams
    });
    let calls = streams.calls() as f64;
    outcome.note(format!(
        "{THREADS} threads, {} hook calls per pass ({} data accesses), available_parallelism {}",
        streams.calls(),
        streams.data_accesses(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    // A traced run attributes the median round of a short untraced
    // phase; a round is a fraction of a second.
    let budget = if opts.trace {
        Duration::from_secs(2).min(opts.budget)
    } else {
        opts.budget
    };
    let rounds = repeat_for(budget, || round(&streams));
    let first = rounds[0].1;
    outcome.check(
        "native: monitor digest identical across rounds",
        rounds.iter().all(|(_, d)| *d == first),
        || "race counts or checked accesses differ between rounds".into(),
    );
    outcome.note(format!(
        "digest {first:016x} over {} round(s)",
        rounds.len()
    ));
    let (harness_s, jobs, jobs_failed) = check_recording(&mut outcome, &streams, opts);

    // Each pass's median round: a pass lasts tens of milliseconds, so the
    // fastest of some 80 rounds is an extreme value, not a quiet-host
    // estimate (it spread ±30% across seeds where the median spread 5%).
    let typical: [f64; 4] =
        std::array::from_fn(|i| median(&rounds.iter().map(|(w, _)| w[i]).collect::<Vec<_>>()));
    if !opts.trace {
        outcome.metric("setup_s", setup_s, "s");
        outcome.metric(
            "events_per_s",
            4.0 * calls / typical.iter().sum::<f64>(),
            "1/s",
        );
        outcome.metric("native_events_per_s", calls / typical[0], "1/s");
        outcome.metric("continuous_events_per_s", calls / typical[2], "1/s");
        outcome.metric("demand_events_per_s", calls / typical[3], "1/s");
        outcome.note(format!(
            "{} round(s); native_enabled_slowdown {:.4} x, native_disabled_slowdown {:.4} x, demand-toggled {:.4} x (host wall / uninstrumented wall)",
            rounds.len(),
            typical[2] / typical[0],
            typical[1] / typical[0],
            typical[3] / typical[0],
        ));
        return outcome;
    }

    let hooks = measure_hooks(&streams);
    let mut tracer = Tracer::new();
    let subject = Subject {
        name: "native-stream".to_string(),
        // Both threads start together, as the real threads do.
        make: {
            let ops = streams.program_ops();
            Box::new(move || Program::from_thread_vecs(ops.clone(), StartMode::AllStart))
        },
        configs: modes().map(|mode| {
            let mut cfg = SimConfig::new(CORES, mode);
            cfg.scheduler.seed = opts.seed;
            cfg.scheduler.jitter = true;
            cfg
        }),
        expected: [None, None, None],
    };
    let drive = layers::drive(std::slice::from_ref(&subject), &mut tracer, &mut outcome);
    // Both threads run in parallel, so a pass should take one thread's
    // share of the calls at the single-threaded per-call cost.
    let per_thread = calls / THREADS as f64 / 1e9;
    let share = 1.0 / ENABLE_EVERY as f64;
    let cost = [
        hooks.kernel_ns,
        hooks.kernel_ns + hooks.disabled_ns,
        hooks.kernel_ns + hooks.enabled_ns,
        hooks.kernel_ns + share * hooks.enabled_ns + (1.0 - share) * hooks.disabled_ns,
    ];
    let untraced = Untraced {
        wall_s: typical.iter().sum(),
        stages: PASSES
            .iter()
            .zip(typical.iter().zip(cost))
            .map(|(kind, (wall, ns))| (format!("{kind:?} pass"), *wall, per_thread * ns))
            .collect(),
        harness_overhead_s: harness_s,
        jobs,
        jobs_failed,
    };
    layers::finish(
        &mut outcome,
        tracer,
        &drive,
        &hooks,
        &untraced,
        "thread start, phase barriers and lock contention",
    );
    outcome
}
