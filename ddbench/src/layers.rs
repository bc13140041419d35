//! The traced run: every layer driven on its own, from streams captured
//! out of the workload's own programs, with a span around each call.
//!
//! For each program the benchmark schedules it once (the `program`
//! layer), captures its event stream, and then feeds that stream to each
//! layer's public entry point exactly as `ddrace_core::Simulation` would:
//! the cache hierarchy sees every memory operation, the sharing indicator
//! sees what demand mode leaves unanalyzed, the controller sees the
//! signals and analyzed accesses, FastTrack sees the analyzed accesses
//! and all synchronization. The split between those layers is computed
//! once, untimed, and checked against the simulator's own result for the
//! same program and seed; then each layer is timed alone on its share.

use crate::native::Hooks;
use crate::report::Outcome;
use crate::sim::{keys_of, race_keys};
use crate::spans::Tracer;
use ddrace_cache::{AccessResult, CacheHierarchy, CoreId};
use ddrace_core::{
    AnalysisMode, ControllerConfig, DemandController, RunResult, SimConfig, Simulation,
};
use ddrace_detector::{FastTrack, RaceDetector};
use ddrace_native::{ParallelReplayConfig, ParallelReplayDetector};
use ddrace_pmu::{IndicatorMode, SharingIndicator};
use ddrace_program::{
    AccessKind, Addr, AddressSpace, Event, NullListener, Op, Program, Scheduler, TraceEvent,
};
use ddrace_trace::{decode_events_into, TraceWriter};
use std::hint::black_box;

/// One program to drive through every layer.
pub struct Subject {
    pub name: String,
    /// Builds the program afresh (programs are consumed by scheduling).
    pub make: Box<dyn Fn() -> Program>,
    /// Native, continuous and demand-hitm configurations of its jobs.
    pub configs: [SimConfig; 3],
    /// The results the measured path produced for the same inputs, when
    /// known; the layer drive must reproduce them.
    pub expected: [Option<RunResult>; 3],
}

/// Layer times (ns) and counts accumulated over every subject. Counts are
/// those of one timed pass: the schedule and the cache model run once per
/// mode, so their counts are tripled.
#[derive(Debug, Default)]
pub struct Drive {
    pub sched_ns: f64,
    pub ops: u64,
    pub context_switches: u64,
    pub cache_ns: f64,
    pub cache_accesses: u64,
    pub hitm_loads: u64,
    pub l1_hits: u64,
    pub pmu_ns: f64,
    pub pmu_observed: u64,
    pub pmu_signals: u64,
    pub enables: u64,
    pub controller_ns: f64,
    pub controller_calls: u64,
    pub demand_accesses: u64,
    pub demand_analyzed: u64,
    pub demand_shared: u64,
    pub replay_mode_ns: [f64; 3],
    pub replay_events: u64,
    pub detector_full_ns: f64,
    pub detector_sync_ns: f64,
    pub detector_accesses: u64,
    pub detector_syncs: u64,
    pub fast_path_hits: u64,
    pub escalations: u64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub trace_events: u64,
    pub trace_bytes: u64,
    pub parallel_ns: f64,
    pub parallel_events: u64,
    /// Per mode: the layer time a simulated job of that mode spends
    /// (schedule + cache, plus indicator/controller/detector by mode).
    pub sim_ns: [f64; 3],
    /// Wall time of the whole drive.
    pub wall_ns: f64,
}

/// What one operation is to the simulator; mirrors the dispatch in
/// `ddrace_core::Simulation` (a checked access, a synchronization access
/// to the object's backing word, thread management, or pure compute).
#[derive(Debug, Clone, Copy)]
enum Class {
    Data(Addr, AccessKind),
    Sync(Addr, AccessKind),
    ThreadMgmt,
    Other,
}

fn classify(event: &TraceEvent) -> Class {
    let TraceEvent::Op { op, .. } = event else {
        return Class::Other;
    };
    match *op {
        Op::Read { addr } => Class::Data(addr, AccessKind::Read),
        Op::Write { addr } => Class::Data(addr, AccessKind::Write),
        Op::RelaxedLoad { addr } => Class::Data(addr, AccessKind::RelaxedLoad),
        Op::RelaxedStore { addr } => Class::Data(addr, AccessKind::RelaxedStore),
        Op::RelaxedRmw { addr } => Class::Data(addr, AccessKind::RelaxedRmw),
        Op::AtomicRmw { addr } => Class::Sync(addr, AccessKind::AtomicRmw),
        Op::AtomicLoad { addr } => Class::Sync(addr, AccessKind::Read),
        Op::AtomicStore { addr } => Class::Sync(addr, AccessKind::Write),
        Op::Lock { lock } => Class::Sync(AddressSpace::lock_addr(lock), AccessKind::AtomicRmw),
        Op::Unlock { lock } => Class::Sync(AddressSpace::lock_addr(lock), AccessKind::Write),
        Op::Barrier { barrier, .. } => {
            Class::Sync(AddressSpace::barrier_addr(barrier), AccessKind::AtomicRmw)
        }
        Op::Post { sem } | Op::WaitSem { sem } => {
            Class::Sync(AddressSpace::sem_addr(sem), AccessKind::AtomicRmw)
        }
        Op::CondWait { cond, .. }
        | Op::CondWake { cond, .. }
        | Op::NotifyOne { cond }
        | Op::NotifyAll { cond } => {
            Class::Sync(AddressSpace::cond_addr(cond), AccessKind::AtomicRmw)
        }
        Op::Fork { .. } | Op::Join { .. } => Class::ThreadMgmt,
        Op::Compute { .. } => Class::Other,
    }
}

fn to_trace_event(event: &Event<'_>) -> TraceEvent {
    match *event {
        Event::ThreadStarted { tid, parent } => TraceEvent::ThreadStarted { tid, parent },
        Event::Op { tid, op } => TraceEvent::Op { tid, op },
        Event::BarrierReleased {
            barrier,
            participants,
        } => TraceEvent::BarrierReleased {
            barrier,
            participants: participants.to_vec(),
        },
        Event::ThreadFinished { tid } => TraceEvent::ThreadFinished { tid },
    }
}

/// Feeds the captured stream to a detector as the simulator does; data
/// access number `i` is checked only when `analyzed(i)`.
fn feed_detector(
    det: &mut FastTrack,
    events: &[TraceEvent],
    classes: &[Class],
    mut analyzed: impl FnMut(usize) -> bool,
) {
    let mut access = 0usize;
    for (event, class) in events.iter().zip(classes) {
        match event {
            TraceEvent::ThreadStarted { tid, parent } => det.on_thread_start(*tid, *parent),
            TraceEvent::ThreadFinished { tid } => det.on_thread_finish(*tid),
            TraceEvent::BarrierReleased {
                barrier,
                participants,
            } => det.on_barrier_release(*barrier, participants),
            TraceEvent::Op { tid, op } => match *class {
                Class::Data(addr, kind) => {
                    if analyzed(access) {
                        black_box(det.on_access(*tid, addr, kind));
                    }
                    access += 1;
                }
                Class::Sync(..) => {
                    det.on_sync(*tid, op);
                    access += 1;
                }
                Class::ThreadMgmt => det.on_sync(*tid, op),
                Class::Other => {}
            },
        }
    }
}

/// The demand-mode split of one captured stream.
struct DemandSplit {
    /// Access numbers the indicator observes (analysis off).
    observed: Vec<u32>,
    /// Controller calls in order: `None` a sharing signal, `Some(shared)`
    /// an analyzed access.
    controller: Vec<Option<bool>>,
    /// Per access number: checked by the detector.
    analyzed: Vec<bool>,
    signals: u64,
    shared: u64,
    enables: u64,
}

/// The indicator and controller settings of a demand-mode configuration.
fn demand_parts(cfg: &SimConfig) -> (IndicatorMode, ControllerConfig) {
    match cfg.mode {
        AnalysisMode::Demand {
            indicator,
            controller,
        } => (indicator, controller),
        _ => unreachable!("the third configuration is demand-hitm"),
    }
}

fn demand_split(
    cfg: &SimConfig,
    events: &[TraceEvent],
    classes: &[Class],
    accesses: &[(CoreId, Addr, AccessKind)],
    results: &[AccessResult],
) -> DemandSplit {
    let (indicator, controller) = demand_parts(cfg);
    let mut det = FastTrack::new(cfg.detector);
    let mut ind = SharingIndicator::new(indicator, cfg.cores);
    let mut ctl = DemandController::new(controller);
    let mut split = DemandSplit {
        observed: Vec::new(),
        controller: Vec::new(),
        analyzed: vec![false; accesses.len()],
        signals: 0,
        shared: 0,
        enables: 0,
    };
    let mut observe = |split: &mut DemandSplit, ctl: &mut DemandController, a: usize| {
        split.observed.push(a as u32);
        let (core, _, kind) = accesses[a];
        if ind.observe(core, &results[a], kind).is_some() {
            split.signals += 1;
            split.controller.push(None);
            if ctl.on_sharing_signal() {
                split.enables += 1;
            }
        }
    };
    let mut a = 0usize;
    for (event, class) in events.iter().zip(classes) {
        match event {
            TraceEvent::ThreadStarted { tid, parent } => det.on_thread_start(*tid, *parent),
            TraceEvent::ThreadFinished { tid } => det.on_thread_finish(*tid),
            TraceEvent::BarrierReleased {
                barrier,
                participants,
            } => det.on_barrier_release(*barrier, participants),
            TraceEvent::Op { tid, op } => match *class {
                Class::Data(addr, kind) => {
                    if ctl.is_on() {
                        let shared = det.on_access(*tid, addr, kind).shared;
                        split.analyzed[a] = true;
                        split.shared += u64::from(shared);
                        split.controller.push(Some(shared));
                        ctl.on_analyzed_access(shared);
                    } else {
                        observe(&mut split, &mut ctl, a);
                    }
                    a += 1;
                }
                Class::Sync(..) => {
                    let on = ctl.is_on();
                    det.on_sync(*tid, op);
                    if !on {
                        observe(&mut split, &mut ctl, a);
                    }
                    a += 1;
                }
                Class::ThreadMgmt => det.on_sync(*tid, op),
                Class::Other => {}
            },
        }
    }
    split
}

/// Drives every layer over every subject, recording spans into `tracer`
/// and reproduction checks into `outcome`.
pub fn drive(subjects: &[Subject], tracer: &mut Tracer, outcome: &mut Outcome) -> Drive {
    let mut d = Drive::default();
    let start = std::time::Instant::now();
    for (job, s) in subjects.iter().enumerate() {
        let root = tracer.open(job, None, format!("job:{}", s.name));
        drive_subject(&mut d, job, root, s, tracer, outcome);
        tracer.close(root);
    }
    d.wall_ns = start.elapsed().as_nanos() as f64;
    d
}

fn drive_subject(
    d: &mut Drive,
    job: usize,
    root: usize,
    s: &Subject,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) {
    let cfg = s.configs[1];
    let (stats, sched_ns) = tracer.time(job, root, "program.schedule", || {
        Scheduler::new((s.make)(), cfg.scheduler)
            .with_pick_strategy(cfg.pick_strategy)
            .run(&mut NullListener)
    });
    let stats = match stats {
        Ok(stats) => stats,
        Err(e) => {
            outcome.check(format!("{}: schedules", s.name), false, || e.to_string());
            return;
        }
    };
    let mut events = Vec::new();
    let _ = tracer.time(job, root, "bench.capture", || {
        Scheduler::new((s.make)(), cfg.scheduler)
            .with_pick_strategy(cfg.pick_strategy)
            .run(&mut |e: Event<'_>| events.push(to_trace_event(&e)))
    });
    let classes: Vec<Class> = events.iter().map(classify).collect();
    let accesses: Vec<(CoreId, Addr, AccessKind)> = events
        .iter()
        .zip(&classes)
        .filter_map(|(e, c)| match (e, *c) {
            (TraceEvent::Op { tid, .. }, Class::Data(addr, kind) | Class::Sync(addr, kind)) => {
                Some((CoreId((tid.index() % cfg.cores) as u32), addr, kind))
            }
            _ => None,
        })
        .collect();
    if let Some(native) = &s.expected[0] {
        outcome.check(
            format!("{}: layer drive schedules the measured op count", s.name),
            native.schedule.ops_executed == stats.ops_executed,
            || format!("{} vs {}", stats.ops_executed, native.schedule.ops_executed),
        );
    }

    let mut cache = CacheHierarchy::new(cfg.cache);
    let (results, cache_ns) = tracer.time(job, root, "cache.access", || {
        accesses
            .iter()
            .map(|&(core, addr, kind)| cache.access(core, addr, kind))
            .collect::<Vec<AccessResult>>()
    });
    let cache_stats = cache.stats();

    let (split, _) = tracer.time(job, root, "bench.demand_split", || {
        demand_split(&s.configs[2], &events, &classes, &accesses, &results)
    });
    let analyzed = split.analyzed.iter().filter(|&&a| a).count() as u64;
    if let Some(demand) = &s.expected[2] {
        let enables = demand.controller.map_or(0, |c| c.enables);
        outcome.check(
            format!("{}: layer drive reproduces demand mode", s.name),
            demand.accesses_analyzed == analyzed
                && demand.pmis == split.signals
                && enables == split.enables,
            || {
                format!(
                    "analyzed {analyzed} vs {}, PMIs {} vs {}, enables {} vs {enables}",
                    demand.accesses_analyzed, split.signals, demand.pmis, split.enables
                )
            },
        );
    }

    let (indicator, controller) = demand_parts(&s.configs[2]);
    let (signals, pmu_ns) = tracer.time(job, root, "pmu.observe", || {
        let mut ind = SharingIndicator::new(indicator, cfg.cores);
        let mut n = 0u64;
        for &a in &split.observed {
            let (core, _, kind) = accesses[a as usize];
            n += u64::from(ind.observe(core, &results[a as usize], kind).is_some());
        }
        n
    });
    outcome.check(
        format!("{}: indicator replay raises the same PMIs", s.name),
        signals == split.signals,
        || format!("{signals} vs {}", split.signals),
    );
    let ((), controller_ns) = tracer.time(job, root, "core.controller", || {
        let mut ctl = DemandController::new(controller);
        for call in &split.controller {
            black_box(match *call {
                None => ctl.on_sharing_signal(),
                Some(shared) => ctl.on_analyzed_access(shared),
            });
        }
    });

    let (full, full_ns) = tracer.time(job, root, "detector.continuous", || {
        let mut det = FastTrack::new(cfg.detector);
        feed_detector(&mut det, &events, &classes, |_| true);
        det
    });
    let ((), sync_ns) = tracer.time(job, root, "detector.sync_only", || {
        let mut det = FastTrack::new(cfg.detector);
        feed_detector(&mut det, &events, &classes, |_| false);
    });
    let (demand_det, demand_ns) = tracer.time(job, root, "detector.demand", || {
        let mut det = FastTrack::new(cfg.detector);
        feed_detector(&mut det, &events, &classes, |a| split.analyzed[a]);
        det
    });
    if let Some(cont) = &s.expected[1] {
        outcome.check(
            format!("{}: layer drive reproduces continuous races", s.name),
            keys_of(full.reports().reports()) == race_keys(cont),
            || format!("{} vs {}", full.reports().distinct(), cont.races.distinct),
        );
    }
    if let Some(demand) = &s.expected[2] {
        outcome.check(
            format!("{}: layer drive reproduces demand races", s.name),
            keys_of(demand_det.reports().reports()) == race_keys(demand),
            || {
                format!(
                    "{} vs {}",
                    demand_det.reports().distinct(),
                    demand.races.distinct
                )
            },
        );
    }

    let (bytes, encode_ns) = tracer.time(job, root, "trace.encode", || {
        let mut writer = TraceWriter::new(Vec::new()).expect("writing to memory cannot fail");
        for e in &events {
            writer.record_event(e);
        }
        writer.finish().expect("writing to memory cannot fail")
    });
    let (decoded, decode_ns) = tracer.time(job, root, "trace.decode", || {
        let mut n = 0u64;
        decode_events_into(bytes.as_slice(), |e| {
            black_box(e);
            n += 1;
        })
        .map(|_| n)
    });
    outcome.check(
        format!("{}: trace round-trips every event", s.name),
        matches!(decoded, Ok(n) if n == events.len() as u64),
        || format!("decoded {decoded:?} of {} events", events.len()),
    );

    for (m, label) in ["native", "continuous", "demand"].iter().enumerate() {
        let (result, ns) = tracer.time(job, root, &format!("core.replay:{label}"), || {
            let sim = Simulation::new(s.configs[m]);
            let mut replay = sim.trace_replay();
            for e in &events {
                replay.push(e);
            }
            replay.finish()
        });
        d.replay_mode_ns[m] += ns;
        if let Some(expected) = &s.expected[m] {
            outcome.check(
                format!("{}: {label} replay equals the measured run", s.name),
                result.makespan == expected.makespan
                    && result.accesses_analyzed == expected.accesses_analyzed
                    && race_keys(&result) == race_keys(expected),
                || {
                    format!(
                        "makespan {} vs {}, races {} vs {}",
                        result.makespan,
                        expected.makespan,
                        result.races.distinct,
                        expected.races.distinct
                    )
                },
            );
        }
    }

    let (parallel, parallel_ns) = tracer.time(job, root, "native.parallel_replay", || {
        let mut p = ParallelReplayDetector::new(ParallelReplayConfig {
            detector: cfg.detector,
            workers: 1,
            ..ParallelReplayConfig::default()
        });
        for e in &events {
            p.push_event(e);
        }
        p.finish()
    });
    outcome.check(
        format!("{}: parallel replay reports equal FastTrack's", s.name),
        keys_of(parallel.reports.reports()) == keys_of(full.reports().reports()),
        || {
            format!(
                "{} vs {}",
                parallel.reports.distinct(),
                full.reports().distinct()
            )
        },
    );

    let full_stats = full.stats();
    let data_accesses = classes
        .iter()
        .filter(|c| matches!(c, Class::Data(..)))
        .count() as u64;
    let syncs = full_stats.sync_ops;
    d.sched_ns += sched_ns;
    d.ops += 3 * stats.ops_executed;
    d.context_switches += 3 * stats.context_switches;
    d.cache_ns += cache_ns;
    d.cache_accesses += 3 * accesses.len() as u64;
    d.hitm_loads += 3 * cache_stats.total_hitm_loads();
    d.l1_hits += 3 * cache_stats.per_core.iter().map(|c| c.l1_hits).sum::<u64>();
    d.pmu_ns += pmu_ns;
    d.pmu_observed += split.observed.len() as u64;
    d.pmu_signals += split.signals;
    d.enables += split.enables;
    d.controller_ns += controller_ns;
    d.controller_calls += split.controller.len() as u64;
    d.demand_accesses += accesses.len() as u64;
    d.demand_analyzed += analyzed;
    d.demand_shared += split.shared;
    d.replay_events += 3 * events.len() as u64;
    d.detector_full_ns += full_ns;
    d.detector_sync_ns += sync_ns;
    d.detector_accesses += data_accesses;
    d.detector_syncs += syncs;
    d.fast_path_hits += full_stats.fast_path_hits;
    d.escalations += full_stats.escalations;
    d.encode_ns += encode_ns;
    d.decode_ns += 3.0 * decode_ns;
    d.trace_events += events.len() as u64;
    d.trace_bytes += bytes.len() as u64;
    d.parallel_ns += parallel_ns;
    d.parallel_events += events.len() as u64;
    let base = sched_ns + cache_ns;
    d.sim_ns[0] += base;
    d.sim_ns[1] += base + full_ns;
    d.sim_ns[2] += base + pmu_ns + controller_ns + demand_ns;
}

/// Host time of one untraced pass, split into stages the layers should
/// account for.
pub struct Untraced {
    pub wall_s: f64,
    /// `(stage, measured seconds, attributed seconds)`; together they
    /// cover `wall_s`.
    pub stages: Vec<(String, f64, f64)>,
    pub harness_overhead_s: f64,
    pub jobs: u64,
    pub jobs_failed: u64,
}

fn per(ns: f64, n: u64) -> f64 {
    ns / n.max(1) as f64
}

fn frac(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Emits every per-layer metric, the attribution residual and the
/// tracing overhead, and attaches the spans.
pub fn finish(
    outcome: &mut Outcome,
    tracer: Tracer,
    d: &Drive,
    hooks: &Hooks,
    untraced: &Untraced,
    unattributed: &str,
) {
    let attributed: f64 = untraced.stages.iter().map(|(_, _, a)| a).sum();
    let residual = (untraced.wall_s - attributed) / untraced.wall_s;
    let traced_s = d.wall_ns / 1e9;
    let metrics = [
        ("program.sched_ns_per_op", per(d.sched_ns, d.ops / 3), "ns"),
        ("program.ops", d.ops as f64, "count"),
        (
            "program.context_switches",
            d.context_switches as f64,
            "count",
        ),
        (
            "cache.ns_per_access",
            per(d.cache_ns, d.cache_accesses / 3),
            "ns",
        ),
        ("cache.accesses", d.cache_accesses as f64, "count"),
        ("cache.hitm_loads", d.hitm_loads as f64, "count"),
        (
            "cache.l1_hit_frac",
            frac(d.l1_hits, d.cache_accesses),
            "ratio",
        ),
        ("pmu.ns_per_access", per(d.pmu_ns, d.pmu_observed), "ns"),
        ("pmu.accesses_observed", d.pmu_observed as f64, "count"),
        ("pmu.signals", d.pmu_signals as f64, "count"),
        (
            "pmu.enable_per_signal_frac",
            frac(d.enables, d.pmu_signals),
            "ratio",
        ),
        (
            "core.controller_ns_per_call",
            per(d.controller_ns, d.controller_calls),
            "ns",
        ),
        ("core.enables", d.enables as f64, "count"),
        (
            "core.analyzed_frac",
            frac(d.demand_analyzed, d.demand_accesses),
            "ratio",
        ),
        (
            "core.replay_ns_per_event",
            per(d.replay_mode_ns.iter().sum(), d.replay_events),
            "ns",
        ),
        (
            "detector.access_ns",
            per(d.detector_full_ns - d.detector_sync_ns, d.detector_accesses),
            "ns",
        ),
        (
            "detector.sync_ns",
            per(d.detector_sync_ns, d.detector_syncs),
            "ns",
        ),
        (
            "detector.fast_path_frac",
            frac(d.fast_path_hits, d.detector_accesses),
            "ratio",
        ),
        ("detector.escalations", d.escalations as f64, "count"),
        (
            "detector.shared_frac",
            frac(d.demand_shared, d.demand_analyzed),
            "ratio",
        ),
        (
            "trace.encode_ns_per_event",
            per(d.encode_ns, d.trace_events),
            "ns",
        ),
        (
            "trace.decode_ns_per_event",
            per(d.decode_ns, 3 * d.trace_events),
            "ns",
        ),
        (
            "trace.bytes_per_event",
            frac(d.trace_bytes, d.trace_events),
            "B/event",
        ),
        (
            "native.parallel_replay_ns_per_event",
            per(d.parallel_ns, d.parallel_events),
            "ns",
        ),
        ("native.hook_enabled_ns", hooks.enabled_ns, "ns"),
        ("native.hook_disabled_ns", hooks.disabled_ns, "ns"),
        ("native.lock_ns", hooks.lock_ns, "ns"),
        ("native.dropped_records", hooks.dropped as f64, "count"),
        ("harness.overhead_s", untraced.harness_overhead_s, "s"),
        ("harness.jobs", untraced.jobs as f64, "count"),
        ("harness.jobs_failed", untraced.jobs_failed as f64, "count"),
        ("attribution.residual_frac", residual, "ratio"),
        (
            "tracing.overhead_frac",
            (traced_s - untraced.wall_s) / untraced.wall_s,
            "ratio",
        ),
    ];
    for (name, value, unit) in metrics {
        outcome.metric(name, value, unit);
    }
    for (stage, measured, attributed) in &untraced.stages {
        outcome.note(format!(
            "attribution {stage}: measured {measured:.4} s, layers {attributed:.4} s"
        ));
    }
    if residual.abs() > 0.15 {
        let worst = untraced
            .stages
            .iter()
            .max_by(|a, b| (a.1 - a.2).abs().total_cmp(&(b.1 - b.2).abs()))
            .map(|(stage, measured, attributed)| {
                format!("{stage} ({unattributed}): {:+.4} s", measured - attributed)
            })
            .unwrap_or_default();
        outcome.note(format!(
            "attribution residual {:+.1}% is outside ±15%; largest unattributed stage: {worst}",
            residual * 100.0
        ));
    }
    let mut self_ns = tracer.self_ns();
    self_ns.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    let top: Vec<String> = self_ns
        .iter()
        .take(8)
        .map(|(name, ns)| format!("{name} {:.3} s", *ns as f64 / 1e9))
        .collect();
    outcome.note(format!("span self time: {}", top.join(", ")));
    outcome.spans(tracer);
}

/// The [`Untraced`] view of a campaign pass whose stage `m` the layers
/// attribute `attributed[m]` seconds to.
pub fn campaign_untraced(pass: &crate::sim::PassStats, attributed: [f64; 3]) -> Untraced {
    Untraced {
        wall_s: pass.wall_s,
        // The harness's own time is measured directly, so it is its own
        // attribution.
        stages: ["native", "continuous", "demand-hitm"]
            .iter()
            .enumerate()
            .map(|(m, label)| (format!("{label} jobs"), pass.mode_wall_s[m], attributed[m]))
            .chain(std::iter::once((
                "harness".to_string(),
                pass.harness_overhead_s(),
                pass.harness_overhead_s(),
            )))
            .collect(),
        harness_overhead_s: pass.harness_overhead_s(),
        jobs: pass.jobs,
        jobs_failed: pass.failed,
    }
}
