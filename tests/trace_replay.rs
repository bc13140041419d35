//! Cross-crate integration: record-once / analyze-many via traces.

use ddrace::{racy, AnalysisMode, RunResult, Scale, SchedulerConfig, SimConfig, Simulation};
use ddrace_program::Trace;

fn config(mode: AnalysisMode) -> SimConfig {
    let mut cfg = SimConfig::new(4, mode);
    cfg.scheduler = SchedulerConfig {
        quantum: 8,
        seed: 5,
        jitter: true,
    };
    cfg
}

/// Replays `trace` under `mode` through the push-style trace replay.
fn replay(mode: AnalysisMode, trace: &Trace) -> RunResult {
    let mut replay = Simulation::new(config(mode)).trace_replay();
    for event in trace.events() {
        replay.push(event);
    }
    replay.finish()
}

#[test]
fn replayed_analysis_matches_direct_run() {
    let spec = racy::unprotected_counter();
    let scheduler = config(AnalysisMode::Continuous).scheduler;
    let trace = Trace::record(spec.program(Scale::TEST, 5), scheduler).unwrap();

    let direct = Simulation::new(config(AnalysisMode::Continuous))
        .run(spec.program(Scale::TEST, 5))
        .unwrap();
    let replayed = replay(AnalysisMode::Continuous, &trace);

    // The trace carries the same interleaving the direct run used (same
    // seed), so analysis results are identical.
    assert_eq!(replayed.races.distinct, direct.races.distinct);
    assert_eq!(replayed.makespan, direct.makespan);
    assert_eq!(replayed.accesses_analyzed, direct.accesses_analyzed);
    assert_eq!(replayed.cache.sharing, direct.cache.sharing);
    assert_eq!(replayed.schedule.ops_executed, direct.schedule.ops_executed);
}

#[test]
fn one_trace_many_configurations() {
    let spec = racy::mostly_locked();
    let scheduler = config(AnalysisMode::Native).scheduler;
    let trace = Trace::record(spec.program(Scale::TEST, 9), scheduler).unwrap();

    let native = replay(AnalysisMode::Native, &trace);
    let cont = replay(AnalysisMode::Continuous, &trace);
    let demand = replay(AnalysisMode::demand_hitm(), &trace);

    assert_eq!(native.races.distinct, 0);
    assert!(cont.races.distinct > 0);
    assert!(native.makespan < demand.makespan);
    assert!(demand.makespan <= cont.makespan + 8 * 50_000 * 4); // toggle slack
                                                                // Identical traffic in all three analyses.
    assert_eq!(native.accesses_total, cont.accesses_total);
    assert_eq!(cont.accesses_total, demand.accesses_total);
}
