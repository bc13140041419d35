//! The oracle battery's pieces, applied to the handwritten workload
//! probes instead of fuzzed specs: each probe's documented racy/clean
//! verdict must come out of the production stack, and the differential
//! oracles (FastTrack vs Djit⁺ vs the reference detector, demand ⊆
//! continuous) must hold on real workload shapes — publication idioms,
//! delayed sharing, lock discipline, barrier hand-offs.
//!
//! `Program` is intentionally not `Clone`, so every use regenerates the
//! probe set — [`conformance_probes`] is a pure constructor.

use ddrace_conform::RefHb;
use ddrace_core::{AnalysisMode, DetectorKind, SimConfig, Simulation};
use ddrace_detector::{racy_keys, replay, DetectorConfig, Djit, FastTrack, RaceDetector};
use ddrace_program::{PickStrategy, Program, SchedulerConfig, Trace};
use ddrace_workloads::racy::conformance_probes;

fn run_mode(program: Program, seed: u64, mode: AnalysisMode) -> Vec<u64> {
    let mut cfg = SimConfig::new(2, mode);
    cfg.scheduler = SchedulerConfig::jittered(seed);
    cfg.detector_kind = DetectorKind::FastTrack;
    let result = Simulation::new(cfg)
        .run(program)
        .expect("probe must schedule");
    racy_keys(&result.races.reports)
}

#[test]
fn probes_match_their_documented_verdicts() {
    for seed in [1, 7, 23] {
        for (name, program, racy) in conformance_probes() {
            let keys = run_mode(program, seed, AnalysisMode::Continuous);
            assert_eq!(
                !keys.is_empty(),
                racy,
                "probe {name} seed {seed}: expected racy={racy}, racy keys {keys:?}"
            );
        }
    }
}

#[test]
fn probes_agree_across_detectors_and_reference() {
    for seed in [1, 7, 23] {
        for (name, program, _racy) in conformance_probes() {
            let trace = Trace::record_with(
                program,
                SchedulerConfig::jittered(seed),
                PickStrategy::RunQueue,
            )
            .unwrap_or_else(|e| panic!("probe {name} seed {seed}: {e}"));
            let mut ft = FastTrack::new(DetectorConfig::default());
            let mut dj = Djit::new(DetectorConfig::default());
            let mut reference = RefHb::new(DetectorConfig::default());
            replay(&mut ft, trace.events());
            replay(&mut dj, trace.events());
            replay(&mut reference, trace.events());
            assert_eq!(
                racy_keys(ft.reports().reports()),
                racy_keys(dj.reports().reports()),
                "probe {name} seed {seed}: FastTrack vs Djit"
            );
            assert_eq!(
                reference.reports().reports(),
                dj.reports().reports(),
                "probe {name} seed {seed}: reference vs Djit reports"
            );
            assert_eq!(
                reference.reports().occurrences(),
                dj.reports().occurrences(),
                "probe {name} seed {seed}: reference vs Djit occurrences"
            );
        }
    }
}

#[test]
fn probes_keep_demand_a_subset_of_continuous() {
    for seed in [1, 7] {
        // Two passes over the same deterministic constructor: one program
        // for the continuous run, one for the demand run.
        for ((name, continuous_prog, _), (_, demand_prog, _)) in
            conformance_probes().into_iter().zip(conformance_probes())
        {
            let continuous = run_mode(continuous_prog, seed, AnalysisMode::Continuous);
            let demand = run_mode(demand_prog, seed, AnalysisMode::demand_hitm());
            for key in demand {
                assert!(
                    continuous.binary_search(&key).is_ok(),
                    "probe {name} seed {seed}: demand-only racy key {key}"
                );
            }
        }
    }
}
