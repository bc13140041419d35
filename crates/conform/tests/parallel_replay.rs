//! Property: for any fuzz-generated program spec, recording its event
//! stream and replaying it through the parallel offline replayer yields
//! exactly what a serialized FastTrack replay of the same stream yields —
//! same distinct reports in the same first-detection order, same
//! occurrence counts, same statistics — at every (shard, worker, chunk)
//! combination exercised.

use ddrace_conform::generate;
use ddrace_detector::{replay, DetectorConfig, FastTrack, RaceDetector};
use ddrace_native::{ParallelReplayConfig, ParallelReplayDetector};
use ddrace_program::{PickStrategy, SchedulerConfig, Trace};
use proptest::prelude::*;

/// Serial-vs-parallel byte-identity on one trace at the given geometry.
fn assert_parallel_matches_serial(trace: &Trace, shards: usize, workers: usize, label: &str) {
    let mut serial = FastTrack::new(DetectorConfig::default());
    replay(&mut serial, trace.events());

    let mut parallel = ParallelReplayDetector::new(ParallelReplayConfig {
        detector: DetectorConfig::default(),
        shards,
        workers,
        chunk_accesses: 256,
    });
    for event in trace.events() {
        parallel.push_event(event);
    }
    let out = parallel.finish();
    assert_eq!(
        out.reports.reports(),
        serial.reports().reports(),
        "{label}: reports diverge at {shards} shards / {workers} workers"
    );
    assert_eq!(
        out.reports.occurrences(),
        serial.reports().occurrences(),
        "{label}: occurrences diverge at {shards} shards / {workers} workers"
    );
    assert_eq!(out.stats, serial.stats(), "{label}: stats diverge");
}

/// The synchronization archetypes — condvar channel, atomic-ring channel,
/// CAS task pool, double-checked init — put every new opcode (acq/rel
/// atomics, relaxed accesses, wait/wake/notify) into recorded traces; the
/// parallel replayer must stay byte-identical to serial on all of them.
#[test]
fn archetype_traces_replay_identically_in_parallel() {
    use ddrace_workloads::{archetypes, Scale};
    for spec in archetypes::suite() {
        let trace = Trace::record_with(
            spec.program(Scale::TEST, 17),
            SchedulerConfig::jittered(17),
            PickStrategy::RunQueue,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for (shards, workers) in [(1, 1), (8, 4), (64, 8)] {
            assert_parallel_matches_serial(&trace, shards, workers, &spec.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_replay_equals_serial_replay(
        spec_seed in 0u64..5_000,
        shards in prop_oneof![Just(1usize), Just(64)],
        workers in prop_oneof![Just(1usize), Just(4), Just(8)],
        // Tiny chunks force many flush boundaries; large ones keep the
        // whole trace in a single chunk. Both must be invisible.
        chunk in prop_oneof![Just(32usize), Just(1 << 20)],
    ) {
        let spec = generate(spec_seed);
        let trace = Trace::record_with(
            spec.to_program(),
            SchedulerConfig::jittered(spec.seed),
            PickStrategy::RunQueue,
        )
        .expect("fuzz specs schedule to completion");

        let mut serial = FastTrack::new(DetectorConfig::default());
        replay(&mut serial, trace.events());

        let mut parallel = ParallelReplayDetector::new(ParallelReplayConfig {
            detector: DetectorConfig::default(),
            shards,
            workers,
            chunk_accesses: chunk,
        });
        for event in trace.events() {
            parallel.push_event(event);
        }
        let out = parallel.finish();

        prop_assert_eq!(
            out.reports.reports(),
            serial.reports().reports(),
            "distinct reports / order diverge (spec {}, {} shards, {} workers)",
            spec_seed, shards, workers
        );
        prop_assert_eq!(
            out.reports.occurrences(),
            serial.reports().occurrences(),
            "occurrence counts diverge (spec {}, {} shards, {} workers)",
            spec_seed, shards, workers
        );
        prop_assert_eq!(out.stats, serial.stats());
        prop_assert_eq!(out.accesses, serial.stats().accesses_checked);
    }
}
