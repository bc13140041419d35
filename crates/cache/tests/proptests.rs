//! Property-based tests for the cache hierarchy and sharing tracker.

use ddrace_cache::{
    CacheConfig, CacheHierarchy, CoreId, SharingCounts, SharingKind, SharingTracker,
};
use ddrace_program::{AccessKind, Addr};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn arb_accesses(
    cores: u32,
    lines: u64,
    len: usize,
) -> impl Strategy<Value = Vec<(CoreId, Addr, AccessKind)>> {
    proptest::collection::vec(
        (
            0..cores,
            0..lines,
            prop_oneof![
                3 => Just(AccessKind::Read),
                2 => Just(AccessKind::Write),
                1 => Just(AccessKind::AtomicRmw),
            ],
        )
            .prop_map(|(c, l, k)| (CoreId(c), Addr(0x1000 + l * 64 + (l % 8) * 8), k)),
        1..len,
    )
}

/// An independent model of the sharing tracker's classification rules
/// over a std `HashMap`, written from the rules rather than the tracker:
/// per line, the last writer and the set of cores that read since.
#[derive(Default)]
struct SharingModel {
    lines: HashMap<u64, (Option<u32>, HashSet<u32>)>,
    counts: SharingCounts,
}

impl SharingModel {
    /// W→R: the first read by a core since a write by another core.
    fn read(&mut self, core: u32, line: u64) -> Option<SharingKind> {
        let (writer, readers) = self.lines.entry(line).or_default();
        let fresh = readers.insert(core);
        let remote_writer = writer.is_some_and(|w| w != core);
        (fresh && remote_writer).then(|| {
            self.counts.write_read += 1;
            SharingKind::WriteRead
        })
    }

    /// W→W: a write over another core's write. R→W: a write over a
    /// line some other core read since the last write.
    fn write(&mut self, core: u32, line: u64) -> (Option<SharingKind>, Option<SharingKind>) {
        let (writer, readers) = self.lines.entry(line).or_default();
        let ww = writer.is_some_and(|w| w != core).then(|| {
            self.counts.write_write += 1;
            SharingKind::WriteWrite
        });
        let rw = readers.iter().any(|&r| r != core).then(|| {
            self.counts.read_write += 1;
            SharingKind::ReadWrite
        });
        *writer = Some(core);
        readers.clear();
        (ww, rw)
    }
}

proptest! {
    /// The shadow-table sharing tracker classifies every access exactly
    /// as the `HashMap` model does: same per-access events, same W→R,
    /// W→W and R→W totals, same number of lines.
    #[test]
    fn sharing_tracker_matches_hashmap_model(
        stream in proptest::collection::vec(
            (0..5u32, 0..40u64, prop_oneof![3 => Just(false), 2 => Just(true)]),
            1..600,
        ),
    ) {
        let mut tracker = SharingTracker::new();
        let mut model = SharingModel::default();
        for (core, line, write) in stream {
            // Spread the small line set over the whole key space.
            let line = line.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            if write {
                prop_assert_eq!(tracker.on_write(CoreId(core), line), model.write(core, line));
            } else {
                prop_assert_eq!(tracker.on_read(CoreId(core), line), model.read(core, line));
            }
        }
        prop_assert_eq!(tracker.counts(), model.counts);
        prop_assert_eq!(tracker.lines_tracked(), model.lines.len());
    }

    /// Structural invariants (inclusion, directory precision, MESI
    /// exclusivity) hold after any access sequence, even on tiny caches
    /// with heavy eviction pressure — with and without the prefetcher.
    #[test]
    fn invariants_hold_under_random_traffic(
        accesses in arb_accesses(4, 256, 400),
        prefetch in any::<bool>(),
    ) {
        let mut cfg = CacheConfig::tiny(4);
        cfg.prefetch_next_line = prefetch;
        let mut m = CacheHierarchy::new(cfg);
        for (core, addr, kind) in accesses {
            m.access(core, addr, kind);
            // Checking after every access is what makes this test sharp.
        }
        m.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The hardware HITM load counter never exceeds the oracle's count of
    /// W→R communications: hardware can only miss sharing, never invent a
    /// *new* first-communication... except line-granularity re-reads after
    /// invalidation. We therefore check the weaker, always-true bound:
    /// HITM loads ≤ reads that left the core.
    #[test]
    fn hitm_loads_bounded_by_remote_hits(
        accesses in arb_accesses(4, 64, 400),
    ) {
        let mut m = CacheHierarchy::new(CacheConfig::tiny(4));
        for (core, addr, kind) in accesses {
            m.access(core, addr, kind);
        }
        let s = m.stats();
        let remote: u64 = s.per_core.iter().map(|c| c.remote_hits).sum();
        prop_assert!(s.total_hitm_loads() + s.total_rfo_hitms() <= remote + s.total_rfo_hitms());
        prop_assert!(s.total_hitm_loads() <= remote);
    }

    /// Replaying the same access sequence yields identical stats
    /// (the hierarchy is fully deterministic).
    #[test]
    fn hierarchy_is_deterministic(accesses in arb_accesses(3, 128, 300)) {
        let run = |seq: &[(CoreId, Addr, AccessKind)]| {
            let mut m = CacheHierarchy::new(CacheConfig::tiny(3));
            let results: Vec<_> = seq.iter().map(|&(c, a, k)| m.access(c, a, k)).collect();
            (results, m.stats().clone())
        };
        prop_assert_eq!(run(&accesses), run(&accesses));
    }

    /// Single-core traffic never produces HITM, RFO-HITM, invalidations,
    /// or ground-truth sharing.
    #[test]
    fn single_core_never_shares(accesses in arb_accesses(1, 512, 400)) {
        let mut m = CacheHierarchy::new(CacheConfig::tiny(1));
        for (core, addr, kind) in accesses {
            let r = m.access(core, addr, kind);
            prop_assert!(r.hitm_owner.is_none());
            prop_assert!(r.rfo_hitm_owner.is_none());
            prop_assert_eq!(r.invalidations, 0);
            prop_assert!(!r.is_true_sharing());
        }
        prop_assert_eq!(m.stats().sharing.total(), 0);
    }

    /// Latency is always positive and bounded by the worst-case path
    /// (memory + upgrade + atomic).
    #[test]
    fn latency_bounds(accesses in arb_accesses(4, 64, 200)) {
        let cfg = CacheConfig::tiny(4);
        let max = cfg.mem_latency + cfg.upgrade_latency + cfg.atomic_latency + cfg.l1.latency;
        let mut m = CacheHierarchy::new(cfg);
        for (core, addr, kind) in accesses {
            let r = m.access(core, addr, kind);
            prop_assert!(r.latency > 0);
            prop_assert!(r.latency <= max, "latency {} exceeds bound {}", r.latency, max);
        }
    }

    /// Stats are conserved: every access lands in exactly one hit bucket.
    #[test]
    fn hit_buckets_partition_accesses(accesses in arb_accesses(4, 64, 300)) {
        let mut m = CacheHierarchy::new(CacheConfig::tiny(4));
        let n = accesses.len() as u64;
        for (core, addr, kind) in accesses {
            m.access(core, addr, kind);
        }
        let s = m.stats();
        let bucketed: u64 = s
            .per_core
            .iter()
            .map(|c| c.l1_hits + c.l2_hits + c.l3_hits + c.remote_hits + c.mem_accesses)
            .sum();
        prop_assert_eq!(bucketed, n);
        prop_assert_eq!(s.total_accesses(), n);
    }
}
