//! The sharded FastTrack engine behind [`crate::Monitor`].
//!
//! The serialized prototype funneled every hook through one global
//! `Mutex<FastTrack>`. This engine splits that state along its natural
//! seams so the data-access hot path — the part executed per memory
//! access — touches only state *local* to the access:
//!
//! * **Per-thread clock caches.** FastTrack needs the acting thread's
//!   epoch and vector clock on every access. In the monitor API a
//!   thread's clock is only ever advanced by calls made with its own
//!   token (fork and join are the *parent's* calls), so a copy refreshed
//!   at the thread's own sync points is exact between sync points — the
//!   data path reads it without the sync lock.
//! * **Page-sharded shadow state.** The `u64 → FtVarState` shadow map
//!   becomes `N` [`ShadowTable`] shards behind per-shard mutexes. A live
//!   access is routed by its **4 KiB page**: the page number is mixed
//!   with one full-width multiply and the *high* bits pick the shard
//!   ([`page_shard`]). A thread's private pages therefore land on a few
//!   shards only that thread locks, instead of every thread taking every
//!   shard mutex and bouncing its cache line between cores. Keeping the
//!   high bits matters: the low bits of a product depend only on the
//!   input's low bits, so per-thread regions 1 MiB apart would map onto
//!   the same shards page for page. The trade-off is that a hot shared
//!   page serializes on its one home shard lock. The FastTrack check
//!   itself is the exact production code
//!   ([`ft_check_read`]/[`ft_check_write`]), shared with the serialized
//!   detector by construction.
//! * **A global first-detection ticket.** Each per-shard
//!   [`SeqReportSet`] draws a sequence number from one shared atomic
//!   only for *new* distinct races, respecting the `max_reports` cap
//!   exactly (CAS, no overshoot). Because a race's dedup key is a
//!   function of its shadow key, each distinct race lives in exactly one
//!   shard, so sorting by ticket reproduces the serialized detector's
//!   first-detection report order — pinned byte-stable by the
//!   equivalence tests.
//!
//! Offline replay (`parallel.rs`) instead routes each word key through
//! [`shard_of`](ddrace_shadow::shard_of) and hands the chosen shard to
//! the batch entry points: every replay shard has one owner worker, so
//! it needs balance, not affinity. One `Engine` is driven by
//! [`Engine::on_access`] or by replay batches, never by both — the two
//! routings would split one variable's shadow state across two shards.
//!
//! Synchronization operations still serialize on one sync lock (they
//! mutate the happens-before clocks and must be globally ordered — the
//! same property the trace recorder relies on), but sync is the rare
//! path; the paper's premise is that data accesses outnumber sync by
//! orders of magnitude.
//!
//! Lock order: `sync ≺ cache ≺ shard`. Sync-path callers hold the sync
//! lock, then refresh per-thread caches; the data path locks its own
//! cache, then exactly one shard; nothing ever holds two shards or takes
//! the sync lock after a cache or shard. The recorder's locks nest
//! strictly inside whichever of these paths invokes them (see
//! `recorder.rs`).

use ddrace_detector::{
    ft_check_read, ft_check_read_batch, ft_check_write, ft_check_write_batch,
    merge_seq_report_sets, merge_seq_report_sets_capped, AccessReport, DetectorConfig,
    DetectorStats, Epoch, FtBatchAccess, FtVarState, Granularity, HbClocks, RaceReportSet,
    SeqReportSet, VectorClock,
};
use ddrace_program::{AccessKind, Addr, BarrierId, Op, ThreadId};
use ddrace_shadow::ShadowTable;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum registry segments: segment `s` holds `2^s` thread slots, so 32
/// segments cover every representable `ThreadId`.
const REGISTRY_SEGMENTS: usize = 32;

/// Bytes per routing page: every key of one page shares a shard.
const PAGE_SHIFT: u32 = 12;

/// Fibonacci-hashing multiplier (2^64 / golden ratio) for page routing.
const PAGE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard (of `2^shard_bits`) owning `key`'s 4 KiB page: the page
/// number times [`PAGE_MUL`], keeping the top `shard_bits` bits.
#[inline]
fn page_shard(key: u64, granularity: Granularity, shard_bits: u32) -> usize {
    let page = key >> (PAGE_SHIFT - granularity.shift());
    // `checked_shr` covers the one-shard case (a shift by 64).
    page.wrapping_mul(PAGE_MUL)
        .checked_shr(u64::BITS - shard_bits)
        .unwrap_or(0) as usize
}

/// One thread's cached view of its own happens-before clock.
#[derive(Debug)]
struct CachedClock {
    epoch: Epoch,
    vc: VectorClock,
}

impl CachedClock {
    fn empty() -> Self {
        CachedClock {
            epoch: Epoch::ZERO,
            vc: VectorClock::new(),
        }
    }
}

/// Lock-free-growable registry of per-thread clock caches.
///
/// A `Vec` behind an `RwLock` would put a shared read lock on every data
/// access; instead, slots live in power-of-two segments that are
/// allocated at most once each (`OnceLock`), so looking up a slot is an
/// index computation plus one atomic load — no lock shared across
/// threads. Slot `i` (thread `ThreadId(i)`) lives in segment
/// `log2(i+1)` at offset `i+1 - 2^seg`.
struct ThreadRegistry {
    segments: [OnceLock<Box<[Mutex<CachedClock>]>>; REGISTRY_SEGMENTS],
}

impl ThreadRegistry {
    fn new() -> Self {
        ThreadRegistry {
            segments: [const { OnceLock::new() }; REGISTRY_SEGMENTS],
        }
    }

    /// The cache slot for `tid`, allocating its segment on first touch.
    fn slot(&self, tid: ThreadId) -> &Mutex<CachedClock> {
        let n = tid.index() + 1;
        let seg = n.ilog2() as usize;
        let segment = self.segments[seg].get_or_init(|| {
            (0..(1usize << seg))
                .map(|_| Mutex::new(CachedClock::empty()))
                .collect()
        });
        &segment[n - (1usize << seg)]
    }
}

impl std::fmt::Debug for ThreadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRegistry").finish_non_exhaustive()
    }
}

/// State mutated only under the sync lock.
#[derive(Debug)]
struct SyncState {
    clocks: HbClocks,
    sync_ops: u64,
}

/// One shard: a slice of the shadow map plus its reports and counters.
#[derive(Debug)]
struct Shard {
    shadow: ShadowTable<FtVarState>,
    reports: SeqReportSet,
    stats: DetectorStats,
}

impl Shard {
    fn new() -> Self {
        Shard {
            shadow: ShadowTable::new(),
            reports: SeqReportSet::new(),
            stats: DetectorStats::default(),
        }
    }
}

/// The sharded engine. See the module docs for the architecture.
#[derive(Debug)]
pub(crate) struct Engine {
    sync: Mutex<SyncState>,
    threads: ThreadRegistry,
    shards: Box<[Mutex<Shard>]>,
    /// Global first-detection ticket; its value is the number of distinct
    /// races kept so far (see [`SeqReportSet::record`]).
    ticket: AtomicU64,
    granularity: Granularity,
    /// `log2` of the shard count, for [`page_shard`].
    shard_bits: u32,
    max_reports: usize,
}

impl Engine {
    /// Builds an engine with `shards` shards (power of two, ≥ 1).
    pub(crate) fn new(config: DetectorConfig, shards: usize) -> Engine {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        Engine {
            sync: Mutex::new(SyncState {
                clocks: HbClocks::new(),
                sync_ops: 0,
            }),
            threads: ThreadRegistry::new(),
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            ticket: AtomicU64::new(0),
            granularity: config.granularity,
            shard_bits: shards.trailing_zeros(),
            max_reports: config.max_reports,
        }
    }

    /// Number of shadow shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Refreshes `tid`'s cache from the authoritative clocks; the caller
    /// holds the sync lock (`sync ≺ cache`).
    fn refresh_cache(&self, sync: &SyncState, tid: ThreadId) {
        let mut cache = self.threads.slot(tid).lock().unwrap();
        cache.epoch = sync.clocks.epoch(tid);
        cache.vc.clone_from(sync.clocks.thread(tid));
    }

    /// Registers `tid` (started by `parent`), running `record` inside the
    /// sync critical section so recorded trace order matches clock order.
    pub(crate) fn on_thread_start(
        &self,
        tid: ThreadId,
        parent: Option<ThreadId>,
        record: impl FnOnce(),
    ) {
        let mut sync = self.sync.lock().unwrap();
        record();
        sync.clocks.on_thread_start(tid, parent);
        self.refresh_cache(&sync, tid);
        // Fork advances the parent's clock too.
        if let Some(p) = parent {
            self.refresh_cache(&sync, p);
        }
    }

    /// Applies a join: `child` finishes, `parent` acquires its clock.
    pub(crate) fn on_join(&self, parent: ThreadId, child: ThreadId, record: impl FnOnce()) {
        let mut sync = self.sync.lock().unwrap();
        record();
        sync.clocks.on_thread_finish(child);
        let op = Op::Join { child };
        sync.sync_ops += 1;
        sync.clocks.on_sync(parent, &op);
        self.refresh_cache(&sync, parent);
    }

    /// Applies a synchronization operation by `tid`.
    pub(crate) fn on_sync(&self, tid: ThreadId, op: &Op, record: impl FnOnce()) {
        let mut sync = self.sync.lock().unwrap();
        record();
        if op.is_sync() {
            sync.sync_ops += 1;
        }
        sync.clocks.on_sync(tid, op);
        self.refresh_cache(&sync, tid);
    }

    /// Applies a barrier release: every participant adopts the barrier's
    /// accumulated clock. The live monitor API has no barriers — this is
    /// the offline replay path, where recorded traces do.
    pub(crate) fn on_barrier_release(&self, barrier: BarrierId, participants: &[ThreadId]) {
        let mut sync = self.sync.lock().unwrap();
        sync.clocks.on_barrier_release(barrier, participants);
        for &p in participants {
            self.refresh_cache(&sync, p);
        }
    }

    /// Snapshot of `tid`'s cached `(epoch, vector clock)`. Between two of
    /// `tid`'s sync points the cache is exact (see the module docs), so a
    /// replay driver that snapshots lazily after each sync event gets the
    /// same clocks a serialized detector would read at access time.
    pub(crate) fn clone_cached_clock(&self, tid: ThreadId) -> (Epoch, VectorClock) {
        let cache = self.threads.slot(tid).lock().unwrap();
        (cache.epoch, cache.vc.clone())
    }

    /// Replays a run of read accesses that all map to `shard`, under one
    /// shard-lock acquisition. Races are recorded with their caller-chosen
    /// sequence numbers ([`SeqReportSet::record_at`]): offline replay uses
    /// the access's global trace index, so the post-merge sort reproduces
    /// the serialized detector's first-detection order without the live
    /// ticket.
    pub(crate) fn replay_read_batch(&self, shard: usize, batch: &[FtBatchAccess<'_>]) {
        let mut shard = self.shards[shard].lock().unwrap();
        let Shard {
            shadow,
            reports,
            stats,
        } = &mut *shard;
        ft_check_read_batch(shadow, batch, stats, |report, seq| {
            reports.record_at(report, seq);
        });
    }

    /// Write-access twin of [`Engine::replay_read_batch`].
    pub(crate) fn replay_write_batch(&self, shard: usize, batch: &[FtBatchAccess<'_>]) {
        let mut shard = self.shards[shard].lock().unwrap();
        let Shard {
            shadow,
            reports,
            stats,
        } = &mut *shard;
        ft_check_write_batch(shadow, batch, stats, |report, seq| {
            reports.record_at(report, seq);
        });
    }

    /// Merges per-shard report sets recorded via
    /// [`Engine::replay_read_batch`]/[`Engine::replay_write_batch`],
    /// applying the `max_reports` cap *after* the merge — equivalent to a
    /// serialized detector capping at first detection, because a race
    /// whose first-detection seq sorts past the cap never entered a
    /// serialized set either (so none of its occurrences merged).
    pub(crate) fn replay_report_set(&self) -> RaceReportSet {
        let guards: Vec<MutexGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.lock().unwrap()).collect();
        merge_seq_report_sets_capped(guards.iter().map(|g| &g.reports), self.max_reports)
    }

    /// Runs `f` while holding the sync lock, quiescing sync-path hooks.
    /// Trace shutdown uses this so the final drain-and-seal is a valid
    /// continuation of the recorded sync order.
    pub(crate) fn with_sync_held<R>(&self, f: impl FnOnce() -> R) -> R {
        let _sync = self.sync.lock().unwrap();
        f()
    }

    /// Checks one data access: the hot path. Locks the acting thread's
    /// own cache and the shard owning the address's page — never the
    /// sync lock.
    pub(crate) fn on_access(&self, tid: ThreadId, addr: Addr, kind: AccessKind) -> AccessReport {
        let cache = self.threads.slot(tid).lock().unwrap();
        let key = self.granularity.key(addr);
        let mut shard = self.shards[page_shard(key, self.granularity, self.shard_bits)]
            .lock()
            .unwrap();
        // Split borrows so the shadow entry, report set, and counters can
        // be touched together.
        let Shard {
            shadow,
            reports,
            stats,
        } = &mut *shard;
        stats.accesses_checked += 1;
        let var = shadow.get_or_insert_with(key, FtVarState::fresh);
        let (verdict, race) = match kind {
            AccessKind::Read | AccessKind::RelaxedLoad => {
                ft_check_read(var, tid, addr, key, cache.epoch, &cache.vc, stats)
            }
            // Atomic RMWs are synchronization, not checked accesses; treat
            // a (mis-routed) RMW as its write half — as FastTrack does.
            // Relaxed atomics carry no ordering and check as plain accesses.
            AccessKind::Write
            | AccessKind::AtomicRmw
            | AccessKind::RelaxedStore
            | AccessKind::RelaxedRmw => {
                ft_check_write(var, tid, addr, key, cache.epoch, &cache.vc, stats)
            }
        };
        if let Some(report) = race {
            stats.races_observed += 1;
            reports.record(report, &self.ticket, self.max_reports);
        }
        verdict
    }

    /// Number of distinct races kept so far — the ticket value, exact by
    /// construction (one ticket per kept distinct race).
    pub(crate) fn race_count(&self) -> usize {
        self.ticket.load(std::sync::atomic::Ordering::Relaxed) as usize
    }

    /// Merges per-shard report sets into global first-detection order.
    pub(crate) fn report_set(&self) -> RaceReportSet {
        let guards: Vec<MutexGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.lock().unwrap()).collect();
        merge_seq_report_sets(guards.iter().map(|g| &g.reports))
    }

    /// Per-shard `accesses_checked`, in shard order: how the routing
    /// spread the checked accesses over the shard locks.
    pub(crate) fn shard_loads(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().stats.accesses_checked)
            .collect()
    }

    /// Aggregated detector statistics: per-shard counters summed, plus
    /// the sync-path operation count. Deterministic (sums commute).
    pub(crate) fn stats(&self) -> DetectorStats {
        let mut total = DetectorStats {
            sync_ops: self.sync.lock().unwrap().sync_ops,
            ..DetectorStats::default()
        };
        for shard in self.shards.iter() {
            let s = shard.lock().unwrap().stats;
            total.accesses_checked += s.accesses_checked;
            total.fast_path_hits += s.fast_path_hits;
            total.escalations += s.escalations;
            total.races_observed += s.races_observed;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_of_a_page_routes_to_one_shard() {
        for granularity in [Granularity::Byte, Granularity::Word, Granularity::Line] {
            for page in [0u64, 1, 0x1_0100, 0xFFFF_FFFF] {
                let base = page << PAGE_SHIFT;
                let home = page_shard(granularity.key(Addr(base)), granularity, 6);
                for offset in 0..1u64 << PAGE_SHIFT {
                    let key = granularity.key(Addr(base + offset));
                    assert_eq!(
                        page_shard(key, granularity, 6),
                        home,
                        "{granularity:?}: page {page:#x} offset {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn regions_a_mebibyte_apart_do_not_share_shards_page_for_page() {
        // Per-thread private regions at `0x1000_0000 + 0x10_0000·(t+1)`:
        // a low-bit mix of the page number would send page `j` of every
        // region to the same shard.
        let granularity = Granularity::Word;
        let pages = 64u64;
        let shards_of = |t: u64| -> Vec<usize> {
            let base = 0x1000_0000 + 0x10_0000 * (t + 1);
            (0..pages)
                .map(|j| {
                    let key = granularity.key(Addr(base + (j << PAGE_SHIFT)));
                    page_shard(key, granularity, 6)
                })
                .collect()
        };
        for (a, b) in [(0, 1), (1, 2), (0, 63)] {
            let (sa, sb) = (shards_of(a), shards_of(b));
            let same = sa.iter().zip(&sb).filter(|(x, y)| x == y).count();
            assert!(
                same < pages as usize / 4,
                "regions {a} and {b}: {same} of {pages} pages on identical shards"
            );
        }
    }
}
