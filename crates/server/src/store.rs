//! The shared hint store: the server-side state a fleet of concurrent
//! clients reads and the resolver writes.
//!
//! A front-end Vroom deployment serves many loads at once, and every one of
//! them consults the same dependency metadata. The store is therefore
//! read-mostly: resolver passes write an HTML's hint list once per
//! freshness window, then thousands of loads read it. [`HintStore`] is the
//! trait boundary between the serving path and the storage layout, with two
//! implementations:
//!
//! * [`UnshardedStore`] — one map, one set of counters. The semantic
//!   reference the fleet proptests compare against, per shard as well as in
//!   total.
//! * [`ShardedStore`] — one map behind one `RwLock`, plus `N` logical
//!   shards. A shard is a counter partition only: [`UrlId::shard`] (a pure
//!   function of the id value, stable as the intern table grows) picks which
//!   shard's counters an operation bumps. One lock suffices because every
//!   write — pass commits, learning commits, TTL sweeps — runs sequentially
//!   between pool dispatches, and loads only ever read a frozen store.
//!
//! Every entry is versioned with the hour bucket it was resolved at, and
//! reads classify entries through an [`EvictionPolicy`]:
//!
//! * [`EvictionPolicy::Never`] — age is ignored.
//! * [`EvictionPolicy::Ttl`] — an entry older than the TTL is logically
//!   evicted at read time: the read counts as stale and returns a miss.
//!   Physical removal is a separate, sequential [`evict_resolved_before`]
//!   sweep so the parallel load phase never mutates the map.
//! * [`EvictionPolicy::RefreshOnMiss`] — a stale entry is still served
//!   (counted as a hit *and* as stale) so the caller can schedule a
//!   re-resolution admission while this load proceeds on old hints.
//!
//! [`evict_resolved_before`]: HintStore::evict_resolved_before
//!
//! Both implementations keep six per-shard counters ([`ShardStats`]). The
//! counters are *logical*: every operation bumps its shard's counter exactly
//! once, so they are a pure function of the workload — identical at any
//! worker count or scheduling — even though concurrent reads bump them in
//! racing order. That property is what lets the fleet report per-shard
//! figures while staying byte-deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use vroom_browser::config::Hint;
use vroom_intern::UrlId;

/// Logical counters for one shard (the whole store, when unsharded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Reads routed to this shard.
    pub reads: u64,
    /// Reads the policy served an entry for (fresh or stale).
    pub hits: u64,
    /// Writes routed to this shard.
    pub writes: u64,
    /// Live entries.
    pub entries: u64,
    /// Reads that classified their entry as stale under the caller's
    /// policy (whether it was then served or logically evicted).
    pub stale: u64,
    /// Entries physically removed by eviction sweeps.
    pub evictions: u64,
}

/// When a stored hint list stops being served as fresh. Ages are measured
/// in whole hour buckets: an entry resolved at bucket `b` read at bucket
/// `now` has age `now - b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Entries never age out — the pre-freshness behavior.
    Never,
    /// Entries older than this many buckets are logically evicted at read
    /// time (the read misses) and removed by the next eviction sweep.
    Ttl(u64),
    /// Entries older than this many buckets are still served, but the read
    /// reports them stale so the caller can admit a re-resolution.
    RefreshOnMiss(u64),
}

impl EvictionPolicy {
    /// Age (in buckets) beyond which an entry is stale; `None` = never.
    fn stale_after(&self) -> Option<u64> {
        match self {
            EvictionPolicy::Never => None,
            EvictionPolicy::Ttl(h) | EvictionPolicy::RefreshOnMiss(h) => Some(*h),
        }
    }

    /// Stable label for reports: `never`, `ttl(4)`, `refresh-on-miss(1)`.
    pub fn label(&self) -> String {
        match self {
            EvictionPolicy::Never => "never".into(),
            // vroom-lint: allow(hot-path-alloc) -- report label, built once per report render
            EvictionPolicy::Ttl(h) => format!("ttl({h})"),
            // vroom-lint: allow(hot-path-alloc) -- report label, built once per report render
            EvictionPolicy::RefreshOnMiss(h) => format!("refresh-on-miss({h})"),
        }
    }
}

/// The outcome of one policy-aware read.
#[derive(Debug, Clone, PartialEq)]
pub enum FreshRead {
    /// No live entry (or the policy logically evicted it).
    Miss,
    /// A live entry within its freshness window.
    Fresh {
        /// The stored hint list (Arc-shared, never copied).
        hints: Arc<Vec<Hint>>,
        /// Buckets since the entry was resolved.
        age_hours: u64,
    },
    /// A stale entry served anyway ([`EvictionPolicy::RefreshOnMiss`]):
    /// the caller should schedule a re-resolution.
    Stale {
        /// The stored hint list.
        hints: Arc<Vec<Hint>>,
        /// Buckets since the entry was resolved.
        age_hours: u64,
    },
}

impl FreshRead {
    /// Consume into the served hints, if any (fresh or stale).
    pub fn into_hints(self) -> Option<Arc<Vec<Hint>>> {
        match self {
            FreshRead::Miss => None,
            FreshRead::Fresh { hints, .. } | FreshRead::Stale { hints, .. } => Some(hints),
        }
    }

    /// Whether this read served a stale entry.
    pub fn is_stale(&self) -> bool {
        matches!(self, FreshRead::Stale { .. })
    }
}

/// One stored entry: the hint list plus the hour bucket it was resolved at.
type Entry = (Arc<Vec<Hint>>, i64);

/// The atomic tallies behind one [`ShardStats`] row. Atomic because the
/// parallel load phase reads (and so counts) under a shared lock.
#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    hits: AtomicU64,
    writes: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

impl Counters {
    /// Classify one looked-up entry under `policy` at `now_bucket` and
    /// count the read: one read, a hit when the policy serves the entry,
    /// and a stale mark when it is past its window. The single definition
    /// both layouts share, so sharded == unsharded is an identity rather
    /// than a re-derivation.
    fn read(&self, found: Option<&Entry>, now_bucket: i64, policy: EvictionPolicy) -> FreshRead {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let Some((hints, bucket)) = found else {
            return FreshRead::Miss;
        };
        let age_hours = now_bucket.saturating_sub(*bucket).max(0) as u64;
        let stale = matches!(policy.stale_after(), Some(limit) if age_hours > limit);
        if stale {
            self.stale.fetch_add(1, Ordering::Relaxed);
        }
        if stale && matches!(policy, EvictionPolicy::Ttl(_)) {
            // Logical eviction: the read misses; the entry stays until the
            // next sequential sweep so reads never mutate the map.
            return FreshRead::Miss;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        let hints = Arc::clone(hints);
        if stale {
            FreshRead::Stale { hints, age_hours }
        } else {
            FreshRead::Fresh { hints, age_hours }
        }
    }

    fn stats(&self, entries: u64) -> ShardStats {
        ShardStats {
            reads: self.reads.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            entries,
            stale: self.stale.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Shared dependency-hint storage, keyed by the interned URL of the HTML
/// response that carries the hints.
///
/// Values are `Arc`-shared: a read hands back a reference-counted handle,
/// never a copy of the hint list, so concurrent readers share one
/// allocation.
pub trait HintStore: Send + Sync {
    /// Policy-aware read: the hints for `key` classified by age relative to
    /// `now_bucket`. Logically one-key [`get_fresh_many`](Self::get_fresh_many).
    fn get_fresh(&self, key: UrlId, now_bucket: i64, policy: EvictionPolicy) -> FreshRead {
        self.get_fresh_many(std::slice::from_ref(&key), now_bucket, policy)
            .pop()
            .unwrap_or(FreshRead::Miss)
    }

    /// Policy-aware batched read, in input order, under one lock
    /// acquisition. Each key counts one read against its shard, a hit when
    /// the policy serves the entry, and one stale mark when the entry is
    /// past its window.
    fn get_fresh_many(
        &self,
        keys: &[UrlId],
        now_bucket: i64,
        policy: EvictionPolicy,
    ) -> Vec<FreshRead>;

    /// Store (or replace) every `(key, hints)` pair, versioned with the
    /// hour bucket they were resolved at, under one lock acquisition. Each
    /// pair counts one write against its key's shard; duplicate keys
    /// resolve last-write-wins.
    fn put_many_at(&self, entries: Vec<(UrlId, Vec<Hint>)>, bucket: i64);

    /// Physically remove every entry resolved before `min_bucket`,
    /// returning how many were removed. Call sequentially between batches
    /// (the Ttl sweep); reads never mutate, so this is the only path that
    /// shrinks the map.
    fn evict_resolved_before(&self, min_bucket: i64) -> u64;

    /// Per-shard counters, in shard order (a single row when unsharded).
    fn shard_stats(&self) -> Vec<ShardStats>;

    /// The full contents with each entry's resolution bucket — the
    /// canonical form the equivalence proptests compare.
    fn snapshot_versioned(&self) -> BTreeMap<UrlId, Entry>;

    /// Total live entries across every shard.
    fn len(&self) -> usize {
        self.shard_stats().iter().map(|s| s.entries as usize).sum()
    }
}

/// Recover a lock whether or not a holder panicked: the map holds plain
/// data whose invariants every critical section re-establishes before
/// unlocking, so a poisoned lock is safe to keep using.
fn unpoison<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(|e| e.into_inner())
}

/// The single-shard reference implementation.
#[derive(Debug, Default)]
pub struct UnshardedStore {
    map: Mutex<BTreeMap<UrlId, Entry>>,
    counters: Counters,
}

impl UnshardedStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HintStore for UnshardedStore {
    fn get_fresh_many(
        &self,
        keys: &[UrlId],
        now_bucket: i64,
        policy: EvictionPolicy,
    ) -> Vec<FreshRead> {
        let map = unpoison(self.map.lock());
        keys.iter()
            .map(|k| self.counters.read(map.get(k), now_bucket, policy))
            .collect()
    }

    fn put_many_at(&self, entries: Vec<(UrlId, Vec<Hint>)>, bucket: i64) {
        self.counters
            .writes
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        let mut map = unpoison(self.map.lock());
        for (k, h) in entries {
            map.insert(k, (Arc::new(h), bucket));
        }
    }

    fn evict_resolved_before(&self, min_bucket: i64) -> u64 {
        let mut map = unpoison(self.map.lock());
        let before = map.len();
        map.retain(|_, (_, b)| *b >= min_bucket);
        let removed = (before - map.len()) as u64;
        self.counters
            .evictions
            .fetch_add(removed, Ordering::Relaxed);
        removed
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        let entries = unpoison(self.map.lock()).len() as u64;
        vec![self.counters.stats(entries)]
    }

    fn snapshot_versioned(&self) -> BTreeMap<UrlId, Entry> {
        unpoison(self.map.lock()).clone()
    }
}

/// The production layout: one map behind one lock, with per-shard
/// counters routed by [`UrlId::shard`].
#[derive(Debug)]
pub struct ShardedStore {
    map: RwLock<BTreeMap<UrlId, Entry>>,
    shards: Vec<Counters>,
}

impl ShardedStore {
    /// A store with `shards` logical shards (`shards == 0` is clamped to 1).
    pub fn new(shards: usize) -> Self {
        ShardedStore {
            map: RwLock::default(),
            shards: (0..shards.max(1)).map(|_| Counters::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

// Every method below routes a key with `self.shards.get(key.shard(n))`:
// `UrlId::shard` returns a value < n by construction (proven by the routing
// proptest), and the checked lookup keeps the serving path panic-free
// regardless. `n` is read before the lock is taken, so nothing but map
// lookups and counter bumps runs under the guard.

impl HintStore for ShardedStore {
    fn get_fresh_many(
        &self,
        keys: &[UrlId],
        now_bucket: i64,
        policy: EvictionPolicy,
    ) -> Vec<FreshRead> {
        let n = self.shards.len();
        let map = unpoison(self.map.read());
        keys.iter()
            .map(|&k| match self.shards.get(k.shard(n)) {
                Some(c) => c.read(map.get(&k), now_bucket, policy),
                None => FreshRead::Miss,
            })
            .collect()
    }

    fn put_many_at(&self, entries: Vec<(UrlId, Vec<Hint>)>, bucket: i64) {
        let n = self.shards.len();
        let mut map = unpoison(self.map.write());
        for (k, h) in entries {
            if let Some(c) = self.shards.get(k.shard(n)) {
                c.writes.fetch_add(1, Ordering::Relaxed);
            }
            map.insert(k, (Arc::new(h), bucket));
        }
    }

    fn evict_resolved_before(&self, min_bucket: i64) -> u64 {
        let n = self.shards.len();
        let mut removed = 0u64;
        let mut map = unpoison(self.map.write());
        map.retain(|&k, (_, b)| {
            let keep = *b >= min_bucket;
            if !keep {
                removed += 1;
                if let Some(c) = self.shards.get(k.shard(n)) {
                    c.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            keep
        });
        removed
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        let n = self.shards.len();
        let mut entries = vec![0u64; n];
        let map = unpoison(self.map.read());
        for k in map.keys() {
            if let Some(e) = entries.get_mut(k.shard(n)) {
                *e += 1;
            }
        }
        drop(map);
        self.shards
            .iter()
            .zip(entries)
            .map(|(c, n)| c.stats(n))
            .collect()
    }

    fn snapshot_versioned(&self) -> BTreeMap<UrlId, Entry> {
        unpoison(self.map.read()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hint(id: u32, tier: u8) -> Hint {
        Hint {
            url: UrlId::from_index(id as usize),
            tier,
            size_hint: 100,
        }
    }

    fn keys(n: u32) -> Vec<UrlId> {
        (0..n).map(|i| UrlId::from_index(i as usize)).collect()
    }

    fn put(store: &dyn HintStore, key: UrlId, hints: Vec<Hint>, bucket: i64) {
        store.put_many_at(vec![(key, hints)], bucket);
    }

    fn get(store: &dyn HintStore, key: UrlId) -> Option<Arc<Vec<Hint>>> {
        store.get_fresh(key, 0, EvictionPolicy::Never).into_hints()
    }

    fn total(store: &dyn HintStore) -> ShardStats {
        store
            .shard_stats()
            .iter()
            .fold(ShardStats::default(), |acc, s| ShardStats {
                reads: acc.reads + s.reads,
                hits: acc.hits + s.hits,
                writes: acc.writes + s.writes,
                entries: acc.entries + s.entries,
                stale: acc.stale + s.stale,
                evictions: acc.evictions + s.evictions,
            })
    }

    #[test]
    fn put_get_roundtrip_both_layouts() {
        let stores: [Box<dyn HintStore>; 2] = [
            Box::new(UnshardedStore::new()),
            Box::new(ShardedStore::new(4)),
        ];
        for store in stores {
            let k = UrlId::from_index(3);
            assert!(get(&*store, k).is_none());
            put(&*store, k, vec![hint(7, 0), hint(8, 2)], 0);
            let got = get(&*store, k).expect("stored entry");
            assert_eq!(got.len(), 2);
            assert_eq!(got[0], hint(7, 0));
            assert_eq!(store.len(), 1);
            // Replacement keeps one live entry.
            put(&*store, k, vec![hint(9, 1)], 0);
            assert_eq!(store.len(), 1);
            assert_eq!(get(&*store, k).expect("replaced")[0], hint(9, 1));
        }
    }

    #[test]
    fn counters_are_logical_access_counts() {
        let store = ShardedStore::new(8);
        for &k in keys(16).iter() {
            put(&store, k, vec![hint(0, 0)], 0);
        }
        for &k in keys(32).iter() {
            let _ = get(&store, k); // 16 hits, 16 misses
        }
        let stats = store.shard_stats();
        assert_eq!(stats.len(), 8);
        let t = total(&store);
        assert_eq!(t.writes, 16);
        assert_eq!(t.reads, 32);
        assert_eq!(t.hits, 16);
        assert_eq!(t.entries, 16);
        // `Never` reads never classify anything stale, and nothing swept.
        assert_eq!(t.stale, 0);
        assert_eq!(t.evictions, 0);
        // Fibonacci routing actually spreads the dense low ids.
        let populated = stats.iter().filter(|s| s.entries > 0).count();
        assert!(populated >= 4, "16 keys landed on only {populated} shards");
    }

    #[test]
    fn snapshot_merges_shards_into_the_unsharded_view() {
        let sharded = ShardedStore::new(5);
        let reference = UnshardedStore::new();
        for &k in keys(20).iter() {
            let hints = vec![hint(k.index() as u32, (k.index() % 3) as u8)];
            put(&sharded, k, hints.clone(), 0);
            put(&reference, k, hints, 0);
        }
        assert_eq!(sharded.snapshot_versioned(), reference.snapshot_versioned());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.shard_count(), 1);
        put(&store, UrlId::from_index(0), vec![hint(1, 0)], 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn shared_value_is_refcounted_not_copied() {
        let store = ShardedStore::new(2);
        let k = UrlId::from_index(1);
        put(&store, k, vec![hint(2, 0)], 0);
        let a = get(&store, k).expect("entry");
        let b = get(&store, k).expect("entry");
        assert!(Arc::ptr_eq(&a, &b), "readers share one allocation");
    }

    #[test]
    fn ttl_classifies_by_age_and_never_ignores_it() {
        for store in [
            Box::new(UnshardedStore::new()) as Box<dyn HintStore>,
            Box::new(ShardedStore::new(4)),
        ] {
            let k = UrlId::from_index(5);
            put(&*store, k, vec![hint(1, 0)], 2000);
            // Within the window: fresh, with the age reported.
            match store.get_fresh(k, 2001, EvictionPolicy::Ttl(1)) {
                FreshRead::Fresh { age_hours, .. } => assert_eq!(age_hours, 1),
                other => panic!("expected fresh, got {other:?}"),
            }
            // Past the window: logical eviction — a miss, counted stale.
            assert_eq!(
                store.get_fresh(k, 2002, EvictionPolicy::Ttl(1)),
                FreshRead::Miss
            );
            // Never ignores age entirely.
            match store.get_fresh(k, 9000, EvictionPolicy::Never) {
                FreshRead::Fresh { age_hours, .. } => assert_eq!(age_hours, 7000),
                other => panic!("expected fresh, got {other:?}"),
            }
            let t = total(&*store);
            assert_eq!(t.reads, 3);
            assert_eq!(t.hits, 2);
            assert_eq!(t.stale, 1);
            // Logical eviction does not shrink the map; the sweep does.
            assert_eq!(store.len(), 1);
            assert_eq!(store.evict_resolved_before(2001), 1);
            assert_eq!(store.len(), 0);
            assert_eq!(total(&*store).evictions, 1);
        }
    }

    #[test]
    fn refresh_on_miss_serves_stale_and_flags_it() {
        for store in [
            Box::new(UnshardedStore::new()) as Box<dyn HintStore>,
            Box::new(ShardedStore::new(4)),
        ] {
            let k = UrlId::from_index(9);
            put(&*store, k, vec![hint(3, 1)], 100);
            let read = store.get_fresh(k, 105, EvictionPolicy::RefreshOnMiss(2));
            match &read {
                FreshRead::Stale { hints, age_hours } => {
                    assert_eq!(*age_hours, 5);
                    assert_eq!(hints[0], hint(3, 1));
                }
                other => panic!("expected stale, got {other:?}"),
            }
            assert!(read.is_stale());
            // Stale serves still count as hits — the load got its hints.
            let t = total(&*store);
            assert_eq!(t.hits, 1);
            assert_eq!(t.stale, 1);
            // Re-resolving at the current bucket makes it fresh again.
            put(&*store, k, vec![hint(4, 0)], 105);
            assert!(!store
                .get_fresh(k, 105, EvictionPolicy::RefreshOnMiss(2))
                .is_stale());
        }
    }

    #[test]
    fn eviction_sweep_only_removes_older_entries() {
        let store = ShardedStore::new(3);
        store.put_many_at(vec![(UrlId::from_index(0), vec![hint(1, 0)])], 10);
        store.put_many_at(vec![(UrlId::from_index(1), vec![hint(2, 0)])], 12);
        store.put_many_at(vec![(UrlId::from_index(2), vec![hint(3, 0)])], 14);
        assert_eq!(store.evict_resolved_before(12), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.evict_resolved_before(12), 0, "sweep is idempotent");
        let buckets: Vec<i64> = store
            .snapshot_versioned()
            .values()
            .map(|(_, b)| *b)
            .collect();
        assert_eq!(buckets, vec![12, 14]);
    }

    #[test]
    fn batched_fresh_reads_match_per_key_reads() {
        let sharded = ShardedStore::new(4);
        let reference = UnshardedStore::new();
        for (i, &k) in keys(12).iter().enumerate() {
            put(&sharded, k, vec![hint(i as u32, 0)], 2000 + i as i64 % 3);
            put(&reference, k, vec![hint(i as u32, 0)], 2000 + i as i64 % 3);
        }
        let probe = keys(16);
        for policy in [
            EvictionPolicy::Never,
            EvictionPolicy::Ttl(1),
            EvictionPolicy::RefreshOnMiss(1),
        ] {
            let a = sharded.get_fresh_many(&probe, 2002, policy);
            let b = reference.get_fresh_many(&probe, 2002, policy);
            let c: Vec<FreshRead> = probe
                .iter()
                .map(|&k| reference.get_fresh(k, 2002, policy))
                .collect();
            assert_eq!(a, b);
            assert_eq!(b, c);
        }
        assert_eq!(total(&sharded).stale, total(&reference).stale / 2);
    }
}
