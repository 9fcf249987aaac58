//! The cross-worker shared query cache.
//!
//! Parallel exploration gives every worker its own [`TermPool`] fork and its
//! own [`Solver`](crate::solver::Solver), so worker-local caches cannot key
//! on `TermId`s — ids diverge between pools as soon as a worker interns a new
//! term. This cache instead keys queries on the *sorted set of structural
//! fingerprints* of the asserted terms ([`TermPool::term_fp`]): two workers
//! that build the same conjunction — typically by re-executing the same
//! server-path prefix — produce the same key even though their `TermId`s
//! differ.
//!
//! Satisfiable entries store the model as a [`PortableModel`]
//! (`(variable fingerprint, value)` pairs). A hit is translated back into
//! the reader's pool through [`TermPool::var_by_fp`]; every variable a
//! solver assigns occurs in the asserted terms, so the reader — which
//! interned those terms to build the query — always knows them.
//!
//! Unsatisfiable entries store their [`Certificate`], and the certificate's
//! **unsat core** feeds a second, *subsumption* tier: a query whose
//! fingerprint set is a superset of a cached core is unsat (any superset of
//! an unsat set is), so [`SharedCache::lookup_subsumed`] can answer it —
//! with the cached certificate as proof — even though the exact key was
//! never inserted. This is what turns the dominant `pathS ∧ pathC` drop
//! checks into cache hits across witnesses that share only a path prefix.
//!
//! The map is sharded by key hash behind `RwLock`s, so concurrent readers
//! never contend and writers only lock one shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::certificate::Certificate;
use crate::model::PortableModel;
use crate::search::SatResult;
use crate::term::{TermId, TermPool};

/// Number of independently locked shards (power of two).
const SHARDS: usize = 64;

/// A query result in pool-independent form.
#[derive(Clone, Debug)]
enum EntryKind {
    /// Satisfiable, with its model keyed by variable fingerprints.
    Sat(Arc<PortableModel>),
    /// Unsatisfiable, with its refutation certificate.
    Unsat(Arc<Certificate>),
    Unknown,
}

/// One cached result plus the epoch it was published in.
#[derive(Clone, Debug)]
struct Entry {
    kind: EntryKind,
    epoch: u64,
}

/// One core-index entry: a sorted, deduplicated unsat core plus the
/// certificate that proves it.
#[derive(Clone, Debug)]
struct CoreEntry {
    core: Box<[u128]>,
    cert: Arc<Certificate>,
}

/// Counters of one [`SharedCache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Hits whose entry was published in an *earlier epoch* — a result
    /// computed by a previous pipeline phase (see
    /// [`SharedCache::advance_epoch`]). Always ≤ `hits`.
    pub cross_epoch_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results published.
    pub inserts: u64,
    /// Queries answered by the core-subsumption tier: the exact key was
    /// absent but the key contained a cached unsat core.
    pub core_subsumption_hits: u64,
    /// Unsat cores added to the subsumption index.
    pub cores_indexed: u64,
    /// Certificate-carrying `Unsat` results published.
    pub certified_unsat: u64,
}

impl SharedCacheStats {
    /// Publishes this cache's lifetime counters as `achilles_shared_cache_*`
    /// registry gauges. The shared cache is raced by every worker of a
    /// parallel exploration, so all of its counters are
    /// [`Wall`](achilles_obs::Class::Wall)-classed: hit/miss splits move
    /// with thread interleaving even when the exploration's *results* are
    /// bit-identical.
    pub fn record_metrics(&self) {
        use achilles_obs::Class::Wall;
        let reg = achilles_obs::global();
        for (name, value) in [
            ("achilles_shared_cache_hits_total", self.hits),
            (
                "achilles_shared_cache_cross_epoch_hits_total",
                self.cross_epoch_hits,
            ),
            ("achilles_shared_cache_misses_total", self.misses),
            ("achilles_shared_cache_inserts_total", self.inserts),
            (
                "achilles_shared_cache_core_subsumption_hits_total",
                self.core_subsumption_hits,
            ),
            (
                "achilles_shared_cache_cores_indexed_total",
                self.cores_indexed,
            ),
            (
                "achilles_shared_cache_certified_unsat_total",
                self.certified_unsat,
            ),
        ] {
            reg.set(Wall, name, &[], value);
        }
    }
}

/// A sharded, fingerprint-keyed query cache shared by all workers of a
/// parallel exploration.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use achilles_solver::{SharedCache, Solver, TermPool, Width};
///
/// let shared = Arc::new(SharedCache::new());
/// let mut base = TermPool::new();
/// let x = base.fresh("x", Width::W8);
/// let c = base.constant(9, Width::W8);
/// let lt = base.ult(x, c);
///
/// // Worker 1 solves and publishes.
/// let mut pool1 = base.fork(1);
/// let mut s1 = Solver::new().with_shared_cache(Arc::clone(&shared));
/// assert!(s1.is_sat(&mut pool1, &[lt]));
///
/// // Worker 2 gets the answer without searching.
/// let mut pool2 = base.fork(2);
/// let mut s2 = Solver::new().with_shared_cache(Arc::clone(&shared));
/// assert!(s2.is_sat(&mut pool2, &[lt]));
/// assert_eq!(s2.stats().shared_hits, 1);
/// ```
#[derive(Debug)]
pub struct SharedCache {
    shards: Vec<RwLock<HashMap<Box<[u128]>, Entry>>>,
    /// Subsumption index: minimum core fingerprint → cores starting there.
    /// Sharded by that fingerprint so a reader probes one shard per key fp.
    cores: Vec<RwLock<HashMap<u128, Vec<CoreEntry>>>>,
    /// Whether [`lookup_subsumed`](SharedCache::lookup_subsumed) answers.
    /// The index is always maintained; only lookups are gated, so the
    /// toggle can be flipped per run for differential testing.
    subsumption: AtomicBool,
    /// The current phase epoch (see [`SharedCache::advance_epoch`]).
    epoch: AtomicU64,
    hits: AtomicU64,
    cross_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    core_hits: AtomicU64,
    cores_indexed: AtomicU64,
    certified_unsat: AtomicU64,
}

impl Default for SharedCache {
    fn default() -> SharedCache {
        SharedCache::new()
    }
}

impl SharedCache {
    /// Creates an empty cache (subsumption lookups enabled).
    pub fn new() -> SharedCache {
        SharedCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            cores: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            subsumption: AtomicBool::new(true),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            cross_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            core_hits: AtomicU64::new(0),
            cores_indexed: AtomicU64::new(0),
            certified_unsat: AtomicU64::new(0),
        }
    }

    /// Enables or disables the core-subsumption lookup tier. The index is
    /// still maintained while disabled, so re-enabling needs no warm-up.
    pub fn set_subsumption(&self, enabled: bool) {
        self.subsumption.store(enabled, Ordering::Relaxed);
    }

    /// Whether subsumption lookups are enabled.
    pub fn subsumption_enabled(&self) -> bool {
        self.subsumption.load(Ordering::Relaxed)
    }

    /// Starts a new phase epoch. Entries keep the epoch they were
    /// published in; a later hit on an entry from an earlier epoch counts
    /// into [`SharedCacheStats::cross_epoch_hits`] — the measure of how
    /// much one pipeline phase reuses work a previous phase paid for
    /// (client predicate extraction → preprocessing → server Trojan
    /// search → session analyses). Callers that own a cache for exactly
    /// one exploration never need to call this.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current phase epoch (0 until the first
    /// [`advance_epoch`](SharedCache::advance_epoch)).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The pool-independent key of a query: sorted, deduplicated structural
    /// fingerprints of the asserted terms.
    pub fn key_of(pool: &TermPool, assertions: &[TermId]) -> Box<[u128]> {
        let mut key: Vec<u128> = assertions.iter().map(|&t| pool.term_fp(t)).collect();
        key.sort_unstable();
        key.dedup();
        key.into_boxed_slice()
    }

    fn shard_of(key: &[u128]) -> usize {
        // The fingerprints are already well mixed; fold them.
        let mut h = 0xD6E8_FEB8_6659_FD93u64 ^ key.len() as u64;
        for fp in key {
            h = (h ^ (*fp as u64))
                .rotate_left(23)
                .wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        (h as usize) & (SHARDS - 1)
    }

    fn shard_of_fp(fp: u128) -> usize {
        ((fp as u64)
            .rotate_left(23)
            .wrapping_mul(0x2545_F491_4F6C_DD1D) as usize)
            & (SHARDS - 1)
    }

    /// Looks up a query, translating a satisfiable entry's model into
    /// `pool`'s variable ids.
    pub fn lookup(&self, pool: &TermPool, key: &[u128]) -> Option<SatResult> {
        let shard = self.shards[Self::shard_of(key)]
            .read()
            .expect("cache shard poisoned");
        let entry = match shard.get(key) {
            Some(e) => e.clone(),
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        drop(shard);
        let entry_epoch = entry.epoch;
        let result = match entry.kind {
            EntryKind::Unsat(cert) => SatResult::Unsat(cert),
            EntryKind::Unknown => SatResult::Unknown,
            EntryKind::Sat(model) => match model.to_model(pool) {
                Some(model) => SatResult::Sat(Arc::new(model)),
                // A variable this pool has never interned: the entry cannot
                // be translated, treat as a miss (sound — the caller just
                // solves locally).
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            },
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        if entry_epoch < self.epoch() {
            self.cross_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(result)
    }

    /// Subsumption tier: answers with a certificate if `key` (sorted,
    /// deduplicated) is a *superset* of a cached unsat core — any superset
    /// of an unsat assertion set is unsat. The returned certificate's core
    /// is by construction a subset of `key`, so it validates against the
    /// caller's assertions as-is.
    ///
    /// Returns `None` when the tier is disabled
    /// (see [`set_subsumption`](SharedCache::set_subsumption)).
    pub fn lookup_subsumed(&self, key: &[u128]) -> Option<Arc<Certificate>> {
        if !self.subsumption_enabled() {
            return None;
        }
        // A subsumed core's minimum fingerprint is some element of `key`,
        // so probing the index at every key fp finds all candidates.
        for &fp in key {
            let bucket = self.cores[Self::shard_of_fp(fp)]
                .read()
                .expect("core shard poisoned");
            let Some(entries) = bucket.get(&fp) else {
                continue;
            };
            for entry in entries {
                if is_subset(&entry.core, key) {
                    let cert = Arc::clone(&entry.cert);
                    drop(bucket);
                    self.core_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(cert);
                }
            }
        }
        None
    }

    /// Publishes a result under `key` (stamped with the current epoch).
    /// `Unsat` results also index their certificate's core for subsumption.
    pub fn insert(&self, pool: &TermPool, key: Box<[u128]>, result: &SatResult) {
        let kind = match result {
            SatResult::Unsat(cert) => {
                self.certified_unsat.fetch_add(1, Ordering::Relaxed);
                self.index_core(cert);
                EntryKind::Unsat(Arc::clone(cert))
            }
            SatResult::Unknown => EntryKind::Unknown,
            SatResult::Sat(model) => EntryKind::Sat(Arc::new(PortableModel::of(pool, model))),
        };
        let entry = Entry {
            kind,
            epoch: self.epoch(),
        };
        let mut shard = self.shards[Self::shard_of(&key)]
            .write()
            .expect("cache shard poisoned");
        shard.entry(key).or_insert(entry);
        drop(shard);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a certificate's core to the subsumption index (deduplicated).
    fn index_core(&self, cert: &Arc<Certificate>) {
        if cert.core.is_empty() {
            return;
        }
        let mut core: Vec<u128> = cert.core.clone();
        core.sort_unstable();
        core.dedup();
        let min_fp = core[0];
        let core: Box<[u128]> = core.into_boxed_slice();
        let mut bucket = self.cores[Self::shard_of_fp(min_fp)]
            .write()
            .expect("core shard poisoned");
        let entries = bucket.entry(min_fp).or_default();
        if entries.iter().any(|e| e.core == core) {
            return;
        }
        entries.push(CoreEntry {
            core,
            cert: Arc::clone(cert),
        });
        drop(bucket);
        self.cores_indexed.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters so far.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            cross_epoch_hits: self.cross_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            core_subsumption_hits: self.core_hits.load(Ordering::Relaxed),
            cores_indexed: self.cores_indexed.load(Ordering::Relaxed),
            certified_unsat: self.certified_unsat.load(Ordering::Relaxed),
        }
    }
}

/// Whether sorted slice `a` is a subset of sorted slice `b`.
fn is_subset(a: &[u128], b: &[u128]) -> bool {
    let mut bi = 0;
    'outer: for &x in a {
        while bi < b.len() {
            match b[bi].cmp(&x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::ProofNode;
    use crate::model::Model;
    use crate::width::Width;

    fn dummy_unsat(core: Vec<u128>) -> SatResult {
        SatResult::Unsat(Arc::new(Certificate {
            core,
            proof: ProofNode::Admitted,
            steps: 1,
        }))
    }

    #[test]
    fn key_is_order_insensitive_and_deduped() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let c1 = pool.constant(1, Width::W8);
        let c9 = pool.constant(9, Width::W8);
        let a = pool.ult(c1, x);
        let b = pool.ult(x, c9);
        assert_eq!(
            SharedCache::key_of(&pool, &[a, b]),
            SharedCache::key_of(&pool, &[b, a, b])
        );
    }

    #[test]
    fn model_round_trips_across_forked_pools() {
        let mut base = TermPool::new();
        let x = base.fresh("x", Width::W16);
        let c = base.constant(500, Width::W16);
        let eq = base.eq(x, c);

        let cache = SharedCache::new();
        let pool1 = base.fork(1);
        let mut m = Model::new();
        m.assign(pool1.as_var(x).unwrap(), 500);
        let key = SharedCache::key_of(&pool1, &[eq]);
        cache.insert(&pool1, key.clone(), &SatResult::Sat(Arc::new(m)));

        let pool2 = base.fork(2);
        let hit = cache.lookup(&pool2, &key).expect("published entry");
        let model = hit.model().expect("sat entry");
        assert_eq!(model.value(pool2.as_var(x).unwrap()), Some(500));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn unknown_variable_degrades_to_miss() {
        let mut pool1 = TermPool::new().fork(1);
        let y = pool1.fresh("only_in_1", Width::W8);
        let c = pool1.constant(3, Width::W8);
        let eq = pool1.eq(y, c);
        let cache = SharedCache::new();
        let key = SharedCache::key_of(&pool1, &[eq]);
        let mut m = Model::new();
        m.assign(pool1.as_var(y).unwrap(), 3);
        cache.insert(&pool1, key.clone(), &SatResult::Sat(Arc::new(m)));

        let pool2 = TermPool::new().fork(2);
        assert!(
            cache.lookup(&pool2, &key).is_none(),
            "untranslatable model is a miss"
        );
    }

    #[test]
    fn cross_epoch_hits_separate_phase_reuse_from_worker_reuse() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let c = pool.constant(9, Width::W8);
        let lt = pool.ult(x, c);
        let key = SharedCache::key_of(&pool, &[lt]);

        let cache = SharedCache::new();
        cache.insert(&pool, key.clone(), &dummy_unsat(key.to_vec()));
        // Same epoch: an ordinary hit, not a cross-epoch one.
        assert!(cache.lookup(&pool, &key).is_some());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().cross_epoch_hits, 0);

        // Next phase: the same entry now counts as cross-epoch reuse.
        assert_eq!(cache.advance_epoch(), 1);
        assert_eq!(cache.epoch(), 1);
        assert!(cache.lookup(&pool, &key).is_some());
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().cross_epoch_hits, 1);

        // An entry published *in* the new phase is same-epoch again.
        let y = pool.fresh("y", Width::W8);
        let eq = pool.eq(y, c);
        let key2 = SharedCache::key_of(&pool, &[eq]);
        cache.insert(&pool, key2.clone(), &dummy_unsat(key2.to_vec()));
        assert!(cache.lookup(&pool, &key2).is_some());
        assert_eq!(cache.stats().cross_epoch_hits, 1);
    }

    #[test]
    fn tagged_vars_share_constraints_across_workers() {
        // Two workers create "the same" variable independently (same tag):
        // the second worker's structurally equal query hits the first's entry.
        let base = TermPool::new();
        let cache = SharedCache::new();

        let mut pool1 = base.fork(1);
        let v1 = pool1.fresh_var_tagged("msg.len", Width::W8, 42);
        let x1 = pool1.var(v1);
        let c1 = pool1.constant(7, Width::W8);
        let q1 = pool1.ult(x1, c1);
        let mut m = Model::new();
        m.assign(v1, 0);
        let key1 = SharedCache::key_of(&pool1, &[q1]);
        cache.insert(&pool1, key1, &SatResult::Sat(Arc::new(m)));

        let mut pool2 = base.fork(2);
        let v2 = pool2.fresh_var_tagged("msg.len", Width::W8, 42);
        let x2 = pool2.var(v2);
        let c2 = pool2.constant(7, Width::W8);
        let q2 = pool2.ult(x2, c2);
        let key2 = SharedCache::key_of(&pool2, &[q2]);
        let hit = cache
            .lookup(&pool2, &key2)
            .expect("equal tags make equal keys");
        assert_eq!(hit.model().unwrap().value(v2), Some(0));
    }

    #[test]
    fn superset_key_hits_the_core_index() {
        let mut pool = TermPool::new();
        let x = pool.fresh("x", Width::W8);
        let c5 = pool.constant(5, Width::W8);
        let a = pool.ult(x, c5);
        let b = pool.ult(c5, x);
        let key = SharedCache::key_of(&pool, &[a, b]);

        let cache = SharedCache::new();
        cache.insert(&pool, key.clone(), &dummy_unsat(key.to_vec()));
        assert_eq!(cache.stats().certified_unsat, 1);
        assert_eq!(cache.stats().cores_indexed, 1);

        // A strictly larger query was never inserted, but contains the core.
        let c9 = pool.constant(9, Width::W8);
        let extra = pool.ult(x, c9);
        let superset = SharedCache::key_of(&pool, &[a, b, extra]);
        assert!(cache.lookup(&pool, &superset).is_none(), "no exact entry");
        let cert = cache
            .lookup_subsumed(&superset)
            .expect("superset of a cached core");
        assert!(is_subset(&cert.core, &superset));
        assert_eq!(cache.stats().core_subsumption_hits, 1);

        // A disjoint query does not hit.
        let disjoint = SharedCache::key_of(&pool, &[extra]);
        assert!(cache.lookup_subsumed(&disjoint).is_none());

        // Disabling the tier silences lookups without clearing the index.
        cache.set_subsumption(false);
        assert!(cache.lookup_subsumed(&superset).is_none());
        cache.set_subsumption(true);
        assert!(cache.lookup_subsumed(&superset).is_some());
    }

    #[test]
    fn subset_test_is_exact() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2, 3], &[1, 3]));
        assert!(!is_subset(&[0], &[1]));
    }
}
