//! The incremental pulse library: one engine behind batch pre-compilation
//! and online serving.
//!
//! Historically the repository had two disconnected stories about pulse
//! reuse: the *batch* story (profile a suite, build the O(n²) similarity
//! graph, compile in MST order, persist the cache — §IV/§V of the paper)
//! and nothing at all for programs arriving *after* precompile, which is
//! exactly the serve-heavy regime the ROADMAP targets. [`PulseLibrary`]
//! unifies them:
//!
//! - **storage** — one map keeps each key's entry, fingerprint-index
//!   data and recency stamp under one mutex, with an optional capacity
//!   bound and deterministic least-recently-used eviction;
//! - **retrieval** — every entry inserted with its canonical unitary is
//!   fingerprinted ([`UnitaryFingerprint`]) into a bucketed index, so a
//!   cache miss finds warm-start candidates in sublinear time and only
//!   the top-k short list is re-scored with the exact [`SimilarityFn`];
//! - **batch writes** — the batch engine behind
//!   [`Session::compile`](crate::Session::compile) and
//!   [`Session::precompile`](crate::Session::precompile) compiles a whole
//!   batch first and then inserts its entries here, each with its
//!   canonical unitary;
//! - **serving** — [`Session::serve_program`](crate::Session::serve_program)
//!   drives the library online: hits are free, misses are planned
//!   against the library under its lock and warm-start GRAPE from the
//!   nearest cached neighbor, the results are inserted back, and
//!   [`LibraryStats`] counts all of it.

mod fingerprint;
pub(crate) mod serve;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use accqoc_circuit::UnitaryKey;
use accqoc_grape::Pulse;
use accqoc_linalg::Mat;

use crate::cache::{CachedPulse, PulseCache};
use crate::persist::{Event, Journal};
use crate::similarity::{SimilarityFn, SimilarityScratch};

pub use fingerprint::UnitaryFingerprint;
pub use serve::{ServeOptions, ServeReport, ServedGroup};

pub(crate) use fingerprint::Added;
use fingerprint::{FingerprintIndex, Overlay};

/// Point-in-time counters of the library's serving behavior.
///
/// Hits and misses count *unique groups* as they are served (a program
/// with five instances of one cached group scores one hit); warm and
/// scratch compiles partition the misses by whether the nearest-neighbor
/// warm start passed the trace-overlap gate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LibraryStats {
    /// Unique groups served straight from the cache.
    pub hits: u64,
    /// Unique groups that had to be compiled.
    pub misses: u64,
    /// Misses compiled warm-started from a fingerprint neighbor.
    pub warm_compiles: u64,
    /// Misses compiled from scratch (empty library, no neighbor within
    /// the warm-start gate, or a dimension never seen before).
    pub scratch_compiles: u64,
    /// GRAPE iterations spent on warm-started compiles.
    pub warm_iterations: u64,
    /// GRAPE iterations spent on scratch compiles.
    pub scratch_iterations: u64,
    /// Entries evicted to honor the capacity bound.
    pub evictions: u64,
}

impl LibraryStats {
    /// Fraction of served unique groups found in the cache (1.0 when
    /// nothing has been served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of compiles that were warm-started (0.0 when nothing has
    /// been compiled).
    pub fn warm_share(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.warm_compiles as f64 / self.misses as f64
        }
    }

    /// Mean GRAPE iterations per warm-started compile.
    pub fn mean_warm_iterations(&self) -> f64 {
        if self.warm_compiles == 0 {
            0.0
        } else {
            self.warm_iterations as f64 / self.warm_compiles as f64
        }
    }

    /// Mean GRAPE iterations per scratch compile.
    pub fn mean_scratch_iterations(&self) -> f64 {
        if self.scratch_compiles == 0 {
            0.0
        } else {
            self.scratch_iterations as f64 / self.scratch_compiles as f64
        }
    }

    /// The counters as a JSON value — what the serving daemon's `stats`
    /// method returns, so remote observers read exactly the in-process
    /// numbers.
    ///
    /// # Examples
    ///
    /// ```
    /// use accqoc::LibraryStats;
    ///
    /// let stats = LibraryStats { hits: 3, misses: 1, ..Default::default() };
    /// let value = stats.to_json_value();
    /// assert_eq!(LibraryStats::from_json_value(&value).unwrap(), stats);
    /// ```
    pub fn to_json_value(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue;
        let field = |n: u64| JsonValue::Number(n as f64);
        JsonValue::Object(vec![
            ("hits".into(), field(self.hits)),
            ("misses".into(), field(self.misses)),
            ("warm_compiles".into(), field(self.warm_compiles)),
            ("scratch_compiles".into(), field(self.scratch_compiles)),
            ("warm_iterations".into(), field(self.warm_iterations)),
            ("scratch_iterations".into(), field(self.scratch_iterations)),
            ("evictions".into(), field(self.evictions)),
        ])
    }

    /// Reconstructs counters from [`LibraryStats::to_json_value`] output.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] when a counter is missing or mistyped.
    pub fn from_json_value(value: &crate::json::JsonValue) -> crate::error::Result<Self> {
        use crate::json::JsonValue;
        let field = |name: &str| -> crate::error::Result<u64> {
            value
                .get(name)
                .and_then(JsonValue::as_usize)
                .map(|n| n as u64)
                .ok_or_else(|| {
                    crate::json::JsonError {
                        message: format!("library stats: missing counter `{name}`"),
                        offset: 0,
                    }
                    .into()
                })
        };
        Ok(Self {
            hits: field("hits")?,
            misses: field("misses")?,
            warm_compiles: field("warm_compiles")?,
            scratch_compiles: field("scratch_compiles")?,
            warm_iterations: field("warm_iterations")?,
            scratch_iterations: field("scratch_iterations")?,
            evictions: field("evictions")?,
        })
    }
}

#[derive(Debug, Default)]
struct StatsCells {
    hits: AtomicU64,
    misses: AtomicU64,
    warm_compiles: AtomicU64,
    scratch_compiles: AtomicU64,
    warm_iterations: AtomicU64,
    scratch_iterations: AtomicU64,
    evictions: AtomicU64,
}

/// Everything the library stores, under one mutex: one map from each
/// key to its entry, its fingerprint-index data and its recency stamp.
type LibraryState = FingerprintIndex<CachedPulse>;

/// Every entry sorted by key, each with its canonical unitary when it is
/// fingerprint-indexed, as the library artifact.
fn artifact(state: &LibraryState) -> String {
    let mut entries: Vec<_> = state
        .iter()
        .map(|(key, slot)| (key, &slot.value, slot.indexed.as_ref().map(|i| &i.unitary)))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    crate::persist::library_json(entries.into_iter())
}

thread_local! {
    /// Scratch for the exact re-scoring of fingerprint candidates: one
    /// per thread rather than one per library.
    static SCRATCH: RefCell<SimilarityScratch> = RefCell::new(SimilarityScratch::new());
}

/// A warm-start neighbor found by [`PulseLibrary::nearest`].
#[derive(Debug, Clone)]
pub struct NearestPulse {
    /// Canonical key of the neighbor entry.
    pub key: UnitaryKey,
    /// Exact similarity distance from the query to the neighbor (under
    /// the similarity function passed to the query).
    pub distance: f64,
    /// The neighbor's canonical unitary (for warm-start gating).
    pub unitary: Mat,
    /// The neighbor's cached pulse.
    pub pulse: Pulse,
}

/// The incremental pulse library: bounded, fingerprint-indexed storage
/// for compiled group pulses, shared by the batch and online paths.
///
/// [`PulseLibrary::insert`] is the one write: an entry goes in with its
/// canonical unitary (indexed) or without (exact hits only).
/// [`PulseLibrary::merge`] is its un-indexed bulk form and
/// [`PulseLibrary::touch`] only refreshes recency; with a journal
/// attached, each insert and each eviction it causes is one WAL record.
///
/// Every method takes `&self`, and every read or write takes the one
/// internal mutex, so a serving hit reads its entry and refreshes its
/// recency under a single lock. Library operations are orders of
/// magnitude cheaper than the GRAPE compiles they guard, and batch
/// workers never touch the library: they hand their results back to the
/// caller, which inserts them after the batch.
///
/// # Capacity and eviction
///
/// With `capacity = None` (the default — what every batch path uses) the
/// library never evicts and batch pre-compilation artifacts stay exactly
/// as deterministic as the underlying cache. With `Some(n)`, inserting
/// beyond `n` entries evicts the least-recently-used key first
/// (deterministic tie-break on key order); `Some(0)` stores nothing and
/// turns the library into a pure pass-through compiler.
#[derive(Debug)]
pub struct PulseLibrary {
    state: Mutex<LibraryState>,
    capacity: Option<usize>,
    stats: StatsCells,
    clock: AtomicU64,
    /// Durability journal; when attached, every mutation is logged
    /// under the state lock (so WAL order equals apply order).
    journal: Option<Journal>,
}

impl Default for PulseLibrary {
    fn default() -> Self {
        Self::new()
    }
}

impl PulseLibrary {
    /// An empty, unbounded library.
    pub fn new() -> Self {
        Self::with_capacity(None)
    }

    /// An empty library holding at most `capacity` entries (`None` =
    /// unbounded).
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        Self {
            state: Mutex::new(LibraryState::default()),
            capacity,
            stats: StatsCells::default(),
            clock: AtomicU64::new(0),
            journal: None,
        }
    }

    /// Attaches the durability journal. Called once by the session
    /// builder *after* recovery has seeded the library, so recovered
    /// state is not logged a second time.
    pub(crate) fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// The capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.lock().len() == 0
    }

    /// Number of fingerprint-indexed entries (≤ [`PulseLibrary::len`]:
    /// entries inserted without a unitary, as plain-cache merges are,
    /// are not indexed).
    pub fn indexed_len(&self) -> usize {
        self.lock().indexed_len()
    }

    /// `true` when the store covers `key`.
    pub fn contains(&self, key: &UnitaryKey) -> bool {
        self.lock().get(key).is_some()
    }

    /// A copy of one entry, if covered. Does not touch recency (the
    /// serving path's hits do, under the same lock as the read).
    pub fn get(&self, key: &UnitaryKey) -> Option<CachedPulse> {
        self.lock().get(key).map(|slot| slot.value.clone())
    }

    /// A copy of one entry with its recency refreshed, under one lock:
    /// the serving path's cache hit.
    pub(crate) fn hit(&self, key: &UnitaryKey) -> Option<CachedPulse> {
        let stamp = self.tick();
        let mut state = self.lock();
        let entry = state.get(key)?.value.clone();
        state.touch(key, stamp);
        Some(entry)
    }

    /// Refreshes `key`'s recency stamp, so the entry survives the next
    /// evictions (a no-op when `key` is not stored).
    pub fn touch(&self, key: &UnitaryKey) {
        let stamp = self.tick();
        self.lock().touch(key, stamp);
    }

    fn lock(&self) -> MutexGuard<'_, LibraryState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Stores `entry` under `key`: the library's one write. With the
    /// canonical `unitary` the entry is also fingerprint-indexed, so it
    /// is retrievable as a warm-start neighbor; every compile, batch or
    /// served, inserts this way. Without one the entry is stored, served
    /// on exact key hits and evictable, and any index entry `key`
    /// already has stays in place.
    pub fn insert(&self, key: UnitaryKey, entry: CachedPulse, unitary: Option<&Mat>) {
        let stamp = self.tick();
        let n_qubits = entry.n_qubits;
        let mut state = self.lock();
        if self.capacity == Some(0) {
            return;
        }
        let logged = self.journal.as_ref().map(|_| entry.clone());
        state.insert(key.clone(), entry, unitary.map(|u| (u, n_qubits)), stamp);
        let evicted = self.evict_over_capacity(&mut state);
        if let Some(journal) = &self.journal {
            journal.record(&Event::Insert {
                key: &key,
                entry: logged.as_ref().expect("cloned when journaling"),
                unitary,
            });
            for victim in &evicted {
                journal.record(&Event::Evict { key: victim });
            }
            self.maybe_snapshot(journal, &state);
        }
    }

    /// Merges a plain cache (incoming entries win): the un-indexed bulk
    /// form of [`PulseLibrary::insert`], in sorted key order so
    /// capacity eviction stays deterministic.
    pub fn merge(&self, cache: PulseCache) {
        let mut entries: Vec<(UnitaryKey, CachedPulse)> = cache.into_entries().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, entry) in entries {
            self.insert(key, entry, None);
        }
    }

    /// A copy of the stored pulses (its JSON artifact is
    /// byte-deterministic: [`PulseCache::to_json`] sorts by key).
    pub fn snapshot(&self) -> PulseCache {
        let state = self.lock();
        let mut cache = PulseCache::new();
        for (key, slot) in state.iter() {
            cache.insert(key.clone(), slot.value.clone());
        }
        cache
    }

    /// One page of the library in key order: the number of entries, and
    /// `row` applied to the `limit` entries after the first `offset`,
    /// under one lock and without copying any other entry.
    pub fn page<T>(
        &self,
        offset: usize,
        limit: usize,
        mut row: impl FnMut(&UnitaryKey, &CachedPulse) -> T,
    ) -> (usize, Vec<T>) {
        let state = self.lock();
        let mut entries: Vec<_> = state.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let rows = entries
            .into_iter()
            .skip(offset)
            .take(limit)
            .map(|(key, slot)| row(key, &slot.value))
            .collect();
        (state.len(), rows)
    }

    /// Evicts least-recently-used entries until the capacity bound
    /// holds; returns the victims (in eviction order) so callers with a
    /// journal can log them. Caller holds the state lock.
    fn evict_over_capacity(&self, index: &mut LibraryState) -> Vec<UnitaryKey> {
        let evicted = evict_over(self.capacity, index);
        self.stats
            .evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        evicted
    }

    /// Runs an auto-compaction snapshot when the journal says one is
    /// due. Caller holds the state lock, so the snapshot is consistent
    /// with the WAL prefix it replaces. Failures stay inside
    /// the journal (sticky) and resurface at the next explicit
    /// [`PulseLibrary::checkpoint`].
    fn maybe_snapshot(&self, journal: &Journal, state: &LibraryState) {
        if !journal.due_for_snapshot() {
            return;
        }
        let _ = journal.snapshot(&artifact(state));
    }

    /// Forces a durability snapshot: writes the snapshot and truncates
    /// the WAL. `Ok(())` and a no-op when no journal is attached.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Store`] when the snapshot write or the WAL
    /// truncation fails; the previous snapshot and WAL on disk stay
    /// recoverable.
    pub fn checkpoint(&self) -> crate::error::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        // Hold the state lock across the write so no concurrent
        // mutation can append to the WAL between our snapshot copy and
        // the truncation (which would silently drop that record).
        let state = self.lock();
        let result = journal.snapshot(&artifact(&state));
        drop(state);
        result.map_err(crate::error::Error::from)
    }

    /// The library artifact: what [`Session::save_cache`](crate::Session::save_cache)
    /// writes and a durable snapshot holds.
    pub(crate) fn artifact(&self) -> String {
        artifact(&self.lock())
    }

    /// The nearest indexed neighbor of `unitary`: fingerprint buckets
    /// propose up to `k` candidates, the exact `similarity` function
    /// re-scores them, and the best (distance, key) wins. Returns `None`
    /// on an empty index or when no same-dimension entry exists.
    pub fn nearest(
        &self,
        unitary: &Mat,
        n_qubits: usize,
        k: usize,
        similarity: SimilarityFn,
    ) -> Option<NearestPulse> {
        let query = UnitaryFingerprint::of(unitary, n_qubits);
        self.nearest_by_fingerprint(&query, unitary, k, similarity)
    }

    /// [`PulseLibrary::nearest`] with a precomputed query fingerprint —
    /// the serving loop re-queries every remaining miss after each
    /// insert, so it fingerprints each miss once and reuses it across
    /// rounds instead of recomputing the trace moments per query.
    pub fn nearest_by_fingerprint(
        &self,
        query: &UnitaryFingerprint,
        unitary: &Mat,
        k: usize,
        similarity: SimilarityFn,
    ) -> Option<NearestPulse> {
        let state = self.lock();
        let (key, distance, unitary) = SCRATCH.with_borrow_mut(|scratch| {
            state.nearest(query, unitary, k, similarity, &Overlay::default(), scratch)
        })?;
        Some(NearestPulse {
            distance,
            unitary: unitary.clone(),
            pulse: state.get(&key)?.value.pulse.clone(),
            key,
        })
    }

    /// The library, locked, as a serve plans its compiles against it:
    /// the lock is held until the view is dropped.
    pub(crate) fn plan_view(&self) -> PlanView<'_> {
        PlanView {
            state: self.lock(),
            capacity: self.capacity,
            overlay: Overlay::default(),
        }
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> LibraryStats {
        LibraryStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            warm_compiles: self.stats.warm_compiles.load(Ordering::Relaxed),
            scratch_compiles: self.stats.scratch_compiles.load(Ordering::Relaxed),
            warm_iterations: self.stats.warm_iterations.load(Ordering::Relaxed),
            scratch_iterations: self.stats.scratch_iterations.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record_hit(&self) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_compile(&self, warm: bool, iterations: usize) {
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        if warm {
            self.stats.warm_compiles.fetch_add(1, Ordering::Relaxed);
            self.stats
                .warm_iterations
                .fetch_add(iterations as u64, Ordering::Relaxed);
        } else {
            self.stats.scratch_compiles.fetch_add(1, Ordering::Relaxed);
            self.stats
                .scratch_iterations
                .fetch_add(iterations as u64, Ordering::Relaxed);
        }
    }
}

/// Evicts least-recently-used keys of `index` until at most `capacity`
/// remain; returns the victims in eviction order.
fn evict_over(capacity: Option<usize>, index: &mut LibraryState) -> Vec<UnitaryKey> {
    let mut evicted = Vec::new();
    let Some(capacity) = capacity else {
        return evicted;
    };
    while index.len() > capacity {
        let Some(victim) = index.lru(|_| false) else {
            break;
        };
        index.remove(&victim);
        evicted.push(victim);
    }
    evicted
}

/// The library as a serve plans against it: the stored keys under the
/// library's lock, with the plan's picks laid over them. A pick goes in
/// the way [`PulseLibrary::insert`] would put it, evicting under the same
/// capacity bound, but only in the overlay, so the plan sees what a
/// one-at-a-time serve would see without copying or writing the library.
pub(crate) struct PlanView<'a> {
    state: MutexGuard<'a, LibraryState>,
    capacity: Option<usize>,
    overlay: Overlay<'a>,
}

impl<'a> PlanView<'a> {
    /// The nearest indexed key to `unitary`, its distance and its
    /// unitary ([`PulseLibrary::nearest_by_fingerprint`] without the
    /// pulse).
    pub(crate) fn nearest(
        &self,
        query: &UnitaryFingerprint,
        unitary: &Mat,
        k: usize,
        similarity: SimilarityFn,
    ) -> Option<(UnitaryKey, f64, &Mat)> {
        let (state, overlay) = (&*self.state, &self.overlay);
        SCRATCH.with_borrow_mut(|scratch| {
            state.nearest(query, unitary, k, similarity, overlay, scratch)
        })
    }

    /// A copy of the pulse of `key`, a stored key the view shows.
    pub(crate) fn pulse(&self, key: &UnitaryKey) -> Option<Pulse> {
        if self.overlay.hidden.contains(key) {
            return None;
        }
        Some(self.state.get(key)?.value.pulse.clone())
    }

    /// Puts `pick` in as the newest entry and evicts the least recently
    /// used entries over the capacity bound: stored ones first, since
    /// every pick is newer, then the earliest picks.
    pub(crate) fn insert(&mut self, pick: Added<'a>) {
        if self.capacity == Some(0) {
            return;
        }
        if self.state.get(pick.key).is_some() {
            // Stored since the serve's hits were read: the insert
            // replaces it.
            self.overlay.hidden.insert(pick.key.clone());
        }
        self.overlay.added.push(pick);
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.state.len() - self.overlay.hidden.len() + self.overlay.added.len() > capacity {
            let hidden = &self.overlay.hidden;
            match self.state.lru(|key| hidden.contains(key)) {
                Some(victim) => {
                    self.overlay.hidden.insert(victim);
                }
                None => {
                    self.overlay.added.remove(0);
                }
            }
        }
    }
}

impl Clone for PulseLibrary {
    /// Clones contents and index; the serving counters start fresh, the
    /// recency clock continues from the source's stamp, and the clone
    /// carries **no** journal — two writers on one write-ahead log
    /// would interleave inconsistently, so only the original session
    /// persists.
    fn clone(&self) -> Self {
        let cloned_state = self.lock().clone();
        Self {
            state: Mutex::new(cloned_state),
            capacity: self.capacity,
            stats: StatsCells::default(),
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            journal: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};

    fn rz(theta: f64) -> Mat {
        circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, theta)]))
    }

    fn entry(latency: f64) -> CachedPulse {
        CachedPulse {
            pulse: Pulse::zeros(2, 4, 1.0),
            latency_ns: latency,
            iterations: 5,
            n_qubits: 1,
        }
    }

    fn key_of(u: &Mat) -> UnitaryKey {
        UnitaryKey::canonical(u, 1)
    }

    #[test]
    fn nearest_prefers_the_closest_unitary() {
        let lib = PulseLibrary::new();
        for k in 1..=5 {
            let u = rz(0.4 * k as f64);
            lib.insert(key_of(&u), entry(k as f64), Some(&u));
        }
        let query = rz(0.83); // closest to rz(0.8), k = 2
        let hit = lib
            .nearest(&query, 1, 4, SimilarityFn::TraceOverlap)
            .expect("non-empty library");
        assert_eq!(hit.key, key_of(&rz(0.8)));
        assert!(hit.distance < 0.01);
        assert_eq!(hit.pulse.n_steps(), 4);
    }

    #[test]
    fn nearest_returns_after_an_entry_with_a_huge_cell() {
        // A 1e300 diagonal cell puts the entry's fingerprint bucket at
        // i64::MAX, so a walk that steps one bucket at a time toward it
        // does not end. With fewer same-width entries than k the walk
        // visits every occupied bucket.
        let lib = PulseLibrary::new();
        let mut huge = Mat::identity(2);
        huge[(0, 0)] = accqoc_linalg::C64::new(1e300, 0.0);
        lib.insert(key_of(&huge), entry(1.0), Some(&huge));
        let u = rz(0.5);
        lib.insert(key_of(&u), entry(2.0), Some(&u));
        assert!(lib
            .nearest(&Mat::identity(2), 1, 4, SimilarityFn::TraceOverlap)
            .is_some());
    }

    #[test]
    fn nearest_on_empty_or_cross_dimension_is_none() {
        let lib = PulseLibrary::new();
        assert!(lib
            .nearest(&rz(0.5), 1, 4, SimilarityFn::TraceOverlap)
            .is_none());
        let u = rz(0.5);
        lib.insert(key_of(&u), entry(1.0), Some(&u));
        assert!(lib
            .nearest(&Mat::identity(4), 2, 4, SimilarityFn::TraceOverlap)
            .is_none());
    }

    #[test]
    fn unindexed_merges_serve_hits_but_not_neighbors() {
        let lib = PulseLibrary::new();
        let u = rz(0.7);
        let mut cache = PulseCache::new();
        cache.insert(key_of(&u), entry(3.0));
        lib.merge(cache);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.indexed_len(), 0);
        assert!(lib.contains(&key_of(&u)));
        assert!(lib
            .nearest(&rz(0.69), 1, 4, SimilarityFn::TraceOverlap)
            .is_none());
        // Re-inserting with the unitary indexes it; a later un-indexed
        // insert of the key leaves that index entry in place.
        lib.insert(key_of(&u), entry(3.0), Some(&u));
        lib.insert(key_of(&u), entry(4.0), None);
        assert_eq!(lib.indexed_len(), 1);
        assert!(lib
            .nearest(&rz(0.69), 1, 4, SimilarityFn::TraceOverlap)
            .is_some());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let lib = PulseLibrary::with_capacity(Some(2));
        let (a, b, c) = (rz(0.2), rz(0.9), rz(1.6));
        lib.insert(key_of(&a), entry(1.0), Some(&a));
        lib.insert(key_of(&b), entry(2.0), Some(&b));
        // Touch `a` so `b` is the LRU victim.
        lib.touch(&key_of(&a));
        lib.insert(key_of(&c), entry(3.0), Some(&c));
        assert_eq!(lib.len(), 2);
        assert!(lib.contains(&key_of(&a)));
        assert!(!lib.contains(&key_of(&b)), "LRU entry must be evicted");
        assert!(lib.contains(&key_of(&c)));
        assert_eq!(lib.stats().evictions, 1);
        assert_eq!(lib.indexed_len(), 2);
    }

    #[test]
    fn pages_are_slices_of_the_sorted_snapshot() {
        let lib = PulseLibrary::new();
        for k in 0..7 {
            let u = rz(0.3 + 0.37 * k as f64);
            lib.insert(key_of(&u), entry(k as f64), (k % 2 == 0).then_some(&u));
        }
        // What a page was before it had its own method: the whole
        // snapshot, sorted by key, then cut.
        let snapshot = lib.snapshot();
        let mut sorted: Vec<(&UnitaryKey, &CachedPulse)> = snapshot.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        for offset in 0..9 {
            for limit in 0..9 {
                let (total, rows) = lib.page(offset, limit, |key, e| (key.clone(), e.clone()));
                let want: Vec<(UnitaryKey, CachedPulse)> = sorted
                    .iter()
                    .skip(offset)
                    .take(limit)
                    .map(|(k, e)| ((*k).clone(), (*e).clone()))
                    .collect();
                assert_eq!(total, 7);
                assert_eq!(rows, want, "offset {offset}, limit {limit}");
            }
        }
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let lib = PulseLibrary::with_capacity(Some(0));
        let u = rz(0.3);
        lib.insert(key_of(&u), entry(1.0), Some(&u));
        lib.insert(key_of(&rz(0.6)), entry(2.0), None);
        assert!(lib.is_empty());
        assert_eq!(lib.indexed_len(), 0);
        assert!(lib.nearest(&u, 1, 4, SimilarityFn::TraceOverlap).is_none());
    }

    #[test]
    fn clone_preserves_entries_and_resets_stats() {
        let lib = PulseLibrary::new();
        let u = rz(0.5);
        lib.insert(key_of(&u), entry(1.0), Some(&u));
        lib.record_hit();
        lib.record_compile(true, 10);
        let cloned = lib.clone();
        assert_eq!(cloned.len(), 1);
        assert_eq!(cloned.indexed_len(), 1);
        assert_eq!(cloned.stats(), LibraryStats::default());
        assert_eq!(lib.stats().hits, 1);
        assert_eq!(lib.stats().warm_compiles, 1);
        assert_eq!(lib.stats().warm_iterations, 10);
    }

    #[test]
    fn stats_means_and_rates() {
        let s = LibraryStats {
            hits: 3,
            misses: 1,
            warm_compiles: 1,
            scratch_compiles: 0,
            warm_iterations: 40,
            scratch_iterations: 0,
            evictions: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.warm_share() - 1.0).abs() < 1e-12);
        assert_eq!(s.mean_warm_iterations(), 40.0);
        assert_eq!(s.mean_scratch_iterations(), 0.0);
        assert_eq!(LibraryStats::default().hit_rate(), 1.0);
        assert_eq!(LibraryStats::default().warm_share(), 0.0);
    }
}
