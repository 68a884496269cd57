//! Consistent-hash sharding of the pulse library across worker
//! processes.
//!
//! The paper's §V amortization argument scales horizontally by
//! partitioning the library: N `accqoc-server` workers each own a
//! durable store (`--data-dir` per shard), and a router forwards every
//! call to the shard that owns the groups it touches. Two properties
//! make that partition *transparent* — a sharded deployment serves
//! byte-identical pulses to a single-process [`Session`]:
//!
//! 1. **The routing key is the dimension class** (`n_qubits`), the
//!    width component of the [`UnitaryFingerprint`] bucket key. Warm
//!    starts are strictly width-local — [`UnitaryFingerprint::distance`]
//!    is infinite across widths, and candidate retrieval never crosses a
//!    width boundary — so the per-width serving state (exact hits, warm
//!    chains, hub picks) is closed under this partition. Routing on the
//!    *trace* component of the bucket key would not be: adjacent UCCSD
//!    θ-steps drift across trace-cell edges while staying inside the
//!    warm threshold, so a trace-bucket split severs warm chains and
//!    changes the served bytes. The dimension class is the finest
//!    statically warm-closed partition.
//! 2. **Routing is a pure function of the key and the shard count.**
//!    [`ShardRing`] places a fixed number of virtual nodes per shard at
//!    positions that depend only on `(shard, vnode)` — never on the
//!    total shard count — so resizing N→N+1 can only re-home keys onto
//!    the *new* shard (the minimal-movement invariant holds by
//!    construction), and every process that builds a ring with the same
//!    shard count routes identically, across restarts and hosts.
//!
//! Rebalancing ([`rebalance`]) re-homes whole dimension classes for a
//! ring resize. It deliberately reuses the durable tier's replay path:
//! sources are read through the same snapshot+WAL recovery as a daemon
//! restart, destinations are written through the same atomic snapshot
//! pair as a checkpoint, and additions land before prunes so a crash at
//! any point leaves every entry present somewhere and a re-run
//! converges.
//!
//! [`Session`]: crate::Session
//! [`UnitaryFingerprint`]: crate::UnitaryFingerprint
//! [`UnitaryFingerprint::distance`]: crate::UnitaryFingerprint::distance

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use accqoc_circuit::UnitaryKey;
use accqoc_store::{move_store_dir, shard_dir};

use crate::cache::StoredEntry;
use crate::error::{Error, Result};
use crate::library::UnitaryFingerprint;
use crate::persist::{self, PersistOptions};

/// Virtual nodes per shard. 64 keeps ring construction and routing
/// cheap while holding the arc-ownership imbalance (max/min share)
/// under 1.14 for 2–8 shards with the tuned placement salt.
pub const DEFAULT_VNODES: usize = 64;

/// Placement salt for virtual-node positions, tuned offline so the
/// 64-vnode ring's per-shard arc ownership stays within max/min ≤ 1.14
/// for every shard count from 2 to 8 (the proptests gate ≤ 1.3, leaving
/// headroom for finite key populations).
const POINT_SALT: u64 = 0x8a92_2665_5a5e_b628;

/// Salt separating the key-hash domain from the point-hash domain.
const KEY_SALT: u64 = 0x517c_c1b7_2722_0a95;

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixing function.
/// Purely deterministic — ring placement and routing must agree across
/// processes, restarts, and hosts.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The unit of shard ownership: one dimension class of the library.
///
/// Serving state is closed under width (see the module docs), so the
/// dimension class is the finest key that keeps a sharded deployment
/// byte-identical to a single process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey(u64);

impl ShardKey {
    /// The shard key of every group with this many qubits.
    pub fn dimension_class(n_qubits: usize) -> Self {
        ShardKey(n_qubits as u64)
    }

    /// The shard key a fingerprint routes by: its width class (the
    /// warm-closed component of the fingerprint's bucket key).
    pub fn of_fingerprint(fingerprint: &UnitaryFingerprint) -> Self {
        Self::dimension_class(fingerprint.n_qubits())
    }

    /// The raw key value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A consistent-hash ring over `shards` workers with a fixed number of
/// virtual nodes per shard.
///
/// Ring positions depend only on `(shard, vnode)`, so growing the ring
/// adds points without moving existing ones: a key's owner either stays
/// put or becomes the new shard — never a third party.
///
/// # Examples
///
/// ```
/// use accqoc::shard::{ShardKey, ShardRing};
///
/// let ring = ShardRing::new(3);
/// let owner = ring.route(ShardKey::dimension_class(2));
/// assert!(owner < 3);
/// // Deterministic: every process with the same shard count agrees.
/// assert_eq!(owner, ShardRing::new(3).route(ShardKey::dimension_class(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRing {
    shards: usize,
    vnodes: usize,
    /// `(position, shard)` sorted by position (then shard, which breaks
    /// the astronomically unlikely position collision deterministically).
    points: Vec<(u64, usize)>,
}

impl ShardRing {
    /// A ring over `shards` workers with [`DEFAULT_VNODES`] virtual
    /// nodes each.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero (a ring with no owners cannot route).
    pub fn new(shards: usize) -> Self {
        Self::with_vnodes(shards, DEFAULT_VNODES)
    }

    /// A ring with an explicit virtual-node count (tests tune this;
    /// deployments should use [`ShardRing::new`]).
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `vnodes` is zero.
    pub fn with_vnodes(shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "a shard ring needs at least one shard");
        assert!(
            vnodes > 0,
            "a shard ring needs at least one vnode per shard"
        );
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let position = mix64(POINT_SALT ^ ((shard as u64) << 32) ^ vnode as u64);
                points.push((position, shard));
            }
        }
        points.sort_unstable();
        Self {
            shards,
            vnodes,
            points,
        }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The shard owning `key`: the successor virtual node of the key's
    /// ring position, wrapping at the top.
    pub fn route(&self, key: ShardKey) -> usize {
        let position = mix64(KEY_SALT ^ key.0);
        let i = self.points.partition_point(|&(p, _)| p < position);
        let i = if i == self.points.len() { 0 } else { i };
        self.points[i].1
    }

    /// Exact fraction of the key space each shard owns (arc lengths over
    /// the full `u64` ring — the infinite-key-population load). The
    /// balance proptests gate `max/min` of these shares.
    pub fn ownership_shares(&self) -> Vec<f64> {
        let mut share = vec![0u128; self.shards];
        for i in 0..self.points.len() {
            let prev = if i == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[i - 1].0
            };
            let arc = self.points[i].0.wrapping_sub(prev) as u128;
            share[self.points[i].1] += arc;
        }
        let total = (u64::MAX as u128) + 1;
        share.into_iter().map(|s| s as f64 / total as f64).collect()
    }
}

/// One re-homed dimension class in a resize plan: `entries` cached
/// pulses of width `n_qubits` move from shard `from` to shard `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Width of the dimension class that moves.
    pub n_qubits: usize,
    /// Owning shard under the old ring.
    pub from: usize,
    /// Owning shard under the new ring.
    pub to: usize,
    /// Number of cached entries in the class (1 per key when planning
    /// from a key list; the store's entry count when planning from disk).
    pub entries: usize,
}

/// The deterministic migration plan for a ring resize: which dimension
/// classes change owner, sorted by width. Classes whose owner is stable
/// are omitted.
pub fn plan_resize(old: &ShardRing, new: &ShardRing, classes: &[usize]) -> Vec<ShardMove> {
    let mut counts: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    for &n_qubits in classes {
        let key = ShardKey::dimension_class(n_qubits);
        let (from, to) = (old.route(key), new.route(key));
        if from != to {
            *counts.entry((n_qubits, from, to)).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .map(|((n_qubits, from, to), entries)| ShardMove {
            n_qubits,
            from,
            to,
            entries,
        })
        .collect()
}

/// What [`rebalance`] did: the executed plan plus which stores it
/// rewrote, left untouched, or retired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Shard count before the resize.
    pub from_shards: usize,
    /// Shard count after the resize.
    pub to_shards: usize,
    /// The executed migration plan (entry counts are store entries).
    pub moves: Vec<ShardMove>,
    /// Cached entries across all source stores.
    pub entries_total: usize,
    /// Entries that changed owner.
    pub entries_moved: usize,
    /// Shards whose store was rewritten (gained or lost entries).
    pub shards_rewritten: Vec<usize>,
    /// Shards whose store was left byte-untouched.
    pub shards_untouched: Vec<usize>,
    /// Shards removed by a shrink, their store directories moved
    /// wholesale to `shard-<i>.retired`.
    pub shards_retired: Vec<usize>,
}

/// One recovered shard store staged for rebalancing: its entries, in
/// sorted-key order, each with its canonical unitary when indexed.
struct ShardState {
    journal: persist::Journal,
    entries: Vec<StoredEntry>,
}

impl ShardState {
    fn open(dir: &Path) -> Result<Self> {
        let (journal, recovered) = persist::open(&PersistOptions::new(dir))?;
        Ok(Self {
            journal,
            entries: recovered.entries,
        })
    }

    /// Snapshots `entries` (unitaries included, so the store re-indexes
    /// on recovery) as this shard's new durable state — the same atomic
    /// snapshot write a checkpoint performs, so recovery semantics are
    /// identical.
    fn write(&self, entries: &[&StoredEntry]) -> Result<()> {
        // Keyed: sorted, and a key a re-run finds on both sides of a
        // move is written once (the incoming entry, listed later, wins).
        let keyed: BTreeMap<&UnitaryKey, &StoredEntry> =
            entries.iter().map(|&entry| (&entry.0, entry)).collect();
        let artifact =
            persist::library_json(keyed.into_values().map(|(k, e, u)| (k, e, u.as_ref())));
        self.journal.snapshot(&artifact).map_err(Error::Store)
    }
}

/// Executes a ring resize `from_shards` → `to_shards` over the shard
/// stores under `base` (laid out as `base/shard-<i>`, the
/// [`accqoc_store::shard_dir`] convention).
///
/// Every source store is read through the recovery replay path (snapshot
/// plus WAL, torn tails truncated), entries are re-homed by the *new*
/// ring's routing, and changed stores are rewritten as atomic snapshot
/// pairs. Crash safety comes from ordering, not locks: destinations are
/// written (entries *added*) before any source is pruned, so an
/// interrupted run leaves every entry present in at least one store and
/// re-running the same resize converges. Stores that neither gain nor
/// lose entries are left byte-untouched; shards removed by a shrink are
/// retired by moving their directory wholesale to `shard-<i>.retired`
/// after their entries have been re-homed.
///
/// The shards must be **stopped**: the durable tier is single-writer per
/// directory.
///
/// # Errors
///
/// [`Error::InvalidConfig`] on a zero shard count,
/// [`Error::Store`]/[`Error::Json`] when a store fails to recover or
/// rewrite.
pub fn rebalance(base: &Path, from_shards: usize, to_shards: usize) -> Result<RebalanceReport> {
    rebalance_with_vnodes(base, from_shards, to_shards, DEFAULT_VNODES)
}

/// [`rebalance`] with an explicit virtual-node count, for deployments
/// running a non-default ring (every process must agree on it).
///
/// # Errors
///
/// See [`rebalance`].
pub fn rebalance_with_vnodes(
    base: &Path,
    from_shards: usize,
    to_shards: usize,
    vnodes: usize,
) -> Result<RebalanceReport> {
    if from_shards == 0 || to_shards == 0 {
        return Err(Error::InvalidConfig {
            message: "rebalance needs at least one source and one destination shard".into(),
        });
    }
    // Entries are routed by the *new* ring only: the plan is derived
    // from what each store actually holds, so an interrupted run (or a
    // store that never matched the old ring) still converges.
    let new_ring = ShardRing::with_vnodes(to_shards, vnodes);

    // Read every source store through the recovery replay path. Opening
    // a destination-only directory (a grow) cold-starts it empty.
    let total_dirs = from_shards.max(to_shards);
    let mut states: Vec<ShardState> = Vec::with_capacity(total_dirs);
    for shard in 0..total_dirs {
        states.push(ShardState::open(&shard_dir(base, shard))?);
    }

    // Route every entry by the new ring; collect the executed plan.
    let mut destination: Vec<Vec<usize>> = (0..total_dirs)
        .map(|shard| states[shard].entries.iter().map(|_| shard).collect())
        .collect();
    let mut moves: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    let mut entries_total = 0usize;
    let mut entries_moved = 0usize;
    for shard in 0..total_dirs {
        for (slot, (_, entry, _)) in states[shard].entries.iter().enumerate() {
            entries_total += 1;
            let owner = new_ring.route(ShardKey::dimension_class(entry.n_qubits));
            if owner != shard {
                destination[shard][slot] = owner;
                entries_moved += 1;
                *moves.entry((entry.n_qubits, shard, owner)).or_default() += 1;
            }
        }
    }

    // Final membership per shard: retained entries plus incoming ones,
    // in deterministic (source shard, key) order.
    let mut final_entries: Vec<Vec<(usize, usize)>> = vec![Vec::new(); total_dirs];
    for shard in 0..total_dirs {
        for slot in 0..states[shard].entries.len() {
            final_entries[destination[shard][slot]].push((shard, slot));
        }
    }

    let gained: Vec<bool> = (0..total_dirs)
        .map(|shard| {
            final_entries[shard]
                .iter()
                .any(|&(source, _)| source != shard)
        })
        .collect();
    let lost: Vec<bool> = (0..total_dirs)
        .map(|shard| destination[shard].iter().any(|&owner| owner != shard))
        .collect();

    // Pass 1 — additions: every shard that gains entries is rewritten
    // with its original membership *plus* the incoming entries (their
    // unitaries ride along, so the destination re-indexes). No source
    // has been pruned yet, so a crash here only duplicates.
    for shard in 0..total_dirs {
        if !gained[shard] {
            continue;
        }
        let mut with_incoming: Vec<&StoredEntry> = states[shard].entries.iter().collect();
        with_incoming.extend(
            final_entries[shard]
                .iter()
                .filter(|&&(source, _)| source != shard)
                .map(|&(source, slot)| &states[source].entries[slot]),
        );
        states[shard].write(&with_incoming)?;
    }

    // Pass 2 — prunes: every shard that lost entries is rewritten with
    // its final membership only.
    for shard in 0..total_dirs {
        if !lost[shard] {
            continue;
        }
        let membership: Vec<&StoredEntry> = final_entries[shard]
            .iter()
            .map(|&(source, slot)| &states[source].entries[slot])
            .collect();
        states[shard].write(&membership)?;
    }

    let gained_or_lost: Vec<bool> = (0..total_dirs)
        .map(|shard| gained[shard] || lost[shard])
        .collect();
    // Close every WAL handle before moving directories wholesale.
    drop(states);

    // Retire shrunk-away stores wholesale (their entries now live on
    // surviving shards). A stale `.retired` from a previous run of the
    // same resize is replaced.
    let mut shards_retired = Vec::new();
    for shard in to_shards..from_shards {
        let live = shard_dir(base, shard);
        let retired = PathBuf::from(format!("{}.retired", live.display()));
        if retired.exists() {
            std::fs::remove_dir_all(&retired)?;
        }
        move_store_dir(&live, &retired).map_err(Error::Store)?;
        shards_retired.push(shard);
    }

    let mut shards_rewritten = Vec::new();
    let mut shards_untouched = Vec::new();
    for (shard, &rewritten) in gained_or_lost.iter().enumerate() {
        if shards_retired.contains(&shard) {
            continue;
        }
        if rewritten {
            shards_rewritten.push(shard);
        } else {
            shards_untouched.push(shard);
        }
    }

    Ok(RebalanceReport {
        from_shards,
        to_shards,
        moves: moves
            .into_iter()
            .map(|((n_qubits, from, to), entries)| ShardMove {
                n_qubits,
                from,
                to,
                entries,
            })
            .collect(),
        entries_total,
        entries_moved,
        shards_rewritten,
        shards_untouched,
        shards_retired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CachedPulse, PulseCache};
    use accqoc_grape::Pulse;
    use accqoc_linalg::Mat;

    fn routes(shards: usize) -> Vec<usize> {
        let ring = ShardRing::new(shards);
        (1..=8)
            .map(|n| ring.route(ShardKey::dimension_class(n)))
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_pinned() {
        // Pinned goldens: any change to the hash, salt, or vnode layout
        // re-homes persisted shards and must be a deliberate migration.
        assert_eq!(routes(1), vec![0; 8]);
        assert_eq!(routes(2), vec![0, 0, 1, 1, 0, 1, 1, 0]);
        assert_eq!(routes(3), vec![0, 2, 1, 2, 0, 1, 2, 0]);
        assert_eq!(routes(4), vec![0, 2, 3, 3, 0, 1, 2, 0]);
        // Rebuilding the ring routes identically (restart determinism).
        assert_eq!(routes(3), routes(3));
    }

    #[test]
    fn fingerprint_key_is_the_dimension_class() {
        let fp = UnitaryFingerprint::of(&Mat::identity(4), 2);
        assert_eq!(ShardKey::of_fingerprint(&fp), ShardKey::dimension_class(2));
        assert_eq!(ShardKey::dimension_class(2).raw(), 2);
    }

    #[test]
    fn growing_the_ring_moves_keys_only_onto_the_new_shard() {
        for shards in 1..=7usize {
            let old = ShardRing::new(shards);
            let new = ShardRing::new(shards + 1);
            for class in 0..512usize {
                let key = ShardKey::dimension_class(class);
                let (before, after) = (old.route(key), new.route(key));
                assert!(
                    before == after || after == shards,
                    "class {class} moved {before}->{after} on {shards}->{} resize",
                    shards + 1
                );
            }
        }
    }

    #[test]
    fn ownership_shares_stay_balanced() {
        for shards in 2..=8usize {
            let shares = ShardRing::new(shards).ownership_shares();
            let sum: f64 = shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "shares sum to 1, got {sum}");
            let max = shares.iter().cloned().fold(0.0f64, f64::max);
            let min = shares.iter().cloned().fold(1.0f64, f64::min);
            assert!(
                max / min <= 1.3,
                "{shards} shards: max/min arc share {:.4} exceeds 1.3",
                max / min
            );
        }
    }

    #[test]
    fn plan_resize_reports_only_changed_classes_sorted() {
        let old = ShardRing::new(2);
        let new = ShardRing::new(3);
        let plan = plan_resize(&old, &new, &[1, 2, 2, 3, 4]);
        // From the pinned routes: class 2 moves 0->2, class 4 moves 1->2;
        // classes 1 and 3 keep their owner.
        assert_eq!(
            plan,
            vec![
                ShardMove {
                    n_qubits: 2,
                    from: 0,
                    to: 2,
                    entries: 2,
                },
                ShardMove {
                    n_qubits: 4,
                    from: 1,
                    to: 2,
                    entries: 1,
                },
            ]
        );
        assert!(plan_resize(&old, &old, &[1, 2, 3, 4]).is_empty());
    }

    fn entry(n_qubits: usize, latency_ns: f64) -> CachedPulse {
        CachedPulse {
            pulse: Pulse::zeros(2 * n_qubits, 4, 1.0),
            latency_ns,
            iterations: 9,
            n_qubits,
        }
    }

    fn key(tag: u8) -> UnitaryKey {
        UnitaryKey::from_bytes(vec![tag; 4])
    }

    /// Seeds `base/shard-<i>` stores with `widths` routed by an
    /// N-shard ring, returning the seeded (key, entry) pairs.
    fn seed_stores(base: &Path, shards: usize, widths: &[usize]) -> Vec<(UnitaryKey, CachedPulse)> {
        let ring = ShardRing::new(shards);
        let mut caches: Vec<PulseCache> = (0..shards).map(|_| PulseCache::new()).collect();
        let mut seeded = Vec::new();
        for (tag, &width) in widths.iter().enumerate() {
            let owner = ring.route(ShardKey::dimension_class(width));
            let (k, e) = (key(tag as u8 + 1), entry(width, 10.0 + tag as f64));
            caches[owner].insert(k.clone(), e.clone());
            seeded.push((k, e));
        }
        for (shard, cache) in caches.iter().enumerate() {
            let (journal, _) = persist::open(&PersistOptions::new(shard_dir(base, shard)))
                .expect("open shard store");
            let mut entries: Vec<StoredEntry> = cache
                .iter()
                .map(|(k, e)| (k.clone(), e.clone(), Some(Mat::identity(1 << e.n_qubits))))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let artifact =
                persist::library_json(entries.iter().map(|(k, e, u)| (k, e, u.as_ref())));
            journal.snapshot(&artifact).expect("seed snapshot");
        }
        seeded
    }

    /// A shard store's recovered entries and how many carry a unitary.
    fn recovered_entries(base: &Path, shard: usize) -> (PulseCache, usize) {
        let (_, recovered) = persist::open(&PersistOptions::new(shard_dir(base, shard)))
            .expect("reopen shard store");
        let mut cache = PulseCache::new();
        for (key, entry, _) in recovered.entries {
            cache.insert(key, entry);
        }
        (cache, recovered.report.indexed)
    }

    fn test_base(name: &str) -> PathBuf {
        let base = std::env::temp_dir().join(format!("accqoc_shard_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        base
    }

    #[test]
    fn rebalance_grow_re_homes_classes_and_preserves_bytes() {
        let base = test_base("grow");
        let seeded = seed_stores(&base, 2, &[1, 2, 2, 3, 4]);
        let report = rebalance(&base, 2, 3).expect("rebalance");
        assert_eq!((report.from_shards, report.to_shards), (2, 3));
        assert_eq!(report.entries_total, 5);
        // Classes 2 (two entries) and 4 move onto the new shard 2.
        assert_eq!(report.entries_moved, 3);
        assert!(
            report.moves.iter().all(|m| m.to == 2),
            "grow moves land only on the new shard: {:?}",
            report.moves
        );
        assert!(report.shards_retired.is_empty());

        // Every entry now lives exactly on its new-ring owner, byte-equal.
        let ring = ShardRing::new(3);
        let stores: Vec<(PulseCache, usize)> =
            (0..3).map(|s| recovered_entries(&base, s)).collect();
        for (k, e) in &seeded {
            let owner = ring.route(ShardKey::dimension_class(e.n_qubits));
            for (shard, (cache, _)) in stores.iter().enumerate() {
                if shard == owner {
                    assert_eq!(cache.lookup(k), Some(e), "entry intact on its owner");
                } else {
                    assert!(!cache.contains(k), "entry pruned from shard {shard}");
                }
            }
        }
        // Indexed unitaries traveled with their entries.
        let total_indexed: usize = stores.iter().map(|(_, n)| n).sum();
        assert_eq!(total_indexed, seeded.len());
        // Re-running the same resize converges to a no-op plan.
        let again = rebalance(&base, 2, 3).expect("idempotent re-run");
        assert_eq!(again.entries_moved, 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn rebalance_leaves_stable_stores_byte_untouched() {
        let base = test_base("untouched");
        // Widths 1, 5, 8 are owned by shard 0 under both 3- and 4-shard
        // rings (pinned above), so nothing moves.
        seed_stores(&base, 3, &[1, 5, 8]);
        let before = accqoc_store::read_file(&shard_dir(&base, 0).join("snapshot.json"))
            .expect("seeded snapshot");
        let report = rebalance(&base, 3, 4).expect("rebalance");
        assert_eq!(report.entries_moved, 0);
        assert!(report.moves.is_empty());
        assert_eq!(report.shards_rewritten, Vec::<usize>::new());
        assert_eq!(report.shards_untouched, vec![0, 1, 2, 3]);
        let after = accqoc_store::read_file(&shard_dir(&base, 0).join("snapshot.json"))
            .expect("snapshot still present");
        assert_eq!(before, after, "stable store is byte-untouched");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn rebalance_shrink_retires_the_removed_shard_wholesale() {
        let base = test_base("shrink");
        let seeded = seed_stores(&base, 3, &[1, 2, 3, 4]);
        let report = rebalance(&base, 3, 2).expect("rebalance");
        assert_eq!(report.shards_retired, vec![2]);
        assert!(!shard_dir(&base, 2).exists(), "removed shard dir is gone");
        assert!(
            PathBuf::from(format!("{}.retired", shard_dir(&base, 2).display())).exists(),
            "retired store is preserved wholesale"
        );
        // All entries live on the surviving shards per the 2-shard ring.
        let ring = ShardRing::new(2);
        let stores: Vec<(PulseCache, usize)> =
            (0..2).map(|s| recovered_entries(&base, s)).collect();
        for (k, e) in &seeded {
            let owner = ring.route(ShardKey::dimension_class(e.n_qubits));
            assert_eq!(stores[owner].0.lookup(k), Some(e));
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn rebalance_rejects_zero_shard_counts() {
        let base = test_base("zero");
        assert!(matches!(
            rebalance(&base, 0, 2),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            rebalance(&base, 2, 0),
            Err(Error::InvalidConfig { .. })
        ));
        let _ = std::fs::remove_dir_all(&base);
    }
}
