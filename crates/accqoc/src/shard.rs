//! Sharding of the pulse library across worker processes by group
//! width.
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
//! 2. **Routing is a pure function of the width and the shard count.**
//!    Width w belongs to shard `(w − 1) mod N` ([`shard_of`]), so every
//!    process with the same shard count routes identically, across
//!    restarts and hosts. The keyspace is at most
//!    [`MAX_MODEL_QUBITS`](crate::MAX_MODEL_QUBITS) integers, so the
//!    direct map is exact rather than statistically balanced: at N ≥ 2
//!    widths 1 and 2 — the only widths the golden and UCCSD streams
//!    use — always land on different shards.
//!
//! Rebalancing ([`rebalance`]) re-homes whole dimension classes for a
//! resize, or for stores written under another layout. It deliberately
//! reuses the durable tier's replay path: sources are read through the
//! same snapshot+WAL recovery as a daemon restart, destinations are
//! written through the same atomic snapshot pair as a checkpoint, and
//! additions land before prunes so a crash at any point leaves every
//! entry present somewhere and a re-run converges.
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
use crate::persist::{self, PersistOptions};

/// The shard owning groups of `n_qubits` qubits in a deployment of
/// `shards` workers: `(n_qubits − 1) mod shards` (width 0, which no
/// group has, maps to shard 0).
///
/// # Panics
///
/// Panics when `shards` is zero (no shard can own anything).
///
/// # Examples
///
/// ```
/// use accqoc::shard::shard_of;
///
/// // At two or more shards, widths 1 and 2 never share a shard.
/// assert_eq!((shard_of(1, 2), shard_of(2, 2)), (0, 1));
/// assert_eq!(shard_of(5, 3), 1);
/// ```
pub fn shard_of(n_qubits: usize, shards: usize) -> usize {
    assert!(shards > 0, "routing needs at least one shard");
    n_qubits.saturating_sub(1) % shards
}

/// One re-homed dimension class of a rebalance: `entries` cached pulses
/// of width `n_qubits` move from shard `from` to shard `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Width of the dimension class that moves.
    pub n_qubits: usize,
    /// Shard whose store held the class.
    pub from: usize,
    /// Owning shard under the new shard count.
    pub to: usize,
    /// Number of cached entries in the class.
    pub entries: usize,
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

/// Re-homes the shard stores under `base` (laid out as `base/shard-<i>`,
/// the [`accqoc_store::shard_dir`] convention) from `from_shards` stores
/// onto `to_shards` owners.
///
/// Every source store is read through the recovery replay path (snapshot
/// plus WAL, torn tails truncated), each entry is re-homed to its
/// [`shard_of`] owner under `to_shards`, and changed stores are
/// rewritten as atomic snapshot pairs. Crash safety comes from ordering,
/// not locks: destinations are written (entries *added*) before any
/// source is pruned, so an interrupted run leaves every entry present in
/// at least one store and re-running the same rebalance converges.
/// Stores that neither gain nor lose entries are left byte-untouched;
/// shards removed by a shrink are retired by moving their directory
/// wholesale to `shard-<i>.retired` after their entries have been
/// re-homed.
///
/// Ownership is derived from what each store holds, never from the
/// layout it was written under, so `rebalance(base, n, n)` migrates
/// stores written under any other width-to-shard layout onto the
/// current one.
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
    if from_shards == 0 || to_shards == 0 {
        return Err(Error::InvalidConfig {
            message: "rebalance needs at least one source and one destination shard".into(),
        });
    }

    // Read every source store through the recovery replay path. Opening
    // a destination-only directory (a grow) cold-starts it empty.
    let total_dirs = from_shards.max(to_shards);
    let mut states: Vec<ShardState> = Vec::with_capacity(total_dirs);
    for shard in 0..total_dirs {
        states.push(ShardState::open(&shard_dir(base, shard))?);
    }

    // Route every entry to its owner; collect the executed plan.
    let mut destination: Vec<Vec<usize>> = (0..total_dirs)
        .map(|shard| states[shard].entries.iter().map(|_| shard).collect())
        .collect();
    let mut moves: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    let mut entries_total = 0usize;
    let mut entries_moved = 0usize;
    for shard in 0..total_dirs {
        for (slot, (_, entry, _)) in states[shard].entries.iter().enumerate() {
            entries_total += 1;
            let owner = shard_of(entry.n_qubits, to_shards);
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
        (1..=8).map(|n| shard_of(n, shards)).collect()
    }

    #[test]
    fn routing_is_deterministic_and_pinned() {
        // Pinned goldens: any change to the map re-homes persisted
        // shards and must be a deliberate migration.
        assert_eq!(routes(1), vec![0; 8]);
        assert_eq!(routes(2), vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(routes(3), vec![0, 1, 2, 0, 1, 2, 0, 1]);
        assert_eq!(routes(4), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(shard_of(0, 3), 0, "width 0 falls on shard 0");
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

    /// Seeds `base/shard-<i>` stores (`shards` of them) with one entry
    /// per width in `widths`, each on the shard `place` picks for its
    /// width, returning the seeded (key, entry) pairs.
    fn seed_stores(
        base: &Path,
        shards: usize,
        widths: &[usize],
        place: impl Fn(usize) -> usize,
    ) -> Vec<(UnitaryKey, CachedPulse)> {
        let mut caches: Vec<PulseCache> = (0..shards).map(|_| PulseCache::new()).collect();
        let mut seeded = Vec::new();
        for (tag, &width) in widths.iter().enumerate() {
            let (k, e) = (key(tag as u8 + 1), entry(width, 10.0 + tag as f64));
            caches[place(width)].insert(k.clone(), e.clone());
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

    /// Asserts every seeded entry lives exactly on its owner among
    /// `shards` stores, byte-equal, and that every unitary is still
    /// indexed.
    fn assert_on_owners(base: &Path, shards: usize, seeded: &[(UnitaryKey, CachedPulse)]) {
        let stores: Vec<(PulseCache, usize)> =
            (0..shards).map(|s| recovered_entries(base, s)).collect();
        for (k, e) in seeded {
            let owner = shard_of(e.n_qubits, shards);
            for (shard, (cache, _)) in stores.iter().enumerate() {
                if shard == owner {
                    assert_eq!(cache.lookup(k), Some(e), "entry intact on its owner");
                } else {
                    assert!(!cache.contains(k), "entry pruned from shard {shard}");
                }
            }
        }
        let total_indexed: usize = stores.iter().map(|(_, n)| n).sum();
        assert_eq!(total_indexed, seeded.len(), "every unitary still indexed");
    }

    fn test_base(name: &str) -> PathBuf {
        let base = std::env::temp_dir().join(format!("accqoc_shard_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        base
    }

    #[test]
    fn rebalance_grow_re_homes_classes_and_preserves_bytes() {
        let base = test_base("grow");
        // At 2 → 3 shards widths 1 and 2 stay on shards 0 and 1; width 3
        // leaves shard 0 and width 6 leaves shard 1, both for the new
        // shard 2.
        let seeded = seed_stores(&base, 2, &[1, 2, 3, 3, 6], |w| shard_of(w, 2));
        let report = rebalance(&base, 2, 3).expect("rebalance");
        assert_eq!((report.from_shards, report.to_shards), (2, 3));
        assert_eq!(report.entries_total, 5);
        assert_eq!(report.entries_moved, 3);
        assert_eq!(
            report.moves,
            vec![
                ShardMove {
                    n_qubits: 3,
                    from: 0,
                    to: 2,
                    entries: 2,
                },
                ShardMove {
                    n_qubits: 6,
                    from: 1,
                    to: 2,
                    entries: 1,
                },
            ]
        );
        assert_eq!(report.shards_rewritten, vec![0, 1, 2]);
        assert!(report.shards_retired.is_empty());

        // Every entry now lives exactly on its owner, byte-equal, with
        // its unitary.
        assert_on_owners(&base, 3, &seeded);
        // Re-running the same resize converges to a no-op plan.
        let again = rebalance(&base, 2, 3).expect("idempotent re-run");
        assert_eq!(again.entries_moved, 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn rebalance_leaves_stable_stores_byte_untouched() {
        let base = test_base("untouched");
        // Widths 1, 2 and 3 are owned by shards 0, 1 and 2 under both the
        // 3- and 4-shard maps, so nothing moves.
        seed_stores(&base, 3, &[1, 2, 3], |w| shard_of(w, 3));
        let snapshot = |shard: usize| {
            accqoc_store::read_file(&shard_dir(&base, shard).join("snapshot.json"))
                .expect("snapshot present")
        };
        let before: Vec<Vec<u8>> = (0..3).map(snapshot).collect();
        let report = rebalance(&base, 3, 4).expect("rebalance");
        assert_eq!(report.entries_moved, 0);
        assert!(report.moves.is_empty());
        assert_eq!(report.shards_rewritten, Vec::<usize>::new());
        assert_eq!(report.shards_untouched, vec![0, 1, 2, 3]);
        let after: Vec<Vec<u8>> = (0..3).map(snapshot).collect();
        assert_eq!(before, after, "stable stores are byte-untouched");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn rebalance_shrink_retires_the_removed_shard_wholesale() {
        let base = test_base("shrink");
        let seeded = seed_stores(&base, 3, &[1, 2, 3, 4], |w| shard_of(w, 3));
        let report = rebalance(&base, 3, 2).expect("rebalance");
        assert_eq!(report.shards_retired, vec![2]);
        assert!(!shard_dir(&base, 2).exists(), "removed shard dir is gone");
        assert!(
            PathBuf::from(format!("{}.retired", shard_dir(&base, 2).display())).exists(),
            "retired store is preserved wholesale"
        );
        // All entries live on the surviving shards per the 2-shard map.
        assert_on_owners(&base, 2, &seeded);
        let again = rebalance(&base, 2, 2).expect("idempotent re-run");
        assert_eq!(again.entries_moved, 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn rebalance_in_place_migrates_stores_from_another_layout() {
        // Stores written under another width-to-shard layout: everything
        // on shard 0, and the 3-shard layout of the consistent-hash ring
        // this map replaced (widths 1..=8 on [0, 2, 1, 2, 0, 1, 2, 0]).
        // `rebalance(base, 3, 3)` moves every entry to its owner.
        let ring_layout = [0, 2, 1, 2, 0, 1, 2, 0];
        let layouts: [(&str, &dyn Fn(usize) -> usize); 2] = [
            ("all_on_zero", &|_| 0),
            ("old_ring", &|w| ring_layout[w - 1]),
        ];
        for (name, place) in layouts {
            let base = test_base(&format!("migrate_{name}"));
            let seeded = seed_stores(&base, 3, &[1, 1, 2, 2, 3, 4, 5, 6], place);
            let report = rebalance(&base, 3, 3).expect("migration");
            let misplaced = seeded
                .iter()
                .filter(|(_, e)| place(e.n_qubits) != shard_of(e.n_qubits, 3))
                .count();
            assert!(misplaced > 0, "{name}: the layouts differ");
            assert_eq!(report.entries_total, seeded.len(), "{name}");
            assert_eq!(report.entries_moved, misplaced, "{name}");
            assert!(report.shards_retired.is_empty(), "{name}");
            assert_on_owners(&base, 3, &seeded);
            // A second run finds every entry on its owner.
            let again = rebalance(&base, 3, 3).expect("idempotent re-run");
            assert_eq!(again.entries_moved, 0, "{name}");
            assert_eq!(again.shards_untouched, vec![0, 1, 2], "{name}");
            let _ = std::fs::remove_dir_all(&base);
        }
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
