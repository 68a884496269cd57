//! In-flight compile coalescing: two clients asking for the same group
//! trigger one GRAPE run.
//!
//! The serving path is idempotent per group — whoever compiles a group
//! first publishes it into the shared [`PulseLibrary`], and every later
//! request is an exact-key hit. What the library cannot prevent on its
//! own is the *concurrent* case: two workers both miss on the same key
//! and both pay the (seconds-long) GRAPE compile. [`InflightGroups`]
//! closes that window. Before serving a program, a worker claims every
//! group key the program still misses; a key already claimed by another
//! worker makes the claimant wait until the owner releases (by which
//! time the key is in the library and resolves as a hit).
//!
//! Claims are all-or-nothing under one mutex: a worker never holds a
//! partial claim while waiting, so overlapping programs cannot deadlock,
//! and programs with disjoint group sets claim and compile fully in
//! parallel.
//!
//! With the default **unbounded** library the coalescing guarantee is
//! exact: a key present at claim time stays present, so every group is
//! compiled at most once. With a capacity-bounded library it is
//! best-effort — a key the claim check saw as present can be evicted
//! before the serve reads it, in which case the serve recompiles it
//! without holding a claim and a concurrent request may duplicate that
//! one compile. Duplicates are idempotent (last insert wins on the same
//! canonical key), just wasted work; bound the library only when
//! eviction pressure is worth that trade.
//!
//! [`PulseLibrary`]: accqoc::PulseLibrary

use std::collections::HashSet;
use std::sync::{Condvar, Mutex, MutexGuard};

use accqoc_circuit::UnitaryKey;

/// The set of group keys currently being compiled by some worker.
#[derive(Debug, Default)]
pub struct InflightGroups {
    claimed: Mutex<HashSet<UnitaryKey>>,
    released: Condvar,
}

/// A claim over a set of group keys; releasing (on drop) wakes every
/// waiting worker.
#[derive(Debug)]
pub struct GroupClaim<'a> {
    table: &'a InflightGroups,
    keys: Vec<UnitaryKey>,
    waited: bool,
}

impl GroupClaim<'_> {
    /// `true` when the claimant had to wait for another worker's
    /// in-flight compile of a shared group (the coalesced case).
    pub fn waited(&self) -> bool {
        self.waited
    }

    /// Keys this claim holds (the groups the claimant will compile).
    pub fn keys(&self) -> &[UnitaryKey] {
        &self.keys
    }
}

impl Drop for GroupClaim<'_> {
    fn drop(&mut self) {
        if self.keys.is_empty() {
            return;
        }
        let mut claimed = self.table.lock();
        for key in &self.keys {
            claimed.remove(key);
        }
        drop(claimed);
        self.table.released.notify_all();
    }
}

impl InflightGroups {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashSet<UnitaryKey>> {
        self.claimed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claims every key of `wanted` that `missing` still reports absent
    /// (callers pass a library-containment probe). Blocks while any
    /// still-missing key is claimed by another worker; by the time this
    /// returns, every wanted key is either claimed by the caller or
    /// published (no longer missing).
    ///
    /// `missing` is re-evaluated after each wake-up, so keys another
    /// worker published while we waited are not claimed (they will
    /// resolve as library hits).
    pub fn claim<'a>(
        &'a self,
        wanted: &[UnitaryKey],
        missing: impl Fn(&UnitaryKey) -> bool,
    ) -> GroupClaim<'a> {
        let mut waited = false;
        let mut claimed = self.lock();
        loop {
            let need: Vec<&UnitaryKey> = wanted.iter().filter(|k| missing(k)).collect();
            if need.iter().any(|k| claimed.contains(*k)) {
                waited = true;
                claimed = self
                    .released
                    .wait(claimed)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            let keys: Vec<UnitaryKey> = need.into_iter().cloned().collect();
            for key in &keys {
                claimed.insert(key.clone());
            }
            return GroupClaim {
                table: self,
                keys,
                waited,
            };
        }
    }

    /// Keys currently claimed (for observability/tests).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_linalg::Mat;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn key(n: u8) -> UnitaryKey {
        UnitaryKey::from_bytes(vec![n; 4])
    }

    #[test]
    fn claims_only_missing_keys() {
        let table = InflightGroups::new();
        let wanted = [key(1), key(2), key(3)];
        let claim = table.claim(&wanted, |k| *k != key(2));
        assert_eq!(claim.keys().len(), 2);
        assert!(!claim.waited());
        assert_eq!(table.len(), 2);
        drop(claim);
        assert!(table.is_empty());
    }

    #[test]
    fn second_claimant_waits_until_release_then_skips_published_keys() {
        let table = Arc::new(InflightGroups::new());
        let published = Arc::new(AtomicUsize::new(0));
        let wanted = [key(7)];

        let first = table.claim(&wanted, |_| true);
        assert_eq!(first.keys().len(), 1);

        let waiter = {
            let table = Arc::clone(&table);
            let published = Arc::clone(&published);
            std::thread::spawn(move || {
                // "Missing" until the first claimant publishes.
                let claim = table.claim(&[key(7)], |_| published.load(Ordering::SeqCst) == 0);
                (claim.waited(), claim.keys().len())
            })
        };
        // Let the waiter block, then publish and release.
        std::thread::sleep(std::time::Duration::from_millis(30));
        published.store(1, Ordering::SeqCst);
        drop(first);
        let (waited, n_claimed) = waiter.join().unwrap();
        assert!(waited, "second claimant must have waited");
        assert_eq!(n_claimed, 0, "published key is not re-claimed");
        assert!(table.is_empty());
    }

    #[test]
    fn a_claim_dropped_by_a_panicking_owner_wakes_the_waiter() {
        // The owner claims keys 1 and 2, publishes 1 and panics before
        // compiling 2. Unwinding drops its claim, which must wake the
        // waiter; the waiter then claims only what is still missing: 2,
        // and 3, which the owner never held.
        let table = Arc::new(InflightGroups::new());
        let published = Arc::new(AtomicUsize::new(0));
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let owner = {
            let (table, published) = (Arc::clone(&table), Arc::clone(&published));
            std::thread::spawn(move || {
                let _claim = table.claim(&[key(1), key(2)], |_| true);
                claimed_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                published.store(1, Ordering::SeqCst);
                panic!("compile failed while holding a claim");
            })
        };
        claimed_rx.recv().unwrap();
        let probes = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let (table, published) = (Arc::clone(&table), Arc::clone(&published));
            let probes = Arc::clone(&probes);
            std::thread::spawn(move || {
                let missing = |k: &UnitaryKey| {
                    probes.fetch_add(1, Ordering::SeqCst);
                    !(*k == key(1) && published.load(Ordering::SeqCst) == 1)
                };
                let claim = table.claim(&[key(1), key(2), key(3)], missing);
                (claim.waited(), claim.keys().to_vec())
            })
        };
        // The waiter probes its three keys under the table lock and then
        // waits on it, so the owner's release cannot come before the wait.
        while probes.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        go_tx.send(()).unwrap();
        assert!(owner.join().is_err(), "the owner panicked");
        let (waited, keys) = waiter.join().unwrap();
        assert!(waited, "the waiter was woken by the unwinding release");
        assert_eq!(keys, [key(2), key(3)], "only still-missing keys");
        assert!(table.is_empty());
    }

    #[test]
    fn disjoint_claims_do_not_interact() {
        let table = InflightGroups::new();
        let a = table.claim(&[key(1)], |_| true);
        let b = table.claim(&[key(2)], |_| true);
        assert!(!b.waited(), "disjoint key sets claim concurrently");
        assert_eq!(table.len(), 2);
        drop(a);
        drop(b);
    }

    #[test]
    fn keys_from_real_unitaries_coalesce_by_canonical_identity() {
        // Two requests for the same canonical unitary produce the same
        // key, so the table sees them as one group.
        let u = Mat::identity(2);
        let k1 = UnitaryKey::canonical(&u, 1);
        let k2 = UnitaryKey::canonical(&u, 1);
        let table = InflightGroups::new();
        let claim = table.claim(&[k1], |_| true);
        assert!(claim.keys().contains(&k2));
    }
}
