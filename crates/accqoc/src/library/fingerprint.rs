//! Unitary fingerprints and the bucketed nearest-neighbor index.
//!
//! Exact similarity distances (paper §V-B) cost a full pass over two
//! `d×d` matrices — or, for the Uhlmann metric, several spectral
//! decompositions. The serving path cannot afford to score a query
//! against every cached unitary, so the library keeps a
//! [`UnitaryFingerprint`] per entry: a short, global-phase-invariant
//! feature vector built from the [`accqoc_linalg`] kernels
//! ([`trace_moments_abs`], [`diag_abs_profile`], [`row_peak_profile`]).
//! Fingerprints live in buckets keyed by qubit count and the quantized
//! leading feature, so candidate retrieval touches only a few buckets —
//! sublinear in the library size for any fixed bucket occupancy — and
//! the exact [`SimilarityFn`](crate::SimilarityFn) is evaluated on the
//! short candidate list only.

use std::collections::{BTreeMap, HashMap, HashSet};

use accqoc_circuit::UnitaryKey;
use accqoc_linalg::{diag_abs_profile, row_peak_profile, trace_moments_abs, Mat};

use crate::similarity::{SimilarityFn, SimilarityScratch};

/// Trace moments kept per fingerprint (`|Tr(Uᵏ)|/d`, k = 1..=3).
const N_MOMENTS: usize = 3;

/// Buckets per unit of the leading feature (`|Tr(U)|/d` ∈ [0, 1]).
const BUCKETS_PER_UNIT: f64 = 8.0;

/// A cheap, global-phase- and permutation-invariant descriptor of a
/// group unitary.
///
/// Features, in order: the normalized trace-moment magnitudes
/// `|Tr(Uᵏ)|/d` for `k = 1..=3`, the sorted diagonal magnitudes, and the
/// sorted row peak magnitudes. Two fingerprints of different qubit
/// counts are at infinite distance (a 1-qubit pulse cannot seed a
/// 2-qubit one — the same rule the exact similarity functions apply).
///
/// # Examples
///
/// ```
/// use accqoc::UnitaryFingerprint;
/// use accqoc_linalg::{C64, Mat};
///
/// let id = Mat::identity(4);
/// let fp = UnitaryFingerprint::of(&id, 2);
/// assert_eq!(fp.distance(&fp), 0.0);
/// // Global phase does not move the fingerprint.
/// let phased = UnitaryFingerprint::of(&id.scale(C64::cis(0.7)), 2);
/// assert!(fp.distance(&phased) < 1e-12);
/// // Dimension mismatches are infinitely far.
/// let one = UnitaryFingerprint::of(&Mat::identity(2), 1);
/// assert!(fp.distance(&one).is_infinite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UnitaryFingerprint {
    n_qubits: usize,
    features: Box<[f64]>,
}

impl UnitaryFingerprint {
    /// Fingerprints a unitary (one pass plus two small matrix products).
    pub fn of(u: &Mat, n_qubits: usize) -> Self {
        let mut features = trace_moments_abs(u, N_MOMENTS);
        features.extend(diag_abs_profile(u));
        features.extend(row_peak_profile(u));
        Self {
            n_qubits,
            features: features.into_boxed_slice(),
        }
    }

    /// The qubit count the fingerprinted unitary spans.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Euclidean distance between feature vectors; `f64::INFINITY` when
    /// the qubit counts differ. Symmetric, zero on identical inputs, and
    /// invariant under global phase of the fingerprinted unitaries.
    pub fn distance(&self, other: &Self) -> f64 {
        if self.n_qubits != other.n_qubits {
            return f64::INFINITY;
        }
        self.features
            .iter()
            .zip(&other.features)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// The bucket coordinate of the leading feature (`|Tr(U)|/d`).
    fn bucket(&self) -> i64 {
        (self.features[0] * BUCKETS_PER_UNIT).floor() as i64
    }
}

/// The index data of one key: its fingerprint and its canonical unitary
/// (kept so the serving path can gate warm starts with the exact
/// trace-overlap distance).
#[derive(Debug, Clone)]
pub(crate) struct IndexedUnitary {
    pub fingerprint: UnitaryFingerprint,
    pub unitary: Mat,
}

/// One stored key: its value, its index data when it is indexed, and its
/// last-use stamp (which drives least-recently-used eviction).
#[derive(Debug, Clone)]
pub(crate) struct Slot<V> {
    pub value: V,
    pub indexed: Option<IndexedUnitary>,
    pub stamp: u64,
}

/// A key laid over a [`FingerprintIndex`] by an [`Overlay`], borrowed
/// from whoever plans with it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Added<'a> {
    pub key: &'a UnitaryKey,
    pub fingerprint: &'a UnitaryFingerprint,
    pub unitary: &'a Mat,
}

/// Changes laid over a [`FingerprintIndex`] without writing it: stored
/// keys `hidden` from queries, and `added` keys, each indexed and newer
/// than every stored key. A query over the overlay returns what the same
/// query returns on an index with those keys removed and inserted.
#[derive(Debug, Default)]
pub(crate) struct Overlay<'a> {
    pub hidden: HashSet<UnitaryKey>,
    pub added: Vec<Added<'a>>,
}

/// Keyed storage with a bucketed fingerprint index over the keys stored
/// with a unitary: one map holds each key's value, index data and stamp.
///
/// Buckets are keyed by `(n_qubits, quantized |Tr(U)|/d)`. A candidate
/// query visits the occupied buckets of its dimension in increasing
/// distance from its own bucket until at least `k` live candidates are
/// gathered or the dimension's buckets are exhausted — so for `k ≥` the
/// number of same-dimension entries the search degenerates to an exact
/// scan, which is what makes the top-k guarantee of the property tests
/// hold for small libraries. The buckets are ordered, so the walk steps
/// between occupied buckets however far apart they are (a matrix with a
/// huge entry lands at a bucket coordinate near `i64::MAX`).
#[derive(Debug, Clone)]
pub(crate) struct FingerprintIndex<V> {
    /// Boxed: a table sized for growth then holds a pointer, not a whole
    /// slot, per spare bucket.
    slots: HashMap<UnitaryKey, Box<Slot<V>>>,
    buckets: BTreeMap<(usize, i64), Vec<UnitaryKey>>,
    indexed: usize,
}

impl<V> Default for FingerprintIndex<V> {
    fn default() -> Self {
        Self {
            slots: HashMap::new(),
            buckets: BTreeMap::new(),
            indexed: 0,
        }
    }
}

impl<V> FingerprintIndex<V> {
    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of indexed keys.
    pub fn indexed_len(&self) -> usize {
        self.indexed
    }

    /// The slot of `key`, if stored.
    pub fn get(&self, key: &UnitaryKey) -> Option<&Slot<V>> {
        self.slots.get(key).map(|slot| &**slot)
    }

    /// Every stored key with its slot, unordered.
    pub fn iter(&self) -> impl Iterator<Item = (&UnitaryKey, &Slot<V>)> {
        self.slots.iter().map(|(key, slot)| (key, &**slot))
    }

    /// Stores `value` under `key` at `stamp`. With a unitary the key is
    /// (re-)indexed under it; without one, index data `key` already has
    /// stays in place.
    pub fn insert(
        &mut self,
        key: UnitaryKey,
        value: V,
        unitary: Option<(&Mat, usize)>,
        stamp: u64,
    ) {
        let indexed = unitary.map(|(unitary, n_qubits)| IndexedUnitary {
            fingerprint: UnitaryFingerprint::of(unitary, n_qubits),
            unitary: unitary.clone(),
        });
        let kept = match self.slots.remove(&key) {
            Some(old) if indexed.is_none() => old.indexed,
            Some(old) => {
                self.unlist(&key, old.indexed.as_ref());
                None
            }
            None => None,
        };
        let indexed = indexed.or(kept);
        if let Some(entry) = &indexed {
            let bucket = (entry.fingerprint.n_qubits(), entry.fingerprint.bucket());
            let list = self.buckets.entry(bucket).or_default();
            if !list.contains(&key) {
                // Exact growth: a bucket list lives as long as its keys.
                list.reserve_exact(1);
                list.push(key.clone());
                self.indexed += 1;
            }
        }
        self.slots.insert(
            key,
            Box::new(Slot {
                value,
                indexed,
                stamp,
            }),
        );
    }

    /// Refreshes `key`'s stamp (a no-op when `key` is not stored).
    pub fn touch(&mut self, key: &UnitaryKey, stamp: u64) {
        if let Some(slot) = self.slots.get_mut(key) {
            slot.stamp = stamp;
        }
    }

    /// Drops `key` (no-op when not stored).
    pub fn remove(&mut self, key: &UnitaryKey) -> Option<V> {
        let slot = self.slots.remove(key)?;
        self.unlist(key, slot.indexed.as_ref());
        Some(slot.value)
    }

    fn unlist(&mut self, key: &UnitaryKey, indexed: Option<&IndexedUnitary>) {
        let Some(entry) = indexed else { return };
        let bucket = (entry.fingerprint.n_qubits(), entry.fingerprint.bucket());
        if let Some(list) = self.buckets.get_mut(&bucket) {
            list.retain(|k| k != key);
            if list.is_empty() {
                self.buckets.remove(&bucket);
            }
        }
        self.indexed -= 1;
    }

    /// The least recently used key `skip` does not reject (ties broken
    /// by key order).
    pub fn lru(&self, skip: impl Fn(&UnitaryKey) -> bool) -> Option<UnitaryKey> {
        self.slots
            .iter()
            .filter(|(key, _)| !skip(key))
            .min_by(|a, b| a.1.stamp.cmp(&b.1.stamp).then_with(|| a.0.cmp(b.0)))
            .map(|(key, _)| key.clone())
    }

    /// Up to `k` candidate keys nearest to `query` in fingerprint
    /// distance, best first (deterministic: distance, then key order).
    ///
    /// The walk visits occupied buckets in increasing bucket distance
    /// from the query's, and stops after the last bucket at the distance
    /// where `k` candidates are first gathered (or after every bucket of
    /// the query's dimension), so the result is exhaustive whenever `k`
    /// covers the dimension's population.
    #[cfg(test)]
    pub fn candidates(&self, query: &UnitaryFingerprint, k: usize) -> Vec<(UnitaryKey, f64)> {
        self.gather(query, k, &Overlay::default())
            .into_iter()
            .map(|(key, distance, _)| (key.clone(), distance))
            .collect()
    }

    /// The candidate walk over the index with `overlay` laid over it:
    /// each candidate with its fingerprint distance and its unitary. An
    /// added key counts at its own bucket distance, exactly where an
    /// insert would have listed it.
    fn gather<'s>(
        &'s self,
        query: &UnitaryFingerprint,
        k: usize,
        overlay: &Overlay<'s>,
    ) -> Vec<(&'s UnitaryKey, f64, &'s Mat)> {
        if k == 0 {
            return Vec::new();
        }
        let width = query.n_qubits();
        let center = query.bucket();
        let mut below = self
            .buckets
            .range((width, i64::MIN)..(width, center))
            .rev()
            .peekable();
        let mut above = self
            .buckets
            .range((width, center)..=(width, i64::MAX))
            .peekable();
        let mut added: Vec<(u64, &Added<'s>)> = overlay
            .added
            .iter()
            .filter(|a| a.fingerprint.n_qubits() == width)
            .map(|a| (center.abs_diff(a.fingerprint.bucket()), a))
            .collect();
        added.sort_by_key(|&(distance, _)| distance);
        let mut added = added.into_iter().peekable();
        let mut gathered: Vec<(&'s UnitaryKey, f64, &'s Mat)> = Vec::new();
        let mut reached: Option<u64> = None;
        loop {
            let up = above.peek().map(|((_, b), _)| center.abs_diff(*b));
            let down = below.peek().map(|((_, b), _)| center.abs_diff(*b));
            let stored = match (up, down) {
                (Some(u), Some(d)) if d < u => Some((d, false)),
                (Some(u), _) => Some((u, true)),
                (None, Some(d)) => Some((d, false)),
                (None, None) => None,
            };
            let next_added = added.peek().map(|&(distance, _)| distance);
            let (distance, from_added) = match (stored, next_added) {
                (Some((s, _)), Some(a)) if a < s => (a, true),
                (Some((s, _)), _) => (s, false),
                (None, Some(a)) => (a, true),
                (None, None) => break,
            };
            if reached.is_some_and(|r| distance > r) {
                break;
            }
            if from_added {
                let (_, a) = added.next().expect("peeked");
                gathered.push((a.key, query.distance(a.fingerprint), a.unitary));
            } else {
                let keys = match stored {
                    Some((_, true)) => above.next(),
                    _ => below.next(),
                };
                for key in keys.map(|(_, keys)| keys).into_iter().flatten() {
                    if overlay.hidden.contains(key) {
                        continue;
                    }
                    if let Some(entry) = self.index_of(key) {
                        gathered.push((key, query.distance(&entry.fingerprint), &entry.unitary));
                    }
                }
            }
            if reached.is_none() && gathered.len() >= k {
                reached = Some(distance);
            }
        }
        gathered.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        gathered.truncate(k);
        gathered
    }

    fn index_of(&self, key: &UnitaryKey) -> Option<&IndexedUnitary> {
        self.slots.get(key)?.indexed.as_ref()
    }

    /// The nearest indexed key to `unitary`, with `overlay` laid over the
    /// index: the candidate walk proposes up to `k`, the exact
    /// `similarity` function re-scores them, and the best (distance, key)
    /// wins. Returns the key, its distance and its unitary.
    pub fn nearest<'s>(
        &'s self,
        query: &UnitaryFingerprint,
        unitary: &Mat,
        k: usize,
        similarity: SimilarityFn,
        overlay: &Overlay<'s>,
        scratch: &mut SimilarityScratch,
    ) -> Option<(UnitaryKey, f64, &'s Mat)> {
        let mut best: Option<(&UnitaryKey, f64, &Mat)> = None;
        for (key, _, candidate) in self.gather(query, k, overlay) {
            let d = similarity.distance_with(unitary, candidate, scratch);
            let better = match best {
                None => true,
                Some((bk, bd, _)) => d < bd || (d == bd && key < bk),
            };
            if better {
                best = Some((key, d, candidate));
            }
        }
        best.map(|(key, d, candidate)| (key.clone(), d, candidate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};
    use accqoc_linalg::{random_unitary, C64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rz(theta: f64) -> Mat {
        circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, theta)]))
    }

    fn key_of(u: &Mat, n: usize) -> UnitaryKey {
        UnitaryKey::canonical(u, n)
    }

    #[test]
    fn candidates_are_sorted_and_bounded() {
        let mut index = FingerprintIndex::<()>::default();
        let us: Vec<Mat> = (1..=6).map(|k| rz(0.3 * k as f64)).collect();
        for u in &us {
            index.insert(key_of(u, 1), (), Some((u, 1)), 0);
        }
        let query = UnitaryFingerprint::of(&rz(0.31), 1);
        let got = index.candidates(&query, 3);
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        // Asking for more than exist returns everything.
        assert_eq!(index.candidates(&query, 100).len(), 6);
        // Zero k is empty.
        assert!(index.candidates(&query, 0).is_empty());
    }

    /// The walk `candidates` replaced: one bucket coordinate at a time,
    /// symmetrically, out to the farthest occupied bucket of the query's
    /// dimension (which need not end when that bucket is near
    /// `i64::MAX`).
    fn stepping_walk(
        index: &FingerprintIndex<()>,
        query: &UnitaryFingerprint,
        k: usize,
    ) -> Vec<(UnitaryKey, f64)> {
        if k == 0 || index.slots.is_empty() {
            return Vec::new();
        }
        let center = query.bucket();
        let span = index
            .buckets
            .keys()
            .filter(|(n, _)| *n == query.n_qubits())
            .map(|(_, b)| (center - b).abs())
            .max();
        let Some(span) = span else {
            return Vec::new();
        };
        let mut gathered: Vec<(UnitaryKey, f64)> = Vec::new();
        let mut radius = 0i64;
        while radius <= span {
            let arms: &[i64] = if radius == 0 {
                &[center]
            } else {
                &[center - radius, center + radius]
            };
            for &bucket in arms {
                if let Some(list) = index.buckets.get(&(query.n_qubits(), bucket)) {
                    for key in list {
                        let entry = index.index_of(key).expect("listed keys are indexed");
                        gathered.push((key.clone(), query.distance(&entry.fingerprint)));
                    }
                }
            }
            if gathered.len() >= k {
                break;
            }
            radius += 1;
        }
        gathered.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        gathered.truncate(k);
        gathered
    }

    /// A random unitary of `n_qubits`, scaled up to 20× so that its
    /// leading feature spreads over ~160 buckets instead of 9.
    fn spread(rng: &mut StdRng, n_qubits: usize) -> Mat {
        let u = random_unitary(1 << n_qubits, rng);
        if rng.gen_range(0.0..1.0) < 0.5 {
            u
        } else {
            u.scale(C64::real(rng.gen_range(0.05..20.0)))
        }
    }

    #[test]
    fn occupied_bucket_walk_matches_the_stepping_walk() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut index = FingerprintIndex::<()>::default();
            for _ in 0..rng.gen_range(0..30usize) {
                let n = rng.gen_range(1..3usize);
                let u = spread(&mut rng, n);
                index.insert(key_of(&u, n), (), Some((&u, n)), 0);
            }
            for _ in 0..10 {
                let n = rng.gen_range(1..3usize);
                let query = UnitaryFingerprint::of(&spread(&mut rng, n), n);
                let k = rng.gen_range(0..12usize);
                let got = index.candidates(&query, k);
                let want = stepping_walk(&index, &query, k);
                let bits = |v: &[(UnitaryKey, f64)]| -> Vec<(UnitaryKey, u64)> {
                    v.iter()
                        .map(|(key, d)| (key.clone(), d.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn an_overlay_answers_as_the_index_it_stands_for() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let unitary = |rng: &mut StdRng| {
                let n = rng.gen_range(1..3usize);
                (spread(rng, n), n)
            };
            let mut index = FingerprintIndex::<()>::default();
            let stored: Vec<(Mat, usize)> = (0..rng.gen_range(0..30usize))
                .map(|_| unitary(&mut rng))
                .collect();
            for (u, n) in &stored {
                index.insert(key_of(u, *n), (), Some((u, *n)), 0);
            }
            let picks: Vec<(UnitaryKey, UnitaryFingerprint, Mat)> = (0..rng.gen_range(0..8usize))
                .map(|_| {
                    let (u, n) = unitary(&mut rng);
                    (key_of(&u, n), UnitaryFingerprint::of(&u, n), u)
                })
                .collect();
            // The index the overlay stands for: some stored keys removed,
            // the picks inserted.
            let mut overlay = Overlay::default();
            let mut written = index.clone();
            for (u, n) in &stored {
                if rng.gen_range(0.0..1.0) < 0.3 {
                    overlay.hidden.insert(key_of(u, *n));
                    written.remove(&key_of(u, *n));
                }
            }
            for (key, fingerprint, u) in &picks {
                overlay.added.push(Added {
                    key,
                    fingerprint,
                    unitary: u,
                });
                written.insert(key.clone(), (), Some((u, fingerprint.n_qubits())), 0);
            }
            for _ in 0..10 {
                let (u, n) = unitary(&mut rng);
                let query = UnitaryFingerprint::of(&u, n);
                let k = rng.gen_range(0..12usize);
                let bits = |v: Vec<(&UnitaryKey, f64, &Mat)>| -> Vec<(UnitaryKey, u64)> {
                    v.into_iter()
                        .map(|(key, d, _)| (key.clone(), d.to_bits()))
                        .collect()
                };
                assert_eq!(
                    bits(index.gather(&query, k, &overlay)),
                    bits(written.gather(&query, k, &Overlay::default())),
                    "seed {seed}, k {k}"
                );
                let mut scratch = SimilarityScratch::new();
                let nearest = |i: &FingerprintIndex<()>, o: &Overlay, s: &mut SimilarityScratch| {
                    i.nearest(&query, &u, k, SimilarityFn::TraceOverlap, o, s)
                        .map(|(key, d, _)| (key, d.to_bits()))
                };
                assert_eq!(
                    nearest(&index, &overlay, &mut scratch),
                    nearest(&written, &Overlay::default(), &mut scratch),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn cross_dimension_entries_are_invisible() {
        let mut index = FingerprintIndex::<()>::default();
        let one = rz(0.4);
        index.insert(key_of(&one, 1), (), Some((&one, 1)), 0);
        let two = Mat::identity(4);
        let query = UnitaryFingerprint::of(&two, 2);
        assert!(index.candidates(&query, 8).is_empty());
    }

    #[test]
    fn remove_and_reinsert_round_trip() {
        let mut index = FingerprintIndex::<()>::default();
        let u = rz(1.0);
        let key = key_of(&u, 1);
        index.insert(key.clone(), (), Some((&u, 1)), 0);
        assert_eq!(index.len(), 1);
        index.remove(&key);
        assert_eq!(index.len(), 0);
        assert!(index
            .candidates(&UnitaryFingerprint::of(&u, 1), 4)
            .is_empty());
        index.insert(key.clone(), (), Some((&u, 1)), 0);
        index.insert(key.clone(), (), Some((&u, 1)), 0); // idempotent re-index
        assert_eq!(index.len(), 1);
        assert_eq!(index.candidates(&UnitaryFingerprint::of(&u, 1), 4).len(), 1);
    }
}
