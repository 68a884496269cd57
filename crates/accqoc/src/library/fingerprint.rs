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

use std::collections::{BTreeMap, HashMap};

use accqoc_circuit::UnitaryKey;
use accqoc_linalg::{diag_abs_profile, row_peak_profile, trace_moments_abs, Mat};

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
    features: Vec<f64>,
}

impl UnitaryFingerprint {
    /// Fingerprints a unitary (one pass plus two small matrix products).
    pub fn of(u: &Mat, n_qubits: usize) -> Self {
        let mut features = trace_moments_abs(u, N_MOMENTS);
        features.extend(diag_abs_profile(u));
        features.extend(row_peak_profile(u));
        Self { n_qubits, features }
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

/// One indexed library entry: its fingerprint, the canonical unitary
/// (kept so the serving path can gate warm starts with the exact
/// trace-overlap distance), and an LRU stamp.
#[derive(Debug, Clone)]
pub(crate) struct IndexedUnitary {
    pub fingerprint: UnitaryFingerprint,
    pub unitary: Mat,
    pub n_qubits: usize,
}

/// The bucketed fingerprint index.
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
#[derive(Debug, Default, Clone)]
pub(crate) struct FingerprintIndex {
    entries: HashMap<UnitaryKey, IndexedUnitary>,
    buckets: BTreeMap<(usize, i64), Vec<UnitaryKey>>,
}

impl FingerprintIndex {
    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The indexed entry for `key`, if present.
    pub fn get(&self, key: &UnitaryKey) -> Option<&IndexedUnitary> {
        self.entries.get(key)
    }

    /// Indexes (or re-indexes) a unitary under `key`.
    pub fn insert(&mut self, key: UnitaryKey, unitary: &Mat, n_qubits: usize) {
        let fingerprint = UnitaryFingerprint::of(unitary, n_qubits);
        let bucket = (n_qubits, fingerprint.bucket());
        if let Some(old) = self.entries.insert(
            key.clone(),
            IndexedUnitary {
                fingerprint,
                unitary: unitary.clone(),
                n_qubits,
            },
        ) {
            let old_bucket = (old.n_qubits, old.fingerprint.bucket());
            if old_bucket != bucket {
                self.remove_from_bucket(&old_bucket, &key);
            } else {
                return; // already listed in the right bucket
            }
        }
        self.buckets.entry(bucket).or_default().push(key);
    }

    /// Drops `key` from the index (no-op when not indexed).
    pub fn remove(&mut self, key: &UnitaryKey) {
        if let Some(entry) = self.entries.remove(key) {
            let bucket = (entry.n_qubits, entry.fingerprint.bucket());
            self.remove_from_bucket(&bucket, key);
        }
    }

    fn remove_from_bucket(&mut self, bucket: &(usize, i64), key: &UnitaryKey) {
        if let Some(list) = self.buckets.get_mut(bucket) {
            list.retain(|k| k != key);
            if list.is_empty() {
                self.buckets.remove(bucket);
            }
        }
    }

    /// Up to `k` candidate keys nearest to `query` in fingerprint
    /// distance, best first (deterministic: distance, then key order).
    ///
    /// The walk visits occupied buckets in increasing bucket distance
    /// from the query's, and stops after the last bucket at the distance
    /// where `k` candidates are first gathered (or after every bucket of
    /// the query's dimension), so the result is exhaustive whenever `k`
    /// covers the dimension's population.
    pub fn candidates(&self, query: &UnitaryFingerprint, k: usize) -> Vec<(UnitaryKey, f64)> {
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
        let mut gathered: Vec<(UnitaryKey, f64)> = Vec::new();
        let mut reached: Option<u64> = None;
        loop {
            let up = above.peek().map(|((_, b), _)| center.abs_diff(*b));
            let down = below.peek().map(|((_, b), _)| center.abs_diff(*b));
            let (distance, keys) = match (up, down) {
                (Some(u), Some(d)) if d < u => (d, below.next()),
                (Some(u), _) => (u, above.next()),
                (None, Some(d)) => (d, below.next()),
                (None, None) => break,
            };
            if reached.is_some_and(|r| distance > r) {
                break;
            }
            for key in keys.map(|(_, keys)| keys).into_iter().flatten() {
                let entry = &self.entries[key];
                gathered.push((key.clone(), query.distance(&entry.fingerprint)));
            }
            if reached.is_none() && gathered.len() >= k {
                reached = Some(distance);
            }
        }
        gathered.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        gathered.truncate(k);
        gathered
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
        let mut index = FingerprintIndex::default();
        let us: Vec<Mat> = (1..=6).map(|k| rz(0.3 * k as f64)).collect();
        for u in &us {
            index.insert(key_of(u, 1), u, 1);
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
        index: &FingerprintIndex,
        query: &UnitaryFingerprint,
        k: usize,
    ) -> Vec<(UnitaryKey, f64)> {
        if k == 0 || index.entries.is_empty() {
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
                        let entry = &index.entries[key];
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
            let mut index = FingerprintIndex::default();
            for _ in 0..rng.gen_range(0..30usize) {
                let n = rng.gen_range(1..3usize);
                let u = spread(&mut rng, n);
                index.insert(key_of(&u, n), &u, n);
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
    fn cross_dimension_entries_are_invisible() {
        let mut index = FingerprintIndex::default();
        let one = rz(0.4);
        index.insert(key_of(&one, 1), &one, 1);
        let two = Mat::identity(4);
        let query = UnitaryFingerprint::of(&two, 2);
        assert!(index.candidates(&query, 8).is_empty());
    }

    #[test]
    fn remove_and_reinsert_round_trip() {
        let mut index = FingerprintIndex::default();
        let u = rz(1.0);
        let key = key_of(&u, 1);
        index.insert(key.clone(), &u, 1);
        assert_eq!(index.len(), 1);
        index.remove(&key);
        assert_eq!(index.len(), 0);
        assert!(index
            .candidates(&UnitaryFingerprint::of(&u, 1), 4)
            .is_empty());
        index.insert(key.clone(), &u, 1);
        index.insert(key.clone(), &u, 1); // idempotent re-index
        assert_eq!(index.len(), 1);
        assert_eq!(index.candidates(&UnitaryFingerprint::of(&u, 1), 4).len(), 1);
    }
}
