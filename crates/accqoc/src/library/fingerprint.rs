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

use std::collections::HashMap;

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
/// query starts at the query's own bucket and widens symmetrically until
/// at least `k` live candidates are gathered or the whole dimension's
/// bucket range is exhausted — so for `k ≥` the number of same-dimension
/// entries the search degenerates to an exact scan, which is what makes
/// the top-k guarantee of the property tests hold for small libraries.
#[derive(Debug, Default, Clone)]
pub(crate) struct FingerprintIndex {
    entries: HashMap<UnitaryKey, IndexedUnitary>,
    buckets: HashMap<(usize, i64), Vec<UnitaryKey>>,
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
    /// The bucket walk widens until `k` candidates are gathered or every
    /// bucket of the query's dimension has been visited, so the result
    /// is exhaustive whenever `k` covers the dimension's population.
    pub fn candidates(&self, query: &UnitaryFingerprint, k: usize) -> Vec<(UnitaryKey, f64)> {
        if k == 0 || self.entries.is_empty() {
            return Vec::new();
        }
        let center = query.bucket();
        let span = self
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
            // At radius 0 the two walk arms coincide — visit the center
            // bucket exactly once.
            let arms: &[i64] = if radius == 0 {
                &[center]
            } else {
                &[center - radius, center + radius]
            };
            for &bucket in arms {
                if let Some(list) = self.buckets.get(&(query.n_qubits(), bucket)) {
                    for key in list {
                        let entry = &self.entries[key];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};

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
