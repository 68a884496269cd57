//! Property tests of the unitary fingerprint and the bucketed top-k
//! retrieval (seed-pinnable via `ACCQOC_PROPTEST_SEED`; a failure prints
//! the seed in effect — see the `proptest` compat crate).

use accqoc_repro::accqoc::{CachedPulse, PulseLibrary, SimilarityFn, UnitaryFingerprint};
use accqoc_repro::circuit::{circuit_unitary, Circuit, Gate, UnitaryKey};
use accqoc_repro::grape::Pulse;
use accqoc_repro::linalg::{Mat, C64};
use proptest::prelude::*;

/// Strategy: a random 1- or 2-qubit unitary from a short random circuit.
fn unitary_strategy(n_qubits: usize, max_len: usize) -> impl Strategy<Value = Mat> {
    let gate = (0..6u8, 0..n_qubits, 0..n_qubits, -3.0f64..3.0).prop_filter_map(
        "distinct operands",
        move |(kind, a, b, angle)| {
            Some(match kind {
                0 => Gate::H(a),
                1 => Gate::T(a),
                2 => Gate::X(a),
                3 => Gate::Rz(a, angle),
                4 => Gate::Ry(a, angle),
                _ => {
                    if n_qubits < 2 || a == b {
                        return None;
                    }
                    Gate::Cx(a, b)
                }
            })
        },
    );
    proptest::collection::vec(gate, 1..max_len)
        .prop_map(move |gates| circuit_unitary(&Circuit::from_gates(n_qubits, gates)))
}

fn entry(n_qubits: usize) -> CachedPulse {
    CachedPulse {
        pulse: Pulse::zeros(2 * n_qubits, 4, 1.0),
        latency_ns: 4.0,
        iterations: 1,
        n_qubits,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fingerprint_distance_is_symmetric_and_zero_on_self(
        a in unitary_strategy(2, 10),
        b in unitary_strategy(2, 10),
    ) {
        let fa = UnitaryFingerprint::of(&a, 2);
        let fb = UnitaryFingerprint::of(&b, 2);
        prop_assert_eq!(fa.distance(&fb).to_bits(), fb.distance(&fa).to_bits());
        prop_assert_eq!(fa.distance(&fa), 0.0);
        prop_assert!(fa.distance(&fb) >= 0.0);
    }

    #[test]
    fn fingerprint_is_global_phase_invariant(
        u in unitary_strategy(2, 10),
        theta in -3.0f64..3.0,
    ) {
        let fp = UnitaryFingerprint::of(&u, 2);
        let phased = UnitaryFingerprint::of(&u.scale(C64::cis(theta)), 2);
        prop_assert!(
            fp.distance(&phased) < 1e-9,
            "phase moved the fingerprint by {}",
            fp.distance(&phased)
        );
    }

    #[test]
    fn fingerprints_of_different_dimensions_are_infinitely_far(
        a in unitary_strategy(1, 6),
        b in unitary_strategy(2, 6),
    ) {
        let fa = UnitaryFingerprint::of(&a, 1);
        let fb = UnitaryFingerprint::of(&b, 2);
        prop_assert!(fa.distance(&fb).is_infinite());
    }

    #[test]
    fn top_k_retrieval_contains_the_true_nearest_neighbor(
        stored in proptest::collection::vec(unitary_strategy(1, 8), 1..7),
        query in unitary_strategy(1, 8),
    ) {
        // With k covering the library, the bucketed walk degenerates to
        // an exhaustive scan, so `nearest` must return exactly the
        // brute-force argmin of the exact similarity distance (with the
        // library's deterministic key tie-break).
        let lib = PulseLibrary::new();
        // Last insert wins on key collisions — mirror that in the oracle.
        let mut oracle: Vec<(UnitaryKey, Mat)> = Vec::new();
        for u in &stored {
            let key = UnitaryKey::canonical(u, 1);
            oracle.retain(|(k, _)| *k != key);
            oracle.push((key.clone(), u.clone()));
            lib.insert(key, entry(1), Some(u));
        }
        let got = lib
            .nearest(&query, 1, stored.len(), SimilarityFn::TraceOverlap)
            .expect("library is non-empty");
        let best = oracle
            .iter()
            .map(|(k, u)| (k, SimilarityFn::TraceOverlap.distance(&query, u)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)))
            .expect("oracle is non-empty");
        prop_assert_eq!(got.distance.to_bits(), best.1.to_bits());
        prop_assert_eq!(&got.key, best.0);
    }
}
