//! Hashable keys identifying unitaries up to global phase and qubit
//! permutation.
//!
//! The paper de-duplicates gate groups "by calculating their corresponding
//! matrices and eliminating duplicated ones. Two groups with permutated
//! Qubits but same operations are also treated as duplicate" (§IV-C).
//! [`UnitaryKey`] implements exactly that equivalence.

use std::sync::Arc;

use accqoc_linalg::{global_phase_canonical, quantized_bytes, Mat};

/// Quantization resolution for key bytes. Unitaries closer than ~half this
/// distance entry-wise (after phase canonicalization) collide, which is
/// what we want: their pulses are interchangeable at the paper's `1e-4`
/// fidelity target.
pub const KEY_EPS: f64 = 1e-6;

/// A hashable identity for a unitary, canonical up to global phase (and
/// optionally qubit permutation).
///
/// The bytes are shared: a clone is a reference-count bump, so the copies
/// the pulse library and the serve reports keep of one key cost one
/// allocation between them.
///
/// # Examples
///
/// ```
/// use accqoc_circuit::{Circuit, Gate, UnitaryKey, circuit_unitary};
/// use accqoc_linalg::C64;
///
/// let u = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1)]));
/// let phased = u.scale(C64::cis(0.7));
/// assert_eq!(UnitaryKey::from_unitary(&u), UnitaryKey::from_unitary(&phased));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitaryKey(Arc<[u8]>);

impl UnitaryKey {
    /// Key identifying the unitary up to global phase only.
    pub fn from_unitary(u: &Mat) -> Self {
        Self(quantized_bytes(&global_phase_canonical(u), KEY_EPS).into())
    }

    /// Key identifying the unitary up to global phase *and* relabeling of
    /// its `n_qubits` qubits: the lexicographically smallest phase-canonical
    /// key over all qubit permutations.
    ///
    /// Returns the key together with the qubit permutation that achieved
    /// it (`perm[i]` = position the original qubit `i` was sent to).
    ///
    /// # Panics
    ///
    /// Panics if `u` is not `2^n_qubits`-dimensional square.
    pub fn canonical_with_permutation(u: &Mat, n_qubits: usize) -> (Self, Vec<usize>) {
        assert!(u.is_square());
        assert_eq!(u.rows(), 1 << n_qubits, "matrix dim vs qubit count");
        let mut best: Option<(Vec<u8>, Vec<usize>)> = None;
        for perm in permutations(n_qubits) {
            let permuted = permute_qubits(u, &perm, n_qubits);
            let bytes = quantized_bytes(&global_phase_canonical(&permuted), KEY_EPS);
            match &best {
                Some((b, _)) if *b <= bytes => {}
                _ => best = Some((bytes, perm.clone())),
            }
        }
        let (bytes, perm) = best.expect("at least the identity permutation exists");
        (Self(bytes.into()), perm)
    }

    /// Canonical key up to phase and qubit permutation (discarding the
    /// permutation itself).
    pub fn canonical(u: &Mat, n_qubits: usize) -> Self {
        Self::canonical_with_permutation(u, n_qubits).0
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Rebuilds a key from bytes produced by [`UnitaryKey::as_bytes`]
    /// (pulse-cache persistence). The bytes are trusted — a corrupted
    /// byte string simply never matches any live key.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self(bytes.into())
    }
}

/// Applies a qubit relabeling to a unitary: qubit `i` of the input becomes
/// qubit `perm[i]` of the output (big-endian bit order).
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..n_qubits` or the matrix
/// dimension disagrees.
pub fn permute_qubits(u: &Mat, perm: &[usize], n_qubits: usize) -> Mat {
    assert_eq!(perm.len(), n_qubits);
    assert_eq!(u.rows(), 1 << n_qubits);
    let mut basis_perm = vec![0usize; 1 << n_qubits];
    for (b, slot) in basis_perm.iter_mut().enumerate() {
        let mut out = 0usize;
        for (q, &pq) in perm.iter().enumerate() {
            let bit = b >> (n_qubits - 1 - q) & 1;
            out |= bit << (n_qubits - 1 - pq);
        }
        *slot = out;
    }
    u.permute_basis(&basis_perm)
}

/// Inverts a qubit relabeling: if `perm[i] = j` sends qubit `i` to
/// position `j`, the result sends `j` back to `i`, so
/// `permute_qubits(&permute_qubits(u, perm, n), &invert_permutation(perm), n)`
/// is `u` again. The verification oracle uses this to map a pulse's
/// canonical-frame unitary back into a group's local qubit ordering.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..perm.len()`.
///
/// # Examples
///
/// ```
/// use accqoc_circuit::invert_permutation;
///
/// assert_eq!(invert_permutation(&[2, 0, 1]), vec![1, 2, 0]);
/// ```
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        assert!(p < perm.len(), "entry {p} out of range");
        assert!(inv[p] == usize::MAX, "entry {p} repeats");
        inv[p] = i;
    }
    inv
}

/// All permutations of `0..n` (Heap's algorithm); `n ≤ 5` in practice.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::Gate;
    use crate::unitary::circuit_unitary;
    use accqoc_linalg::C64;

    #[test]
    fn phase_invariance() {
        let u = circuit_unitary(&Circuit::from_gates(1, [Gate::T(0), Gate::H(0)]));
        for k in 0..6 {
            let phased = u.scale(C64::cis(k as f64));
            assert_eq!(
                UnitaryKey::from_unitary(&u),
                UnitaryKey::from_unitary(&phased)
            );
        }
    }

    #[test]
    fn distinct_unitaries_distinct_keys() {
        let a = circuit_unitary(&Circuit::from_gates(1, [Gate::X(0)]));
        let b = circuit_unitary(&Circuit::from_gates(1, [Gate::H(0)]));
        assert_ne!(UnitaryKey::from_unitary(&a), UnitaryKey::from_unitary(&b));
    }

    #[test]
    fn permuted_qubit_groups_collide() {
        // cx(0,1) and cx(1,0) are the same operation with relabeled qubits.
        let a = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1)]));
        let b = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(1, 0)]));
        assert_ne!(UnitaryKey::from_unitary(&a), UnitaryKey::from_unitary(&b));
        assert_eq!(UnitaryKey::canonical(&a, 2), UnitaryKey::canonical(&b, 2));
    }

    #[test]
    fn permutation_canonical_separates_truly_different_groups() {
        let a = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1), Gate::H(0)]));
        let b = circuit_unitary(&Circuit::from_gates(2, [Gate::Cz(0, 1)]));
        assert_ne!(UnitaryKey::canonical(&a, 2), UnitaryKey::canonical(&b, 2));
    }

    #[test]
    fn permute_qubits_matches_gate_relabeling() {
        // Relabeling {0→1, 1→0} of the circuit equals permute_qubits of its unitary.
        let c = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1), Gate::T(1)]);
        let relabeled = c.remapped(|q| 1 - q);
        let via_matrix = permute_qubits(&circuit_unitary(&c), &[1, 0], 2);
        let via_circuit = circuit_unitary(&relabeled);
        assert!(via_matrix.approx_eq(&via_circuit, 1e-12));
    }

    #[test]
    fn canonical_permutation_reported() {
        let a = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1)]));
        let b = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(1, 0)]));
        let (ka, pa) = UnitaryKey::canonical_with_permutation(&a, 2);
        let (kb, pb) = UnitaryKey::canonical_with_permutation(&b, 2);
        assert_eq!(ka, kb);
        // Applying the reported permutations to the inputs yields the same matrix key.
        let ca = permute_qubits(&a, &pa, 2);
        let cb = permute_qubits(&b, &pb, 2);
        assert_eq!(UnitaryKey::from_unitary(&ca), UnitaryKey::from_unitary(&cb));
    }

    #[test]
    fn invert_permutation_round_trips() {
        let u = circuit_unitary(&Circuit::from_gates(
            3,
            [Gate::Cx(0, 1), Gate::T(2), Gate::H(0)],
        ));
        let perm = vec![2, 0, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 2, 0]);
        let back = permute_qubits(&permute_qubits(&u, &perm, 3), &inv, 3);
        assert!(back.approx_eq(&u, 1e-13));
        assert_eq!(invert_permutation(&[0, 1]), vec![0, 1]);
        assert_eq!(invert_permutation(&[]), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn invert_permutation_rejects_duplicates() {
        let _ = invert_permutation(&[0, 0, 1]);
    }

    #[test]
    fn single_qubit_canonical_is_plain_key() {
        let u = circuit_unitary(&Circuit::from_gates(1, [Gate::H(0)]));
        assert_eq!(UnitaryKey::canonical(&u, 1), UnitaryKey::from_unitary(&u));
    }

    #[test]
    fn three_qubit_permutation_classes() {
        // ccx(0,1,2) and ccx(1,0,2) coincide (controls commute) even without
        // permutation canonicalization; ccx(0,2,1) needs relabeling.
        let a = circuit_unitary(&Circuit::from_gates(3, [Gate::Ccx(0, 1, 2)]));
        let b = circuit_unitary(&Circuit::from_gates(3, [Gate::Ccx(1, 0, 2)]));
        let c = circuit_unitary(&Circuit::from_gates(3, [Gate::Ccx(0, 2, 1)]));
        assert_eq!(UnitaryKey::from_unitary(&a), UnitaryKey::from_unitary(&b));
        assert_ne!(UnitaryKey::from_unitary(&a), UnitaryKey::from_unitary(&c));
        assert_eq!(UnitaryKey::canonical(&a, 3), UnitaryKey::canonical(&c, 3));
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn keys_are_ord_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(UnitaryKey::from_unitary(&Mat::identity(2)));
        set.insert(UnitaryKey::from_unitary(&Mat::identity(2)));
        assert_eq!(set.len(), 1);
    }
}
