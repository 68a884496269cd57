//! Semantic verification: from compiled pulses back to circuit
//! semantics.
//!
//! Nothing elsewhere in the pipeline *proves* that a compiled pulse
//! sequence implements its source circuit — latencies, determinism, and
//! cache bytes are all observable without ever propagating a pulse. This
//! module closes that loop with two oracles:
//!
//! 1. **Pulse → unitary reconstruction** ([`Session::verify_program`]):
//!    every cached group pulse is propagated through its control model
//!    (`grape::total_unitary` over the hardware Hamiltonians) and
//!    compared against the group's canonical target with the
//!    global-phase-invariant gate fidelity `|Tr(A†B)|/d`. On registers
//!    small enough for dense evaluation the per-instance unitaries are
//!    additionally composed per the grouped schedule and checked against
//!    [`accqoc_circuit::circuit_unitary`]'s reference for the whole
//!    program, plus a `|0…0⟩` output-state spot check through the
//!    density-matrix simulator.
//! 2. **Differential compile checks** ([`caches_equivalent`]): two pulse
//!    caches produced by different engines (`precompile` on the
//!    sequential chain or a parallel plan, per-program `compile_program`)
//!    are compared *semantically* — the pulses may differ byte-wise, but
//!    the unitaries they realize and the latencies they report must
//!    agree within tolerance.
//!
//! [`Session::verify_program`]: crate::Session::verify_program

use std::collections::HashMap;

use accqoc_circuit::{
    apply_unitary, circuit_unitary, invert_permutation, permute_qubits, Circuit, UnitaryKey,
    MAX_DENSE_QUBITS,
};
use accqoc_grape::total_unitary;
use accqoc_linalg::{phase_invariant_fidelity, Mat};
use accqoc_sim::output_state_fidelity;

use crate::cache::{CachedPulse, PulseCache};
use crate::error::{Error, Result};
use crate::json::{self, hex_decode, hex_encode, JsonError, JsonValue};
use crate::model::ModelSet;
use crate::session::{GroupReport, Session};

// ---------------------------------------------------------------------------
// Thresholds.
// ---------------------------------------------------------------------------

/// Minimum acceptable per-group gate fidelity. `0.999` is deliberately
/// looser than the paper's `1 − 10⁻⁴` convergence target, so a healthy
/// cache passes with margin and a genuinely wrong pulse (fidelity far
/// below 1) fails unambiguously.
const MIN_GROUP_FIDELITY: f64 = 0.999;

/// Minimum acceptable whole-program process fidelity on the exact
/// (dense-composition) path. Per-group errors at the `10⁻⁴` target
/// accumulate over instances, so this is more forgiving than the
/// per-group gate: `0.98`.
const MIN_EXACT_FIDELITY: f64 = 0.98;

/// Minimum acceptable `|0…0⟩` output-state overlap on the exact path.
/// Process fidelity does not lower-bound any single input-state overlap,
/// so the state spot check gets its own (looser) threshold: `0.95`.
const MIN_STATE_FIDELITY: f64 = 0.95;

/// Widest register (qubits) for which the exact dense composition is
/// attempted; wider programs report only per-group fidelities and the
/// multiplicative bound. Capped by [`accqoc_circuit::MAX_DENSE_QUBITS`].
const MAX_EXACT_QUBITS: usize = 8;

// ---------------------------------------------------------------------------
// Report types.
// ---------------------------------------------------------------------------

/// Verification outcome for one unique gate group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupVerification {
    /// Canonical group identity.
    pub key: UnitaryKey,
    /// Number of qubits the group spans.
    pub n_qubits: usize,
    /// Instances of this group in the program.
    pub instances: usize,
    /// Gate fidelity `|Tr(U_pulse† · U_target)| / d` between the unitary
    /// the cached pulse realizes and the canonical group target.
    pub fidelity: f64,
    /// Cached pulse latency, ns.
    pub latency_ns: f64,
}

/// Result of verifying one program against the session cache.
///
/// Serializes to/from the same self-contained JSON dialect as the pulse
/// cache ([`VerifyReport::to_json`] / [`VerifyReport::from_json`]), so
/// fidelity snapshots can live next to the golden corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Per-unique-group verification, in group-discovery order.
    pub groups: Vec<GroupVerification>,
    /// Group instances in the program.
    pub n_instances: usize,
    /// Worst per-group fidelity (1.0 for empty programs).
    pub min_group_fidelity: f64,
    /// Instance-weighted mean group fidelity (1.0 for empty programs).
    pub mean_group_fidelity: f64,
    /// Multiplicative whole-program fidelity bound: the product of each
    /// instance's group fidelity. A pessimistic composition estimate that
    /// is available at any register width.
    pub program_fidelity_bound: f64,
    /// Exact whole-program process fidelity — per-instance reconstructed
    /// unitaries composed per the grouped schedule versus the dense
    /// reference unitary of the processed circuit. `None` when the
    /// register is wider than 8 qubits.
    pub exact_fidelity: Option<f64>,
    /// `|0…0⟩` output-state overlap between the reconstructed and the
    /// reference program unitary. `None` exactly when `exact_fidelity`
    /// is.
    pub state_fidelity: Option<f64>,
    /// `true` when every group fidelity reached 0.999 and, on the exact
    /// path, the program fidelity reached 0.98 and the state overlap
    /// 0.95.
    pub passed: bool,
}

impl VerifyReport {
    /// The worst-verifying group, if any.
    pub fn worst_group(&self) -> Option<&GroupVerification> {
        self.groups
            .iter()
            .min_by(|a, b| a.fidelity.total_cmp(&b.fidelity))
    }

    /// The report as a JSON value (the daemon embeds it in its frames
    /// directly).
    pub fn to_json_value(&self) -> JsonValue {
        let opt = |v: Option<f64>| v.map(JsonValue::Number).unwrap_or(JsonValue::Null);
        let groups = self
            .groups
            .iter()
            .map(|g| {
                JsonValue::Object(vec![
                    (
                        "key".into(),
                        JsonValue::String(hex_encode(g.key.as_bytes())),
                    ),
                    ("n_qubits".into(), JsonValue::Number(g.n_qubits as f64)),
                    ("instances".into(), JsonValue::Number(g.instances as f64)),
                    ("fidelity".into(), JsonValue::Number(g.fidelity)),
                    ("latency_ns".into(), JsonValue::Number(g.latency_ns)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "n_instances".into(),
                JsonValue::Number(self.n_instances as f64),
            ),
            (
                "min_group_fidelity".into(),
                JsonValue::Number(self.min_group_fidelity),
            ),
            (
                "mean_group_fidelity".into(),
                JsonValue::Number(self.mean_group_fidelity),
            ),
            (
                "program_fidelity_bound".into(),
                JsonValue::Number(self.program_fidelity_bound),
            ),
            ("exact_fidelity".into(), opt(self.exact_fidelity)),
            ("state_fidelity".into(), opt(self.state_fidelity)),
            ("passed".into(), JsonValue::Bool(self.passed)),
            ("groups".into(), JsonValue::Array(groups)),
        ])
    }

    /// Serializes to pretty JSON ([`VerifyReport::to_json_value`],
    /// byte-deterministic for a given report).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Rebuilds a report from a [`VerifyReport::to_json_value`] value.
    ///
    /// # Errors
    ///
    /// [`Error::Json`] on a malformed value.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self> {
        let num = |field: &str| -> Result<f64> {
            doc.get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| malformed(&format!("missing number `{field}`")).into())
        };
        // A *missing* optional field is corruption (to_json always emits
        // the key); only an explicit `null` means "not computed".
        let opt_num = |field: &str| -> Result<Option<f64>> {
            match doc.get(field) {
                None => Err(malformed(&format!("missing `{field}` (number or null)")).into()),
                Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| malformed(&format!("`{field}` is not a number")).into()),
            }
        };
        let passed = match doc.get("passed") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err(malformed("missing bool `passed`").into()),
        };
        let mut groups = Vec::new();
        for entry in doc
            .get("groups")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing `groups` array"))?
        {
            let field = |name: &str| -> Result<&JsonValue> {
                entry
                    .get(name)
                    .ok_or_else(|| malformed(&format!("group missing `{name}`")).into())
            };
            let usize_field = |name: &str| -> Result<usize> {
                field(name)?
                    .as_usize()
                    .ok_or_else(|| malformed(&format!("group `{name}` is not an integer")).into())
            };
            let f64_field = |name: &str| -> Result<f64> {
                field(name)?
                    .as_f64()
                    .ok_or_else(|| malformed(&format!("group `{name}` is not a number")).into())
            };
            let key_hex = field("key")?
                .as_str()
                .ok_or_else(|| malformed("group `key` is not a string"))?;
            groups.push(GroupVerification {
                key: UnitaryKey::from_bytes(hex_decode(key_hex)?),
                n_qubits: usize_field("n_qubits")?,
                instances: usize_field("instances")?,
                fidelity: f64_field("fidelity")?,
                latency_ns: f64_field("latency_ns")?,
            });
        }
        Ok(Self {
            groups,
            n_instances: doc
                .get("n_instances")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| malformed("missing integer `n_instances`"))?,
            min_group_fidelity: num("min_group_fidelity")?,
            mean_group_fidelity: num("mean_group_fidelity")?,
            program_fidelity_bound: num("program_fidelity_bound")?,
            exact_fidelity: opt_num("exact_fidelity")?,
            state_fidelity: opt_num("state_fidelity")?,
            passed,
        })
    }

    /// Deserializes a report produced by [`VerifyReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`Error::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self> {
        Self::from_json_value(&json::parse(text)?)
    }
}

fn malformed(message: &str) -> JsonError {
    JsonError {
        message: format!("verify report: {message}"),
        offset: 0,
    }
}

/// A cached pulse can only be propagated on a model with matching drive
/// channels; anything else is a corrupted or mismatched cache entry.
fn check_pulse_fits(entry: &CachedPulse, model: &accqoc_hw::ControlModel) -> Result<()> {
    if entry.pulse.n_controls() != model.n_controls() {
        return Err(Error::InvalidConfig {
            message: format!(
                "cached pulse has {} channels but the {}-qubit model drives {}",
                entry.pulse.n_controls(),
                entry.n_qubits,
                model.n_controls()
            ),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The pulse-vs-unitary oracle.
// ---------------------------------------------------------------------------

/// Implementation behind [`Session::verify_program`].
///
/// [`Session::verify_program`]: crate::Session::verify_program
pub(crate) fn verify_program(session: &Session, circuit: &Circuit) -> Result<VerifyReport> {
    let grouped = session.front_end(circuit);
    verify_grouped(session, &grouped)
}

/// Verifies an already-grouped program (shares the front end with the
/// compile pipeline, so the oracle sees exactly the groups the compiler
/// saw).
fn verify_grouped(session: &Session, grouped: &GroupReport) -> Result<VerifyReport> {
    // Reconstruct each unique group's realized unitary from its cached
    // pulse and score it against the canonical compile target.
    let mut realized: HashMap<UnitaryKey, Mat> = HashMap::new();
    let mut instances = vec![0usize; grouped.targets.len()];
    for &assigned in &grouped.assignment {
        instances[assigned] += 1;
    }
    let mut groups = Vec::with_capacity(grouped.targets.len());
    for (target, &n_instances) in grouped.targets.iter().zip(&instances) {
        let entry = session.cached(&target.key).ok_or(Error::UncoveredGroup {
            n_qubits: target.n_qubits,
        })?;
        let model = session.models().for_qubits(target.n_qubits)?;
        check_pulse_fits(&entry, model)?;
        let u_pulse = total_unitary(model, &entry.pulse)?;
        let fidelity = phase_invariant_fidelity(&u_pulse, &target.unitary);
        realized.insert(target.key.clone(), u_pulse);
        groups.push(GroupVerification {
            key: target.key.clone(),
            n_qubits: target.n_qubits,
            instances: n_instances,
            fidelity,
            latency_ns: entry.latency_ns,
        });
    }

    let n_instances = grouped.assignment.len();
    let min_group_fidelity = groups.iter().map(|g| g.fidelity).fold(1.0, f64::min);
    let mean_group_fidelity = if n_instances == 0 {
        1.0
    } else {
        grouped
            .assignment
            .iter()
            .map(|&a| groups[a].fidelity)
            .sum::<f64>()
            / n_instances as f64
    };
    let program_fidelity_bound = grouped
        .assignment
        .iter()
        .map(|&a| groups[a].fidelity)
        .product::<f64>();

    // Exact path: compose the reconstructed per-instance unitaries per the
    // grouped schedule and compare against the dense reference.
    let n_qubits = grouped.processed.n_qubits();
    let (exact_fidelity, state_fidelity) = if n_qubits <= MAX_EXACT_QUBITS.min(MAX_DENSE_QUBITS) {
        let reference = circuit_unitary(&grouped.processed);
        let mut reconstructed = Mat::identity(1 << n_qubits);
        debug_assert!(grouped.grouped.is_topologically_sound());
        for group in &grouped.grouped.groups {
            // The cached pulse realizes the *canonical* frame; undo the
            // instance's canonicalizing permutation to recover its
            // local-qubit unitary, then embed over its global qubits.
            let (key, perm) =
                UnitaryKey::canonical_with_permutation(&group.unitary(), group.n_qubits());
            let canonical = realized.get(&key).ok_or(Error::UncoveredGroup {
                n_qubits: group.n_qubits(),
            })?;
            let local = permute_qubits(canonical, &invert_permutation(&perm), group.n_qubits());
            apply_unitary(&mut reconstructed, &local, &group.qubits, n_qubits);
        }
        (
            Some(phase_invariant_fidelity(&reconstructed, &reference)),
            Some(output_state_fidelity(&reference, &reconstructed, 0)),
        )
    } else {
        (None, None)
    };

    let passed = min_group_fidelity >= MIN_GROUP_FIDELITY
        && exact_fidelity.is_none_or(|f| f >= MIN_EXACT_FIDELITY)
        && state_fidelity.is_none_or(|f| f >= MIN_STATE_FIDELITY);
    Ok(VerifyReport {
        groups,
        n_instances,
        min_group_fidelity,
        mean_group_fidelity,
        program_fidelity_bound,
        exact_fidelity,
        state_fidelity,
        passed,
    })
}

// ---------------------------------------------------------------------------
// Differential compile checks.
// ---------------------------------------------------------------------------

/// One cache entry whose two compilations disagree beyond tolerance.
#[derive(Debug, Clone)]
pub struct CacheDivergence {
    /// Canonical group identity.
    pub key: UnitaryKey,
    /// Number of qubits of the group.
    pub n_qubits: usize,
    /// Phase-invariant infidelity between the unitaries the two pulses
    /// realize.
    pub infidelity: f64,
    /// Absolute latency difference, ns.
    pub latency_delta_ns: f64,
}

/// Result of a semantic cache comparison ([`caches_equivalent`]).
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// Keys present in both caches.
    pub n_common: usize,
    /// Keys only the first cache holds.
    pub only_in_a: usize,
    /// Keys only the second cache holds.
    pub only_in_b: usize,
    /// Worst realized-unitary infidelity over common keys.
    pub max_infidelity: f64,
    /// Worst latency disagreement over common keys, ns.
    pub max_latency_delta_ns: f64,
    /// Common entries exceeding the tolerances, sorted by key.
    pub divergences: Vec<CacheDivergence>,
}

impl EquivalenceReport {
    /// `true` when the caches cover the same groups and no common entry
    /// exceeded the tolerances.
    pub fn equivalent(&self) -> bool {
        self.only_in_a == 0 && self.only_in_b == 0 && self.divergences.is_empty()
    }
}

/// Differential oracle: are two pulse caches *semantically* equivalent?
///
/// Byte-equality is the strongest possible agreement (and the parallel
/// engine does deliver it at a fixed partition plan — see
/// `tests/parallel_determinism.rs`), but it is also brittle: two engines
/// that walk different warm-start chains produce different pulse bytes
/// for the *same physics*. This check compares what actually matters —
/// for every group key both caches hold, the unitary each pulse realizes
/// on the control model (within `max_infidelity`) and the reported
/// latency (within `max_latency_delta_ns`).
///
/// # Errors
///
/// [`Error::GroupTooWide`] / [`Error::EmptyGroup`] when an entry's arity
/// has no model; [`Error::InvalidConfig`] when a pulse's channel count
/// disagrees with its model; [`Error::Linalg`] when a pulse does not
/// propagate.
pub fn caches_equivalent(
    models: &ModelSet,
    a: &PulseCache,
    b: &PulseCache,
    max_infidelity: f64,
    max_latency_delta_ns: f64,
) -> Result<EquivalenceReport> {
    let mut common: Vec<&UnitaryKey> = a
        .iter()
        .filter(|(k, _)| b.contains(k))
        .map(|(k, _)| k)
        .collect();
    common.sort();
    let only_in_a = a.len() - common.len();
    let only_in_b = b.len() - common.len();

    let mut max_inf = 0.0f64;
    let mut max_delta = 0.0f64;
    let mut divergences = Vec::new();
    for key in &common {
        let ea = a.lookup(key).expect("key from a");
        let eb = b.lookup(key).expect("common key");
        let model = models.for_qubits(ea.n_qubits)?;
        check_pulse_fits(ea, model)?;
        check_pulse_fits(eb, model)?;
        let ua = total_unitary(model, &ea.pulse)?;
        let ub = total_unitary(model, &eb.pulse)?;
        let infidelity = 1.0 - phase_invariant_fidelity(&ua, &ub);
        let latency_delta_ns = (ea.latency_ns - eb.latency_ns).abs();
        max_inf = max_inf.max(infidelity);
        max_delta = max_delta.max(latency_delta_ns);
        if infidelity > max_infidelity || latency_delta_ns > max_latency_delta_ns {
            divergences.push(CacheDivergence {
                key: (*key).clone(),
                n_qubits: ea.n_qubits,
                infidelity,
                latency_delta_ns,
            });
        }
    }
    Ok(EquivalenceReport {
        n_common: common.len(),
        only_in_a,
        only_in_b,
        max_infidelity: max_inf,
        max_latency_delta_ns: max_delta,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedPulse;
    use accqoc_circuit::Gate;
    use accqoc_grape::Pulse;
    use accqoc_hw::Topology;

    fn tiny_session() -> Session {
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 200;
        Session::builder()
            .topology(Topology::linear(3))
            .grape(grape)
            .build()
            .expect("valid session")
    }

    #[test]
    fn verify_before_compile_reports_uncovered() {
        let session = tiny_session();
        let circuit = Circuit::from_gates(2, [Gate::H(0)]);
        let e = session.verify_program(&circuit).unwrap_err();
        assert!(matches!(e, Error::UncoveredGroup { .. }));
    }

    #[test]
    fn compiled_program_verifies() {
        let session = tiny_session();
        let circuit = Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::T(1)]);
        session.compile_program(&circuit).unwrap();
        let report = session.verify_program(&circuit).unwrap();
        assert!(report.passed, "report: {report:?}");
        assert!(report.min_group_fidelity >= 0.999);
        assert!(report.mean_group_fidelity >= report.min_group_fidelity);
        assert!(report.program_fidelity_bound <= report.min_group_fidelity + 1e-12);
        let exact = report.exact_fidelity.expect("3 qubits is dense-verifiable");
        assert!(exact >= 0.99, "exact program fidelity {exact}");
        let state = report.state_fidelity.expect("state check runs with exact");
        assert!(state >= 0.99, "state fidelity {state}");
        assert_eq!(
            report.n_instances,
            report.groups.iter().map(|g| g.instances).sum::<usize>()
        );
        let worst = report.worst_group().expect("non-empty program");
        assert!((worst.fidelity - report.min_group_fidelity).abs() < 1e-15);
    }

    #[test]
    fn empty_program_verifies_trivially() {
        let session = tiny_session();
        let report = session.verify_program(&Circuit::new(2)).unwrap();
        assert!(report.passed);
        assert_eq!(report.n_instances, 0);
        assert_eq!(report.min_group_fidelity, 1.0);
        assert_eq!(report.program_fidelity_bound, 1.0);
        assert_eq!(report.exact_fidelity, Some(1.0));
    }

    #[test]
    fn corrupted_pulse_fails_verification() {
        let session = tiny_session();
        let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
        session.compile_program(&circuit).unwrap();
        // Sabotage the cache: zero out every cached pulse (which realizes
        // identity-ish evolution, not the compiled groups).
        let snapshot = session.cache_snapshot();
        let mut broken = PulseCache::new();
        for (key, entry) in snapshot.iter() {
            broken.insert(
                key.clone(),
                CachedPulse {
                    pulse: Pulse::zeros(entry.pulse.n_controls(), 4, entry.pulse.dt_ns()),
                    ..entry.clone()
                },
            );
        }
        session.library().merge(broken);
        let report = session.verify_program(&circuit).unwrap();
        assert!(!report.passed, "zeroed pulses must not verify");
        assert!(report.min_group_fidelity < 0.999);
    }

    #[test]
    fn report_json_round_trips() {
        let session = tiny_session();
        let circuit = Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1)]);
        session.compile_program(&circuit).unwrap();
        let report = session.verify_program(&circuit).unwrap();
        let restored = VerifyReport::from_json(&report.to_json()).unwrap();
        assert_eq!(restored, report, "exact f64 round-trip");
        // Wide-register shape (no exact fidelity) round-trips too.
        let wide = VerifyReport {
            exact_fidelity: None,
            state_fidelity: None,
            ..report
        };
        assert_eq!(VerifyReport::from_json(&wide.to_json()).unwrap(), wide);
    }

    #[test]
    fn report_json_rejects_garbage() {
        assert!(matches!(
            VerifyReport::from_json("not json"),
            Err(Error::Json(_))
        ));
        assert!(VerifyReport::from_json("{}").is_err());
        assert!(VerifyReport::from_json("{\"passed\": true}").is_err());
        let no_groups = "{\"n_instances\": 1, \"min_group_fidelity\": 1, \
             \"mean_group_fidelity\": 1, \"program_fidelity_bound\": 1, \
             \"exact_fidelity\": null, \"state_fidelity\": null, \"passed\": true}";
        assert!(VerifyReport::from_json(no_groups).is_err());
        // A *dropped* optional key is corruption, not a wide register.
        let missing_exact = "{\"n_instances\": 0, \"min_group_fidelity\": 1, \
             \"mean_group_fidelity\": 1, \"program_fidelity_bound\": 1, \
             \"state_fidelity\": null, \"passed\": true, \"groups\": []}";
        let e = VerifyReport::from_json(missing_exact).unwrap_err();
        assert!(e.to_string().contains("exact_fidelity"), "{e}");
    }

    #[test]
    fn caches_equivalent_flags_divergence() {
        let session = tiny_session();
        let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::T(0)]);
        session.compile_program(&circuit).unwrap();
        let cache = session.cache_snapshot();

        // Identical caches are trivially equivalent.
        let report =
            caches_equivalent(session.models(), &cache, &cache.clone(), 1e-9, 1e-9).unwrap();
        assert!(report.equivalent(), "{report:?}");
        assert_eq!(report.n_common, cache.len());
        assert!(report.max_infidelity < 1e-12);
        assert_eq!(report.max_latency_delta_ns, 0.0);

        // Zeroing a pulse breaks semantic equivalence even though the key
        // set (and the latency) is unchanged.
        let mut broken = cache.clone();
        let (key, entry) = cache.iter().next().expect("non-empty");
        broken.insert(
            key.clone(),
            CachedPulse {
                pulse: Pulse::zeros(entry.pulse.n_controls(), 4, entry.pulse.dt_ns()),
                ..entry.clone()
            },
        );
        let report = caches_equivalent(session.models(), &cache, &broken, 1e-6, 1e-9).unwrap();
        assert!(!report.equivalent());
        assert_eq!(report.divergences.len(), 1);
        assert!(report.max_infidelity > 1e-3);
    }
}
