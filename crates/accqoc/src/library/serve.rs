//! Online serving: compile programs as they arrive, against the live
//! pulse library.
//!
//! Batch pre-compilation covers the profiled third of a suite; the
//! serving path covers everything that arrives afterwards. Each unique
//! group of an arriving program is resolved in order:
//!
//! 1. **hit** — the library already holds the canonical key: the pulse
//!    is reused as-is (and its recency refreshed);
//! 2. **warm miss** — the fingerprint index proposes the nearest cached
//!    neighbors, the exact similarity function re-scores the short list,
//!    and if the best neighbor passes the trace-overlap warm-start gate
//!    (the same [`warm_start_allowed`] rule the MST batch engine uses)
//!    GRAPE starts from its pulse;
//! 3. **scratch miss** — no neighbor (empty library, new dimension, or
//!    nothing similar enough): GRAPE starts from scratch — never an
//!    error.
//!
//! Every compiled pulse is inserted back (fingerprint-indexed, under the
//! capacity bound), so a stream of similar programs converges onto a hot
//! working set; [`LibraryStats`](crate::LibraryStats) counts hits,
//! misses, and the warm/scratch split.

use accqoc_circuit::UnitaryKey;

use crate::cache::CachedPulse;
use crate::compile::warm_start_allowed;
use crate::error::Result;
use crate::json::{self, hex_decode, hex_encode, JsonError, JsonValue};
use crate::session::{CoverageStats, Session};

/// Warm-started compiles anchor the latency binary search at the seed:
/// the search floor is raised to `seed_steps × SEARCH_ANCHOR` (never
/// above the seed itself), pruning the deep-infeasible probes that
/// dominate a cold search. Similar groups have similar minimal latencies
/// — the premise of the paper's §V-B — so the pruned region is (almost)
/// never where the optimum lives. At `1.0` the search *trusts* the seed's
/// slice count: it confirms the seed converges, then walks downward one
/// slice at a time while the shorter probe keeps converging (each step
/// warm-started from the last), stopping at the first failure — so
/// near-identical neighbors, like adjacent points of a parameterized
/// θ-sweep, cost two GRAPE runs instead of a whole probe cascade, and a
/// beatable seed descends to the true minimum without re-opening the
/// bisection over the deep-infeasible region. (The batch engine anchors
/// at `0.0`, which is the plain search.)
pub(crate) const SEARCH_ANCHOR: f64 = 1.0;

/// Configuration of the online serving path.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Fingerprint candidates retrieved per cache miss before exact
    /// re-scoring. Larger values recover more warm starts at slightly
    /// higher lookup cost; the default (16) saturates the golden-suite
    /// warm-start share.
    pub candidates: usize,
    /// Serve only the unique groups of these widths (`None` = every
    /// group): what one shard of a width-partitioned deployment owns.
    /// See [`Session::serve_grouped`] for what a subset report carries.
    pub only_qubits: Option<Vec<usize>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            candidates: 16,
            only_qubits: None,
        }
    }
}

/// How one unique group of a served program was resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedGroup {
    /// Canonical group key.
    pub key: UnitaryKey,
    /// Qubits the group spans.
    pub n_qubits: usize,
    /// `true` when the library covered the key (no compile).
    pub hit: bool,
    /// The neighbor whose pulse warm-started the compile, when one
    /// passed the warm-start gate.
    pub warm_from: Option<UnitaryKey>,
    /// GRAPE iterations spent (0 on hits).
    pub iterations: usize,
    /// Pulse latency of the group, ns.
    pub latency_ns: f64,
}

/// Report of serving one program through the pulse library.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Overall pulse latency of the program (Algorithm 3 DP), ns.
    pub overall_latency_ns: f64,
    /// Gate-based compilation latency of the same circuit, ns.
    pub gate_based_latency_ns: f64,
    /// Instance coverage against the library at arrival time.
    pub coverage: CoverageStats,
    /// Per-unique-group serving outcomes, in the front end's target
    /// order (the canonical order every deployment shape — one process
    /// or a width-partitioned router — reports identically; the serve
    /// *sequence* shows through each group's `warm_from` lineage).
    pub groups: Vec<ServedGroup>,
    /// Unique groups compiled (misses).
    pub n_compiled: usize,
    /// Compiled groups that were warm-started.
    pub n_warm_started: usize,
    /// GRAPE iterations spent on this program.
    pub dynamic_iterations: usize,
}

impl ServeReport {
    /// Latency reduction factor vs gate-based compilation.
    pub fn latency_reduction(&self) -> f64 {
        if self.overall_latency_ns == 0.0 {
            1.0
        } else {
            self.gate_based_latency_ns / self.overall_latency_ns
        }
    }

    /// Fraction of this program's compiles that were warm-started
    /// (0.0 when nothing was compiled).
    pub fn warm_share(&self) -> f64 {
        if self.n_compiled == 0 {
            0.0
        } else {
            self.n_warm_started as f64 / self.n_compiled as f64
        }
    }

    /// The report as a JSON value — the payload the serving daemon puts
    /// on the wire, carrying exactly the counters the in-process path
    /// reports (keys serialize as hex, like the pulse-cache artifact).
    pub fn to_json_value(&self) -> JsonValue {
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
                    ("hit".into(), JsonValue::Bool(g.hit)),
                    (
                        "warm_from".into(),
                        match &g.warm_from {
                            Some(k) => JsonValue::String(hex_encode(k.as_bytes())),
                            None => JsonValue::Null,
                        },
                    ),
                    ("iterations".into(), JsonValue::Number(g.iterations as f64)),
                    ("latency_ns".into(), JsonValue::Number(g.latency_ns)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "overall_latency_ns".into(),
                JsonValue::Number(self.overall_latency_ns),
            ),
            (
                "gate_based_latency_ns".into(),
                JsonValue::Number(self.gate_based_latency_ns),
            ),
            (
                "coverage_covered".into(),
                JsonValue::Number(self.coverage.covered as f64),
            ),
            (
                "coverage_total".into(),
                JsonValue::Number(self.coverage.total as f64),
            ),
            (
                "n_compiled".into(),
                JsonValue::Number(self.n_compiled as f64),
            ),
            (
                "n_warm_started".into(),
                JsonValue::Number(self.n_warm_started as f64),
            ),
            (
                "dynamic_iterations".into(),
                JsonValue::Number(self.dynamic_iterations as f64),
            ),
            ("groups".into(), JsonValue::Array(groups)),
        ])
    }

    /// Serializes via [`ServeReport::to_json_value`] (single line, no
    /// trailing newline — ready for the daemon's newline-delimited
    /// framing).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_compact()
    }

    /// Reconstructs a report from [`ServeReport::to_json_value`] output.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] when a field is missing or mistyped.
    pub fn from_json_value(value: &JsonValue) -> Result<Self> {
        let malformed = |message: &str| JsonError {
            message: format!("serve report: {message}"),
            offset: 0,
        };
        let num = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| malformed(&format!("missing number `{name}`")))
        };
        let count = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| malformed(&format!("missing count `{name}`")))
        };
        let groups_json = value
            .get("groups")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing `groups` array"))?;
        let mut groups = Vec::with_capacity(groups_json.len());
        for g in groups_json {
            let key_hex = g
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("group missing `key`"))?;
            let warm_from = match g.get("warm_from") {
                Some(JsonValue::Null) => None,
                Some(JsonValue::String(hex)) => Some(UnitaryKey::from_bytes(hex_decode(hex)?)),
                _ => return Err(malformed("group missing `warm_from`").into()),
            };
            groups.push(ServedGroup {
                key: UnitaryKey::from_bytes(hex_decode(key_hex)?),
                n_qubits: g
                    .get("n_qubits")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| malformed("group missing `n_qubits`"))?,
                hit: match g.get("hit") {
                    Some(JsonValue::Bool(b)) => *b,
                    _ => return Err(malformed("group missing `hit`").into()),
                },
                warm_from,
                iterations: g
                    .get("iterations")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| malformed("group missing `iterations`"))?,
                latency_ns: g
                    .get("latency_ns")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| malformed("group missing `latency_ns`"))?,
            });
        }
        Ok(Self {
            overall_latency_ns: num("overall_latency_ns")?,
            gate_based_latency_ns: num("gate_based_latency_ns")?,
            coverage: CoverageStats {
                covered: count("coverage_covered")?,
                total: count("coverage_total")?,
            },
            groups,
            n_compiled: count("n_compiled")?,
            n_warm_started: count("n_warm_started")?,
            dynamic_iterations: count("dynamic_iterations")?,
        })
    }

    /// Parses a report serialized by [`ServeReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self> {
        Self::from_json_value(&json::parse(text)?)
    }
}

/// Serves the unique groups of a front-ended program whose width is in
/// `options.only_qubits` (`None` = every group) against the session's
/// pulse library: the implementation behind [`Session::serve_program`]
/// and [`Session::serve_grouped`], whose docs state the contract. See
/// the module docs for the hit / warm-miss / scratch-miss resolution.
///
/// The program's latency is folded from the pulses resolved *during*
/// this call, so a bounded library that evicts one of this program's own
/// groups mid-serve still reports correct latencies.
pub(crate) fn serve_grouped(
    session: &Session,
    grouped: &crate::session::GroupReport,
    options: &ServeOptions,
) -> Result<ServeReport> {
    let only_qubits = options.only_qubits.as_deref();
    let library = session.library();
    let n_unique = grouped.targets.len();
    let owned: Vec<bool> = grouped
        .targets
        .iter()
        .map(|t| only_qubits.is_none_or(|widths| widths.contains(&t.n_qubits)))
        .collect();

    let mut per_unique: Vec<f64> = vec![0.0; n_unique];
    let mut covered_unique: Vec<bool> = vec![false; n_unique];
    let mut groups: Vec<ServedGroup> = Vec::with_capacity(n_unique);
    // Leased, not allocated: the serving daemon calls this per request,
    // and the pooled workspace arrives with its solver buffers already
    // grown by earlier requests of the same dimensions.
    let mut ws = session.lease_workspace();
    let mut dynamic_iterations = 0usize;

    // Pass 1: exact key hits.
    let mut missing: Vec<usize> = Vec::new();
    for (i, target) in grouped.targets.iter().enumerate() {
        if !owned[i] {
            continue;
        }
        if let Some(entry) = library.hit(&target.key) {
            library.record_hit();
            per_unique[i] = entry.latency_ns;
            covered_unique[i] = true;
            groups.push(ServedGroup {
                key: target.key.clone(),
                n_qubits: target.n_qubits,
                hit: true,
                warm_from: None,
                iterations: 0,
                latency_ns: entry.latency_ns,
            });
        } else {
            missing.push(i);
        }
    }

    // Pass 2: misses, nearest-first. Each compiled pulse is inserted
    // before the next pick, so a program's own groups seed each other —
    // the greedy online analogue of the batch engine's Prim order
    // (which also always extends the tree by the cheapest edge). When
    // no miss has a neighbor inside the warm-start gate, the round is a
    // forced scratch compile; it picks the *hub* — the miss that sits
    // within the gate of the most other misses — so one scratch buys
    // the largest downstream warm harvest. An empty library (or a new
    // dimension) is just a stream of such rounds — never an error.
    let gate = session.config().warm_threshold;
    let mut scratch = crate::similarity::SimilarityScratch::new();
    // A miss's query fingerprint never changes across rounds — compute
    // each once, not O(m²) times over the re-query loop.
    let fingerprints: Vec<crate::UnitaryFingerprint> = grouped
        .targets
        .iter()
        .map(|t| crate::UnitaryFingerprint::of(&t.unitary, t.n_qubits))
        .collect();
    while !missing.is_empty() {
        // Nearest *gated* candidate: the warm-start gate (the exact
        // trace-overlap rule the MST batch engine applies) is checked
        // per miss, so a viable warm start is never lost to a
        // gate-failing pick that merely ranked closer under the
        // configured similarity function.
        let mut pick = 0usize;
        let mut pick_neighbor: Option<crate::library::NearestPulse> = None;
        let mut pick_distance = f64::INFINITY;
        for (slot, &i) in missing.iter().enumerate() {
            let target = &grouped.targets[i];
            let Some(neighbor) = library.nearest_by_fingerprint(
                &fingerprints[i],
                &target.unitary,
                options.candidates,
                session.config().similarity,
            ) else {
                continue;
            };
            if !warm_start_allowed(&neighbor.unitary, &target.unitary, gate) {
                continue;
            }
            // Strict `<` keeps the earliest target on ties.
            if neighbor.distance < pick_distance {
                pick = slot;
                pick_distance = neighbor.distance;
                pick_neighbor = Some(neighbor);
            }
        }
        if pick_neighbor.is_none() {
            // Forced scratch round: serve the hub — the miss within the
            // gate of the most other misses (ties and the no-edge case
            // keep the earliest target).
            let mut best_degree = 0usize;
            for (slot, &i) in missing.iter().enumerate() {
                let degree = missing
                    .iter()
                    .filter(|&&j| {
                        j != i
                            && grouped.targets[j].n_qubits == grouped.targets[i].n_qubits
                            && crate::similarity::SimilarityFn::TraceOverlap.distance_with(
                                &grouped.targets[i].unitary,
                                &grouped.targets[j].unitary,
                                &mut scratch,
                            ) <= gate
                    })
                    .count();
                if degree > best_degree {
                    best_degree = degree;
                    pick = slot;
                }
            }
        }
        let i = missing.remove(pick);
        let target = &grouped.targets[i];
        let warm = pick_neighbor.as_ref();
        let result = session.compile_anchored(
            &target.unitary,
            target.n_qubits,
            warm.map(|n| &n.pulse),
            SEARCH_ANCHOR,
            &mut ws,
        )?;
        let warm_from = warm.map(|n| n.key.clone());
        library.record_compile(warm_from.is_some(), result.total_iterations);
        library.insert(
            target.key.clone(),
            CachedPulse {
                pulse: result.outcome.pulse,
                latency_ns: result.latency_ns,
                iterations: result.total_iterations,
                n_qubits: target.n_qubits,
            },
            Some(&target.unitary),
        );
        dynamic_iterations += result.total_iterations;
        per_unique[i] = result.latency_ns;
        groups.push(ServedGroup {
            key: target.key.clone(),
            n_qubits: target.n_qubits,
            hit: false,
            warm_from,
            iterations: result.total_iterations,
            latency_ns: result.latency_ns,
        });
    }

    let covered = grouped
        .assignment
        .iter()
        .filter(|&&u| covered_unique[u])
        .count();
    let total = grouped.assignment.iter().filter(|&&u| owned[u]).count();
    // Program-level latencies exist only for a whole-program serve: a
    // width subset cannot see the other shards' group latencies, so the
    // router folds the overall number from the merged per-group results.
    let (overall_latency_ns, gate_based_latency_ns) = if only_qubits.is_none() {
        let per_instance: Vec<f64> = grouped.assignment.iter().map(|&u| per_unique[u]).collect();
        (
            grouped.grouped.overall_latency(|i| per_instance[i]),
            session.gate_based_latency(&grouped.processed),
        )
    } else {
        (0.0, 0.0)
    };

    // Canonical report order: the front end's target order, not the
    // greedy pick order. The pick order interleaves widths by live
    // similarity distances, which no single shard of a width-partitioned
    // deployment can observe — target order is the one order a router
    // can reassemble byte-identically from per-shard reports. The serve
    // *sequence* still shows through `warm_from` lineage.
    let order: std::collections::HashMap<&UnitaryKey, usize> = grouped
        .targets
        .iter()
        .enumerate()
        .map(|(i, t)| (&t.key, i))
        .collect();
    groups.sort_by_key(|g| order.get(&g.key).copied().unwrap_or(usize::MAX));

    let n_compiled = groups.iter().filter(|g| !g.hit).count();
    let n_warm_started = groups.iter().filter(|g| g.warm_from.is_some()).count();
    Ok(ServeReport {
        overall_latency_ns,
        gate_based_latency_ns,
        coverage: CoverageStats { covered, total },
        groups,
        n_compiled,
        n_warm_started,
        dynamic_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};

    fn sample_report() -> ServeReport {
        let key = |theta: f64| {
            let u = circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, theta)]));
            UnitaryKey::canonical(&u, 1)
        };
        ServeReport {
            overall_latency_ns: 42.5,
            gate_based_latency_ns: 120.0,
            coverage: CoverageStats {
                covered: 3,
                total: 5,
            },
            groups: vec![
                ServedGroup {
                    key: key(0.3),
                    n_qubits: 1,
                    hit: true,
                    warm_from: None,
                    iterations: 0,
                    latency_ns: 10.0,
                },
                ServedGroup {
                    key: key(0.9),
                    n_qubits: 1,
                    hit: false,
                    warm_from: Some(key(0.3)),
                    iterations: 17,
                    latency_ns: 12.25,
                },
            ],
            n_compiled: 1,
            n_warm_started: 1,
            dynamic_iterations: 17,
        }
    }

    #[test]
    fn report_json_roundtrips_byte_exactly() {
        let report = sample_report();
        let text = report.to_json();
        assert!(!text.contains('\n'), "wire format is one frame");
        let restored = ServeReport::from_json(&text).unwrap();
        // to_json is deterministic, so byte equality is full equality.
        assert_eq!(restored.to_json(), text);
        assert_eq!(restored.groups.len(), 2);
        assert_eq!(restored.groups[1].warm_from, report.groups[1].warm_from);
        assert_eq!(restored.coverage, report.coverage);
    }

    #[test]
    fn report_json_rejects_malformed_input() {
        assert!(ServeReport::from_json("not json").is_err());
        assert!(ServeReport::from_json("{}").is_err());
        let no_hit = r#"{"overall_latency_ns": 1, "gate_based_latency_ns": 2,
            "coverage_covered": 0, "coverage_total": 0, "n_compiled": 0,
            "n_warm_started": 0, "dynamic_iterations": 0,
            "groups": [{"key": "00", "n_qubits": 1, "warm_from": null,
                        "iterations": 0, "latency_ns": 1}]}"#;
        assert!(ServeReport::from_json(no_hit).is_err());
        let bad_key = r#"{"overall_latency_ns": 1, "gate_based_latency_ns": 2,
            "coverage_covered": 0, "coverage_total": 0, "n_compiled": 0,
            "n_warm_started": 0, "dynamic_iterations": 0,
            "groups": [{"key": "zz", "hit": true, "n_qubits": 1,
                        "warm_from": null, "iterations": 0, "latency_ns": 1}]}"#;
        assert!(ServeReport::from_json(bad_key).is_err());
    }
}
