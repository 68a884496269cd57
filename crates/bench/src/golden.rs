//! The golden regression corpus: fidelity/latency snapshots per golden
//! workload, checked into `results/golden/` and re-derived from a fresh
//! checkout by `tests/golden_corpus.rs`.
//!
//! The corpus is the contract every future scaling PR compiles against:
//! for each program in [`accqoc_workloads::golden_suite`], the full
//! pipeline (pre-compile → compile → verify) must keep reproducing the
//! recorded coverage, latencies, and fidelities within the documented
//! tolerances. Regenerate deliberately with the `verify_corpus` binary
//! after a change that legitimately moves the numbers, and say why in
//! the commit.
//!
//! Everything here is deterministic: the suite generators are seeded,
//! GRAPE's initial pulse is fixed, and the sequential pre-compile walks
//! one MST order — so the recomputed corpus matches the snapshot exactly
//! on one platform, and the diff tolerances only absorb cross-platform
//! floating-point (libm) drift.

use std::path::{Path, PathBuf};

use accqoc::json::{self, JsonValue};
use accqoc::{PrecompileOptions, Session};
use accqoc_hw::Topology;
use accqoc_workloads::{golden_suite, BenchProgram};

/// File name of the corpus snapshot inside [`golden_dir`].
pub const GOLDEN_FILE: &str = "corpus.json";

/// Latency tolerance (ns) for corpus diffs: a few GRAPE slices. A single
/// cross-platform FP (libm) flip of one binary-search boundary can also
/// reseed that group's MST children through `search.initial_guess`, so
/// legitimate drift is a small multiple of one slice, not exactly one.
pub const LATENCY_TOL_NS: f64 = 4.0;

/// Fidelity tolerance for corpus diffs.
pub const FIDELITY_TOL: f64 = 1e-3;

/// The checked-in corpus directory (`results/golden/` at the workspace
/// root), resolved from this crate's manifest so tests and binaries agree
/// regardless of the working directory.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

/// One workload's recorded pipeline + verification outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRow {
    /// Workload name (suite convention).
    pub name: String,
    /// Logical register width.
    pub n_qubits: usize,
    /// Group instances after the front end.
    pub instances: usize,
    /// Unique groups after de-duplication.
    pub unique_groups: usize,
    /// Cache coverage rate at compile time (1.0 after pre-compilation).
    pub coverage_rate: f64,
    /// Overall pulse latency (Algorithm 3), ns.
    pub overall_latency_ns: f64,
    /// Gate-based baseline latency, ns.
    pub gate_based_latency_ns: f64,
    /// Worst per-group gate fidelity from the verification oracle.
    pub min_group_fidelity: f64,
    /// Multiplicative whole-program fidelity bound.
    pub program_fidelity_bound: f64,
    /// Exact dense-composition process fidelity (all golden programs are
    /// narrow enough for the exact path).
    pub exact_fidelity: f64,
    /// `|0…0⟩` output-state overlap of reconstructed vs reference.
    pub state_fidelity: f64,
}

/// The whole corpus: one row per golden workload, in suite order.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCorpus {
    /// Per-workload rows.
    pub rows: Vec<GoldenRow>,
}

impl GoldenCorpus {
    /// Serializes to pretty JSON (byte-deterministic).
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(r.name.clone())),
                    ("n_qubits".into(), JsonValue::Number(r.n_qubits as f64)),
                    ("instances".into(), JsonValue::Number(r.instances as f64)),
                    (
                        "unique_groups".into(),
                        JsonValue::Number(r.unique_groups as f64),
                    ),
                    ("coverage_rate".into(), JsonValue::Number(r.coverage_rate)),
                    (
                        "overall_latency_ns".into(),
                        JsonValue::Number(r.overall_latency_ns),
                    ),
                    (
                        "gate_based_latency_ns".into(),
                        JsonValue::Number(r.gate_based_latency_ns),
                    ),
                    (
                        "min_group_fidelity".into(),
                        JsonValue::Number(r.min_group_fidelity),
                    ),
                    (
                        "program_fidelity_bound".into(),
                        JsonValue::Number(r.program_fidelity_bound),
                    ),
                    ("exact_fidelity".into(), JsonValue::Number(r.exact_fidelity)),
                    ("state_fidelity".into(), JsonValue::Number(r.state_fidelity)),
                ])
            })
            .collect();
        JsonValue::Object(vec![("workloads".into(), JsonValue::Array(rows))]).to_pretty()
    }

    /// Parses a corpus produced by [`GoldenCorpus::to_json`].
    ///
    /// # Errors
    ///
    /// [`accqoc::Error::Json`] on malformed input.
    pub fn from_json(text: &str) -> accqoc::Result<Self> {
        let malformed = |message: &str| json::JsonError {
            message: format!("golden corpus: {message}"),
            offset: 0,
        };
        let doc = json::parse(text)?;
        let mut rows = Vec::new();
        for entry in doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing `workloads` array"))?
        {
            let num = |field: &str| -> accqoc::Result<f64> {
                entry
                    .get(field)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| malformed(&format!("row missing number `{field}`")).into())
            };
            let int = |field: &str| -> accqoc::Result<usize> {
                entry
                    .get(field)
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| malformed(&format!("row missing integer `{field}`")).into())
            };
            rows.push(GoldenRow {
                name: entry
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| malformed("row missing `name`"))?
                    .to_string(),
                n_qubits: int("n_qubits")?,
                instances: int("instances")?,
                unique_groups: int("unique_groups")?,
                coverage_rate: num("coverage_rate")?,
                overall_latency_ns: num("overall_latency_ns")?,
                gate_based_latency_ns: num("gate_based_latency_ns")?,
                min_group_fidelity: num("min_group_fidelity")?,
                program_fidelity_bound: num("program_fidelity_bound")?,
                exact_fidelity: num("exact_fidelity")?,
                state_fidelity: num("state_fidelity")?,
            });
        }
        Ok(Self { rows })
    }

    /// Loads a corpus snapshot from disk.
    ///
    /// # Errors
    ///
    /// [`accqoc::Error::Io`] / [`accqoc::Error::Json`] on unreadable or
    /// malformed files.
    pub fn load(path: impl AsRef<Path>) -> accqoc::Result<Self> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Writes the corpus snapshot (creating parent directories).
    ///
    /// # Errors
    ///
    /// [`accqoc::Error::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> accqoc::Result<()> {
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

/// The session configuration the golden corpus is recorded under: a
/// 5-qubit linear device (every golden program maps onto it and stays
/// inside the exact verification oracle) with the repository's standard
/// capped GRAPE budget. Changing this configuration invalidates the
/// corpus — regenerate it in the same change.
///
/// The serving scenarios ([`crate::scenario::serving_builder`]) run the
/// same device at 300 iterations instead: their pinned numbers (golden
/// warm share 0.520, UCCSD 0.825) were measured under that cap, as the
/// corpus was under this one, so moving either cap re-pins the numbers
/// recorded under it.
pub fn golden_session() -> Session {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    Session::builder()
        .topology(Topology::linear(5))
        .grape(grape)
        .build()
        .expect("golden session config is valid")
}

/// Recomputes the corpus from scratch: sequential pre-compilation of the
/// golden suite's group category (the deterministic reference engine),
/// then compile + verify per workload.
///
/// # Panics
///
/// Panics when a golden workload fails to compile or verify — that *is*
/// the regression signal when run from a test.
pub fn compute_corpus() -> GoldenCorpus {
    let programs = golden_suite();
    let session = golden_session();
    let circuits: Vec<_> = programs.iter().map(|p| p.circuit.clone()).collect();
    session
        .precompile(&circuits, &PrecompileOptions::default())
        .expect("golden suite pre-compiles");
    let rows = programs.iter().map(|p| compute_row(&session, p)).collect();
    GoldenCorpus { rows }
}

fn compute_row(session: &Session, program: &BenchProgram) -> GoldenRow {
    let compiled = session
        .compile_program(&program.circuit)
        .expect("golden workload compiles");
    let report = session
        .verify_program(&program.circuit)
        .expect("golden workload verifies");
    GoldenRow {
        name: program.name.clone(),
        n_qubits: program.circuit.n_qubits(),
        instances: report.n_instances,
        unique_groups: report.groups.len(),
        coverage_rate: compiled.coverage.rate(),
        overall_latency_ns: compiled.overall_latency_ns,
        gate_based_latency_ns: compiled.gate_based_latency_ns,
        min_group_fidelity: report.min_group_fidelity,
        program_fidelity_bound: report.program_fidelity_bound,
        exact_fidelity: report
            .exact_fidelity
            .expect("golden programs are narrow enough for the exact oracle"),
        state_fidelity: report.state_fidelity.expect("state check runs with exact"),
    }
}

/// Compares a recomputed corpus against the checked-in snapshot; returns
/// one human-readable line per mismatch (empty means the corpus holds).
///
/// Structure (names, counts, coverage) must match exactly; latencies are
/// compared within [`LATENCY_TOL_NS`] and fidelities within
/// [`FIDELITY_TOL`].
pub fn diff_corpus(expected: &GoldenCorpus, actual: &GoldenCorpus) -> Vec<String> {
    let mut out = Vec::new();
    if expected.rows.len() != actual.rows.len() {
        out.push(format!(
            "corpus size changed: expected {} workloads, got {}",
            expected.rows.len(),
            actual.rows.len()
        ));
        return out;
    }
    for (e, a) in expected.rows.iter().zip(&actual.rows) {
        let ctx = &e.name;
        if e.name != a.name {
            out.push(format!("workload order changed: {ctx} vs {}", a.name));
            continue;
        }
        let mut exact = |field: &str, x: usize, y: usize| {
            if x != y {
                out.push(format!("{ctx}: {field} expected {x}, got {y}"));
            }
        };
        exact("n_qubits", e.n_qubits, a.n_qubits);
        exact("instances", e.instances, a.instances);
        exact("unique_groups", e.unique_groups, a.unique_groups);
        let mut close = |field: &str, x: f64, y: f64, tol: f64| {
            if (x - y).abs() > tol {
                out.push(format!(
                    "{ctx}: {field} expected {x}, got {y} (tolerance {tol})"
                ));
            }
        };
        close("coverage_rate", e.coverage_rate, a.coverage_rate, 1e-12);
        close(
            "overall_latency_ns",
            e.overall_latency_ns,
            a.overall_latency_ns,
            LATENCY_TOL_NS,
        );
        close(
            "gate_based_latency_ns",
            e.gate_based_latency_ns,
            a.gate_based_latency_ns,
            LATENCY_TOL_NS,
        );
        close(
            "min_group_fidelity",
            e.min_group_fidelity,
            a.min_group_fidelity,
            FIDELITY_TOL,
        );
        close(
            "program_fidelity_bound",
            e.program_fidelity_bound,
            a.program_fidelity_bound,
            FIDELITY_TOL,
        );
        close(
            "exact_fidelity",
            e.exact_fidelity,
            a.exact_fidelity,
            FIDELITY_TOL,
        );
        close(
            "state_fidelity",
            e.state_fidelity,
            a.state_fidelity,
            FIDELITY_TOL,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GoldenCorpus {
        GoldenCorpus {
            rows: vec![GoldenRow {
                name: "qft_3".into(),
                n_qubits: 3,
                instances: 9,
                unique_groups: 9,
                coverage_rate: 1.0,
                overall_latency_ns: 169.0,
                gate_based_latency_ns: 415.0,
                min_group_fidelity: 0.99991,
                program_fidelity_bound: 0.9991,
                exact_fidelity: 0.9993,
                state_fidelity: 0.9995,
            }],
        }
    }

    #[test]
    fn corpus_json_round_trips() {
        let corpus = sample();
        let restored = GoldenCorpus::from_json(&corpus.to_json()).unwrap();
        assert_eq!(restored, corpus);
        assert!(GoldenCorpus::from_json("{}").is_err());
        assert!(GoldenCorpus::from_json("nope").is_err());
    }

    #[test]
    fn diff_flags_each_kind_of_drift() {
        let base = sample();
        assert!(diff_corpus(&base, &base.clone()).is_empty());

        let mut latency = base.clone();
        latency.rows[0].overall_latency_ns += 10.0;
        let d = diff_corpus(&base, &latency);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("overall_latency_ns"), "{d:?}");

        // Within tolerance: no report.
        let mut slight = base.clone();
        slight.rows[0].overall_latency_ns += 1.0;
        slight.rows[0].exact_fidelity += 1e-5;
        assert!(diff_corpus(&base, &slight).is_empty());

        let mut structural = base.clone();
        structural.rows[0].unique_groups = 8;
        assert!(!diff_corpus(&base, &structural).is_empty());

        let mut missing = base.clone();
        missing.rows.clear();
        let d = diff_corpus(&base, &missing);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("size changed"));
    }
}
