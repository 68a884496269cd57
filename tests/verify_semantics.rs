//! The differential compile oracle: every way the workspace compiles a
//! category — [`Session::precompile`] on the sequential chain (the batch
//! engine at plan width 1) and on threads (the default partition plan),
//! and program-by-program [`Session::compile_program`] — must produce
//! *semantically* equivalent pulses: same covered groups, same realized
//! unitaries, same latencies within tolerance. Byte-equality of cache
//! artifacts is checked elsewhere (`tests/parallel_determinism.rs`);
//! this file checks the physics, which also holds across engines whose
//! bytes legitimately differ.
//!
//! [`Session::precompile`]: accqoc::Session::precompile
//! [`Session::compile_program`]: accqoc::Session::compile_program

use accqoc_repro::accqoc::caches_equivalent;
use accqoc_repro::prelude::*;
use accqoc_repro::workloads::golden_suite;

fn session() -> Session {
    let mut grape = GrapeOptions::default();
    grape.stop.max_iters = 200;
    Session::builder()
        .topology(Topology::linear(3))
        .grape(grape)
        .build()
        .expect("valid session")
}

/// A family of similar programs producing a multi-group category, the
/// same shape `tests/parallel_determinism.rs` uses.
fn programs() -> Vec<Circuit> {
    (1..=4)
        .map(|k| {
            Circuit::from_gates(
                3,
                [
                    Gate::Rz(0, 0.12 * k as f64),
                    Gate::H(0),
                    Gate::Cx(0, 1),
                    Gate::Rz(1, 0.05 * k as f64),
                ],
            )
        })
        .collect()
}

#[test]
fn all_compile_engines_are_semantically_equivalent() {
    let progs = programs();

    // Engine A: the sequential reference.
    let seq = session();
    seq.precompile(&progs, &PrecompileOptions::default())
        .unwrap();
    let seq_cache = seq.cache_snapshot();
    assert!(!seq_cache.is_empty());

    // Engine B: parallel at the default plan width. Cut MST edges may
    // change pulse bytes (different warm starts), but every pulse still
    // hits the same canonical target, so realized unitaries agree to
    // well under the combined 1e-4 convergence budget. Latencies are an
    // *optimization* result, not a semantic one: a warm seed can extend
    // the feasibility frontier by several slices, so grant them a
    // handful of slices of slack here (plan width 1 is pinned to the
    // sequential chain byte for byte in `tests/parallel_determinism.rs`).
    let default_plan = session();
    let options = PrecompileOptions {
        threads: Some(4),
        ..PrecompileOptions::default()
    };
    default_plan.precompile(&progs, &options).unwrap();
    let report = caches_equivalent(
        seq.models(),
        &seq_cache,
        &default_plan.cache_snapshot(),
        2e-3,
        10.0,
    )
    .unwrap();
    assert!(
        report.equivalent(),
        "default-plan parallel diverged: {report:?}"
    );

    // Engine C: one session compiling program by program into its own
    // growing cache (per-program MSTs instead of one global MST —
    // different chains, same physics).
    let per_program = session();
    for p in &progs {
        per_program.compile_program(p).unwrap();
    }
    let report = caches_equivalent(
        seq.models(),
        &seq_cache,
        &per_program.cache_snapshot(),
        2e-3,
        10.0,
    )
    .unwrap();
    assert!(
        report.equivalent(),
        "per-program compilation diverged: {report:?}"
    );
}

#[test]
fn workload_verifies_after_parallel_compilation() {
    // A real suite workload through the parallel engine, then the
    // pulse-vs-unitary oracle end to end.
    let qft3 = golden_suite()
        .into_iter()
        .find(|p| p.name == "qft_3")
        .expect("qft_3 is golden")
        .circuit;
    let session = session();
    let options = PrecompileOptions {
        threads: Some(2),
        ..PrecompileOptions::default()
    };
    session
        .precompile(std::slice::from_ref(&qft3), &options)
        .unwrap();
    let compiled = session.compile_program(&qft3).unwrap();
    assert_eq!(compiled.coverage.covered, compiled.coverage.total);

    let report = session.verify_program(&qft3).unwrap();
    assert!(report.passed, "{report:?}");
    assert!(report.min_group_fidelity >= 0.999);
    let exact = report.exact_fidelity.expect("3 qubits is dense-verifiable");
    assert!(exact >= 0.98, "exact fidelity {exact}");
    assert!(report.state_fidelity.expect("state check ran") >= 0.98);

    // The report is also the artifact format of the golden corpus: it
    // must survive its own JSON dialect bit-exactly.
    let restored =
        accqoc_repro::accqoc::VerifyReport::from_json(&report.to_json()).expect("round-trip");
    assert_eq!(restored, report);
}
