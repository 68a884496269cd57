//! End-to-end integration: program → mapping → grouping → GRAPE pulses →
//! latency, with physical verification that cached pulses realize their
//! groups' unitaries.

use accqoc_repro::accqoc::collect_category;
use accqoc_repro::grape::{infidelity, total_unitary};
use accqoc_repro::prelude::*;
use accqoc_repro::workloads::qft;

fn small_session() -> Session {
    let mut grape = GrapeOptions::default();
    grape.stop.max_iters = 250;
    Session::builder()
        .topology(Topology::linear(3))
        .grape(grape)
        .build()
        .expect("valid session config")
}

#[test]
fn qft3_compiles_with_latency_reduction() {
    let session = small_session();
    let result = session.compile_program(&qft(3)).expect("qft3 compiles");
    assert!(result.overall_latency_ns > 0.0);
    assert!(
        result.latency_reduction() > 1.2,
        "QOC should beat gate-based concatenation: {:.2}x",
        result.latency_reduction()
    );
    assert!(result.grouped.is_topologically_sound());
    // Everything a second run needs is cached.
    let again = session.compile_program(&qft(3)).unwrap();
    assert_eq!(again.dynamic_iterations, 0);
    assert_eq!(again.coverage.covered, again.coverage.total);
}

#[test]
fn cached_pulses_realize_their_unitaries() {
    // The core physical contract: every pulse in the cache, replayed on
    // the device model, reproduces its group's canonical unitary to the
    // paper's 1e-4 infidelity target.
    let session = small_session();
    let program = Circuit::from_gates(
        3,
        [
            Gate::H(0),
            Gate::Cx(0, 1),
            Gate::T(1),
            Gate::Cx(1, 2),
            Gate::Tdg(2),
            Gate::H(2),
        ],
    );
    session.compile_program(&program).unwrap();

    let cache = session.cache_snapshot();
    let (canonical, keys, _) = collect_category(&session, std::slice::from_ref(&program));
    assert!(!keys.is_empty());
    let mut checked = 0;
    for ((target, n_qubits), key) in canonical.iter().zip(&keys) {
        let entry = cache.lookup(key).expect("group compiled");
        let model = session
            .models()
            .for_qubits(*n_qubits)
            .expect("model exists");
        let realized = total_unitary(model, &entry.pulse).expect("finite pulse propagates");
        let inf = infidelity(target, &realized);
        assert!(
            inf <= 1.2e-4,
            "pulse infidelity {inf} for {n_qubits}-qubit group"
        );
        assert!((entry.pulse.latency_ns() - entry.latency_ns).abs() < 1e-9);
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected multiple unique groups, got {checked}"
    );
}

#[test]
fn group_latencies_bound_overall_latency() {
    let session = small_session();
    let result = session.compile_program(&qft(3)).unwrap();
    // Overall latency is at least the longest single group and at most the
    // serial sum of all groups.
    let cache = session.cache_snapshot();
    let latencies: Vec<f64> = cache.iter().map(|(_, e)| e.latency_ns).collect();
    let max = latencies.iter().copied().fold(0.0, f64::max);
    let sum: f64 = result
        .grouped
        .groups
        .iter()
        .map(|_| max) // conservative per-instance bound
        .sum();
    assert!(result.overall_latency_ns >= max - 1e-9);
    assert!(result.overall_latency_ns <= sum + 1e-9);
}

#[test]
fn precompile_then_cover_unseen_program() {
    let session = small_session();
    // Profile on two programs; evaluate on a third sharing structure.
    let profile = vec![
        Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::T(1)]),
        Circuit::from_gates(3, [Gate::Cx(1, 2), Gate::H(2), Gate::Cx(1, 2)]),
    ];
    session
        .precompile(&profile, &PrecompileOptions::default())
        .unwrap();
    let pre_size = session.cache_len();
    assert!(pre_size >= 2);

    let unseen = Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::T(1), Gate::Cx(1, 2)]);
    let coverage = session.lookup(&session.front_end(&unseen)).coverage;
    assert!(
        coverage.covered > 0,
        "profiled groups should cover part of the program"
    );
    let result = session.compile_program(&unseen).unwrap();
    assert!(result.coverage.rate() > 0.0);
    assert!(session.cache_len() >= pre_size);
}

#[test]
fn deterministic_compilation_across_runs() {
    let run = || {
        let session = small_session();
        let r = session.compile_program(&qft(3)).unwrap();
        (
            r.overall_latency_ns,
            r.dynamic_iterations,
            session.cache_snapshot().to_json(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "cache JSON should be byte-identical across runs");
}

#[test]
fn swap_policy_vs_map_policy_differ() {
    use accqoc_repro::group::SwapMode;
    // A program that needs routing on a line → swaps appear.
    let program = Circuit::from_gates(3, [Gate::Cx(0, 2), Gate::H(1), Gate::Cx(0, 2)]);

    let map_session = Session::builder()
        .topology(Topology::linear(3))
        .policy(GroupingPolicy::new(SwapMode::Map, 2, 4))
        .build()
        .unwrap();
    let map_result = map_session.compile_program(&program).unwrap();

    let swap_session = Session::builder()
        .topology(Topology::linear(3))
        .policy(GroupingPolicy::new(SwapMode::Swap, 2, 4))
        .build()
        .unwrap();
    let swap_result = swap_session.compile_program(&program).unwrap();

    // Both compile and produce positive latencies; the decomposition
    // difference is visible in the group structure.
    assert!(map_result.overall_latency_ns > 0.0);
    assert!(swap_result.overall_latency_ns > 0.0);
    assert!(map_result.swap_count > 0 || swap_result.swap_count > 0);
}

#[test]
fn staged_reports_expose_the_pipeline() {
    // The redesign's observability contract: the staged API reports the
    // same numbers the one-shot path folds together.
    let session = small_session();
    let program = qft(3);

    let decomposed = session.decompose(&program);
    let mapped = session.map(&decomposed);
    let grouped = session.group(&mapped);
    let lookup = session.lookup(&grouped);
    assert_eq!(lookup.coverage.total, grouped.n_instances());
    let compiled = session.compile(&lookup).unwrap();
    assert_eq!(compiled.compiled.len(), lookup.uncovered.len());
    let latency = session.latency(&grouped).unwrap();

    let oneshot = small_session().compile_program(&program).unwrap();
    assert_eq!(oneshot.overall_latency_ns, latency.overall_latency_ns);
    assert_eq!(oneshot.gate_based_latency_ns, latency.gate_based_latency_ns);
    assert_eq!(oneshot.dynamic_iterations, compiled.dynamic_iterations);
    assert_eq!(oneshot.swap_count, grouped.swap_count);
    assert_eq!(oneshot.crosstalk, grouped.crosstalk);
}
