//! The unified error hierarchy, exercised end to end: builder
//! validation, model-set domain errors, stage-ordering errors, cache
//! persistence errors, and `Display`/`source()` round-trips.

use std::error::Error as _;

use accqoc_repro::accqoc::{Error, ModelSet, PulseCache, MAX_MODEL_QUBITS};
use accqoc_repro::linalg::Mat;
use accqoc_repro::prelude::*;

#[test]
fn builder_missing_topology_is_a_builder_error() {
    let e = Session::builder().build().unwrap_err();
    assert!(matches!(e, Error::Builder { field: "topology" }));
    let shown = e.to_string();
    assert!(
        shown.contains("topology"),
        "message should name the field: {shown}"
    );
    assert!(e.source().is_none(), "builder errors have no deeper cause");
}

#[test]
fn builder_rejects_nonsensical_warm_threshold() {
    for bad in [-1.0, f64::NAN] {
        let e = Session::builder()
            .topology(Topology::linear(2))
            .warm_threshold(bad)
            .build()
            .unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }), "threshold {bad}");
    }
    // Zero is a legal (maximally conservative) gate.
    assert!(Session::builder()
        .topology(Topology::linear(2))
        .warm_threshold(0.0)
        .build()
        .is_ok());
}

#[test]
fn over_wide_group_is_rejected_with_context() {
    let session = Session::builder()
        .topology(Topology::linear(3))
        .build()
        .unwrap();
    let e = session
        .compile_unitary(&Mat::identity(8), 3, None)
        .unwrap_err();
    match &e {
        Error::GroupTooWide { n_qubits, max } => {
            assert_eq!(*n_qubits, 3);
            assert_eq!(*max, 2);
        }
        other => panic!("expected GroupTooWide, got {other:?}"),
    }
    let shown = e.to_string();
    assert!(shown.contains('3') && shown.contains('2'), "{shown}");
}

#[test]
fn zero_qubit_group_is_an_error_not_an_underflow_panic() {
    // Regression: `ModelSet::for_qubits(0)` used to index `n_qubits - 1`
    // and panic on usize underflow.
    let models = ModelSet::spin(2).unwrap();
    assert!(matches!(models.for_qubits(0), Err(Error::EmptyGroup)));

    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    let e = session
        .compile_unitary(&Mat::identity(1), 0, None)
        .unwrap_err();
    assert!(matches!(e, Error::EmptyGroup));
    assert!(e.to_string().contains("zero qubits"));
}

#[test]
fn model_set_constructor_validates_its_domain() {
    assert!(matches!(
        ModelSet::spin(0),
        Err(Error::InvalidConfig { .. })
    ));
    assert!(matches!(
        ModelSet::spin(MAX_MODEL_QUBITS + 1),
        Err(Error::InvalidConfig { .. })
    ));
    let e = ModelSet::spin(9).unwrap_err();
    assert!(
        e.to_string().contains('9'),
        "message should echo the bad arity: {e}"
    );
}

#[test]
fn latency_before_compile_reports_uncovered_group() {
    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    let grouped = session.front_end(&Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]));
    let e = session.latency(&grouped).unwrap_err();
    assert!(matches!(e, Error::UncoveredGroup { .. }));
    assert!(e.to_string().contains("compile stage"));
}

#[test]
fn infeasible_compilation_chains_to_the_latency_error() {
    // A 1-step cap cannot realize an X gate (needs ~10 ns): the pipeline
    // error must wrap the latency-search failure as its source.
    let session = Session::builder()
        .topology(Topology::linear(2))
        .search(LatencySearch {
            min_steps: 1,
            max_steps: 1,
            ..LatencySearch::default()
        })
        .build()
        .unwrap();
    let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
    let e = session.compile_unitary(&x, 1, None).unwrap_err();
    match &e {
        Error::CompileFailed { n_qubits, .. } => assert_eq!(*n_qubits, 1),
        other => panic!("expected CompileFailed, got {other:?}"),
    }
    let source = e
        .source()
        .expect("compile failures carry the latency error");
    assert!(source.to_string().contains("fidelity target"), "{source}");
    // Display includes both layers of context.
    let shown = e.to_string();
    assert!(
        shown.contains("1-qubit group") && shown.contains("fidelity"),
        "{shown}"
    );
}

#[test]
fn cache_errors_flow_through_the_unified_type() {
    let e = PulseCache::from_json("definitely not json").unwrap_err();
    assert!(matches!(e, Error::Json(_)));
    assert!(e.source().is_some(), "json errors expose the parse failure");

    let missing = std::env::temp_dir()
        .join("accqoc_error_paths")
        .join("nope.json");
    let loader = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    let e = loader.load_cache(&missing).unwrap_err();
    assert!(matches!(e, Error::Io(_)));
    assert!(
        e.source().is_some(),
        "io errors expose the underlying error"
    );
}

#[test]
fn qasm_errors_convert_into_the_unified_type() {
    let parse_err = accqoc_repro::circuit::parse_qasm("qreg q[2]; frobnicate q[0];").unwrap_err();
    let unified: Error = parse_err.into();
    assert!(matches!(unified, Error::Qasm(_)));
    assert!(unified.to_string().contains("qasm"));
    assert!(unified.source().is_some());
}

#[test]
fn qasm_rejects_each_kind_of_malformed_gate_line() {
    use accqoc_repro::circuit::parse_qasm;
    // (source, what the message should mention)
    let cases: [(&str, &str); 6] = [
        ("qreg q[2]; frobnicate q[0];", "frobnicate"),
        ("qreg q[2]; h q[9];", "out of range"),
        ("qreg q[2]; h r[0];", "unknown register"),
        ("qreg q[2]; cx q[0];", "expects"),
        ("qreg q[2]; rz(pi/0x) q[0];", "expression"),
        ("qreg q[2]; h q0;", "expected reg[idx]"),
    ];
    for (source, needle) in cases {
        let e = parse_qasm(source).unwrap_err();
        let shown = e.to_string();
        assert!(
            shown.to_lowercase().contains(&needle.to_lowercase()),
            "{source:?} → {shown:?} should mention {needle:?}"
        );
        assert!(shown.contains("line"), "errors locate the line: {shown}");
    }
}

#[test]
fn truncated_cache_files_error_instead_of_loading_garbage() {
    // Persist a real cache, then truncate it at several byte counts:
    // every prefix must fail as Json or load the complete file, never
    // panic or return a silently short cache.
    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    session
        .compile_program(&Circuit::from_gates(2, [Gate::H(0)]))
        .unwrap();
    let full = session.cache_snapshot().to_json();
    let dir = std::env::temp_dir().join("accqoc_truncated_cache");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    let loader = || {
        Session::builder()
            .topology(Topology::linear(2))
            .build()
            .unwrap()
    };
    for keep in [0, 1, full.len() / 4, full.len() / 2, full.len() - 2] {
        let mut truncated = full.clone();
        truncated.truncate(keep);
        std::fs::write(&path, &truncated).unwrap();
        let fresh = loader();
        let e = fresh.load_cache(&path).unwrap_err();
        assert!(matches!(e, Error::Json(_)), "{keep} bytes kept: {e}");
        assert_eq!(fresh.cache_len(), 0, "a failed load stores nothing");
    }
    // The untruncated file still loads.
    std::fs::write(&path, &full).unwrap();
    assert_eq!(loader().load_cache(&path).unwrap(), 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_report_round_trips_and_rejects_malformed_json() {
    use accqoc_repro::accqoc::VerifyReport;
    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    let program = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
    session.compile_program(&program).unwrap();
    let report = session.verify_program(&program).unwrap();

    // Bit-exact JSON round trip (fidelities survive shortest-f64 text).
    let restored = VerifyReport::from_json(&report.to_json()).unwrap();
    assert_eq!(restored, report);

    // Malformed documents surface as unified Json errors.
    for bad in [
        "not json",
        "{}",
        "{\"passed\": \"yes\"}",
        "{\"groups\": [{\"key\": \"zz\"}]}",
    ] {
        let e = VerifyReport::from_json(bad).unwrap_err();
        assert!(matches!(e, Error::Json(_)), "{bad:?} → {e:?}");
    }
    // Truncation of a valid report also errors.
    let text = report.to_json();
    let mut truncated = text.clone();
    truncated.truncate(text.len() / 2);
    assert!(VerifyReport::from_json(&truncated).is_err());
}

#[test]
fn examples_pattern_boxed_error_interop() {
    // The examples return Box<dyn Error>; `?` must work on every stage.
    fn pipeline() -> Result<f64, Box<dyn std::error::Error>> {
        let session = Session::builder().topology(Topology::linear(2)).build()?;
        let grouped = session.front_end(&Circuit::from_gates(2, [Gate::H(0)]));
        let lookup = session.lookup(&grouped);
        session.compile(&lookup)?;
        Ok(session.latency(&grouped)?.overall_latency_ns)
    }
    assert!(pipeline().unwrap() > 0.0);
}

#[test]
fn capacity_smaller_than_unique_groups_is_a_typed_early_error() {
    // The batch pipeline needs every unique group cached at once for its
    // latency stage. On a library too small for the program, it must
    // refuse up front with CapacityExceeded — before burning any GRAPE
    // iterations — instead of evicting its own pulses mid-pipeline and
    // surfacing a confusing UncoveredGroup later.
    let session = Session::builder()
        .topology(Topology::linear(3))
        .library_capacity(1)
        .build()
        .unwrap();
    let program = accqoc_repro::workloads::qft(3);
    let required = session.front_end(&program).targets.len();
    assert!(required > 1, "qft_3 must exceed the capacity bound");

    let e = session.compile_program(&program).unwrap_err();
    match &e {
        Error::CapacityExceeded {
            capacity,
            required: r,
        } => {
            assert_eq!(*capacity, 1);
            assert_eq!(*r, required);
        }
        other => panic!("expected CapacityExceeded, got {other:?}"),
    }
    // The rejection happened before any compile: the library is empty.
    assert_eq!(session.cache_len(), 0, "no pulses may be compiled");
    let shown = e.to_string();
    assert!(
        shown.contains("capacity 1") && shown.contains(&required.to_string()),
        "message should carry both numbers: {shown}"
    );
    assert!(e.source().is_none(), "capacity errors have no deeper cause");

    // A program that fits the bound still compiles on the same session…
    let mut grape = accqoc_repro::grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    let small = Session::builder()
        .topology(Topology::linear(2))
        .grape(grape)
        .library_capacity(1)
        .build()
        .unwrap();
    let tiny = Circuit::from_gates(2, [Gate::H(0)]);
    assert_eq!(small.front_end(&tiny).targets.len(), 1);
    assert!(small.compile_program(&tiny).is_ok());
    // …and the online serve path handles any capacity (see
    // tests/library_serve.rs for the capacity-0 case).
    assert!(small.serve_program(&tiny).is_ok());
}

#[test]
fn non_finite_angle_is_a_qasm_error_before_serving() {
    // `1e400` overflows to infinity; served, it would canonicalize to a
    // 0-slice pulse that verification scores as perfect.
    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    let before = session.library().stats();
    let served = accqoc_repro::circuit::parse_qasm("qreg q[2]; rz(1e400) q[0]; cx q[0],q[1];")
        .map_err(Error::from)
        .and_then(|program| session.serve_program(&program));
    match served {
        Err(Error::Qasm(e)) => assert_eq!(e.line, 1),
        other => panic!("expected a QASM error, got {other:?}"),
    }
    assert_eq!(session.library().stats(), before);
}

/// A session whose latency search would accept any target it is handed:
/// the boundary check, not GRAPE, must reject the malformed ones below.
fn target_session() -> Session {
    Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap()
}

#[test]
fn non_finite_target_is_a_typed_error() {
    // Regression: a NaN target used to compile to `Ok` with latency 0.
    let mut nan = Mat::identity(2);
    nan[(0, 1)] = accqoc_repro::linalg::C64::real(f64::NAN);
    let e = target_session().compile_unitary(&nan, 1, None).unwrap_err();
    match &e {
        Error::InvalidTarget { n_qubits, message } => {
            assert_eq!(*n_qubits, 1);
            assert!(message.contains("non-finite"), "{message}");
        }
        other => panic!("expected InvalidTarget, got {other:?}"),
    }
}

#[test]
fn non_unitary_target_is_a_typed_error() {
    // Regression: `2·I` used to compile to `Ok` with latency 0.
    let doubled = Mat::from_reals(&[2.0, 0.0, 0.0, 2.0]);
    let e = target_session()
        .compile_unitary(&doubled, 1, None)
        .unwrap_err();
    assert!(
        matches!(e, Error::InvalidTarget { n_qubits: 1, .. }),
        "{e:?}"
    );
    assert!(e.to_string().contains("not unitary"), "{e}");
}

#[test]
fn bad_warm_seeds_are_typed_errors_not_panics() {
    // Regression: a seed with a NaN amplitude panicked inside GRAPE
    // ("control hamiltonians are hermitian"), and one with the wrong
    // channel count on the warm-start channel assertion.
    use accqoc_repro::grape::{LatencyError, Pulse};
    let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
    let session = target_session();
    let channels = session.models().for_qubits(1).unwrap().n_controls();
    let mut nan = Pulse::zeros(channels, 10, 1.0);
    nan.set(0, 4, f64::NAN);
    let wide = Pulse::zeros(channels + 1, 10, 1.0);
    for seed in [&nan, &wide] {
        let e = session.compile_unitary(&x, 1, Some(seed)).unwrap_err();
        match &e {
            Error::CompileFailed {
                n_qubits: 1,
                source: LatencyError::InvalidInit { .. },
            } => {}
            other => panic!("expected CompileFailed(InvalidInit), got {other:?}"),
        }
        assert!(e.to_string().contains("invalid initial pulse"), "{e}");
    }
    assert_eq!(session.cache_len(), 0);
}

#[test]
fn mis_sized_target_is_a_typed_error_not_a_panic() {
    // Regression: a 2×2 target submitted as a 2-qubit group used to
    // panic on GRAPE's dimension assertion.
    let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
    let e = target_session().compile_unitary(&x, 2, None).unwrap_err();
    match &e {
        Error::InvalidTarget { n_qubits, message } => {
            assert_eq!(*n_qubits, 2);
            assert!(message.contains("expected 4x4"), "{message}");
        }
        other => panic!("expected InvalidTarget, got {other:?}"),
    }
}

#[test]
fn non_finite_cached_amplitude_fails_verification_with_a_typed_error() {
    // A library seeded with an infinite amplitude (nothing on the load
    // paths admits one, but `PulseLibrary::merge` takes any cache):
    // propagating it is a linear-algebra error, not a panic.
    let program = Circuit::from_gates(2, [Gate::H(0)]);
    let compiled = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    compiled.compile_program(&program).unwrap();
    let mut poisoned = PulseCache::new();
    for (key, entry) in compiled.cache_snapshot().iter() {
        let mut entry = entry.clone();
        entry.pulse.set(0, 0, f64::INFINITY);
        poisoned.insert(key.clone(), entry);
    }
    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .unwrap();
    session.library().merge(poisoned);
    let e = session.verify_program(&program).unwrap_err();
    assert!(matches!(e, Error::Linalg(_)), "{e}");
}
