//! The pulse library's online serving path: golden-suite arrival-stream
//! acceptance (warm-start share, warm-vs-scratch iteration cost, and
//! semantic verification of served pulses) plus the edge cases — empty
//! library, capacity 0, and eviction under repeated inserts.

use accqoc_repro::accqoc::{PulseLibrary, ServeOptions, Session, SimilarityFn};
use accqoc_repro::circuit::{circuit_unitary, Circuit, Gate, UnitaryKey};
use accqoc_repro::grape::Pulse;
use accqoc_repro::hw::Topology;
use accqoc_repro::linalg::Mat;
use accqoc_repro::workloads::golden_suite;

fn session(n_qubits: usize) -> Session {
    let mut grape = accqoc_repro::grape::GrapeOptions::default();
    grape.stop.max_iters = 300;
    Session::builder()
        .topology(Topology::linear(n_qubits))
        .grape(grape)
        .build()
        .expect("valid session")
}

#[test]
fn golden_stream_acceptance() {
    // The ISSUE-4 acceptance bar: replay the golden suite as an arrival
    // stream; at least half of all compiles must be warm-started, warm
    // compiles must be strictly cheaper than scratch on mean GRAPE
    // iterations, and every served pulse must verify semantically.
    let s = session(5);
    let suite = golden_suite();
    for program in &suite {
        let report = s.serve_program(&program.circuit).expect("serves");
        assert_eq!(
            report.n_compiled + report.groups.iter().filter(|g| g.hit).count(),
            report.groups.len(),
            "{}: every group is a hit or a compile",
            program.name
        );
    }
    let stats = s.library().stats();
    assert!(stats.misses > 0, "cold stream must compile something");
    assert!(
        stats.warm_share() >= 0.5,
        "warm-start share {:.3} below the 50% acceptance bar ({} warm / {} compiles)",
        stats.warm_share(),
        stats.warm_compiles,
        stats.misses
    );
    assert!(
        stats.mean_warm_iterations() < stats.mean_scratch_iterations(),
        "warm compiles must be cheaper: warm {:.1} vs scratch {:.1} mean iterations",
        stats.mean_warm_iterations(),
        stats.mean_scratch_iterations()
    );

    // Served pulses realize the circuits they claim to (the
    // tests/verify_semantics.rs bar, applied to the serving path).
    for program in &suite {
        let verify = s.verify_program(&program.circuit).expect("verifies");
        assert!(
            verify.passed,
            "{}: served pulses failed verification (min group fidelity {:.6})",
            program.name, verify.min_group_fidelity
        );
    }

    // Replaying the stream is pure cache hits.
    let before = s.library().stats().misses;
    for program in &suite {
        let report = s.serve_program(&program.circuit).expect("replay serves");
        assert_eq!(report.n_compiled, 0, "{}: replay must hit", program.name);
        assert_eq!(report.coverage.rate(), 1.0);
    }
    assert_eq!(
        s.library().stats().misses,
        before,
        "replay compiled nothing"
    );
}

#[test]
fn width_partitioned_subset_serving_is_byte_transparent() {
    // The sharding contract: warm starts never cross group widths, so
    // serving each width class on its own fresh session (= one shard of
    // a sharded deployment) must reproduce the single-process serve
    // byte for byte — per-group pulses, hit/warm/iteration outcomes,
    // and summed library counters.
    let programs = [
        Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::T(2)]),
        Circuit::from_gates(3, [Gate::Rz(0, 0.4), Gate::Cx(1, 2), Gate::H(1)]),
        Circuit::from_gates(3, [Gate::Cx(0, 1), Gate::Rz(2, 0.9), Gate::H(0)]),
    ];
    let baseline = session(3);
    let base_reports: Vec<_> = programs
        .iter()
        .map(|p| baseline.serve_program(p).expect("baseline serves"))
        .collect();
    assert!(
        base_reports
            .iter()
            .flat_map(|r| r.groups.iter())
            .any(|g| g.n_qubits == 2),
        "suite must exercise both width classes"
    );

    let shards = [session(3), session(3)]; // shard 0 owns width 1, shard 1 width 2
    let widths: [&[usize]; 2] = [&[1], &[2]];
    for (p, base) in programs.iter().zip(&base_reports) {
        let mut merged = Vec::new();
        let mut owned_total = 0;
        for (shard, width) in shards.iter().zip(widths) {
            let grouped = shard.front_end(p);
            let opts = ServeOptions {
                only_qubits: Some(width.to_vec()),
                ..ServeOptions::default()
            };
            let report = shard.serve_grouped(&grouped, &opts).expect("subset serves");
            assert_eq!(
                report.overall_latency_ns, 0.0,
                "subsets cannot see the whole program's latency"
            );
            assert!(report.groups.iter().all(|g| width.contains(&g.n_qubits)));
            owned_total += report.coverage.total;
            merged.extend(report.groups);
        }
        assert_eq!(owned_total, base.coverage.total, "owned instances sum");
        // Every baseline group outcome is reproduced by its owner shard.
        assert_eq!(merged.len(), base.groups.len());
        for bg in &base.groups {
            let sg = merged
                .iter()
                .find(|g| g.key == bg.key)
                .expect("owner served the group");
            assert_eq!(sg.hit, bg.hit, "hit/miss outcome");
            assert_eq!(sg.warm_from, bg.warm_from, "warm-start source");
            assert_eq!(sg.iterations, bg.iterations, "GRAPE iteration count");
            assert_eq!(sg.latency_ns, bg.latency_ns, "group latency, bit-exact");
        }
        // The router folds the program-level latency from the merged
        // per-group latencies; it must land on the baseline's number.
        let per_key: std::collections::HashMap<_, _> = merged
            .iter()
            .map(|g| (g.key.clone(), g.latency_ns))
            .collect();
        let grouped = baseline.front_end(p);
        let folded = baseline
            .overall_latency_from(&grouped, |k| per_key.get(k).copied())
            .expect("all groups covered");
        assert_eq!(folded, base.overall_latency_ns, "folded latency, bit-exact");
    }

    // The union of the shard caches is byte-identical to the baseline's.
    let mut union = shards[0].cache_snapshot();
    union.merge(shards[1].cache_snapshot());
    assert_eq!(
        union.to_json(),
        baseline.cache_snapshot().to_json(),
        "shard cache union diverged from the single-process cache"
    );

    // Library counters sum exactly across the partition.
    let base_stats = baseline.library().stats();
    let summed =
        shards
            .iter()
            .map(|s| s.library().stats())
            .fold((0u64, 0u64, 0u64, 0u64), |acc, s| {
                (
                    acc.0 + s.hits,
                    acc.1 + s.misses,
                    acc.2 + s.warm_compiles,
                    acc.3 + s.scratch_compiles,
                )
            });
    assert_eq!(
        summed,
        (
            base_stats.hits,
            base_stats.misses,
            base_stats.warm_compiles,
            base_stats.scratch_compiles
        ),
        "counters must sum across shards"
    );

    // `None` means "own everything": byte-identical to serve_grouped.
    let unfiltered = session(3);
    for (p, base) in programs.iter().zip(&base_reports) {
        let grouped = unfiltered.front_end(p);
        let report = unfiltered
            .serve_grouped(&grouped, &ServeOptions::default())
            .expect("unfiltered serves");
        assert_eq!(report.to_json(), base.to_json(), "None filter is identity");
    }
}

#[test]
fn serving_an_empty_library_falls_back_to_scratch() {
    let s = session(2);
    let report = s
        .serve_program(&Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]))
        .expect("empty library is a valid (slow) library, not an error");
    assert!(report.n_compiled > 0);
    assert_eq!(report.n_warm_started, 0, "nothing to warm-start from");
    assert_eq!(report.coverage.covered, 0);
    assert!(report.overall_latency_ns > 0.0);
    let stats = s.library().stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.warm_compiles, 0);
    assert_eq!(stats.scratch_compiles as usize, report.n_compiled);
}

#[test]
fn capacity_zero_library_serves_but_stores_nothing() {
    let mut grape = accqoc_repro::grape::GrapeOptions::default();
    grape.stop.max_iters = 300;
    let s = Session::builder()
        .topology(Topology::linear(2))
        .grape(grape)
        .library_capacity(0)
        .build()
        .expect("valid session");
    let program = Circuit::from_gates(2, [Gate::H(0)]);
    let first = s.serve_program(&program).expect("serves");
    assert!(first.n_compiled > 0);
    assert_eq!(s.cache_len(), 0, "capacity 0 stores nothing");
    // The same program again recompiles from scratch — still no error.
    let second = s.serve_program(&program).expect("serves again");
    assert_eq!(second.n_compiled, first.n_compiled);
    assert_eq!(second.n_warm_started, 0);
    assert_eq!(s.library().stats().hits, 0);
}

#[test]
fn eviction_under_repeated_insert_keeps_the_bound_and_the_hot_set() {
    let lib = PulseLibrary::with_capacity(Some(3));
    let unitary = |k: usize| {
        circuit_unitary(&Circuit::from_gates(
            1,
            [Gate::Rz(0, 0.17 * (k + 1) as f64)],
        ))
    };
    let key = |k: usize| UnitaryKey::canonical(&unitary(k), 1);
    let entry = |k: usize| accqoc_repro::accqoc::CachedPulse {
        pulse: Pulse::zeros(2, 4, 1.0),
        latency_ns: k as f64,
        iterations: 1,
        n_qubits: 1,
    };
    for k in 0..10 {
        let u = unitary(k);
        lib.insert(key(k), entry(k), Some(&u));
        assert!(lib.len() <= 3, "capacity bound violated at insert {k}");
    }
    assert_eq!(lib.len(), 3);
    assert_eq!(lib.indexed_len(), 3);
    assert_eq!(lib.stats().evictions, 7);
    // The most recent three survive; the oldest are gone.
    for k in 7..10 {
        assert!(lib.contains(&key(k)), "recent entry {k} evicted");
    }
    for k in 0..7 {
        assert!(!lib.contains(&key(k)), "stale entry {k} survived");
    }
    // Re-inserting an existing key is an update, not growth.
    let u = unitary(8);
    lib.insert(key(8), entry(8), Some(&u));
    assert_eq!(lib.len(), 3);
    // The nearest query only sees live entries.
    let hit = lib
        .nearest(&unitary(8), 1, 8, SimilarityFn::TraceOverlap)
        .expect("live entries indexed");
    assert_eq!(hit.key, key(8));
    // An evicted unitary no longer resolves to itself (its key is gone).
    assert!(!lib.contains(&key(0)));
}

#[test]
fn bounded_serving_evicts_cold_groups_but_keeps_serving() {
    // A library big enough for one program's groups but not three
    // distinct programs: serving keeps working while the working set
    // rotates.
    let mut grape = accqoc_repro::grape::GrapeOptions::default();
    grape.stop.max_iters = 300;
    let s = Session::builder()
        .topology(Topology::linear(2))
        .grape(grape)
        .library_capacity(2)
        .build()
        .expect("valid session");
    let programs = [
        Circuit::from_gates(2, [Gate::H(0)]),
        Circuit::from_gates(2, [Gate::T(0), Gate::H(1)]),
        Circuit::from_gates(2, [Gate::X(0), Gate::S(1)]),
    ];
    for p in &programs {
        let report = s.serve_program(p).expect("bounded library serves");
        assert!(report.overall_latency_ns > 0.0);
        assert!(s.cache_len() <= 2, "capacity bound violated");
    }
    assert!(s.library().stats().evictions > 0, "rotation must evict");
}

#[test]
fn unindexed_bulk_import_still_serves_exact_hits() {
    // Caches loaded from disk carry no unitaries: entries must hit on
    // exact keys even though they cannot act as warm-start neighbors.
    let warm = session(2);
    let program = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
    warm.compile_program(&program).expect("compiles");
    let exported = warm.cache_snapshot();

    let cold = session(2);
    cold.library().merge(exported);
    assert_eq!(cold.library().indexed_len(), 0, "plain import is unindexed");
    let report = cold.serve_program(&program).expect("serves from import");
    assert_eq!(report.n_compiled, 0, "exact keys hit without the index");
    assert_eq!(report.coverage.rate(), 1.0);
}

#[test]
fn nearest_neighbor_is_exact_for_small_libraries() {
    // With k >= the library size the bucketed retrieval degenerates to a
    // full scan, so `nearest` must agree with brute force.
    let lib = PulseLibrary::new();
    let thetas = [0.11, 0.58, 1.02, 1.49, 2.2, 2.9];
    let us: Vec<Mat> = thetas
        .iter()
        .map(|&t| circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, t), Gate::H(0)])))
        .collect();
    for u in &us {
        lib.insert(
            UnitaryKey::canonical(u, 1),
            accqoc_repro::accqoc::CachedPulse {
                pulse: Pulse::zeros(2, 4, 1.0),
                latency_ns: 4.0,
                iterations: 1,
                n_qubits: 1,
            },
            Some(u),
        );
    }
    let query = circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, 1.1), Gate::H(0)]));
    let got = lib
        .nearest(&query, 1, us.len(), SimilarityFn::TraceOverlap)
        .expect("non-empty");
    let brute = us
        .iter()
        .map(|u| SimilarityFn::TraceOverlap.distance(&query, u))
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert_eq!(got.key, UnitaryKey::canonical(&us[brute.0], 1));
    assert!((got.distance - brute.1).abs() < 1e-12);
}

#[test]
fn bounded_compile_program_keeps_its_own_covered_groups() {
    // Regression: with capacity 2 holding H and T, compiling [H, X]
    // inserted X's pulse, LRU-evicted the covered H entry, and then the
    // latency stage failed with `UncoveredGroup` — although the program
    // has only 2 unique groups. Covered groups are now refreshed before
    // the compile stage inserts.
    let mut grape = accqoc_repro::grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    let s = Session::builder()
        .topology(Topology::linear(3))
        .grape(grape)
        .library_capacity(2)
        .build()
        .expect("valid session");
    s.compile_program(&Circuit::from_gates(3, [Gate::H(0)]))
        .expect("H compiles");
    s.compile_program(&Circuit::from_gates(3, [Gate::T(0)]))
        .expect("T compiles");
    let both = s
        .compile_program(&Circuit::from_gates(3, [Gate::H(0), Gate::X(2)]))
        .expect("two groups fit a capacity of two");
    assert_eq!(both.coverage.covered, 1, "H was covered");
    assert_eq!(both.n_uncovered_unique, 1, "X was compiled");
    assert!(both.overall_latency_ns > 0.0);
    assert_eq!(s.cache_len(), 2);
    assert_eq!(s.library().stats().evictions, 1, "T was the victim");
}
