//! Guarantees of the batch compile engine and the pulse store:
//! thread-count-invariant cache artifacts, plan width 1 pinned to the
//! sequential MST warm-start chain, and a contention smoke test for the
//! [`PulseLibrary`] every compile writes into.

use accqoc::{
    collect_category, mst_compile_order, warm_start_allowed, CachedPulse, PrecompileOptions,
    PulseCache, PulseLibrary, Session, SimilarityFn, SimilarityGraph,
};
use accqoc_circuit::{Circuit, Gate, UnitaryKey};
use accqoc_grape::Pulse;
use accqoc_hw::Topology;
use accqoc_linalg::Mat;

fn session() -> Session {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    Session::builder()
        .topology(Topology::linear(3))
        .grape(grape)
        .build()
        .expect("valid session")
}

/// A family of similar programs producing a multi-group category (the
/// GRAPE seed is fixed by `InitStrategy::default()`, so runs are
/// deterministic end to end).
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
fn one_and_four_thread_precompile_write_identical_artifacts() {
    let dir = std::env::temp_dir().join("accqoc_parallel_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    // Every group of `programs()` spans two qubits; the mixed set adds
    // one-qubit groups for the width filter to leave out.
    let mut mixed = programs();
    mixed.push(Circuit::from_gates(3, [Gate::H(2), Gate::T(2)]));

    // The whole category on 1 and 4 threads, and the width-2 groups of
    // the mixed set (what one shard of a width-partitioned deployment
    // owns) on 1 and 2.
    let width_two: &[usize] = &[2];
    let inputs = [(programs(), None, [1, 4]), (mixed, Some(width_two), [1, 2])];
    for (programs, only_qubits, thread_counts) in inputs {
        let (canonical, _, _) = collect_category(&session(), &programs);
        let owned = |n_qubits: usize| only_qubits.is_none_or(|widths| widths.contains(&n_qubits));
        let n_owned = canonical.iter().filter(|(_, n)| owned(*n)).count();
        assert!(n_owned > 0);
        assert!(only_qubits.is_none() || n_owned < canonical.len());
        let mut artifacts = Vec::new();
        for threads in thread_counts {
            let s = session();
            let options = PrecompileOptions {
                only_qubits,
                threads: Some(threads),
            };
            let (report, stats) = s.precompile(&programs, &options).unwrap();
            assert_eq!(report.n_unique_groups, n_owned, "{only_qubits:?}");
            assert_eq!(report.frequencies.len(), n_owned, "{only_qubits:?}");
            assert!(stats.total_iterations >= stats.makespan_iterations);
            let cache = s.cache_snapshot();
            assert_eq!(cache.len(), n_owned);
            assert!(cache.iter().all(|(_, e)| owned(e.n_qubits)));
            let path = dir.join(format!("cache_{only_qubits:?}_{threads}threads.json"));
            s.save_cache(&path).unwrap();
            artifacts.push(std::fs::read(&path).unwrap());
            std::fs::remove_file(path).ok();
        }
        assert!(!artifacts[0].is_empty());
        assert_eq!(
            artifacts[0], artifacts[1],
            "{only_qubits:?}: precompile on {thread_counts:?} threads must persist \
             byte-identical caches"
        );
    }
}

#[test]
fn plan_width_one_matches_sequential_precompile_bit_for_bit() {
    // `Session::precompile` runs the batch engine at plan width 1: no
    // cut MST edges, so it must walk the exact sequential warm-start
    // chain. The reference walks that chain by hand, one
    // `compile_unitary` per MST step, warm-started from the gated parent.
    let reference = session();
    let (canonical, keys, _) = collect_category(&reference, &programs());
    let graph = SimilarityGraph::build(
        canonical.iter().map(|(u, _)| u.clone()).collect(),
        reference.config().similarity,
    );
    let mut expected = PulseCache::new();
    let mut expected_iterations = 0usize;
    for step in &mst_compile_order(&graph).steps {
        let (target, n_qubits) = &canonical[step.vertex];
        let warm = step
            .parent
            .filter(|&p| {
                warm_start_allowed(&canonical[p].0, target, reference.config().warm_threshold)
            })
            .and_then(|p| expected.lookup(&keys[p]))
            .map(|e| e.pulse.clone());
        let r = reference
            .compile_unitary(target, *n_qubits, warm.as_ref())
            .unwrap();
        expected_iterations += r.total_iterations;
        expected.insert(
            keys[step.vertex].clone(),
            CachedPulse {
                pulse: r.outcome.pulse,
                latency_ns: r.latency_ns,
                iterations: r.total_iterations,
                n_qubits: *n_qubits,
            },
        );
    }

    let seq = session();
    let (report, _) = seq
        .precompile(&programs(), &PrecompileOptions::default())
        .unwrap();
    assert_eq!(report.total_iterations, expected_iterations);
    assert_eq!(
        seq.cache_snapshot().to_json(),
        expected.to_json(),
        "plan width 1 must reproduce the sequential artifact"
    );
}

/// A 1-qubit diagonal unitary, distinct per `(writer, slot)`.
fn diagonal(writer: usize, slot: usize) -> Mat {
    let theta = 0.001 + writer as f64 + slot as f64 * 0.01;
    Mat::from_fn(2, 2, |r, c| {
        if r == c {
            accqoc_linalg::C64::cis(if r == 0 { -theta } else { theta })
        } else {
            accqoc_linalg::C64::real(0.0)
        }
    })
}

fn entry(writer: usize, slot: usize) -> CachedPulse {
    CachedPulse {
        pulse: Pulse::zeros(2, 4, 1.0),
        latency_ns: slot as f64,
        iterations: writer,
        n_qubits: 1,
    }
}

#[test]
fn pulse_library_contention_smoke() {
    let lib = PulseLibrary::new();
    let n_writers = 4;
    let n_readers = 4;
    let per_writer = 64;

    // Pre-build distinct unitaries and keys, one per (writer, slot).
    let unitaries: Vec<Vec<Mat>> = (0..n_writers)
        .map(|w| (0..per_writer).map(|i| diagonal(w, i)).collect())
        .collect();
    let keys: Vec<Vec<UnitaryKey>> = unitaries
        .iter()
        .map(|us| us.iter().map(|u| UnitaryKey::canonical(u, 1)).collect())
        .collect();
    let all_keys: std::collections::HashSet<&UnitaryKey> = keys.iter().flatten().collect();
    assert_eq!(all_keys.len(), n_writers * per_writer, "keys are distinct");

    // Every thread starts at the barrier, so reads and writes overlap.
    let start = std::sync::Barrier::new(n_writers + n_readers);
    std::thread::scope(|scope| {
        for w in 0..n_writers {
            let (lib, keys, unitaries, start) = (&lib, &keys, &unitaries, &start);
            scope.spawn(move || {
                start.wait();
                for (i, key) in keys[w].iter().enumerate() {
                    lib.insert(key.clone(), entry(w, i), Some(&unitaries[w][i]));
                }
            });
        }
        for r in 0..n_readers {
            let (lib, keys, unitaries, all_keys, start) =
                (&lib, &keys, &unitaries, &all_keys, &start);
            scope.spawn(move || {
                start.wait();
                // Hammer reads, recency updates and neighbor queries
                // across every writer's key range while the writers are
                // inserting; every observed state must be consistent.
                for round in 0..50 {
                    let w = (r + round) % n_writers;
                    for (i, key) in keys[w].iter().enumerate() {
                        if let Some(e) = lib.get(key) {
                            assert_eq!(e.iterations, w, "entry belongs to writer {w}");
                            assert_eq!(e.latency_ns, i as f64);
                        }
                        lib.touch(key);
                    }
                    let query = &unitaries[w][round % per_writer];
                    if let Some(n) = lib.nearest(query, 1, 4, SimilarityFn::TraceOverlap) {
                        assert!(all_keys.contains(&n.key), "neighbor is a written key");
                        assert!(n.distance.is_finite());
                    }
                    assert!(lib.len() <= n_writers * per_writer);
                }
            });
        }
    });

    // Every write landed exactly once, indexed, with nothing evicted.
    let expected = n_writers * per_writer;
    assert_eq!(lib.len(), expected);
    assert_eq!(lib.indexed_len(), expected);
    assert_eq!(lib.stats().evictions, 0);
    for (w, per) in keys.iter().enumerate() {
        for (i, key) in per.iter().enumerate() {
            assert_eq!(lib.get(key), Some(entry(w, i)));
        }
    }
    // The artifact is deterministic: stable across snapshots, and equal
    // to the one a single thread writing the same entries produces.
    let json = lib.snapshot().to_json();
    assert_eq!(json, lib.snapshot().to_json());
    let sequential = PulseLibrary::new();
    for (w, per) in keys.iter().enumerate() {
        for (i, key) in per.iter().enumerate() {
            sequential.insert(key.clone(), entry(w, i), Some(&unitaries[w][i]));
        }
    }
    assert_eq!(json, sequential.snapshot().to_json());
}
