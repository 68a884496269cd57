//! Static pre-compilation (paper §IV).
//!
//! Profile a random third of the benchmark suite, collect the group
//! category under the chosen policy, compile every unique group once
//! (MST-accelerated), and store the pulses + latencies for future
//! programs. Optionally re-optimize the most frequent group on a finer
//! time grid (§IV-G) to squeeze its latency further.
//!
//! The free functions here are the implementations behind
//! [`Session::precompile`], [`Session::precompile_parallel`], and
//! [`Session::optimize_group`]; call them through the session.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use accqoc_circuit::{Circuit, UnitaryKey};
use accqoc_grape::{find_minimal_latency, LatencySearch, Workspace};
use accqoc_hw::ControlModel;
use accqoc_linalg::Mat;

use crate::cache::CachedPulse;
use crate::compile::warm_start_allowed;
use crate::error::{Error, Result};
use crate::library::batch_plan;
use crate::mst::scratch_order;
use crate::parallel::{ParallelOptions, ParallelStats};
use crate::session::{GroupReport, LookupReport, ProgramCompilation, Session};

/// Report of a pre-compilation run.
#[derive(Debug, Clone)]
pub struct PrecompileReport {
    /// Programs profiled.
    pub n_programs: usize,
    /// Unique groups found (the paper's map2b4l category has 133).
    pub n_unique_groups: usize,
    /// Total GRAPE iterations spent (one-time cost).
    pub total_iterations: usize,
    /// Instance frequency per unique group key.
    pub frequencies: HashMap<UnitaryKey, usize>,
    /// The most frequent group, if any.
    pub most_frequent: Option<UnitaryKey>,
}

/// Whether pre-compilation orders groups by MST (accelerated) or compiles
/// each from scratch (the baseline the paper compares against in
/// Figures 8/13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecompileOrder {
    /// Similarity-MST warm-started order (§V-C).
    Mst,
    /// Independent from-scratch compilation of every group.
    Scratch,
}

/// Runs static pre-compilation over the given programs, filling the
/// session cache.
///
/// # Errors
///
/// Propagates group-compilation failures.
///
/// # Examples
///
/// ```no_run
/// use accqoc::{PrecompileOrder, Session};
/// use accqoc_hw::Topology;
/// use accqoc_workloads::{full_suite, profiling_split};
///
/// let session = Session::builder().topology(Topology::melbourne()).build()?;
/// let suite = full_suite();
/// let (profile, _) = profiling_split(&suite, 42);
/// let programs: Vec<_> = profile.iter().map(|&i| suite[i].circuit.clone()).collect();
/// let report = session.precompile(&programs, PrecompileOrder::Mst)?;
/// assert_eq!(report.n_unique_groups, session.cache_len());
/// # Ok::<(), accqoc::Error>(())
/// ```
pub fn precompile(
    session: &Session,
    programs: &[Circuit],
    order_kind: PrecompileOrder,
) -> Result<PrecompileReport> {
    precompile_subset(session, programs, order_kind, None)
}

/// [`precompile`] restricted to the unique groups whose width is in
/// `only_qubits` — what one shard of a sharded deployment precompiles.
/// The report counts owned groups only, so per-shard reports over a
/// width partition sum to the whole-category numbers (group keys encode
/// their width, hence never collide across shards). `None` is
/// [`precompile`] exactly.
///
/// # Errors
///
/// Propagates group-compilation failures.
pub fn precompile_subset(
    session: &Session,
    programs: &[Circuit],
    order_kind: PrecompileOrder,
    only_qubits: Option<&[usize]>,
) -> Result<PrecompileReport> {
    let (canonical, keys, mut frequencies) = collect_category(session, programs);
    let owned = |n_qubits: usize| only_qubits.is_none_or(|widths| widths.contains(&n_qubits));

    // Only compile what this shard owns and the cache does not already
    // hold.
    let missing: Vec<usize> = (0..keys.len())
        .filter(|&i| owned(canonical[i].1) && !session.cache_contains(&keys[i]))
        .collect();

    let mut total_iterations = 0usize;
    if !missing.is_empty() {
        let (graph, mst_order) = batch_plan(
            missing.iter().map(|&i| canonical[i].0.clone()).collect(),
            session.config().similarity,
        );
        let order = match order_kind {
            PrecompileOrder::Mst => mst_order,
            PrecompileOrder::Scratch => scratch_order(graph.len(), &graph),
        };
        let mut pulses: HashMap<usize, accqoc_grape::Pulse> = HashMap::new();
        let mut fresh = crate::cache::PulseCache::new();
        let mut ws = session.lease_workspace();
        for step in &order.steps {
            let unique_idx = missing[step.vertex];
            let (target, n_qubits) = &canonical[unique_idx];
            let warm = step
                .parent
                .filter(|&p| {
                    warm_start_allowed(
                        &canonical[missing[p]].0,
                        target,
                        session.config().warm_threshold,
                    )
                })
                .and_then(|p| pulses.get(&p));
            let result = session.compile_unitary_with(target, *n_qubits, warm, &mut ws)?;
            total_iterations += result.total_iterations;
            pulses.insert(step.vertex, result.outcome.pulse.clone());
            fresh.insert(
                keys[unique_idx].clone(),
                CachedPulse {
                    pulse: result.outcome.pulse,
                    latency_ns: result.latency_ns,
                    iterations: result.total_iterations,
                    n_qubits: *n_qubits,
                },
            );
        }
        session.import_cache(fresh);
        index_category(session, &missing, &canonical, &keys);
    }

    // The report covers owned groups only, so shard reports sum.
    if only_qubits.is_some() {
        let owned_keys: std::collections::HashSet<&UnitaryKey> = (0..keys.len())
            .filter(|&i| owned(canonical[i].1))
            .map(|i| &keys[i])
            .collect();
        frequencies.retain(|k, _| owned_keys.contains(k));
    }
    let n_unique_groups = (0..keys.len()).filter(|&i| owned(canonical[i].1)).count();
    let most_frequent = frequencies
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(k, _)| k.clone());

    Ok(PrecompileReport {
        n_programs: programs.len(),
        n_unique_groups,
        total_iterations,
        frequencies,
        most_frequent,
    })
}

/// Parallel variant of [`precompile`]: compiles the missing groups on a
/// pool of `n_workers` threads over a balanced MST partition (§V-D).
/// Merges the results into the session cache and returns the report plus
/// the parallel stats (including real per-worker wall-clock timings).
///
/// The partition *plan* uses the fixed default width
/// ([`crate::DEFAULT_PLAN_PARTS`]) rather than `n_workers`, so the
/// compiled pulses — and the persisted cache artifact — are byte-identical
/// regardless of the thread count; see [`crate::compile_parallel_with`].
/// Two consequences worth knowing:
///
/// - relative to the fully sequential [`precompile`], the plan's cut MST
///   edges degrade a handful of warm starts to scratch starts, so the
///   artifact differs from the sequential one by exactly those groups
///   (pin `plan_parts = 1` via [`precompile_parallel_with`] to recover
///   the sequential artifact bit-for-bit);
/// - pools larger than the plan width idle — raise `plan_parts` via
///   [`precompile_parallel_with`] on machines with more than
///   [`crate::DEFAULT_PLAN_PARTS`] cores.
///
/// # Errors
///
/// Propagates group-compilation failures.
pub fn precompile_parallel(
    session: &Session,
    programs: &[Circuit],
    n_workers: usize,
) -> Result<(PrecompileReport, ParallelStats)> {
    precompile_parallel_with(session, programs, &ParallelOptions::threads(n_workers))
}

/// [`precompile_parallel`] with full control over the pool size and the
/// partition plan width ([`ParallelOptions`]). `plan_parts = Some(1)`
/// reproduces the sequential [`precompile`] artifact bit-for-bit (one
/// part ⇒ no cut edges ⇒ the exact MST warm-start chain).
///
/// # Errors
///
/// Propagates group-compilation failures.
pub fn precompile_parallel_with(
    session: &Session,
    programs: &[Circuit],
    options: &ParallelOptions,
) -> Result<(PrecompileReport, ParallelStats)> {
    let (canonical, keys, frequencies) = collect_category(session, programs);
    let missing: Vec<usize> = (0..keys.len())
        .filter(|&i| !session.cache_contains(&keys[i]))
        .collect();

    let (_, order) = batch_plan(
        missing.iter().map(|&i| canonical[i].0.clone()).collect(),
        session.config().similarity,
    );
    let missing_unitaries: Vec<(Mat, usize)> =
        missing.iter().map(|&i| canonical[i].clone()).collect();
    let missing_keys: Vec<UnitaryKey> = missing.iter().map(|&i| keys[i].clone()).collect();
    let (fresh, stats) = crate::parallel::compile_parallel_with(
        session,
        &order,
        &missing_unitaries,
        &missing_keys,
        options,
    )?;
    session.import_cache(fresh);
    index_category(session, &missing, &canonical, &keys);

    let most_frequent = frequencies
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(k, _)| k.clone());
    Ok((
        PrecompileReport {
            n_programs: programs.len(),
            n_unique_groups: keys.len(),
            total_iterations: stats.total_iterations,
            frequencies,
            most_frequent,
        },
        stats,
    ))
}

/// Batch-compiles many programs on a worker pool: the front ends run
/// concurrently against the shared session, the union of uncovered
/// groups is compiled once on the parallel MST engine, and each program
/// is then folded into a [`ProgramCompilation`] from the warm cache.
///
/// Report semantics differ from looping [`Session::compile_program`] in
/// two documented ways: coverage is measured against the session cache
/// *before* the batch (every program sees the same baseline — the
/// paper's §V-A suite coverage), and a group shared by several programs
/// bills its GRAPE iterations to the program that introduced it first.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when `threads == 0`; otherwise propagates
/// the first group-compilation failure.
pub fn compile_programs_parallel(
    session: &Session,
    programs: &[Circuit],
    threads: usize,
) -> Result<(Vec<ProgramCompilation>, ParallelStats)> {
    if threads == 0 {
        return Err(Error::InvalidConfig {
            message: "need at least one worker thread".into(),
        });
    }

    // Front ends + cache lookups, fanned out over the pool. Lookups all
    // read the pre-batch cache (nothing writes until the compile phase),
    // so every program reports coverage against the same baseline.
    let n = programs.len();
    let slots: Vec<Mutex<Option<(GroupReport, LookupReport)>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            let next = &next;
            let slots = &slots;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let grouped = session.front_end(&programs[i]);
                let lookup = session.lookup(&grouped);
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some((grouped, lookup));
            });
        }
    });
    let reports: Vec<(GroupReport, LookupReport)> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("front-end worker filled every slot")
        })
        .collect();

    // Union of uncovered unique groups, first-seen order; remember which
    // program introduced each for iteration attribution.
    let mut union_unitaries: Vec<(Mat, usize)> = Vec::new();
    let mut union_keys: Vec<UnitaryKey> = Vec::new();
    let mut introduced_by: Vec<usize> = Vec::new();
    let mut seen: HashMap<UnitaryKey, usize> = HashMap::new();
    for (program_idx, (_, lookup)) in reports.iter().enumerate() {
        for target in &lookup.uncovered {
            if seen.contains_key(&target.key) {
                continue;
            }
            seen.insert(target.key.clone(), union_keys.len());
            union_unitaries.push((target.unitary.clone(), target.n_qubits));
            union_keys.push(target.key.clone());
            introduced_by.push(program_idx);
        }
    }

    // One MST over the union, compiled once on the pool.
    let (_, order) = batch_plan(
        union_unitaries.iter().map(|(u, _)| u.clone()).collect(),
        session.config().similarity,
    );
    let (fresh, stats) = crate::parallel::compile_parallel_with(
        session,
        &order,
        &union_unitaries,
        &union_keys,
        &ParallelOptions::threads(threads),
    )?;
    session.import_cache(fresh);
    for ((unitary, n_qubits), key) in union_unitaries.iter().zip(&union_keys) {
        session.library().index_unitary(key, unitary, *n_qubits);
    }

    // Iterations billed to the introducing program.
    let mut billed = vec![0usize; n];
    for (key, &program_idx) in union_keys.iter().zip(&introduced_by) {
        if let Some(entry) = session.cached(key) {
            billed[program_idx] += entry.iterations;
        }
    }

    // Fold each program's reports into the final compilation (the cache
    // now covers everything, so the latency stage cannot fail on these
    // groups).
    let mut out = Vec::with_capacity(n);
    for (program_idx, (grouped, lookup)) in reports.into_iter().enumerate() {
        let latency = session.latency(&grouped)?;
        out.push(ProgramCompilation {
            overall_latency_ns: latency.overall_latency_ns,
            gate_based_latency_ns: latency.gate_based_latency_ns,
            coverage: lookup.coverage,
            dynamic_iterations: billed[program_idx],
            n_uncovered_unique: lookup.uncovered.len(),
            grouped: grouped.grouped,
            crosstalk: grouped.crosstalk,
            swap_count: grouped.swap_count,
        });
    }
    Ok((out, stats))
}

/// Fingerprint-indexes freshly compiled category entries in the session
/// library (batch imports arrive as plain caches, which carry no
/// unitaries, so the drivers index them here while the canonical
/// unitaries are still at hand — this is what makes batch-precompiled
/// pulses retrievable as warm-start neighbors on the serving path).
fn index_category(
    session: &Session,
    missing: &[usize],
    canonical: &[(Mat, usize)],
    keys: &[UnitaryKey],
) {
    for &i in missing {
        let (unitary, n_qubits) = &canonical[i];
        session
            .library()
            .index_unitary(&keys[i], unitary, *n_qubits);
    }
}

/// A collected group category: canonical `(unitary, n_qubits)` pairs,
/// their keys (aligned), and instance frequencies per key.
pub type Category = (
    Vec<(Mat, usize)>,
    Vec<UnitaryKey>,
    HashMap<UnitaryKey, usize>,
);

/// Gathers the de-duplicated group category of a program set: canonical
/// unitaries, keys, and instance frequencies.
pub fn collect_category(session: &Session, programs: &[Circuit]) -> Category {
    let mut canonical: Vec<(Mat, usize)> = Vec::new();
    let mut keys: Vec<UnitaryKey> = Vec::new();
    let mut index_of: HashMap<UnitaryKey, usize> = HashMap::new();
    let mut frequencies: HashMap<UnitaryKey, usize> = HashMap::new();

    for program in programs {
        let report = session.front_end(program);
        for target in &report.targets {
            if !index_of.contains_key(&target.key) {
                canonical.push((target.unitary.clone(), target.n_qubits));
                index_of.insert(target.key.clone(), keys.len());
                keys.push(target.key.clone());
            }
        }
        for &assigned in &report.assignment {
            *frequencies
                .entry(report.targets[assigned].key.clone())
                .or_insert(0) += 1;
        }
    }
    (canonical, keys, frequencies)
}

/// Re-optimizes one cached group on a finer time grid (half the slice
/// width, paper §IV-G: "we select the group of highest frequency and
/// spend more time training it… such that the latency of this particular
/// group could be further reduced"). Updates the session cache when the
/// finer grid finds a shorter pulse; returns the (old, new) latencies.
///
/// # Errors
///
/// [`Error::CompileFailed`] when the refined search cannot reach the
/// fidelity target at all (the cache keeps the original pulse).
pub fn optimize_group(
    session: &Session,
    key: &UnitaryKey,
    target: &Mat,
    n_qubits: usize,
) -> Result<(f64, f64)> {
    let entry = session.cached(key);
    let old = entry
        .as_ref()
        .map(|e| e.latency_ns)
        .unwrap_or(f64::INFINITY);
    let fine_dt = session.models().for_qubits(n_qubits)?.dt_ns() / 2.0;
    let fine_model = ControlModel::spin_chain(n_qubits).with_dt(fine_dt);
    let mut search = session.config().search.clone();
    search.max_steps *= 2;
    search.min_steps = (search.min_steps * 2).max(1);
    let mut opts = session.config().grape.clone();
    // Richer budget for the headline group.
    opts.stop.max_iters *= 2;
    // Resample the cached pulse onto the finer grid as the seed.
    let seed = entry
        .as_ref()
        .filter(|e| e.pulse.n_steps() > 0)
        .map(|e| e.pulse.resampled(e.pulse.n_steps() * 2));
    let result = find_minimal_latency(
        &fine_model,
        target,
        seed.as_ref(),
        &opts,
        &LatencySearch {
            min_steps: search.min_steps,
            max_steps: search.max_steps,
            initial_guess: entry.as_ref().map(|e| 2 * e.pulse.n_steps()),
        },
        &mut Workspace::new(),
    )
    .map_err(|source| Error::CompileFailed { n_qubits, source })?;

    let new_latency = result.latency_ns;
    if new_latency < old {
        let mut update = crate::cache::PulseCache::new();
        update.insert(
            key.clone(),
            CachedPulse {
                pulse: result.outcome.pulse,
                latency_ns: new_latency,
                iterations: result.total_iterations,
                n_qubits,
            },
        );
        session.import_cache(update);
    }
    Ok((old, new_latency.min(old)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::{mst_compile_order, SimilarityGraph};
    use accqoc_circuit::Gate;
    use accqoc_hw::Topology;

    fn session() -> Session {
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 200;
        Session::builder()
            .topology(Topology::linear(3))
            .grape(grape)
            .build()
            .unwrap()
    }

    fn programs() -> Vec<Circuit> {
        vec![
            Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::T(1)]),
            Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::Cx(1, 2)]),
        ]
    }

    #[test]
    fn precompile_fills_cache_and_counts_frequencies() {
        let s = session();
        let report = s.precompile(&programs(), PrecompileOrder::Mst).unwrap();
        assert_eq!(report.n_programs, 2);
        assert!(report.n_unique_groups >= 1);
        assert_eq!(s.cache_len(), report.n_unique_groups);
        assert!(report.total_iterations > 0);
        let total_instances: usize = report.frequencies.values().sum();
        assert!(total_instances >= report.n_unique_groups);
        assert!(report.most_frequent.is_some());
    }

    #[test]
    fn precompile_skips_already_cached_groups() {
        let s = session();
        let first = s.precompile(&programs(), PrecompileOrder::Mst).unwrap();
        let second = s.precompile(&programs(), PrecompileOrder::Mst).unwrap();
        assert_eq!(second.total_iterations, 0, "everything already covered");
        assert_eq!(first.n_unique_groups, second.n_unique_groups);
    }

    fn roomy_session() -> Session {
        // A budget large enough that cold starts also reach the true
        // feasibility frontier; with a starved budget the iteration
        // comparison is apples-to-oranges (warm seeds converge at slice
        // counts cold starts cannot, buying shorter pulses instead).
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 400;
        Session::builder()
            .topology(Topology::linear(3))
            .grape(grape)
            .build()
            .unwrap()
    }

    #[test]
    fn mst_order_cheaper_than_scratch() {
        // A family of similar 2-qubit groups: cx dressed with nearby
        // rotations. Warm starts shine when consecutive unitaries are
        // close (the MST guarantees exactly that), so the angle spacing
        // is kept well inside the warm-start gate.
        let programs: Vec<Circuit> = (1..=6)
            .map(|k| {
                Circuit::from_gates(
                    3,
                    [
                        Gate::Rz(0, 0.06 * k as f64),
                        Gate::Cx(0, 1),
                        Gate::Rz(1, 0.06 * k as f64 + 0.02),
                    ],
                )
            })
            .collect();
        let session = roomy_session();
        let (canonical, _, _) = collect_category(&session, &programs);
        assert!(
            canonical.len() >= 4,
            "family should not collapse under dedup"
        );

        // Fix each group's slice count with one cold binary search, then
        // compare pure *training* cost at those fixed counts — the paper's
        // §VI-G methodology. (Comparing whole binary searches is
        // apples-to-oranges: warm seeds converge at slice counts cold
        // starts cannot, buying shorter pulses for extra iterations.)
        let steps: Vec<usize> = canonical
            .iter()
            .map(|(u, n)| session.compile_unitary(u, *n, None).unwrap().n_steps)
            .collect();
        let graph = SimilarityGraph::build(
            canonical.iter().map(|(u, _)| u.clone()).collect(),
            session.config().similarity,
        );
        let order = mst_compile_order(&graph);

        let training_cost = |warm_starts: bool| -> usize {
            use accqoc_grape::{solve, GrapeProblem, InitStrategy};
            let mut pulses: HashMap<usize, accqoc_grape::Pulse> = HashMap::new();
            let mut total = 0usize;
            for step in &order.steps {
                let (target, n_qubits) = &canonical[step.vertex];
                let mut opts = session.config().grape.clone();
                opts.stop.max_iters = 400;
                if warm_starts {
                    if let Some(p) = step.parent {
                        let gated = warm_start_allowed(
                            &canonical[p].0,
                            target,
                            session.config().warm_threshold,
                        );
                        if gated {
                            if let Some(parent_pulse) = pulses.get(&p) {
                                opts.init = InitStrategy::Warm(parent_pulse.clone());
                            }
                        }
                    }
                }
                let model = session.models().for_qubits(*n_qubits).unwrap();
                let out = solve(&GrapeProblem {
                    model,
                    target,
                    n_steps: steps[step.vertex],
                    options: opts,
                });
                total += out.iterations;
                if out.converged {
                    pulses.insert(step.vertex, out.pulse);
                }
            }
            total
        };

        let warm_cost = training_cost(true);
        let cold_cost = training_cost(false);
        assert!(
            warm_cost <= cold_cost,
            "MST warm-started training should not cost more: warm {warm_cost} vs cold {cold_cost}"
        );

        // The full precompile API: both orders cover the same category,
        // and MST latencies are never worse (warm seeds only *extend* the
        // feasibility frontier; ±1 slice of borderline noise allowed).
        let mst_session = roomy_session();
        let mst = mst_session
            .precompile(&programs, PrecompileOrder::Mst)
            .unwrap();
        let scratch_session = roomy_session();
        let scratch = scratch_session
            .precompile(&programs, PrecompileOrder::Scratch)
            .unwrap();
        assert_eq!(mst.n_unique_groups, scratch.n_unique_groups);
        let cache_mst = mst_session.cache_snapshot();
        let cache_scratch = scratch_session.cache_snapshot();
        for (key, entry) in cache_mst.iter() {
            let other = cache_scratch.lookup(key).expect("same category");
            assert!(
                entry.latency_ns <= other.latency_ns + 1.5,
                "mst latency should never be worse: {} vs {}",
                entry.latency_ns,
                other.latency_ns
            );
        }
    }

    #[test]
    fn optimize_group_never_worsens_latency() {
        let s = session();
        let progs = programs();
        let report = s.precompile(&progs, PrecompileOrder::Mst).unwrap();
        let key = report.most_frequent.unwrap();
        // Find the canonical unitary of that key.
        let (canonical, keys, _) = collect_category(&s, &progs);
        let idx = keys.iter().position(|k| *k == key).unwrap();
        let before = s.cache_snapshot().lookup(&key).unwrap().latency_ns;
        let (old, new) = s
            .optimize_group(&key, &canonical[idx].0, canonical[idx].1)
            .unwrap();
        assert!((old - before).abs() < 1e-9);
        assert!(
            new <= old + 1e-9,
            "optimization worsened latency: {old} → {new}"
        );
        assert!(s.cache_snapshot().lookup(&key).unwrap().latency_ns <= before + 1e-9);
    }
}
