//! Static pre-compilation (paper §IV).
//!
//! Profile a random third of the benchmark suite, collect the group
//! category under the chosen policy, compile every unique group once on
//! the batch engine (MST-accelerated), and store the pulses + latencies
//! for future programs. Optionally re-optimize the most frequent group
//! on a finer time grid (§IV-G) to squeeze its latency further.
//!
//! The functions here are the implementations behind
//! [`Session::precompile`] and [`Session::optimize_group`]; call them
//! through the session.

use std::collections::HashMap;

use accqoc_circuit::{Circuit, UnitaryKey};
use accqoc_grape::{find_minimal_latency, LatencySearch};
use accqoc_hw::ControlModel;
use accqoc_linalg::Mat;

use crate::cache::CachedPulse;
use crate::error::{Error, Result};
use crate::parallel::{compile_batch, ParallelStats};
use crate::session::{GroupTarget, Session};

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

/// What [`Session::precompile`] compiles and on which engine shape. The
/// default is the whole category on the sequential MST chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrecompileOptions<'a> {
    /// Only the unique groups of these widths (`None` = every group):
    /// what one shard of a width-partitioned deployment owns.
    pub only_qubits: Option<&'a [usize]>,
    /// `None` runs one plan part, giving the pulses of the sequential MST
    /// chain, on this thread plus every spare core. `Some(n)` runs the
    /// fixed [`DEFAULT_PLAN_PARTS`] partition plan on at most `n` lanes:
    /// this thread plus one thread per spare core. So `n` is a cap, not a
    /// thread count: every `n` at or above the number of idle cores runs
    /// on the same lanes, and `Some(1)` compiles on this thread alone.
    ///
    /// [`DEFAULT_PLAN_PARTS`]: crate::DEFAULT_PLAN_PARTS
    pub threads: Option<usize>,
}

/// Static pre-compilation over `programs`, restricted to the unique
/// groups whose width is in `only_qubits` (`None` = every group): the
/// groups the library does not yet hold are compiled on the batch engine
/// at plan width `plan_width` on at most `threads` lanes and inserted into the
/// session library with their canonical unitaries (fingerprint-indexed).
/// The report counts owned groups only, so per-shard reports over a
/// width partition sum to the whole-category numbers (group keys encode
/// their width, hence never collide across shards).
///
/// # Errors
///
/// [`Error::InvalidConfig`] when `threads == 0`; otherwise the first
/// group-compilation failure, with the library left untouched.
pub(crate) fn precompile(
    session: &Session,
    programs: &[Circuit],
    only_qubits: Option<&[usize]>,
    plan_width: usize,
    threads: usize,
) -> Result<(PrecompileReport, ParallelStats)> {
    let (canonical, keys, mut frequencies) = collect_category(session, programs);
    let owned = |n_qubits: usize| only_qubits.is_none_or(|widths| widths.contains(&n_qubits));

    // Only compile what this shard owns and the cache does not already
    // hold.
    let missing: Vec<GroupTarget> = canonical
        .iter()
        .zip(&keys)
        .filter(|((_, n_qubits), key)| owned(*n_qubits) && !session.cache_contains(key))
        .map(|((unitary, n_qubits), key)| GroupTarget {
            key: key.clone(),
            unitary: unitary.clone(),
            n_qubits: *n_qubits,
        })
        .collect();
    let batch = compile_batch(session, &missing, plan_width, threads)?;
    // Inserted with their canonical unitaries, so batch-precompiled
    // pulses are warm-start neighbors on the serving path; sorted-key
    // order keeps capacity eviction deterministic.
    let mut fresh: Vec<(&GroupTarget, CachedPulse)> = batch
        .entries
        .into_iter()
        .map(|(i, entry)| (&missing[i], entry))
        .collect();
    fresh.sort_by(|a, b| a.0.key.cmp(&b.0.key));
    for (target, entry) in fresh {
        session
            .library()
            .insert(target.key.clone(), entry, Some(&target.unitary));
    }

    // The report covers owned groups only, so shard reports sum.
    if only_qubits.is_some() {
        let owned_keys: std::collections::HashSet<&UnitaryKey> = (0..keys.len())
            .filter(|&i| owned(canonical[i].1))
            .map(|i| &keys[i])
            .collect();
        frequencies.retain(|k, _| owned_keys.contains(k));
    }
    let n_unique_groups = canonical.iter().filter(|(_, n)| owned(*n)).count();
    let most_frequent = frequencies
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(k, _)| k.clone());
    Ok((
        PrecompileReport {
            n_programs: programs.len(),
            n_unique_groups,
            total_iterations: batch.stats.total_iterations,
            frequencies,
            most_frequent,
        },
        batch.stats,
    ))
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
pub(crate) fn optimize_group(
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
        &mut crate::session::lease_workspace(),
    )
    .map_err(|source| Error::CompileFailed { n_qubits, source })?;

    let new_latency = result.latency_ns;
    if new_latency < old {
        session.library().insert(
            key.clone(),
            CachedPulse {
                pulse: result.outcome.pulse,
                latency_ns: new_latency,
                iterations: result.total_iterations,
                n_qubits,
            },
            None,
        );
    }
    Ok((old, new_latency.min(old)))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let report = s
            .precompile(&programs(), &PrecompileOptions::default())
            .unwrap()
            .0;
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
        let first = s
            .precompile(&programs(), &PrecompileOptions::default())
            .unwrap()
            .0;
        let second = s
            .precompile(&programs(), &PrecompileOptions::default())
            .unwrap()
            .0;
        assert_eq!(second.total_iterations, 0, "everything already covered");
        assert_eq!(first.n_unique_groups, second.n_unique_groups);
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
        // A budget large enough that cold starts also reach the true
        // feasibility frontier; with a starved budget the iteration
        // comparison is apples-to-oranges (warm seeds converge at slice
        // counts cold starts cannot, buying shorter pulses instead).
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 400;
        let session = Session::builder()
            .topology(Topology::linear(3))
            .grape(grape)
            .build()
            .unwrap();
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
        let graph = crate::mst::SimilarityGraph::build(
            canonical.iter().map(|(u, _)| u.clone()).collect(),
            session.config().similarity,
        );
        let order = crate::mst::mst_compile_order(&graph);

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
                        let gated = crate::compile::warm_start_allowed(
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
    }

    #[test]
    fn optimize_group_never_worsens_latency() {
        let s = session();
        let progs = programs();
        let report = s
            .precompile(&progs, &PrecompileOptions::default())
            .unwrap()
            .0;
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
