//! The batch compile engine (paper §V-C and §V-D): the one place a
//! [`CompileOrder`] is compiled.
//!
//! The uncovered groups of a batch are ordered by the similarity MST,
//! and each group's GRAPE run is warm-started from its tree parent's
//! pulse. The MST dependencies are "soft": a group can always be trained
//! from scratch, so partitioning the tree into balanced connected parts
//! lets independent workers compile concurrently. Each worker follows its
//! part's local MST sequence; edges cut by the partition degrade to
//! scratch starts — exactly the trade the paper describes.
//!
//! # Execution model
//!
//! The engine separates the **plan** from the **execution**:
//!
//! - The *plan* is the balanced partition of the weighted MST into
//!   connected parts (one per tree component at plan width 1, at least
//!   [`DEFAULT_PLAN_PARTS`] on the parallel path), each with a local
//!   compile sequence (global MST order restricted to the part, cut
//!   parents degraded to scratch). The plan depends only on the inputs
//!   and the plan width — never on thread count or timing.
//! - The *execution* runs the parts on a [`std::thread::scope`] worker
//!   pool. Parts are handed out longest-processing-time-first from a
//!   shared atomic queue; each worker owns a pooled GRAPE workspace and
//!   returns its compiled entries through `join`, so workers share no
//!   pulse store at all.
//!
//! Plan width 1 cuts no MST edge, so it walks the exact sequential
//! warm-start chain; that is how [`Session::compile`] and a sequential
//! [`Session::precompile`] run. A threaded [`Session::precompile`] runs
//! the fixed default plan, so compiling with 1 thread and with 16 threads
//! produces **byte-identical pulse-cache artifacts**; only the wall clock
//! changes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cache::CachedPulse;
use crate::compile::warm_start_allowed;
use crate::error::{Error, Result};
use crate::mst::{mst_compile_order, CompileOrder, SimilarityGraph};
use crate::partition::{partition_tree, TreePartition, WeightedTree};
use crate::session::{GroupTarget, Session};

/// Plan width of a threaded [`Session::precompile`]: how many connected
/// parts the MST is split into. Chosen above common core counts so the
/// pool stays busy, while keeping the number of cut MST edges (and thus
/// extra scratch starts) small. The plan — and therefore the compiled
/// pulses — does not depend on the thread count.
pub const DEFAULT_PLAN_PARTS: usize = 8;

/// Wall-clock accounting for one pool worker.
#[derive(Debug, Clone)]
pub struct WorkerTiming {
    /// Pool worker index (`0..threads`).
    pub worker: usize,
    /// Parts this worker executed.
    pub parts: usize,
    /// Groups this worker compiled.
    pub groups: usize,
    /// GRAPE iterations this worker spent.
    pub iterations: usize,
    /// Busy wall-clock time of this worker (from first part claimed to
    /// last part finished).
    pub wall: Duration,
}

/// Statistics from a parallel compilation run.
#[derive(Debug, Clone)]
pub struct ParallelStats {
    /// GRAPE iterations per plan part.
    pub iterations_per_part: Vec<usize>,
    /// Sum of iterations across parts. Cut MST edges degrade warm starts
    /// to scratch starts, so this can exceed what a fully sequential MST
    /// compile would have spent — that surplus is the price of
    /// parallelism the paper accepts in §V-D.
    pub total_iterations: usize,
    /// Iteration-metric makespan: the heaviest *part's* iteration load,
    /// i.e. the parallel compile time under the paper's iteration-count
    /// model with one worker per part. Always `<=` `total_iterations`
    /// (it is the max of the per-part terms whose sum is the total);
    /// real wall-clock timings are in
    /// [`ParallelStats::worker_timings`].
    pub makespan_iterations: usize,
    /// Number of MST edges cut by the partition. Each cut edge turns one
    /// warm start into a scratch start.
    pub cut_edges: usize,
    /// The partition itself.
    pub partition: TreePartition,
    /// Per-worker wall-clock accounting (one entry per pool thread that
    /// executed at least one part).
    pub worker_timings: Vec<WorkerTiming>,
    /// Wall-clock time of the whole parallel section (plan build
    /// excluded, thread spawn/join included).
    pub wall: Duration,
}

impl ParallelStats {
    fn empty() -> Self {
        Self {
            iterations_per_part: vec![],
            total_iterations: 0,
            makespan_iterations: 0,
            cut_edges: 0,
            partition: TreePartition {
                part_of: vec![],
                n_parts: 0,
            },
            worker_timings: vec![],
            wall: Duration::ZERO,
        }
    }
}

/// One part's compile plan: `(vertex, warm parent)` in local MST order.
type PartPlan = Vec<(usize, Option<usize>)>;

/// Builds the per-part local sequences (global selection order restricted
/// to each part, cut parents degraded to scratch) and counts cut edges.
fn build_plans(order: &CompileOrder, parts: &[Vec<usize>]) -> (Vec<PartPlan>, usize) {
    let mut cut_edges = 0usize;
    let mut plans: Vec<PartPlan> = Vec::with_capacity(parts.len());
    for part in parts {
        let mut plan = Vec::with_capacity(part.len());
        for step in &order.steps {
            if !part.contains(&step.vertex) {
                continue;
            }
            let parent = match step.parent {
                Some(p) if part.contains(&p) => Some(p),
                Some(_) => {
                    cut_edges += 1;
                    None
                }
                None => None,
            };
            plan.push((step.vertex, parent));
        }
        plans.push(plan);
    }
    (plans, cut_edges)
}

/// What [`compile_batch`] produced.
#[derive(Debug)]
pub(crate) struct Batch {
    /// `(target index, compiled entry)` for every target, in
    /// `order.steps` order.
    pub(crate) entries: Vec<(usize, CachedPulse)>,
    /// The similarity-MST compile order over the targets.
    pub(crate) order: CompileOrder,
    /// Plan and wall-clock accounting.
    pub(crate) stats: ParallelStats,
}

/// Compiles `targets` in similarity-MST order with warm starts, over a
/// balanced partition of the MST into `plan_width` connected parts (at
/// least one per tree component) run on a pool of `threads` workers
/// (see the module docs for the plan/execution split). Nothing is
/// written to the session library: the caller inserts the returned
/// entries.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when `threads == 0`; otherwise the first
/// compilation failure (the other workers' completed work is discarded).
pub(crate) fn compile_batch(
    session: &Session,
    targets: &[GroupTarget],
    plan_width: usize,
    threads: usize,
) -> Result<Batch> {
    if threads == 0 {
        return Err(Error::InvalidConfig {
            message: "need at least one worker thread".into(),
        });
    }
    let n = targets.len();
    let order = mst_compile_order(&SimilarityGraph::build(
        targets.iter().map(|t| t.unitary.clone()).collect(),
        session.config().similarity,
    ));
    if n == 0 {
        return Ok(Batch {
            entries: vec![],
            order,
            stats: ParallelStats::empty(),
        });
    }

    let tree = WeightedTree::from_order(&order, n);
    let partition = partition_tree(&tree, plan_width);
    let (plans, cut_edges) = build_plans(&order, &partition.parts());

    // Longest-processing-time-first queue order (by estimated part
    // weight, deterministic index tie-break) so the heaviest part starts
    // first and the pool drains evenly.
    let loads = partition.loads(&tree);
    let mut queue: Vec<usize> = (0..plans.len()).collect();
    queue.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]).then(a.cmp(&b)));

    struct PartOutcome {
        part: usize,
        iterations: usize,
        entries: HashMap<usize, CachedPulse>,
    }
    type WorkerResult = Result<(Vec<PartOutcome>, Duration)>;

    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let worker_results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(plans.len()))
            .map(|_| {
                let (next, queue, plans) = (&next, &queue, &plans);
                scope.spawn(move || -> WorkerResult {
                    // One pooled workspace per worker for the whole
                    // drain, from (and back to) the worker thread's pool.
                    let mut ws = session.lease_workspace();
                    let mut done = Vec::new();
                    let started = Instant::now();
                    while let Some(&part) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let mut entries: HashMap<usize, CachedPulse> = HashMap::new();
                        let mut iterations = 0usize;
                        for &(vertex, parent) in &plans[part] {
                            let target = &targets[vertex];
                            let warm = parent
                                .filter(|&p| {
                                    warm_start_allowed(
                                        &targets[p].unitary,
                                        &target.unitary,
                                        session.config().warm_threshold,
                                    )
                                })
                                .and_then(|p| entries.get(&p))
                                .map(|e| &e.pulse);
                            let r = session.compile_anchored(
                                &target.unitary,
                                target.n_qubits,
                                warm,
                                0.0,
                                &mut ws,
                            )?;
                            iterations += r.total_iterations;
                            entries.insert(
                                vertex,
                                CachedPulse {
                                    pulse: r.outcome.pulse,
                                    latency_ns: r.latency_ns,
                                    iterations: r.total_iterations,
                                    n_qubits: target.n_qubits,
                                },
                            );
                        }
                        done.push(PartOutcome {
                            part,
                            iterations,
                            entries,
                        });
                    }
                    Ok((done, started.elapsed()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall = t0.elapsed();

    let mut compiled: HashMap<usize, CachedPulse> = HashMap::with_capacity(n);
    let mut iterations_per_part = vec![0usize; plans.len()];
    let mut worker_timings = Vec::new();
    for (worker, result) in worker_results.into_iter().enumerate() {
        let (done, busy) = result?;
        let mut timing = WorkerTiming {
            worker,
            parts: done.len(),
            groups: 0,
            iterations: 0,
            wall: busy,
        };
        for outcome in done {
            iterations_per_part[outcome.part] = outcome.iterations;
            timing.groups += outcome.entries.len();
            timing.iterations += outcome.iterations;
            compiled.extend(outcome.entries);
        }
        if timing.parts > 0 {
            worker_timings.push(timing);
        }
    }
    let entries = order
        .steps
        .iter()
        .map(|step| {
            let entry = compiled
                .remove(&step.vertex)
                .expect("every plan part compiled every vertex it holds");
            (step.vertex, entry)
        })
        .collect();
    let total_iterations = iterations_per_part.iter().sum();
    let makespan_iterations = iterations_per_part.iter().copied().max().unwrap_or(0);
    Ok(Batch {
        entries,
        order,
        stats: ParallelStats {
            iterations_per_part,
            total_iterations,
            makespan_iterations,
            cut_edges,
            partition,
            worker_timings,
            wall,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate, UnitaryKey};
    use accqoc_hw::Topology;

    fn setup() -> (Session, Vec<GroupTarget>) {
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 200;
        let session = Session::builder()
            .topology(Topology::linear(2))
            .grape(grape)
            .build()
            .unwrap();
        let targets = (1..=5)
            .map(|k| {
                let unitary = circuit_unitary(&Circuit::from_gates(
                    1,
                    [Gate::Rz(0, 0.3 * k as f64), Gate::H(0)],
                ));
                GroupTarget {
                    key: UnitaryKey::canonical(&unitary, 1),
                    unitary,
                    n_qubits: 1,
                }
            })
            .collect();
        (session, targets)
    }

    #[test]
    fn batch_compiles_every_target_in_order_steps_order() {
        let (session, targets) = setup();
        let batch = compile_batch(&session, &targets, 2, 2).unwrap();
        let vertices: Vec<usize> = batch.entries.iter().map(|(v, _)| *v).collect();
        let steps: Vec<usize> = batch.order.steps.iter().map(|s| s.vertex).collect();
        assert_eq!(vertices, steps);
        let stats = &batch.stats;
        assert_eq!(stats.iterations_per_part.len(), stats.partition.n_parts);
        assert!(stats.total_iterations > 0);
        assert!(stats.makespan_iterations <= stats.total_iterations);
        assert!(stats.wall > Duration::ZERO);
        let timed_groups: usize = stats.worker_timings.iter().map(|t| t.groups).sum();
        assert_eq!(timed_groups, 5);
        let billed: usize = batch.entries.iter().map(|(_, e)| e.iterations).sum();
        assert_eq!(billed, stats.total_iterations);
    }

    #[test]
    fn plan_width_one_cuts_nothing_and_more_parts_reduce_makespan() {
        let (session, targets) = setup();
        let one = compile_batch(&session, &targets, 1, 1).unwrap().stats;
        assert_eq!(one.cut_edges, 0);
        assert_eq!(one.worker_timings.len(), 1);
        let three = compile_batch(&session, &targets, 3, 3).unwrap().stats;
        assert!(
            three.makespan_iterations <= one.makespan_iterations,
            "3 parts {} vs 1 part {}",
            three.makespan_iterations,
            one.makespan_iterations
        );
    }

    #[test]
    fn fixed_plan_is_thread_count_invariant() {
        let (session, targets) = setup();
        let run = |threads: usize| compile_batch(&session, &targets, 3, threads).unwrap();
        let (b1, b4) = (run(1), run(4));
        assert_eq!(b1.entries, b4.entries, "entries must not depend on threads");
        assert_eq!(b1.stats.cut_edges, b4.stats.cut_edges);
        assert_eq!(b1.stats.iterations_per_part, b4.stats.iterations_per_part);
    }

    #[test]
    fn empty_input_is_fine_and_zero_threads_is_an_error() {
        let (session, targets) = setup();
        let batch = compile_batch(&session, &[], 1, 4).unwrap();
        assert!(batch.entries.is_empty());
        assert_eq!(batch.stats.total_iterations, 0);
        assert_eq!(batch.stats.wall, Duration::ZERO);
        let e = compile_batch(&session, &targets, 1, 0).unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }));
    }
}
