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
//! - The *execution* runs the plan on the [compile executor](crate::exec),
//!   at most `threads` lanes: the calling thread plus one scoped thread
//!   per spare core. The parts are queued longest-processing-time-first,
//!   each in its local MST order, and each step waits only on the step
//!   whose pulse seeds it, so independent branches of the tree compile
//!   side by side, within a part as across parts. Each lane owns a
//!   pooled GRAPE workspace, and the entries are committed on the
//!   caller, so lanes share no pulse store at all.
//!
//! A step's pulse depends only on its target and its seed, never on the
//! lane or the order that ran it. Plan width 1 cuts no MST edge, so it
//! gives the pulses of the exact sequential warm-start chain on any
//! number of lanes; that is how [`Session::compile`] and a sequential
//! [`Session::precompile`] run. A threaded [`Session::precompile`] runs
//! the fixed default plan, so compiling with 1 thread and with 16 threads
//! produces **byte-identical pulse-cache artifacts**; only the wall clock
//! changes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use accqoc_grape::{LatencyResult, Workspace};

use crate::cache::CachedPulse;
use crate::compile::warm_start_allowed;
use crate::error::{Error, Result};
use crate::exec::{self, Done, Width};
use crate::mst::{mst_compile_order, CompileOrder, SimilarityGraph};
use crate::partition::{partition_tree, TreePartition, WeightedTree};
use crate::session::{GroupTarget, Session};

/// Plan width of a threaded [`Session::precompile`]: how many connected
/// parts the MST is split into. Chosen above common core counts so the
/// pool stays busy, while keeping the number of cut MST edges (and thus
/// extra scratch starts) small. The plan — and therefore the compiled
/// pulses — does not depend on the thread count.
pub const DEFAULT_PLAN_PARTS: usize = 8;

/// Wall-clock accounting for one lane of the batch.
#[derive(Debug, Clone)]
pub struct WorkerTiming {
    /// Lane index (`0..threads`): 0 is the calling thread; a thread the
    /// batch starts takes the lowest index no running thread holds, so
    /// a lane that exits and a later one can share an index.
    pub worker: usize,
    /// Parts this lane compiled a step of.
    pub parts: usize,
    /// Groups this lane compiled.
    pub groups: usize,
    /// GRAPE iterations this lane spent.
    pub iterations: usize,
    /// Wall-clock time of this lane, from its first step's start to its
    /// last step's end.
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
    /// Per-lane wall-clock accounting (one entry per lane that compiled
    /// at least one group), by lane index.
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
/// least one per tree component) run on at most `threads` lanes (see the
/// module docs for the plan/execution split). Nothing is
/// written to the session library: the caller inserts the returned
/// entries.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when `threads == 0`; otherwise the first
/// compilation failure in plan order (the other lanes' completed work is
/// discarded).
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

    // The executor's plan: the parts longest-processing-time-first (by
    // estimated part weight, deterministic index tie-break) so the
    // heaviest part starts first and the lanes drain evenly, each part in
    // its local MST order, each step waiting on its warm parent's step.
    let loads = partition.loads(&tree);
    let mut queue: Vec<usize> = (0..plans.len()).collect();
    queue.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]).then(a.cmp(&b)));
    // Per step: its part and its vertex; and the step it waits on.
    let mut steps: Vec<(usize, usize)> = Vec::with_capacity(n);
    let mut after: Vec<Option<usize>> = Vec::with_capacity(n);
    let mut step_of: HashMap<usize, usize> = HashMap::with_capacity(n);
    for &part in &queue {
        for &(vertex, parent) in &plans[part] {
            let seed = parent
                .filter(|&p| {
                    warm_start_allowed(
                        &targets[p].unitary,
                        &targets[vertex].unitary,
                        session.config().warm_threshold,
                    )
                })
                .map(|p| step_of[&p]);
            after.push(seed);
            step_of.insert(vertex, steps.len());
            steps.push((part, vertex));
        }
    }

    let run = |i: usize, done: &Done<'_, LatencyResult>, ws: &mut Workspace| {
        let target = &targets[steps[i].1];
        let warm = after[i].map(|p| &done.get(p).outcome.pulse);
        session.compile_anchored(&target.unitary, target.n_qubits, warm, 0.0, ws)
    };
    let mut compiled: Vec<Option<CachedPulse>> = vec![None; n];
    let mut commit = |i: usize, r: &LatencyResult| {
        let vertex = steps[i].1;
        compiled[vertex] = Some(CachedPulse {
            // Copied on this thread, like every pulse the library keeps.
            pulse: r.outcome.pulse.clone(),
            latency_ns: r.latency_ns,
            iterations: r.total_iterations,
            n_qubits: targets[vertex].n_qubits,
        });
    };
    let t0 = Instant::now();
    let (_, ran) = exec::execute(&after, Width::Spare(threads), &run, &mut commit)?;
    let wall = t0.elapsed();

    let iterations = |i: usize| compiled[steps[i].1].as_ref().map_or(0, |e| e.iterations);
    let mut iterations_per_part = vec![0usize; plans.len()];
    for (i, &(part, _)) in steps.iter().enumerate() {
        iterations_per_part[part] += iterations(i);
    }
    let n_lanes = ran.iter().map(|r| r.lane + 1).max().unwrap_or(0);
    let worker_timings = (0..n_lanes)
        .filter_map(|lane| {
            let on_lane: Vec<usize> = (0..steps.len()).filter(|&i| ran[i].lane == lane).collect();
            let first = on_lane.iter().map(|&i| ran[i].started).min()?;
            let last = on_lane.iter().map(|&i| ran[i].finished).max()?;
            let mut parts: Vec<usize> = on_lane.iter().map(|&i| steps[i].0).collect();
            parts.sort_unstable();
            parts.dedup();
            Some(WorkerTiming {
                worker: lane,
                parts: parts.len(),
                groups: on_lane.len(),
                iterations: on_lane.iter().map(|&i| iterations(i)).sum(),
                wall: last - first,
            })
        })
        .collect();
    let entries = order
        .steps
        .iter()
        .map(|step| {
            let entry = compiled[step.vertex]
                .take()
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
