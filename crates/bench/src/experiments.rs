//! Implementations of the paper's tables and figures.
//!
//! Every function returns plain row data; the `paper` binary formats,
//! prints and records them.

use std::collections::HashMap;

use accqoc::{
    brute_force_qoc, collect_category, compile_each, mst_compile_order, scratch_order,
    warm_start_allowed, BruteForceConfig, CompileOrder, PrecompileOptions, Session, SimilarityFn,
    SimilarityGraph,
};
use accqoc_circuit::{Circuit, GateKind};
use accqoc_grape::{solve_with, GrapeProblem, InitStrategy, Pulse, Workspace};
use accqoc_group::GroupingPolicy;
use accqoc_hw::{NoiseModel, Topology};
use accqoc_linalg::Mat;
use accqoc_map::{
    crosstalk_metric, map_circuit, schedule_crosstalk_aware, MappingOptions, ScheduleOptions,
};
use accqoc_workloads::{nct_circuit, paper_specs, qft, BenchProgram};

use crate::context::{fast_mode, ExperimentContext};

// ---------------------------------------------------------------------------
// Table I — grouping policies.
// ---------------------------------------------------------------------------

/// Rows of paper Table I: the six candidate policies.
pub fn table1_rows() -> Vec<Vec<String>> {
    GroupingPolicy::paper_policies()
        .into_iter()
        .map(|p| {
            vec![
                p.label(),
                p.swap_mode.prefix().to_string(),
                p.max_qubits.to_string(),
                p.max_layers.to_string(),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table II — instruction mixes.
// ---------------------------------------------------------------------------

/// The six gate kinds the paper tabulates.
pub const TABLE2_KINDS: [GateKind; 6] = [
    GateKind::X,
    GateKind::T,
    GateKind::H,
    GateKind::Cx,
    GateKind::Rz,
    GateKind::Tdg,
];

/// Per-program gate counts for the named Table II programs, plus the
/// suite-average instruction mix (as percentages) in the last row.
pub fn table2_rows(suite: &[BenchProgram]) -> Vec<Vec<String>> {
    let mut named: Vec<(String, Circuit)> = paper_specs()
        .iter()
        .map(|s| (s.name.to_string(), nct_circuit(s)))
        .collect();
    named.insert(2, ("qft_10".into(), qft(10)));
    named.insert(3, ("qft_16".into(), qft(16)));

    let mut rows = Vec::new();
    for (name, circuit) in &named {
        let counts = circuit.decomposed(false).counts_by_kind();
        let mut row = vec![name.clone()];
        for kind in TABLE2_KINDS {
            row.push(counts.get(&kind).copied().unwrap_or(0).to_string());
        }
        rows.push(row);
    }
    // Suite-wide average mix.
    let mut sums: HashMap<GateKind, f64> = HashMap::new();
    let mut total = 0.0;
    for p in suite {
        for (kind, count) in p.circuit.decomposed(false).counts_by_kind() {
            *sums.entry(kind).or_insert(0.0) += count as f64;
            total += count as f64;
        }
    }
    let mut avg = vec!["all".to_string()];
    for kind in TABLE2_KINDS {
        let frac = sums.get(&kind).copied().unwrap_or(0.0) / total;
        avg.push(format!("{:.2}%", 100.0 * frac));
    }
    rows.push(avg);
    rows
}

// ---------------------------------------------------------------------------
// Figure 5 — crosstalk and error rate.
// ---------------------------------------------------------------------------

/// Per-pair CX error with and without a nearby parallel CNOT on
/// Melbourne; returns `(pair, isolated, with-crosstalk, inflation)` rows.
pub fn fig5_rows() -> Vec<(String, f64, f64, f64)> {
    let noise = NoiseModel::melbourne();
    let topo = noise.topology().clone();
    let edges = topo.undirected_edges();
    let mut rows = Vec::new();
    for &(a, b) in edges.iter() {
        // Find a disturber edge at distance ≤ 1 not sharing a qubit.
        let disturber = edges.iter().find(|&&e| {
            e != (a, b)
                && e.0 != a
                && e.0 != b
                && e.1 != a
                && e.1 != b
                && topo.edge_distance((a, b), e) <= 1
        });
        if let Some(&d) = disturber {
            let base = noise.cx_error(a, b);
            let with = noise.cx_error_with_parallel(a, b, d);
            rows.push((format!("({a},{b})"), base, with, with / base));
            if rows.len() == 6 {
                break; // the paper shows six pairs
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 7 — coverage under map2b4l.
// ---------------------------------------------------------------------------

/// Coverage of evaluation programs against the pre-compiled session
/// cache: `(name, covered, total, rate)`.
pub fn fig7_rows(ctx: &ExperimentContext, n_programs: usize) -> Vec<(String, usize, usize, f64)> {
    let programs = ctx.eval_programs_sized(2000, n_programs);
    programs
        .iter()
        .map(|p| {
            let cov = ctx
                .session
                .lookup(&ctx.session.front_end(&p.circuit))
                .coverage;
            (p.name.clone(), cov.covered, cov.total, cov.rate())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 8 & 13 — iteration reduction from similarity-ordered training.
// ---------------------------------------------------------------------------

/// Fixed-latency training cost of a category under `scratch` with no
/// warm start, and under each of `runs`, a compile order and its
/// warm-start gate: every group is solved at its own (pre-established)
/// slice count; warm seeds come from MST parents that pass the gate.
/// This is the quantity paper §VI-G varies — "the training iterations of
/// groups with and without accelerated training" — with latencies
/// already fixed by pre-compilation. The runs are independent and run
/// side by side on spare cores.
pub fn training_costs(
    session: &Session,
    canonical: &[(Mat, usize)],
    steps: &[usize],
    scratch: &CompileOrder,
    runs: &[(&CompileOrder, f64)],
) -> (usize, Vec<usize>) {
    let mut costs = compile_each(runs.len() + 1, |i, ws| {
        let (order, gate) = if i == 0 { (scratch, -1.0) } else { runs[i - 1] };
        Ok(training_cost(session, canonical, steps, order, gate, ws))
    })
    .expect("a training run never fails");
    let scratch_cost = costs.remove(0);
    (scratch_cost, costs)
}

/// One run of [`training_costs`], on the lane's workspace.
fn training_cost(
    session: &Session,
    canonical: &[(Mat, usize)],
    steps: &[usize],
    order: &CompileOrder,
    gate: f64,
    ws: &mut Workspace,
) -> usize {
    let mut pulses: HashMap<usize, Pulse> = HashMap::new();
    let mut total = 0usize;
    for step in &order.steps {
        let (target, n_qubits) = &canonical[step.vertex];
        let mut opts = session.config().grape.clone();
        if let Some(p) = step.parent {
            if warm_start_allowed(&canonical[p].0, target, gate) {
                if let Some(pp) = pulses.get(&p) {
                    opts.init = InitStrategy::Warm(pp.clone());
                }
            }
        }
        let model = session
            .models()
            .for_qubits(*n_qubits)
            .expect("category arity in range");
        let problem = GrapeProblem {
            model,
            target,
            n_steps: steps[step.vertex],
            options: opts,
        };
        let out = solve_with(&problem, ws);
        total += out.iterations;
        if out.converged {
            pulses.insert(step.vertex, out.pulse);
        }
    }
    total
}

/// Establishes each group's minimal slice count with one cold binary
/// search per group, the groups side by side on spare cores.
pub fn category_steps(session: &Session, canonical: &[(Mat, usize)]) -> Vec<usize> {
    compile_each(canonical.len(), |i, _| {
        let (u, n) = &canonical[i];
        Ok(session.compile_unitary(u, *n, None)?.n_steps)
    })
    .expect("compiles")
}

/// Iteration reduction (fraction) of MST-ordered training vs from-scratch
/// training for one category, per similarity function. Positive = fewer
/// iterations. The `inverse` control runs ungated — it exists precisely to
/// show what dissimilar seeds do (paper Figure 8 shows it increasing the
/// count).
pub fn similarity_reductions(
    session: &Session,
    canonical: &[(Mat, usize)],
) -> Vec<(&'static str, f64)> {
    let unitaries: Vec<Mat> = canonical.iter().map(|(u, _)| u.clone()).collect();
    let steps = category_steps(session, canonical);
    let any_graph = SimilarityGraph::build(unitaries.clone(), SimilarityFn::Frobenius);
    let scratch_ord = scratch_order(canonical.len(), &any_graph);
    let gate = session.config().warm_threshold;
    let orders: Vec<(&'static str, CompileOrder, f64)> = SimilarityFn::all()
        .into_iter()
        .map(|f| {
            let graph = SimilarityGraph::build(unitaries.clone(), f);
            let g = if f == SimilarityFn::InverseUhlmann {
                f64::INFINITY
            } else {
                gate
            };
            (f.label(), mst_compile_order(&graph), g)
        })
        .collect();

    let runs: Vec<_> = orders.iter().map(|(_, order, g)| (order, *g)).collect();
    let (scratch_cost, costs) = training_costs(session, canonical, &steps, &scratch_ord, &runs);
    orders
        .iter()
        .zip(costs)
        .map(|((label, _, _), cost)| (*label, 1.0 - cost as f64 / scratch_cost.max(1) as f64))
        .collect()
}

/// Truncates a category to its densest similarity neighborhood of `cap`
/// groups (Frobenius metric): the paper notes the MST acceleration "highly
/// relies on the size of the MST — for a larger MST the two groups
/// connected are more likely to be very close", so a small subsample must
/// keep neighbors together to reflect large-category behaviour.
pub fn truncate_category(canonical: Vec<(Mat, usize)>, cap: usize) -> Vec<(Mat, usize)> {
    if canonical.len() <= cap {
        return canonical;
    }
    let n = canonical.len();
    let dist = |i: usize, j: usize| -> f64 {
        SimilarityFn::Frobenius.distance(&canonical[i].0, &canonical[j].0)
    };
    // Seed = group with the smallest sum of distances to its cap−1 nearest.
    let mut best_seed = 0;
    let mut best_score = f64::INFINITY;
    for i in 0..n {
        let mut ds: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| dist(i, j)).collect();
        ds.sort_by(f64::total_cmp);
        let score: f64 = ds.iter().take(cap - 1).filter(|d| d.is_finite()).sum();
        if score < best_score {
            best_score = score;
            best_seed = i;
        }
    }
    let mut by_dist: Vec<usize> = (0..n).collect();
    by_dist.sort_by(|&a, &b| dist(best_seed, a).total_cmp(&dist(best_seed, b)));
    let mut keep: Vec<usize> = by_dist.into_iter().take(cap).collect();
    keep.sort_unstable();
    keep.into_iter().map(|i| canonical[i].clone()).collect()
}

/// Figure 8: average iteration reduction per similarity function over the
/// profiled category (subsampled to `cap` groups for runtime).
pub fn fig8_rows(ctx: &ExperimentContext, cap: usize) -> Vec<(&'static str, f64)> {
    let programs = ctx.profile_programs();
    let (canonical, _, _) = collect_category(&ctx.session, &programs);
    let canonical = truncate_category(canonical, cap);
    similarity_reductions(&ctx.session, &canonical)
}

/// Figure 13: per-program iteration reductions for the five similarity
/// functions: `(program, [(label, reduction); 5])`.
pub fn fig13_rows(
    ctx: &ExperimentContext,
    n_programs: usize,
    cap: usize,
) -> Vec<(String, Vec<(&'static str, f64)>)> {
    let max_gates = if fast_mode() { 260 } else { 420 };
    let programs = ctx.eval_programs_sized(max_gates, n_programs);
    programs
        .iter()
        .map(|p| {
            let (canonical, _, _) =
                collect_category(&ctx.session, std::slice::from_ref(&p.circuit));
            let canonical = truncate_category(canonical, cap);
            (
                p.name.clone(),
                similarity_reductions(&ctx.session, &canonical),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 11 — crosstalk mitigation by mapping.
// ---------------------------------------------------------------------------

/// One Figure-11 row: crosstalk metric under plain mapping, the paper's
/// crosstalk-aware mapping, and (our extension) aware mapping plus the
/// stagger scheduler.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Program name.
    pub program: String,
    /// Crosstalk metric with the plain (distance-only) mapper.
    pub before: usize,
    /// Metric with the crosstalk-aware mapper (the paper's experiment).
    pub after_mapping: usize,
    /// Metric after additionally stagger-scheduling (extension, §VI-C
    /// calls systematic mitigation an open question).
    pub after_scheduling: usize,
}

impl Fig11Row {
    /// Reduction from crosstalk-aware mapping alone (paper's number).
    pub fn mapping_reduction(&self) -> f64 {
        if self.before == 0 {
            0.0
        } else {
            1.0 - self.after_mapping as f64 / self.before as f64
        }
    }

    /// Reduction including the scheduler extension.
    pub fn scheduled_reduction(&self) -> f64 {
        if self.before == 0 {
            0.0
        } else {
            1.0 - self.after_scheduling as f64 / self.before as f64
        }
    }
}

/// Crosstalk metric rows for Figure 11.
pub fn fig11_rows(ctx: &ExperimentContext, n_programs: usize) -> Vec<Fig11Row> {
    let topo = &ctx.session.config().topology;
    let programs = ctx.eval_programs_sized(1200, n_programs);
    programs
        .iter()
        .map(|p| {
            let decomposed = p.circuit.decomposed(false);
            let plain = map_circuit(
                &decomposed,
                topo,
                &MappingOptions {
                    crosstalk_aware: false,
                    ..Default::default()
                },
            );
            let aware = map_circuit(&decomposed, topo, &MappingOptions::default());
            let scheduled =
                schedule_crosstalk_aware(&aware.circuit, topo, &ScheduleOptions::default());
            Fig11Row {
                program: p.name.clone(),
                before: crosstalk_metric(&plain.circuit, topo),
                after_mapping: crosstalk_metric(&aware.circuit, topo),
                after_scheduling: scheduled.crosstalk(topo),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 12 — latency reduction across policies.
// ---------------------------------------------------------------------------

/// One figure-12 cell: latency reduction for a program under a policy,
/// without and with the most-frequent-group optimization.
#[derive(Debug, Clone)]
pub struct Fig12Cell {
    /// Program name.
    pub program: String,
    /// Policy label.
    pub policy: String,
    /// Gate-based latency, ns.
    pub gate_based_ns: f64,
    /// AccQOC latency, ns.
    pub accqoc_ns: f64,
    /// AccQOC latency after the §IV-G most-frequent-group optimization.
    pub accqoc_optimized_ns: f64,
}

impl Fig12Cell {
    /// Latency reduction without the optimization.
    pub fn reduction(&self) -> f64 {
        self.gate_based_ns / self.accqoc_ns
    }

    /// Latency reduction with the optimization.
    pub fn reduction_optimized(&self) -> f64 {
        self.gate_based_ns / self.accqoc_optimized_ns
    }
}

/// Runs the Figure 12 sweep: each policy gets its own session that
/// pre-compiles the shared category of the selected programs once (in
/// parallel); per-program latencies are then read off the session cache —
/// before and after optimizing the most frequent group.
pub fn fig12_cells(ctx: &ExperimentContext, n_programs: usize) -> Vec<Fig12Cell> {
    let max_gates = if fast_mode() { 240 } else { 500 };
    let programs = ctx.eval_programs_sized(max_gates, n_programs);
    let mut cells = Vec::new();

    for policy in GroupingPolicy::paper_policies() {
        let session = Session::builder()
            .topology(Topology::melbourne())
            .policy(policy)
            .build()
            .expect("paper policy session is valid");
        let circuits: Vec<Circuit> = programs.iter().map(|p| p.circuit.clone()).collect();

        let options = PrecompileOptions {
            threads: Some(usize::MAX),
            ..PrecompileOptions::default()
        };
        let (report, _) = session
            .precompile(&circuits, &options)
            .expect("policy category compiles");

        // Latencies before the most-frequent-group optimization.
        let mut before: Vec<(String, f64, f64)> = Vec::new();
        for p in &programs {
            let out = session
                .compile_program(&p.circuit)
                .expect("covered program compiles");
            before.push((
                p.name.clone(),
                out.gate_based_latency_ns,
                out.overall_latency_ns,
            ));
        }

        // Optimize the most frequent group on a finer grid.
        if let Some(key) = report.most_frequent.clone() {
            let (canonical, keys, _) = collect_category(&session, &circuits);
            if let Some(idx) = keys.iter().position(|k| *k == key) {
                session
                    .optimize_group(&key, &canonical[idx].0, canonical[idx].1)
                    .ok();
            }
        }
        for (p, (name, gate_ns, acc_ns)) in programs.iter().zip(before) {
            let out = session
                .compile_program(&p.circuit)
                .expect("covered program compiles");
            cells.push(Fig12Cell {
                program: name,
                policy: policy.label(),
                gate_based_ns: gate_ns,
                accqoc_ns: acc_ns,
                accqoc_optimized_ns: out.overall_latency_ns,
            });
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Figure 14 — group-count scaling.
// ---------------------------------------------------------------------------

/// `(name, decomposed gates, unique map2b4l groups)` per suite program.
pub fn fig14_rows(ctx: &ExperimentContext) -> Vec<(String, usize, usize)> {
    let max_q = ctx.session.config().topology.n_qubits();
    ctx.suite
        .iter()
        .filter(|p| p.circuit.n_qubits() <= max_q)
        .map(|p| {
            let (canonical, _, _) =
                collect_category(&ctx.session, std::slice::from_ref(&p.circuit));
            (p.name.clone(), p.decomposed_len(), canonical.len())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 15 — AccQOC vs brute-force QOC.
// ---------------------------------------------------------------------------

/// One figure-15 comparison row.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Program name.
    pub program: String,
    /// Gate-based latency (ns).
    pub gate_based_ns: f64,
    /// AccQOC latency (ns) and dynamic compile iterations.
    pub accqoc_ns: f64,
    /// Iterations AccQOC spent on uncovered groups.
    pub accqoc_iterations: usize,
    /// Brute-force QOC latency (ns) and total iterations.
    pub brute_force_ns: f64,
    /// Iterations brute force spent compiling every group from scratch.
    pub brute_force_iterations: usize,
}

/// Runs the AccQOC vs brute-force comparison on small evaluation
/// programs (the brute-force side compiles ≤`bf.max_qubits`-qubit groups
/// from scratch and dominates the runtime of this figure). Works on a
/// fork of the context session so the shared cache stays pristine.
pub fn fig15_rows(
    ctx: &ExperimentContext,
    n_programs: usize,
    bf: &BruteForceConfig,
) -> Vec<Fig15Row> {
    let max_gates = if fast_mode() { 150 } else { 260 };
    let programs = ctx.eval_programs_sized(max_gates, n_programs);
    let session = ctx.session.fork();
    let mut rows = Vec::new();
    for p in programs {
        let out = session
            .compile_program(&p.circuit)
            .expect("accqoc compiles");
        let bf_result =
            brute_force_qoc(&p.circuit, &session.config().topology, session.config(), bf)
                .expect("brute force compiles");
        rows.push(Fig15Row {
            program: p.name.clone(),
            gate_based_ns: out.gate_based_latency_ns,
            accqoc_ns: out.overall_latency_ns,
            accqoc_iterations: out.dynamic_iterations,
            brute_force_ns: bf_result.overall_latency_ns,
            brute_force_iterations: bf_result.total_iterations,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Threads vs speedup — the parallel pre-compilation engine on the
// Figure 13 workload.
// ---------------------------------------------------------------------------

/// One row of the threads-vs-speedup experiment: the Figure 13 program
/// set pre-compiled from a cold cache on a pool of `threads` workers.
#[derive(Debug, Clone)]
pub struct ThreadsRow {
    /// Worker-pool size.
    pub threads: usize,
    /// Wall-clock time of the parallel compile section, seconds.
    pub wall_s: f64,
    /// Speedup vs the 1-thread row (`wall(1) / wall(threads)`).
    pub speedup: f64,
    /// Unique groups compiled.
    pub groups: usize,
    /// GRAPE iterations across all parts (identical for every row: the
    /// plan is thread-count-invariant).
    pub total_iterations: usize,
    /// Iteration-metric makespan (heaviest part).
    pub makespan_iterations: usize,
    /// MST edges cut by the partition plan.
    pub cut_edges: usize,
    /// SHA-agnostic artifact fingerprint: byte length of the serialized
    /// cache (equal across rows ⇔ plan determinism held).
    pub artifact_bytes: usize,
}

/// Runs the threads-vs-speedup sweep: the Figure 13 evaluation programs'
/// group category pre-compiled from scratch once per thread count on a
/// fresh session. Because the partition plan is fixed, every row does
/// *identical* GRAPE work — the wall-clock column isolates the engine's
/// parallel efficiency. A row's thread count caps the engine's lanes,
/// and a lane beyond the calling thread starts only on a spare core, so
/// the rows at or above the core count run alike.
pub fn threads_speedup_rows(
    ctx: &ExperimentContext,
    thread_counts: &[usize],
    n_programs: usize,
) -> Vec<ThreadsRow> {
    let max_gates = if fast_mode() { 260 } else { 420 };
    let circuits: Vec<Circuit> = ctx
        .eval_programs_sized(max_gates, n_programs)
        .iter()
        .map(|p| p.circuit.clone())
        .collect();

    let mut rows: Vec<ThreadsRow> = Vec::new();
    let mut baseline_wall = f64::NAN;
    for &threads in thread_counts {
        let session = Session::builder()
            .topology(Topology::melbourne())
            .build()
            .expect("stock melbourne session is valid");
        let options = PrecompileOptions {
            threads: Some(threads),
            ..PrecompileOptions::default()
        };
        let (report, stats) = session
            .precompile(&circuits, &options)
            .expect("fig13 workload compiles");
        let wall_s = stats.wall.as_secs_f64();
        if rows.is_empty() {
            baseline_wall = wall_s;
        }
        rows.push(ThreadsRow {
            threads,
            wall_s,
            speedup: baseline_wall / wall_s,
            groups: report.n_unique_groups,
            total_iterations: stats.total_iterations,
            makespan_iterations: stats.makespan_iterations,
            cut_edges: stats.cut_edges,
            artifact_bytes: session.cache_snapshot().to_json().len(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 9 — SG → MST → partition worked example.
// ---------------------------------------------------------------------------

/// Figure 9 walk-through data: MST steps `(vertex, parent, weight)`, the
/// shifted node weights, and the 2-way partition assignment.
pub type Fig9Example = (Vec<(usize, Option<usize>, f64)>, Vec<f64>, Vec<usize>);

/// The Figure 9 walk-through on a real 6-group category.
pub fn fig9_example(ctx: &ExperimentContext) -> Fig9Example {
    use accqoc::{partition_tree, WeightedTree};
    let programs = ctx.profile_programs();
    let (canonical, _, _) = collect_category(&ctx.session, &programs);
    let six = truncate_category(canonical, 6);
    let graph = SimilarityGraph::build(
        six.iter().map(|(u, _)| u.clone()).collect(),
        ctx.session.config().similarity,
    );
    let order = mst_compile_order(&graph);
    let tree = WeightedTree::from_order(&order, six.len());
    let partition = partition_tree(&tree, 2);
    (
        order
            .steps
            .iter()
            .map(|s| (s.vertex, s.parent, s.weight))
            .collect(),
        tree.weights.clone(),
        partition.part_of,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_policies() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[5][0], "map2b4l");
    }

    #[test]
    fn table2_matches_paper_for_named_programs() {
        let suite = accqoc_workloads::full_suite();
        let rows = table2_rows(&suite);
        // 6 named programs + average row.
        assert_eq!(rows.len(), 7);
        // cm152a_212 row: x=5, t=304, h=152, cx=532, rz=0, tdg=228.
        let cm = rows.iter().find(|r| r[0] == "cm152a_212").unwrap();
        assert_eq!(cm[1..], ["5", "304", "152", "532", "0", "228"]);
        // qft_10: cx=90, rz=90.
        let q = rows.iter().find(|r| r[0] == "qft_10").unwrap();
        assert_eq!(q[4], "90");
        assert_eq!(q[5], "90");
    }

    #[test]
    fn fig5_shows_inflation_on_six_pairs() {
        let rows = fig5_rows();
        assert_eq!(rows.len(), 6);
        for (pair, base, with, ratio) in rows {
            assert!(with > base, "{pair}: {with} <= {base}");
            assert!((ratio - accqoc_hw::CROSSTALK_FACTOR).abs() < 1e-9);
        }
    }

    #[test]
    fn fig14_counts_grow_sublinearly() {
        let ctx = ExperimentContext::bare();
        let rows = fig14_rows(&ctx);
        assert!(rows.len() > 50);
        // Groups per gate shrinks as programs grow (sublinearity proxy):
        // compare the small-program mean ratio to the large-program one.
        let mut small = Vec::new();
        let mut large = Vec::new();
        for (_, gates, groups) in &rows {
            if *gates < 300 {
                small.push(*groups as f64 / *gates as f64);
            } else if *gates > 1000 {
                large.push(*groups as f64 / *gates as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(!small.is_empty() && !large.is_empty());
        assert!(
            mean(&large) < mean(&small),
            "groups/gate should fall with size: {} vs {}",
            mean(&large),
            mean(&small)
        );
    }
}
