//! Regenerates the paper's evaluation (§VI): Tables I–II, Figures 5, 7–9
//! and 11–15, the §V-D thread sweep, and three ablations. Each experiment
//! prints its tables and writes them (all but Figure 9's) as CSV under
//! `results/`.
//!
//! ```text
//! cargo run --release -p accqoc-bench --bin paper              # every experiment
//! cargo run --release -p accqoc-bench --bin paper fig7 fig15   # just these
//! ```
//!
//! `ACCQOC_FAST=1` shrinks the sample sizes. A run builds each shared
//! context once: the bare session, and the session that pre-compiled the
//! profiling category (Figures 7 and 15). An unknown name exits 2; a
//! failed check (the thread sweep's artifact differing across thread
//! counts) exits 1 once every named experiment has run.

use std::cell::OnceCell;
use std::process::ExitCode;

use accqoc::{
    collect_category, mst_compile_order, partition_tree, scratch_order, BruteForceConfig,
    SimilarityFn, SimilarityGraph, WeightedTree,
};
use accqoc_bench::experiments::{
    category_steps, fig11_rows, fig12_cells, fig13_rows, fig14_rows, fig15_rows, fig5_rows,
    fig7_rows, fig8_rows, fig9_example, table1_rows, table2_rows, threads_speedup_rows,
    training_costs, truncate_category,
};
use accqoc_bench::{fast_mode, print_table, write_csv, ExperimentContext};
use accqoc_map::{crosstalk_metric, map_circuit, MappingOptions};
use accqoc_workloads::full_suite;

/// An experiment: prints and records its tables, or names the check that
/// failed.
type Experiment = fn(&Contexts) -> Result<(), String>;

/// Every experiment, in the order a run without names runs them.
const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("table1", table1),
    ("table2", table2),
    ("fig5", fig5),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("threads", threads),
    ("ablations", ablations),
];

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for name in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
            Some(&experiment) => selected.push(experiment),
            None => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                eprintln!(
                    "paper: unknown experiment {name:?}; valid names: {}",
                    names.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.to_vec();
    }
    let contexts = Contexts::default();
    let mut status = ExitCode::SUCCESS;
    for (i, (name, run)) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(failure) = run(&contexts) {
            eprintln!("paper: {name} failed: {failure}");
            status = ExitCode::FAILURE;
        }
    }
    status
}

/// The experiments' shared contexts, each built on first use.
#[derive(Default)]
struct Contexts {
    bare: OnceCell<ExperimentContext>,
    precompiled: OnceCell<ExperimentContext>,
}

impl Contexts {
    fn bare(&self) -> &ExperimentContext {
        self.bare.get_or_init(ExperimentContext::bare)
    }

    fn precompiled(&self) -> &ExperimentContext {
        self.precompiled.get_or_init(ExperimentContext::precompiled)
    }
}

/// One table: printed under its console header and, given a CSV name,
/// recorded under `results/` with the CSV header.
struct Table<'a> {
    header: &'a [&'a str],
    rows: Vec<Vec<String>>,
    csv: Option<(&'a str, &'a [&'a str])>,
    /// Print every `stride`-th row; the CSV keeps them all.
    stride: usize,
}

impl<'a> Table<'a> {
    fn new(header: &'a [&'a str], rows: Vec<Vec<String>>) -> Self {
        Self {
            header,
            rows,
            csv: None,
            stride: 1,
        }
    }

    fn csv(self, name: &'a str, header: &'a [&'a str]) -> Self {
        Self {
            csv: Some((name, header)),
            ..self
        }
    }

    fn render(self) {
        let printed: Vec<Vec<String>> = self.rows.iter().step_by(self.stride).cloned().collect();
        print_table(self.header, &printed);
        if let Some((name, header)) = self.csv {
            write_csv(name, header, &self.rows).ok();
        }
    }
}

/// The mean of `values`, or 0 when there are none.
fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len().max(1);
    values.sum::<f64>() / n as f64
}

fn table1(_: &Contexts) -> Result<(), String> {
    println!("Table I — parameter settings of the 6 grouping policies\n");
    Table::new(
        &["policy", "swap handling", "# qubits", "# layers"],
        table1_rows(),
    )
    .csv("table1.csv", &["policy", "swap", "qubits", "layers"])
    .render();
    Ok(())
}

fn table2(_: &Contexts) -> Result<(), String> {
    println!("Table II — instruction mixes (counts; last row = suite average mix)\n");
    let header = ["program", "x", "t", "h", "cx", "rz", "tdg"];
    Table::new(&header, table2_rows(&full_suite()))
        .csv("table2.csv", &header)
        .render();
    println!("\npaper row (cm152a_212): x=5 t=304 h=152 cx=532 rz=0 tdg=228");
    println!("paper avg             : x=0.10% t=22% h=15% cx=45% rz=1.1% tdg=17%");
    Ok(())
}

fn fig5(_: &Contexts) -> Result<(), String> {
    println!("Figure 5 — CX error with/without a nearby parallel CNOT (Melbourne)\n");
    let rows = fig5_rows();
    let display = rows
        .iter()
        .map(|(pair, base, with, ratio)| {
            vec![
                pair.clone(),
                format!("{base:.4}"),
                format!("{with:.4}"),
                format!("{:.0}%", (ratio - 1.0) * 100.0),
            ]
        })
        .collect();
    Table::new(
        &["pair", "isolated err", "w/ crosstalk", "inflation"],
        display,
    )
    .csv("fig5.csv", &["pair", "isolated", "crosstalk", "ratio"])
    .render();
    let avg = mean(rows.iter().map(|r| r.3 - 1.0));
    println!("\naverage inflation: {:.0}% (paper: ~20%)", avg * 100.0);
    Ok(())
}

fn fig7(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 7 — coverage of evaluation programs vs the pre-compiled category\n");
    let rows = fig7_rows(contexts.precompiled(), 7);
    let display = rows
        .iter()
        .map(|(name, covered, total, rate)| {
            vec![
                name.clone(),
                covered.to_string(),
                total.to_string(),
                format!("{:.1}%", rate * 100.0),
            ]
        })
        .collect();
    Table::new(&["program", "covered", "groups", "coverage"], display)
        .csv("fig7.csv", &["program", "covered", "total", "rate"])
        .render();
    let avg = mean(rows.iter().map(|r| r.3));
    println!("\naverage coverage: {:.1}% (paper: 89.7%)", avg * 100.0);
    Ok(())
}

fn fig8(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 8 — iteration reduction of MST-ordered training per similarity function\n");
    let cap = if fast_mode() { 12 } else { 28 };
    let display = fig8_rows(contexts.bare(), cap)
        .into_iter()
        .map(|(label, red)| vec![label.to_string(), format!("{:+.1}%", red * 100.0)])
        .collect();
    Table::new(&["similarity fn", "iteration reduction"], display)
        .csv("fig8.csv", &["function", "reduction"])
        .render();
    println!("\npaper shape: fidelity1 best; inverse (anti-similarity) hurts");
    Ok(())
}

fn fig9(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 9 — similarity graph to partitioned MST walk-through\n");
    let (steps, weights, parts) = fig9_example(contexts.bare());

    println!("(b) MST in Prim selection order (parent ∅ = identity vertex):");
    let rows = steps
        .iter()
        .map(|(v, p, w)| {
            vec![
                format!("g{v}"),
                p.map(|p| format!("g{p}")).unwrap_or_else(|| "∅".into()),
                format!("{w:.4}"),
            ]
        })
        .collect();
    Table::new(&["vertex", "parent", "edge weight"], rows).render();

    println!("\n(c) edge weights shifted onto nodes:");
    let rows = weights
        .iter()
        .enumerate()
        .map(|(v, w)| vec![format!("g{v}"), format!("{w:.4}")])
        .collect();
    Table::new(&["vertex", "node weight"], rows).render();

    println!("\n(d) balanced 2-way partition:");
    let rows = parts
        .iter()
        .enumerate()
        .map(|(v, p)| vec![format!("g{v}"), format!("worker {p}")])
        .collect();
    Table::new(&["vertex", "assigned to"], rows).render();
    Ok(())
}

fn fig11(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 11 — crosstalk metric before/after crosstalk-aware mapping\n");
    let n = if fast_mode() { 6 } else { 12 };
    let rows = fig11_rows(contexts.bare(), n);
    let display = rows
        .iter()
        .map(|r| {
            vec![
                r.program.clone(),
                r.before.to_string(),
                r.after_mapping.to_string(),
                format!("{:.1}%", r.mapping_reduction() * 100.0),
                r.after_scheduling.to_string(),
                format!("{:.1}%", r.scheduled_reduction() * 100.0),
            ]
        })
        .collect();
    Table::new(
        &[
            "program",
            "plain",
            "aware-map",
            "reduction",
            "+scheduler",
            "ext. reduction",
        ],
        display,
    )
    .csv(
        "fig11.csv",
        &[
            "program",
            "plain",
            "aware_map",
            "map_reduction",
            "scheduled",
            "sched_reduction",
        ],
    )
    .render();
    let avg = mean(rows.iter().map(|r| r.mapping_reduction()));
    let avg_ext = mean(rows.iter().map(|r| r.scheduled_reduction()));
    println!(
        "\naverage: mapping-only {:.1}% (paper: 17.6%); with scheduler extension {:.1}%",
        avg * 100.0,
        avg_ext * 100.0
    );
    Ok(())
}

fn fig12(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 12 — latency reduction vs gate-based, 6 policies per program\n");
    let n = if fast_mode() { 2 } else { 6 };
    let cells = fig12_cells(contexts.bare(), n);
    let display = cells
        .iter()
        .map(|c| {
            vec![
                c.program.clone(),
                c.policy.clone(),
                format!("{:.0}", c.gate_based_ns),
                format!("{:.0}", c.accqoc_ns),
                format!("{:.2}x", c.reduction()),
                format!("{:.2}x", c.reduction_optimized()),
            ]
        })
        .collect();
    Table::new(
        &[
            "program",
            "policy",
            "gate-based ns",
            "accqoc ns",
            "reduction",
            "w/ mfg-opt",
        ],
        display,
    )
    .csv(
        "fig12.csv",
        &[
            "program",
            "policy",
            "gate_ns",
            "accqoc_ns",
            "reduction",
            "reduction_opt",
        ],
    )
    .render();
    let avg = mean(cells.iter().map(|c| c.reduction()));
    println!(
        "\naverage latency reduction: {avg:.2}x (paper: 1.2x–2.6x range, avg 2.43x for map2b4l)"
    );
    Ok(())
}

fn fig13(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 13 — iteration reduction per program × similarity function\n");
    let (n, cap) = if fast_mode() { (3, 10) } else { (7, 20) };
    let rows = fig13_rows(contexts.bare(), n, cap);
    let display = rows
        .iter()
        .map(|(program, reductions)| {
            let cells = reductions
                .iter()
                .map(|(_, r)| format!("{:+.1}%", r * 100.0));
            std::iter::once(program.clone()).chain(cells).collect()
        })
        .collect();
    let header = ["program", "l1", "l2", "fidelity1", "fidelity2", "inverse"];
    Table::new(&header, display)
        .csv("fig13.csv", &header)
        .render();
    // Max reduction across programs for the best function.
    let best = rows
        .iter()
        .flat_map(|(_, rs)| rs.iter().filter(|(l, _)| *l == "fidelity1"))
        .map(|(_, r)| *r)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nmax fidelity1 reduction: {:.1}% (paper max: 28%)",
        best * 100.0
    );
    Ok(())
}

fn fig14(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 14 — unique map2b4l groups vs program size\n");
    let mut rows = fig14_rows(contexts.bare());
    rows.sort_by_key(|r| r.1);
    let display: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, gates, groups)| {
            vec![
                name.clone(),
                gates.to_string(),
                groups.to_string(),
                format!("{:.3}", *groups as f64 / *gates as f64),
            ]
        })
        .collect();
    // Print a subsample to keep the console readable; the CSV has every
    // program.
    let stride = 8.max(display.len() / 18);
    Table {
        stride,
        ..Table::new(&["program", "gates", "groups", "groups/gate"], display)
            .csv("fig14.csv", &["program", "gates", "groups", "ratio"])
    }
    .render();
    println!(
        "\n({} programs total — see results/fig14.csv; shape: groups grow sublinearly)",
        rows.len()
    );
    Ok(())
}

fn fig15(contexts: &Contexts) -> Result<(), String> {
    println!("Figure 15 — AccQOC vs brute-force QOC (latency and compile cost)\n");
    let ctx = contexts.precompiled();
    let n = if fast_mode() { 2 } else { 4 };
    let bf = BruteForceConfig::default();
    println!(
        "(brute-force groups capped at {} qubits / {} layers — the paper used up to 10 qubits\n taking hours; the trade-off direction is what matters)\n",
        bf.max_qubits, bf.max_layers
    );
    let rows = fig15_rows(ctx, n, &bf);
    let display = rows
        .iter()
        .map(|r| {
            vec![
                r.program.clone(),
                format!("{:.2}x", r.gate_based_ns / r.accqoc_ns),
                format!("{:.2}x", r.gate_based_ns / r.brute_force_ns),
                r.accqoc_iterations.to_string(),
                r.brute_force_iterations.to_string(),
                format!(
                    "{:.1}x",
                    r.brute_force_iterations as f64 / r.accqoc_iterations.max(1) as f64
                ),
            ]
        })
        .collect();
    Table::new(
        &[
            "program",
            "accqoc latency red.",
            "bf latency red.",
            "accqoc iters",
            "bf iters",
            "compile speedup",
        ],
        display,
    )
    .csv(
        "fig15.csv",
        &[
            "program",
            "accqoc_red",
            "bf_red",
            "accqoc_iters",
            "bf_iters",
            "speedup",
        ],
    )
    .render();
    let sum_acc: usize = rows.iter().map(|r| r.accqoc_iterations).sum();
    let sum_bf: usize = rows.iter().map(|r| r.brute_force_iterations).sum();
    let avg_acc = mean(rows.iter().map(|r| r.gate_based_ns / r.accqoc_ns));
    let avg_bf = mean(rows.iter().map(|r| r.gate_based_ns / r.brute_force_ns));
    println!(
        "\naggregate: accqoc {avg_acc:.2}x latency vs bf {avg_bf:.2}x (paper: 2.43x vs 3.01x);\n compile speedup {:.1}x (paper: 9.88x)",
        sum_bf as f64 / sum_acc.max(1) as f64
    );
    Ok(())
}

/// The §V-D threads-vs-speedup sweep on the Figure 13 workload: identical
/// GRAPE work per row (the partition plan is thread-count-invariant), only
/// the lane cap changes. Lanes beyond the calling thread start only on
/// spare cores, so counts at or above the core count run alike. Fails
/// when the rows' artifacts differ.
fn threads(contexts: &Contexts) -> Result<(), String> {
    println!("Parallel pre-compilation — wall-clock speedup vs worker threads\n");
    let n_programs = if fast_mode() { 3 } else { 7 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1usize, 2, 4];
    if cores >= 8 {
        counts.push(8);
    }
    counts.retain(|&t| t <= cores.max(4));
    let rows = threads_speedup_rows(contexts.bare(), &counts, n_programs);
    let display = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                format!("{:.2}", r.wall_s),
                format!("{:.2}x", r.speedup),
                r.groups.to_string(),
                r.total_iterations.to_string(),
                r.makespan_iterations.to_string(),
                r.cut_edges.to_string(),
                r.artifact_bytes.to_string(),
            ]
        })
        .collect();
    let header = [
        "threads",
        "wall_s",
        "speedup",
        "groups",
        "iters",
        "makespan",
        "cuts",
        "artifact_bytes",
    ];
    Table::new(&header, display)
        .csv("threads.csv", &header)
        .render();

    let deterministic = rows.windows(2).all(|w| {
        w[0].artifact_bytes == w[1].artifact_bytes && w[0].total_iterations == w[1].total_iterations
    });
    println!(
        "\nartifact identical across thread counts: {}",
        if deterministic { "yes" } else { "NO — bug!" }
    );
    if let Some(best) = rows.iter().map(|r| r.speedup).reduce(f64::max) {
        println!("best speedup over 1 thread: {best:.2}x");
    }
    if deterministic {
        Ok(())
    } else {
        Err("the pre-compiled artifact differs across thread counts".into())
    }
}

/// Ablation sweeps of three design choices: the warm-start gate
/// threshold (how permissive seeding can be before dissimilar pulses
/// hurt), the crosstalk weight in the mapping heuristic (swaps traded
/// against close pairs), and the MST partition width (makespan against
/// cut-edge cost).
fn ablations(contexts: &Contexts) -> Result<(), String> {
    let ctx = contexts.bare();
    let (canonical, _, _) = collect_category(&ctx.session, &ctx.profile_programs());

    println!("Ablation 1 — warm-start gate threshold (trace infidelity)\n");
    let category = truncate_category(canonical.clone(), if fast_mode() { 12 } else { 24 });
    let steps = category_steps(&ctx.session, &category);
    let unitaries = category.iter().map(|(u, _)| u.clone()).collect();
    let graph = SimilarityGraph::build(unitaries, SimilarityFn::TraceOverlap);
    let order = mst_compile_order(&graph);
    let scratch_walk = scratch_order(category.len(), &graph);
    let gates = [0.0, 0.02, 0.05, 0.15, 0.5, f64::INFINITY];
    let runs: Vec<_> = gates.iter().map(|&gate| (&order, gate)).collect();
    let (scratch, costs) = training_costs(&ctx.session, &category, &steps, &scratch_walk, &runs);
    let rows = gates
        .iter()
        .zip(costs)
        .map(|(gate, cost)| {
            vec![
                format!("{gate}"),
                cost.to_string(),
                format!(
                    "{:+.1}%",
                    (1.0 - cost as f64 / scratch.max(1) as f64) * 100.0
                ),
            ]
        })
        .collect();
    Table::new(
        &["gate threshold", "iterations", "reduction vs scratch"],
        rows,
    )
    .csv(
        "ablation_warm_gate.csv",
        &["gate", "iterations", "reduction"],
    )
    .render();
    println!("(scratch baseline: {scratch} iterations)\n");

    println!("Ablation 2 — crosstalk weight in the mapping heuristic\n");
    let topo = &ctx.session.config().topology;
    let programs = ctx.eval_programs_sized(800, if fast_mode() { 3 } else { 6 });
    let rows = [0.0, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|weight| {
            let options = MappingOptions {
                crosstalk_aware: weight > 0.0,
                crosstalk_weight: weight,
                ..Default::default()
            };
            let (mut crosstalk, mut swaps) = (0usize, 0usize);
            for p in &programs {
                let mapped = map_circuit(&p.circuit.decomposed(false), topo, &options);
                crosstalk += crosstalk_metric(&mapped.circuit, topo);
                swaps += mapped.swap_count;
            }
            vec![
                format!("{weight}"),
                crosstalk.to_string(),
                swaps.to_string(),
            ]
        })
        .collect();
    Table::new(&["weight", "total crosstalk", "total swaps"], rows)
        .csv(
            "ablation_xtalk_weight.csv",
            &["weight", "crosstalk", "swaps"],
        )
        .render();
    println!();

    println!("Ablation 3 — MST partition width (workers vs makespan)\n");
    let category = truncate_category(canonical, if fast_mode() { 24 } else { 64 });
    let unitaries = category.iter().map(|(u, _)| u.clone()).collect();
    let graph = SimilarityGraph::build(unitaries, SimilarityFn::TraceOverlap);
    let tree = WeightedTree::from_order(&mst_compile_order(&graph), category.len());
    let total = tree.total_weight();
    let rows = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|k| {
            let p = partition_tree(&tree, k);
            let makespan = p.makespan(&tree);
            vec![
                k.to_string(),
                p.n_parts.to_string(),
                format!("{makespan:.2}"),
                format!("{:.2}", total / makespan.max(1e-12)),
                format!("{:.2}", p.balance(&tree)),
            ]
        })
        .collect();
    Table::new(
        &["k", "parts", "weight makespan", "speedup", "balance"],
        rows,
    )
    .csv(
        "ablation_partition.csv",
        &["k", "parts", "makespan", "speedup", "balance"],
    )
    .render();
    Ok(())
}
