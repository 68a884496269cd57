//! Parallel compilation over a balanced MST partition (paper §V-D,
//! Figure 9): split the similarity MST into connected parts of similar
//! total work and compile each part on its own worker.
//!
//! Run with: `cargo run --release --example parallel_workers`
//!
//! Exits with an error when the 1-thread and 4-thread runs persist
//! different cache artifacts.

use accqoc_repro::accqoc::{
    collect_category, mst_compile_order, partition_tree, SimilarityGraph, WeightedTree,
};
use accqoc_repro::prelude::*;
use accqoc_repro::workloads::{nct_circuit, NctSpec};

fn session() -> Result<Session, Error> {
    Session::builder().topology(Topology::linear(5)).build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A profiling set producing a few dozen unique groups.
    let programs: Vec<_> = (0..3)
        .map(|k| {
            nct_circuit(&NctSpec {
                name: "w",
                lines: 5,
                n_ccx: 2,
                n_cx: 6,
                n_x: 1,
                seed: 7000 + k,
            })
        })
        .collect();
    let (canonical, _, _) = collect_category(&session()?, &programs);
    println!("category: {} unique groups", canonical.len());

    // SG → MST → weighted tree → balanced partition.
    let graph = SimilarityGraph::build(
        canonical.iter().map(|(u, _)| u.clone()).collect(),
        session()?.config().similarity,
    );
    let order = mst_compile_order(&graph);
    let tree = WeightedTree::from_order(&order, canonical.len());
    for k in [1, 2, 4] {
        let p = partition_tree(&tree, k);
        println!(
            "k={k}: {} parts, balance {:.2}, weight-makespan {:.2}",
            p.n_parts,
            p.balance(&tree),
            p.makespan(&tree)
        );
    }

    // Precompile on 1 vs 4 pool threads, each into a fresh session. The
    // partition plan is fixed, so the pulses (and the saved cache
    // artifact) must be byte-identical; only the wall clock changes.
    let mut artifacts = Vec::new();
    for threads in [1, 4] {
        let session = session()?;
        let options = PrecompileOptions {
            threads: Some(threads),
            ..PrecompileOptions::default()
        };
        let (report, stats) = session.precompile(&programs, &options)?;
        println!(
            "\n{threads} thread(s): {} groups compiled in {:.2?} (engine wall)",
            report.n_unique_groups, stats.wall
        );
        println!(
            "  iterations: total {}, makespan {} ({} MST edges cut)",
            stats.total_iterations, stats.makespan_iterations, stats.cut_edges
        );
        println!("  per-part loads: {:?}", stats.iterations_per_part);
        for t in &stats.worker_timings {
            println!(
                "  worker {}: {} part(s), {} group(s), {} iters, busy {:.2?}",
                t.worker, t.parts, t.groups, t.iterations, t.wall
            );
        }
        artifacts.push(session.cache_snapshot().to_json());
    }
    if artifacts[0] != artifacts[1] {
        return Err("1-thread and 4-thread precompile persisted different artifacts".into());
    }
    println!("\nartifact byte-identical across thread counts");
    Ok(())
}
