//! The paper's headline scenario: a *non-variational* (static) algorithm
//! whose groups cannot be handled by parameterized pre-compilation
//! [Gokhale et al.] — AccQOC pre-compiles a profiled category once and
//! covers new programs from the cache.
//!
//! Run with: `cargo run --release --example static_algorithm`

use accqoc_repro::hw::NoiseModel;
use accqoc_repro::prelude::*;
use accqoc_repro::workloads::{nct_circuit, NctSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Profile a few small reversible programs (the "random third" of the
    // paper at miniature scale) on a 5-qubit line.
    let session = Session::builder().topology(Topology::linear(5)).build()?;
    let profile: Vec<_> = (0..3)
        .map(|k| {
            nct_circuit(&NctSpec {
                name: "profile",
                lines: 5,
                n_ccx: 3 + k,
                n_cx: 6,
                n_x: 1,
                seed: 100 + k as u64,
            })
        })
        .collect();

    println!(
        "static pre-compilation over {} profiling programs…",
        profile.len()
    );
    let (report, _) = session.precompile(&profile, &PrecompileOptions::default())?;
    println!(
        "category: {} unique groups, {} iterations (one-time cost)",
        report.n_unique_groups, report.total_iterations
    );

    // A new, unseen static program (think: a fixed arithmetic kernel from
    // Shor — the program never changes between runs).
    let new_program = nct_circuit(&NctSpec {
        name: "shor-kernel",
        lines: 5,
        n_ccx: 5,
        n_cx: 8,
        n_x: 1,
        seed: 999,
    });
    let result = session.compile_program(&new_program)?;
    println!(
        "\nnew program: {} gates decomposed",
        new_program.decomposed(false).len()
    );
    println!(
        "coverage          : {}/{} groups ({:.0}%)",
        result.coverage.covered,
        result.coverage.total,
        result.coverage.rate() * 100.0
    );
    println!(
        "dynamic compile   : {} iterations (uncovered only)",
        result.dynamic_iterations
    );
    println!(
        "latency reduction : {:.2}x vs gate-based",
        result.latency_reduction()
    );

    // Why latency matters (paper §II-E): coherence-limited fidelity.
    let noise = NoiseModel::melbourne();
    let cx = result
        .grouped
        .groups
        .iter()
        .flat_map(|g| g.gates.iter())
        .filter(|g| g.arity() == 2)
        .count();
    let f_gate = noise.program_fidelity(cx, 30, result.gate_based_latency_ns);
    let f_qoc = noise.program_fidelity(cx, 30, result.overall_latency_ns);
    println!(
        "estimated fidelity: {:.3} (gate-based) -> {:.3} (AccQOC) from coherence alone",
        f_gate, f_qoc
    );
    Ok(())
}
