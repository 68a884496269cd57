//! Regenerates the golden regression corpus (`results/golden/corpus.json`)
//! and the per-workload fidelity table (`results/verify_fidelity.csv`).
//!
//! Default mode recomputes the compact golden suite on the corpus session
//! (5-qubit linear device), prints the fidelity table, reports any drift
//! against the checked-in snapshot, and rewrites both artifacts. With
//! `--check` the snapshot is left untouched and the process exits
//! non-zero on drift — the CI gate (one GRAPE sweep buys both the diff
//! and the uploaded fidelity table; the `golden_corpus` test covers the
//! same contract under plain `cargo test`).
//!
//! With `ACCQOC_VERIFY_FULL=1` it additionally sweeps *every* suite
//! workload that fits the Melbourne device through pre-compile → verify
//! and asserts the paper-level invariant: per-group gate fidelity at
//! least 0.999 for every workload. This is the slow, exhaustive oracle —
//! run it deliberately, not in the default CI path.

use accqoc::Session;
use accqoc_bench::golden::{compute_corpus, diff_corpus, golden_dir, GoldenCorpus, GOLDEN_FILE};
use accqoc_bench::{print_table, write_csv_in};
use accqoc_hw::Topology;
use accqoc_workloads::full_suite;

fn main() {
    println!("Semantic verification — golden corpus regeneration\n");
    let t0 = std::time::Instant::now();
    let corpus = compute_corpus();

    let header = [
        "workload",
        "qubits",
        "instances",
        "unique",
        "coverage",
        "latency_ns",
        "gate_ns",
        "min_group_fid",
        "bound",
        "exact_fid",
        "state_fid",
    ];
    let rows: Vec<Vec<String>> = corpus
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.n_qubits.to_string(),
                r.instances.to_string(),
                r.unique_groups.to_string(),
                format!("{:.2}", r.coverage_rate),
                format!("{:.1}", r.overall_latency_ns),
                format!("{:.1}", r.gate_based_latency_ns),
                format!("{:.6}", r.min_group_fidelity),
                format!("{:.6}", r.program_fidelity_bound),
                format!("{:.6}", r.exact_fidelity),
                format!("{:.6}", r.state_fidelity),
            ]
        })
        .collect();
    print_table(&header, &rows);
    println!(
        "\nrecomputed {} workloads in {:.1?}",
        corpus.rows.len(),
        t0.elapsed()
    );

    let check_only = std::env::args().any(|a| a == "--check");
    let path = golden_dir().join(GOLDEN_FILE);
    let drift = match GoldenCorpus::load(&path) {
        Ok(previous) => {
            let drift = diff_corpus(&previous, &corpus);
            if drift.is_empty() {
                println!("no drift against {}", path.display());
            } else {
                println!("drift against {} ({} lines):", path.display(), drift.len());
                for line in &drift {
                    println!("  {line}");
                }
            }
            drift
        }
        Err(e) => {
            println!("no previous corpus ({e})");
            vec![format!("previous corpus unreadable: {e}")]
        }
    };
    if check_only {
        println!("--check: leaving {} untouched", path.display());
    } else {
        corpus.save(&path).expect("corpus snapshot writable");
        println!("wrote {}", path.display());
    }
    // Anchor the CSV next to the corpus (workspace results/), not the
    // CWD-relative results/ that `write_csv` uses — both artifacts must
    // land in the same place however the binary is invoked.
    write_csv_in(
        &golden_dir().join(".."),
        "verify_fidelity.csv",
        &header,
        &rows,
    )
    .expect("fidelity csv writable");
    if check_only && !drift.is_empty() {
        eprintln!("--check failed: golden corpus drifted");
        std::process::exit(1);
    }

    if std::env::var("ACCQOC_VERIFY_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        verify_full_suite();
    }
}

/// Exhaustive mode: verify every Melbourne-sized workload in the suite.
fn verify_full_suite() {
    println!("\nFull-suite verification (ACCQOC_VERIFY_FULL=1) — this takes a while…");
    let session = Session::builder()
        .topology(Topology::melbourne())
        .build()
        .expect("stock melbourne session");
    let max_q = session.config().topology.n_qubits();
    let suite = full_suite();
    let eligible: Vec<_> = suite
        .iter()
        .filter(|p| p.circuit.n_qubits() <= max_q)
        .collect();
    println!(
        "{} of {} workloads fit the device",
        eligible.len(),
        suite.len()
    );
    let mut worst: Option<(String, f64)> = None;
    for (i, program) in eligible.iter().enumerate() {
        let t = std::time::Instant::now();
        session
            .compile_program(&program.circuit)
            .expect("suite workload compiles");
        let report = session
            .verify_program(&program.circuit)
            .expect("suite workload verifies");
        assert!(
            report.min_group_fidelity >= 0.999,
            "{}: per-group fidelity {} below 0.999",
            program.name,
            report.min_group_fidelity
        );
        if worst
            .as_ref()
            .is_none_or(|(_, f)| report.min_group_fidelity < *f)
        {
            worst = Some((program.name.clone(), report.min_group_fidelity));
        }
        println!(
            "  [{}/{}] {}: min group fid {:.6}, {} instances ({:.1?})",
            i + 1,
            eligible.len(),
            program.name,
            report.min_group_fidelity,
            report.n_instances,
            t.elapsed()
        );
    }
    if let Some((name, fid)) = worst {
        println!("\nfull suite verified; worst per-group fidelity {fid:.6} ({name})");
    }
}
