//! The serving gates: every stream × deployment-shape scenario of
//! [`accqoc_bench::scenario`], compared against one in-process baseline
//! per stream. Exits non-zero on any failure. The router scenario spawns
//! worker daemons found next to this binary, so build them first:
//!
//! ```text
//! cargo build --release -p accqoc-server --bin daemon
//! cargo run --release -p accqoc-bench --bin scenarios
//! ```
//!
//! Writes `results/scenarios.csv` and `BENCH_persist.json`.

fn main() {
    let failures = accqoc_bench::scenario::run();
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("\nOK: every scenario matched its in-process baseline and cleared its gates");
}
