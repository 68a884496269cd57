//! Parameterized-workload serving sweep: replay the UCCSD θ-grid
//! family as zipf-weighted arrival traffic at several grid densities and
//! measure how much of the GRAPE cost the pulse library amortizes.
//!
//! This is the regime the paper's similarity machinery was built for:
//! adjacent grid points are *nearly identical* unitaries, so nearly
//! every compile should be rescued by a fingerprint warm start — far
//! above the fixed golden suite's intrinsic similarity budget. The
//! default density is the `uccsd` stream of [`accqoc_bench::scenario`],
//! whose `scenarios` bin gates it; this sweep only measures.
//!
//! Sweeps densities coarse → fine, plus a capacity-bounded run that
//! forces evictions, and records warm share, exact-hit share, mean
//! warm-vs-scratch iterations and eviction counts per density. Honors
//! `ACCQOC_FAST=1`. Writes per-serving rows to `results/uccsd_serve.csv`
//! and the density summary to `BENCH_uccsd.json` at the working-directory
//! root.

use accqoc::json::JsonValue;
use accqoc::LibraryStats;
use accqoc_bench::scenario::{
    cells, serve_in_process, serving_builder, uccsd_programs, HEADER, UCCSD_QUBITS, UCCSD_SLICES,
    ZIPF_EXPONENT,
};
use accqoc_bench::{fast_mode, print_table, write_csv};
use accqoc_workloads::DEFAULT_GRID_POINTS;

/// One density's summary, in `BENCH_uccsd.json` key order.
fn summary(density: &str, points: usize, servings: usize, stats: &LibraryStats) -> JsonObject {
    let numbers = [
        ("grid_points", points as f64),
        ("servings", servings as f64),
        ("compiles", stats.misses as f64),
        ("warm_share", stats.warm_share()),
        ("exact_hit_share", stats.hit_rate()),
        ("mean_warm_iterations", stats.mean_warm_iterations()),
        ("mean_scratch_iterations", stats.mean_scratch_iterations()),
        ("evictions", stats.evictions as f64),
    ];
    let mut fields = vec![("density".to_string(), JsonValue::String(density.into()))];
    fields.extend(numbers.map(|(key, value)| (key.to_string(), JsonValue::Number(value))));
    fields
}

type JsonObject = Vec<(String, JsonValue)>;

fn main() {
    println!("UCCSD θ-grid family — serving sweep over grid densities\n");
    // Each run's (density, grid points, library bound). The capped run
    // bounds the library below the finest density's working set, so the
    // LRU rotates and evictions are nonzero.
    let runs: &[(&str, usize, Option<usize>)] = if fast_mode() {
        &[
            ("coarse", 3, None),
            ("default", 5, None),
            ("capped(4)", 5, Some(4)),
        ]
    } else {
        &[
            ("coarse", 5, None),
            ("default", DEFAULT_GRID_POINTS, None),
            ("fine", 13, None),
            ("capped(4)", 13, Some(4)),
        ]
    };
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for &(density, points, capacity) in runs {
        let programs = uccsd_programs(points);
        let mut builder = serving_builder();
        if let Some(capacity) = capacity {
            builder = builder.library_capacity(capacity);
        }
        let session = builder.build().expect("sweep session");
        let scenario = format!("uccsd/{density}");
        for served in serve_in_process(&session, &programs) {
            let program = &programs[served.arrival].0;
            rows.push(cells(&scenario, program, &served, None));
        }
        let stats = session.library().stats();
        summaries.push(summary(density, points, programs.len(), &stats));
    }

    print_table(&HEADER, &rows);
    write_csv("uccsd_serve.csv", &HEADER, &rows).ok();
    println!();
    let header: Vec<&str> = summaries[0].iter().map(|(key, _)| key.as_str()).collect();
    let cell = |value: &JsonValue| match value {
        JsonValue::Number(n) if n.fract() != 0.0 => format!("{n:.3}"),
        JsonValue::Number(n) => n.to_string(),
        JsonValue::String(text) => text.clone(),
        _ => unreachable!("a density summary holds strings and numbers"),
    };
    let cells: Vec<Vec<String>> = summaries
        .iter()
        .map(|fields| fields.iter().map(|(_, value)| cell(value)).collect())
        .collect();
    print_table(&header, &cells);
    let workload = format!("uccsd_{UCCSD_QUBITS}_{UCCSD_SLICES} zipf(s={ZIPF_EXPONENT})");
    let densities = summaries.into_iter().map(JsonValue::Object).collect();
    let bench = JsonValue::Object(vec![
        ("workload".into(), JsonValue::String(workload)),
        ("densities".into(), JsonValue::Array(densities)),
    ]);
    std::fs::write("BENCH_uccsd.json", bench.to_pretty() + "\n").ok();
    println!("\nwrote results/uccsd_serve.csv and BENCH_uccsd.json");
}
