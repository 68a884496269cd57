//! Threads-vs-speedup sweep of the parallel pre-compilation engine on
//! the Figure 13 workload: identical GRAPE work per row (the partition
//! plan is thread-count-invariant), only the lane cap changes. Lanes
//! beyond the calling thread start only on spare cores, so counts at or
//! above the core count run alike.
use accqoc_bench::experiments::threads_speedup_rows;
use accqoc_bench::{fast_mode, print_table, write_csv, ExperimentContext};

fn main() {
    println!("Parallel pre-compilation — wall-clock speedup vs worker threads\n");
    let ctx = ExperimentContext::bare();
    let n_programs = if fast_mode() { 3 } else { 7 };
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1usize, 2, 4];
    if max_threads >= 8 {
        counts.push(8);
    }
    counts.retain(|&t| t <= max_threads.max(4));
    let rows = threads_speedup_rows(&ctx, &counts, n_programs);

    let display: Vec<Vec<String>> = rows
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
    print_table(
        &[
            "threads",
            "wall_s",
            "speedup",
            "groups",
            "iters",
            "makespan",
            "cuts",
            "artifact_bytes",
        ],
        &display,
    );

    let deterministic = rows.windows(2).all(|w| {
        w[0].artifact_bytes == w[1].artifact_bytes && w[0].total_iterations == w[1].total_iterations
    });
    println!(
        "\nartifact identical across thread counts: {}",
        if deterministic { "yes" } else { "NO — bug!" }
    );
    if let Some(best) = rows
        .iter()
        .map(|r| r.speedup)
        .fold(None, |m: Option<f64>, s| Some(m.map_or(s, |m| m.max(s))))
    {
        println!("best speedup over 1 thread: {best:.2}x");
    }
    write_csv(
        "threads.csv",
        &[
            "threads",
            "wall_s",
            "speedup",
            "groups",
            "iters",
            "makespan",
            "cuts",
            "artifact_bytes",
        ],
        &display,
    )
    .ok();
}
