//! End-to-end serving benchmark of the AccQOC workspace.
//!
//! ```text
//! perfbench --workload <golden_cold|hot_daemon|durable_churn> --seed <n>
//!           --seconds <s> --trace <0|1> --daemon <path> [--work-dir <dir>]
//! ```
//!
//! Runs one workload against the code as it stands, checks its outputs,
//! and prints one JSON line last: `correct`, `attempted`, `failed` and
//! the metrics — the end-to-end metrics untraced, the per-layer metrics
//! traced. A human-readable table of everything measured goes to stderr,
//! and the traced run writes its span log to
//! `<work-dir>/traces/<workload>-<seed>.json`. `perfbench/run.py` builds
//! the daemon and this binary, then runs it.

mod daemon;
mod golden;
mod probes;
mod programs;
mod run;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use run::Run;

const USAGE: &str = "usage: perfbench --workload <golden_cold|hot_daemon|durable_churn> \
--seed <n> --seconds <s> --trace <0|1> --daemon <path> [--work-dir <dir>]";

/// The workloads. `BENCHMARK.json` gates the first two; `durable_churn`
/// runs on request (see README.md for why it is not gated).
pub const WORKLOADS: [&str; 3] = ["golden_cold", "hot_daemon", "durable_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon, mut work) =
        (None, None, None, None, None, PathBuf::from(".perfbench"));
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("one of golden_cold, hot_daemon, durable_churn"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work-dir" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon: daemon.ok_or("--daemon is required")?,
        work,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run_workload(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

fn run_workload(args: &Args) -> Result<String, Box<dyn std::error::Error + Send + Sync>> {
    if !args.daemon.is_file() {
        return Err(format!("daemon binary {} not found", args.daemon.display()).into());
    }
    let epoch = Instant::now();
    // Every run makes sure the hot set exists, so whichever run comes
    // first in a checkout pays for building it.
    let hot = daemon::ensure_hot_set(&args.daemon, &args.work)?;
    let run_dir = args
        .work
        .join("runs")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir)?;
    }
    std::fs::create_dir_all(&run_dir)?;
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        daemon_bin: args.daemon.clone(),
        work: args.work.clone(),
        run_dir: run_dir.clone(),
        epoch,
    };
    let result = match args.workload.as_str() {
        "golden_cold" => golden::run(&run),
        "hot_daemon" => serve::run(&run, &hot, false),
        _ => serve::run(&run, &hot, true),
    };
    std::fs::remove_dir_all(&run_dir).ok();
    let mut result = result?;

    for failure in result.outcomes.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {failure}");
    }
    result
        .per_layer
        .set("failed_share", result.outcomes.failed_share(), "ratio");
    let mut table = Vec::new();
    for (name, value, unit) in result
        .end_to_end
        .entries()
        .iter()
        .chain(result.per_layer.entries())
    {
        table.push(format!("  {name:<36} {value:>14.6} {unit}"));
    }
    eprintln!(
        "perfbench: {} seed {} ({}), {} attempted, {} failed\n{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        result.outcomes.attempted,
        result.outcomes.failed(),
        table.join("\n")
    );
    if args.trace {
        let dir = run.work.join("traces");
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("{}-{}.json", args.workload, args.seed)),
            trace::to_json(&result.spans),
        )?;
    }
    let metrics = if args.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    Ok(stats::result_line(&result.outcomes, metrics))
}
