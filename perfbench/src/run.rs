//! What every workload shares: the run's settings, its result, and the
//! per-layer reductions over the span log.

use std::path::PathBuf;
use std::time::Instant;

use crate::stats::{geomean, median, ratio, Metrics, Outcomes};
use crate::trace::{self_times_ns, Span};

/// Setups per run; `setup_s` is their median. A single setup varies by
/// up to 40% within one run on a shared VM, so the median takes nine.
pub const SETUPS: usize = 9;

/// One run's settings.
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Measured stream length, s.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The workspace `daemon` binary.
    pub daemon_bin: PathBuf,
    /// Benchmark work root (hot set, traces).
    pub work: PathBuf,
    /// This run's scratch directory (removed at exit).
    pub run_dir: PathBuf,
    /// Epoch of every span of the run.
    pub epoch: Instant,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct RunResult {
    /// Attempted/failed accounting.
    pub outcomes: Outcomes,
    /// End-to-end metrics (always computed; printed untraced).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run only).
    pub per_layer: Metrics,
    /// The span log (traced run only).
    pub spans: Vec<Span>,
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd<'a> {
    /// Programs served per second of stream wall time.
    pub programs_per_s: f64,
    /// Per-request latencies, ms.
    pub latencies_ms: &'a [f64],
    /// Gate-based ÷ pulse latency per distinct program.
    pub reductions: &'a [f64],
    /// Setup times, s.
    pub setups_s: &'a [f64],
    /// VmHWM of the serving process, MB.
    pub peak_rss_mb: f64,
}

impl EndToEnd<'_> {
    /// Fills the end-to-end metric table.
    pub fn fill(&self, metrics: &mut Metrics) {
        metrics.set("programs_per_s", self.programs_per_s, "1/s");
        metrics.set("serve_p50_ms", median(self.latencies_ms), "ms");
        metrics.set("latency_reduction_geomean", geomean(self.reductions), "x");
        metrics.set("setup_s", median(self.setups_s), "s");
        metrics.set("peak_rss_mb", self.peak_rss_mb, "MB");
    }
}

/// Self times (ms) of the spans named `name` that belong to a request
/// (`request != 0`) or to a probe (`request == 0`).
pub fn self_ms(spans: &[Span], name: &str, on_request_path: bool) -> Vec<f64> {
    let self_ns = self_times_ns(spans);
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name && (s.request != 0) == on_request_path)
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect()
}

/// Durations (ms) of the spans named `name`, as [`self_ms`] filters them.
pub fn wall_ms(spans: &[Span], name: &str, on_request_path: bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && (s.request != 0) == on_request_path)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Tracing overhead: spans on request paths × the measured cost of one
/// span, against the request-path wall time.
pub fn tracing_overhead(spans: &[Span], root: &str, metrics: &mut Metrics) {
    let cost_ns = crate::trace::span_cost_ns();
    let on_path = spans.iter().filter(|s| s.request != 0).count() as f64;
    let wall_ns: f64 = spans
        .iter()
        .filter(|s| s.request != 0 && s.name == root)
        .map(|s| s.duration_ns() as f64)
        .sum();
    metrics.set("trace.span_cost_ns", cost_ns, "ns");
    metrics.set("trace.overhead_ms", on_path * cost_ns / 1e6, "ms");
    metrics.set(
        "trace.overhead_share",
        crate::stats::ratio(on_path * cost_ns, wall_ns),
        "ratio",
    );
}

/// Per-request attribution of the round trip to layers.
pub struct Attribution<'a> {
    /// Round trips, ms.
    pub rtt: &'a [f64],
    /// Front end (decompose + map + group), ms.
    pub front_end: &'a [f64],
    /// `serve_grouped` (and pulse read-back), ms.
    pub library: &'a [f64],
    /// Codec, both sides, ms.
    pub protocol: &'a [f64],
    /// What the round trip leaves unattributed, ms.
    pub unattributed: &'a [f64],
}

impl Attribution<'_> {
    /// Medians of each part, and the remainder between their sum and the
    /// median round trip (medians do not add).
    pub fn fill(&self, metrics: &mut Metrics) {
        let parts = [
            ("attribution.front_end_ms", median(self.front_end)),
            ("attribution.library_ms", median(self.library)),
            ("attribution.protocol_ms", median(self.protocol)),
            ("attribution.unattributed_ms", median(self.unattributed)),
        ];
        let rtt = median(self.rtt);
        metrics.set("attribution.rtt_p50_ms", rtt, "ms");
        for (name, value) in parts {
            metrics.set(name, value, "ms");
        }
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        metrics.set("attribution.remainder_ms", rtt - sum, "ms");
    }
}

/// GRAPE per-iteration time and the evaluations-per-iteration estimate
/// on the base of the kernel probe.
pub fn set_grape_rate(ms_per_iteration: f64, metrics: &mut Metrics) {
    metrics.set("grape.ms_per_iteration", ms_per_iteration, "ms");
    let cost_us = metrics.get("grape.cost_and_gradient_us").unwrap_or(0.0);
    metrics.set(
        "grape.evals_per_iteration_est",
        ratio(ms_per_iteration * 1e3, cost_us),
        "count",
    );
}

/// Library and GRAPE counters.
pub fn counter_metrics(stats: &accqoc::LibraryStats, metrics: &mut Metrics) {
    metrics.set("library.hits", stats.hits as f64, "count");
    metrics.set("library.misses", stats.misses as f64, "count");
    metrics.set("library.warm_share", stats.warm_share(), "ratio");
    metrics.set(
        "grape.compiles_scratch",
        stats.scratch_compiles as f64,
        "count",
    );
    metrics.set("grape.compiles_warm", stats.warm_compiles as f64, "count");
    metrics.set(
        "grape.iterations_scratch",
        stats.scratch_iterations as f64,
        "count",
    );
    metrics.set(
        "grape.iterations_warm",
        stats.warm_iterations as f64,
        "count",
    );
}

/// Probe counts of the re-compiles, or -1 for both when any re-compile
/// failed to reproduce its served group's iterations and latency.
pub fn recompile_metrics(
    recompiled: &[(usize, f64, Option<accqoc_grape::LatencyResult>)],
    metrics: &mut Metrics,
) {
    let valid = recompiled.iter().all(|(iterations, latency_ns, result)| {
        matches!(result, Some(r) if r.total_iterations == *iterations && r.latency_ns == *latency_ns)
    });
    let probes: usize = recompiled
        .iter()
        .filter_map(|(_, _, r)| r.as_ref())
        .map(|r| r.probes.len())
        .sum();
    let infeasible: usize = recompiled
        .iter()
        .filter_map(|(_, _, r)| r.as_ref())
        .map(|r| r.probes.iter().filter(|(_, converged)| !converged).count())
        .sum();
    metrics.set("grape.recompiles", recompiled.len() as f64, "count");
    metrics.set("grape.recompile_valid", f64::from(u8::from(valid)), "bool");
    let (per_compile, share) = if valid {
        (
            ratio(probes as f64, recompiled.len() as f64),
            ratio(infeasible as f64, probes as f64),
        )
    } else {
        (-1.0, -1.0)
    };
    metrics.set("grape.probes_per_scratch_compile", per_compile, "count");
    metrics.set("grape.infeasible_probe_share", share, "ratio");
}

/// Median slice count of the served dim-4 groups (all groups when none
/// is two qubits wide).
pub fn median_slices<'a>(
    groups: impl Iterator<Item = &'a accqoc::ServedGroup>,
    dt_ns: f64,
) -> usize {
    let groups: Vec<&accqoc::ServedGroup> = groups.collect();
    let pick = |wide: bool| -> Vec<f64> {
        groups
            .iter()
            .filter(|g| !wide || g.n_qubits == 2)
            .map(|g| (g.latency_ns / dt_ns).round())
            .collect()
    };
    let mut slices = pick(true);
    if slices.is_empty() {
        slices = pick(false);
    }
    (median(&slices).round() as usize).max(1)
}
