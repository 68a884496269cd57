//! GRAPE kernel microbenchmarks: the raw-speed tier under the serving
//! experiments.
//!
//! Times the register-blocked complex kernels of `accqoc-linalg` against
//! the verbatim pre-blocking loops (kept as `kernels::reference`), plus
//! the compound operations the serving stack spends its time in — the
//! Jacobi `eigh_into` (more than half of a GRAPE objective pass at dim 4),
//! `expm_i_hermitian` and a full spectral `cost_and_gradient_into`
//! pass — across dimensions 2/4/8/16. Both sides of each pair run under
//! the same median-of-K sampler, so the reported speedups compare like
//! with like.
//!
//! Every kernel row is the best of [`KERNEL_RUNS`] runs of the whole
//! sweep, with the runs' spread `(worst − best)/best` beside it: one run
//! on a shared VM reads the same binary up to ~50 % apart.
//!
//! A solver section then runs fixed GRAPE probes, one feasible and one
//! infeasible slice count per target ([`PROBES`]: the X gate on
//! `spin_chain(1)` at 10 and 9 slices, CNOT on `spin_chain(2)` at its
//! minimal 19 and at 18), and records iterations, objective evaluations,
//! evaluations per iteration and wall time. The counts are
//! deterministic, so they catch a line-search regression without timing
//! noise.
//!
//! A search section runs fixed latency searches ([`SEARCHES`]: X and
//! CNOT from scratch, then seeded with the scratch pulse resampled to a
//! feasible or an infeasible guess) and records their probe lists and
//! total iterations, which must equal their pinned values: a change to
//! the search's control flow or to the solver moves them, and this is
//! where that is checked end to end.
//!
//! Modes:
//!
//! - default: measure everything, print the tables, write the kernel and
//!   solver rows to `results/grape_kernels.csv` and `BENCH_grape.json`
//!   (the search rows to `BENCH_grape.json` only).
//!   Honors `ACCQOC_FAST=1` (fewer samples).
//! - `--check`: first prove bit-identity — every blocked kernel against
//!   its reference over all dimensions 1–17 (covering every
//!   non-multiple-of-tile remainder), exact on all bytes — and prove
//!   `eigh_into` accurate over the same dimensions: `V·diag(λ)·V†` within
//!   [`CHECK_EIGH_RESIDUAL`]·scale of its input. Then gate on raw speed:
//!   the blocked dim-8 matmul must beat the naive loop by at
//!   least [`CHECK_MIN_SPEEDUP`]×, comparing each side's best of five
//!   sweeps (a sweep times a kernel by its median). Then gate the solver:
//!   every probe must converge exactly when it is marked feasible and
//!   spend at most [`CHECK_MAX_EVALS_PER_ITERATION`] objective
//!   evaluations per iteration. Then gate the searches: every probe list
//!   and iteration total must match its pin. Exits non-zero on any
//!   failure. The CI `grape-bench` gate.

use accqoc::json::JsonValue;
use accqoc_bench::{fast_mode, print_table, write_csv};
use accqoc_grape::{
    cost_and_gradient_into, find_minimal_latency, solve, GradientMethod, GrapeOptions,
    GrapeProblem, LatencySearch, Workspace,
};
use accqoc_hw::ControlModel;
use accqoc_linalg::{eigh_into, expm_i_hermitian, kernels, EigH, EighWorkspace, Mat, C64};
use criterion::{black_box, Sampler};

/// Pinned CI threshold: blocked dim-8 matmul speedup over the naive
/// reference loop, median-of-K under one shared harness. The 2×4 tiling
/// measures well above this; a regression to memory accumulators or a
/// lost slice hoist drops it hard.
const CHECK_MIN_SPEEDUP: f64 = 1.2;

/// Pinned CI threshold: largest entry of `V·diag(λ)·V† − A` allowed for
/// `eigh_into` on the dims-1–17 sweep, relative to the solver's own
/// scale `max(max|a_ij|, 1)`. Jacobi converges to an off-diagonal mass of
/// `1e-14` on that scale, and the sweep measures at most 2.8e-15.
const CHECK_EIGH_RESIDUAL: f64 = 1e-12;

/// Pinned CI threshold: objective evaluations per optimizer iteration
/// on every solver probe. The projected line search measures 1.6–4.3
/// here; measuring the slope along the raw direction, with a bisecting
/// zoom, took 16.5 (X, 9 slices) and 16.9 (CNOT, 19 slices).
const CHECK_MAX_EVALS_PER_ITERATION: f64 = 6.0;

/// One fixed solver probe: a target on `spin_chain(qubits)` at a pinned
/// slice count, from the default (seeded) initial guess.
struct Probe {
    target: &'static str,
    unitary: fn() -> Mat,
    qubits: usize,
    n_steps: usize,
    /// Whether the fidelity target is reachable at `n_steps`.
    feasible: bool,
}

/// The solver probes: each target at its minimal slice count and one
/// below it.
const PROBES: [Probe; 4] = [
    Probe {
        target: "x",
        unitary: x_gate,
        qubits: 1,
        n_steps: 10,
        feasible: true,
    },
    Probe {
        target: "x",
        unitary: x_gate,
        qubits: 1,
        n_steps: 9,
        feasible: false,
    },
    Probe {
        target: "cnot",
        unitary: cnot,
        qubits: 2,
        n_steps: 19,
        feasible: true,
    },
    Probe {
        target: "cnot",
        unitary: cnot,
        qubits: 2,
        n_steps: 18,
        feasible: false,
    },
];

/// One fixed latency search and its pinned outcome.
struct SearchCase {
    name: &'static str,
    unitary: fn() -> Mat,
    qubits: usize,
    /// `None`: a scratch search. `Some(n)`: seeded with this target's
    /// scratch pulse resampled to `n` slices.
    seed_slices: Option<usize>,
    /// Pinned `(n_steps, converged)` probe list.
    probes: &'static [(usize, bool)],
    /// Pinned optimizer iterations over all probes.
    total_iterations: usize,
}

/// The searches, with the probe lists and iteration totals of the
/// one-solve-at-a-time search (default GRAPE options and search bounds).
/// The X seed at 12 slices is feasible (the search checks the floor, then
/// bisects); the CNOT seed at 16 is not (the +1 probe fails too, and
/// growth takes over).
const SEARCHES: [SearchCase; 4] = [
    SearchCase {
        name: "x",
        unitary: x_gate,
        qubits: 1,
        seed_slices: None,
        probes: &[
            (0, false),
            (1, false),
            (2, false),
            (4, false),
            (8, false),
            (16, true),
            (12, true),
            (10, true),
            (9, false),
        ],
        total_iterations: 130,
    },
    SearchCase {
        name: "x",
        unitary: x_gate,
        qubits: 1,
        seed_slices: Some(12),
        probes: &[
            (0, false),
            (12, true),
            (1, false),
            (6, false),
            (9, false),
            (10, true),
        ],
        total_iterations: 102,
    },
    SearchCase {
        name: "cnot",
        unitary: cnot,
        qubits: 2,
        seed_slices: None,
        probes: &[
            (0, false),
            (1, false),
            (2, false),
            (4, false),
            (8, false),
            (16, false),
            (32, true),
            (24, true),
            (20, true),
            (18, false),
            (19, true),
        ],
        total_iterations: 793,
    },
    SearchCase {
        name: "cnot",
        unitary: cnot,
        qubits: 2,
        seed_slices: Some(16),
        probes: &[
            (0, false),
            (16, false),
            (17, false),
            (32, true),
            (24, true),
            (20, true),
            (18, false),
            (19, true),
        ],
        total_iterations: 915,
    },
];

const SEARCH_HEADER: [&str; 5] = ["search", "probes", "total_iterations", "pinned", "wall_ms"];

const SOLVER_HEADER: [&str; 9] = [
    "probe",
    "dim",
    "slices",
    "feasible",
    "converged",
    "iterations",
    "fn_evals",
    "evals_per_iteration",
    "wall_ms",
];

/// Matrix dimensions swept by the measurement mode: 1–4 qubits.
const DIMS: [usize; 4] = [2, 4, 8, 16];

/// Dimensions the `--check` bit-identity sweep covers: every remainder
/// class of the 2×4 tile, including the degenerate 1×1.
const CHECK_DIMS: std::ops::RangeInclusive<usize> = 1..=17;

/// GRAPE slices of the cost-and-gradient pass.
const COST_STEPS: usize = 8;

const HEADER: [&str; 7] = [
    "kernel",
    "dim",
    "blocked_ns",
    "blocked_spread",
    "naive_ns",
    "naive_spread",
    "speedup",
];

/// Runs of the kernel sweep; each kernel row keeps its best.
const KERNEL_RUNS: usize = 5;

/// One (kernel, dim) measurement. `naive_ns` is `None` for compound
/// operations that have no preserved naive twin (`eigh`, `expm_i`,
/// `cost_and_gradient`).
struct Row {
    kernel: &'static str,
    dim: usize,
    blocked_ns: f64,
    naive_ns: Option<f64>,
}

/// A kernel row over [`KERNEL_RUNS`] runs: the best time of each side,
/// and the spread `(worst − best)/best` of the runs.
struct BestRow {
    best: Row,
    blocked_spread: f64,
    naive_spread: Option<f64>,
}

impl BestRow {
    /// Folds the same row of every run (`runs` is non-empty).
    fn of(runs: &[&Row]) -> Self {
        let spread = |times: &[f64]| {
            let best = times.iter().copied().fold(f64::INFINITY, f64::min);
            let worst = times.iter().copied().fold(0.0f64, f64::max);
            (best, (worst - best) / best)
        };
        let blocked: Vec<f64> = runs.iter().map(|r| r.blocked_ns).collect();
        let naive: Option<Vec<f64>> = runs.iter().map(|r| r.naive_ns).collect();
        let (blocked_ns, blocked_spread) = spread(&blocked);
        let naive = naive.map(|n| spread(&n));
        Self {
            best: Row {
                kernel: runs[0].kernel,
                dim: runs[0].dim,
                blocked_ns,
                naive_ns: naive.map(|(best, _)| best),
            },
            blocked_spread,
            naive_spread: naive.map(|(_, spread)| spread),
        }
    }

    fn speedup(&self) -> Option<f64> {
        self.best.naive_ns.map(|n| n / self.best.blocked_ns)
    }

    fn cells(&self) -> Vec<String> {
        let dash = || "-".to_string();
        vec![
            self.best.kernel.to_string(),
            self.best.dim.to_string(),
            format!("{:.1}", self.best.blocked_ns),
            format!("{:.2}", self.blocked_spread),
            self.best.naive_ns.map_or_else(dash, |n| format!("{n:.1}")),
            self.naive_spread.map_or_else(dash, |s| format!("{s:.2}")),
            self.speedup().map_or_else(dash, |s| format!("{s:.2}")),
        ]
    }

    fn json(&self) -> JsonValue {
        let mut fields = vec![
            ("kernel".into(), JsonValue::String(self.best.kernel.into())),
            ("dim".into(), JsonValue::Number(self.best.dim as f64)),
            ("runs".into(), JsonValue::Number(KERNEL_RUNS as f64)),
            ("blocked_ns".into(), JsonValue::Number(self.best.blocked_ns)),
            (
                "blocked_spread".into(),
                JsonValue::Number(self.blocked_spread),
            ),
        ];
        if let (Some(naive), Some(spread)) = (self.best.naive_ns, self.naive_spread) {
            fields.push(("naive_ns".into(), JsonValue::Number(naive)));
            fields.push(("naive_spread".into(), JsonValue::Number(spread)));
        }
        if let Some(s) = self.speedup() {
            fields.push(("speedup".into(), JsonValue::Number(s)));
        }
        JsonValue::Object(fields)
    }
}

/// One solver probe's outcome.
struct SolverRow {
    probe: &'static Probe,
    dim: usize,
    converged: bool,
    iterations: usize,
    fn_evals: usize,
    wall_ms: f64,
}

impl SolverRow {
    fn evals_per_iteration(&self) -> f64 {
        self.fn_evals as f64 / self.iterations.max(1) as f64
    }

    fn name(&self) -> String {
        format!("{}@{}", self.probe.target, self.probe.n_steps)
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.name(),
            self.dim.to_string(),
            self.probe.n_steps.to_string(),
            self.probe.feasible.to_string(),
            self.converged.to_string(),
            self.iterations.to_string(),
            self.fn_evals.to_string(),
            format!("{:.2}", self.evals_per_iteration()),
            format!("{:.2}", self.wall_ms),
        ]
    }

    fn json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("probe".into(), JsonValue::String(self.name())),
            ("dim".into(), JsonValue::Number(self.dim as f64)),
            (
                "slices".into(),
                JsonValue::Number(self.probe.n_steps as f64),
            ),
            ("feasible".into(), JsonValue::Bool(self.probe.feasible)),
            ("converged".into(), JsonValue::Bool(self.converged)),
            (
                "iterations".into(),
                JsonValue::Number(self.iterations as f64),
            ),
            ("fn_evals".into(), JsonValue::Number(self.fn_evals as f64)),
            (
                "evals_per_iteration".into(),
                JsonValue::Number(self.evals_per_iteration()),
            ),
            ("wall_ms".into(), JsonValue::Number(self.wall_ms)),
        ])
    }
}

/// One latency search's outcome.
struct SearchRow {
    case: &'static SearchCase,
    probes: Vec<(usize, bool)>,
    total_iterations: usize,
    wall_ms: f64,
}

impl SearchRow {
    fn name(&self) -> String {
        match self.case.seed_slices {
            None => format!("{}:scratch", self.case.name),
            Some(n) => format!("{}:seed@{n}", self.case.name),
        }
    }

    fn pinned(&self) -> bool {
        self.probes == self.case.probes && self.total_iterations == self.case.total_iterations
    }

    fn probe_list(&self) -> String {
        self.probes
            .iter()
            .map(|&(n, ok)| format!("{n}{}", if ok { "+" } else { "-" }))
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.name(),
            self.probe_list(),
            self.total_iterations.to_string(),
            self.pinned().to_string(),
            format!("{:.2}", self.wall_ms),
        ]
    }

    fn json(&self) -> JsonValue {
        let probes = self
            .probes
            .iter()
            .map(|&(n, ok)| {
                JsonValue::Array(vec![JsonValue::Number(n as f64), JsonValue::Bool(ok)])
            })
            .collect();
        JsonValue::Object(vec![
            ("search".into(), JsonValue::String(self.name())),
            ("probes".into(), JsonValue::Array(probes)),
            (
                "total_iterations".into(),
                JsonValue::Number(self.total_iterations as f64),
            ),
            ("pinned".into(), JsonValue::Bool(self.pinned())),
            ("wall_ms".into(), JsonValue::Number(self.wall_ms)),
        ])
    }
}

fn x_gate() -> Mat {
    Mat::from_reals(&[0.0, 1.0, 1.0, 0.0])
}

/// CNOT with the control on the first qubit.
fn cnot() -> Mat {
    Mat::from_reals(&[
        1.0, 0.0, 0.0, 0.0, //
        0.0, 1.0, 0.0, 0.0, //
        0.0, 0.0, 0.0, 1.0, //
        0.0, 0.0, 1.0, 0.0,
    ])
}

/// Runs every solver probe once with the default GRAPE options.
fn measure_solver() -> Vec<SolverRow> {
    PROBES
        .iter()
        .map(|probe| {
            let model = ControlModel::spin_chain(probe.qubits);
            let target = (probe.unitary)();
            let start = std::time::Instant::now();
            let out = solve(&GrapeProblem {
                model: &model,
                target: &target,
                n_steps: probe.n_steps,
                options: GrapeOptions::default(),
            });
            SolverRow {
                probe,
                dim: model.dim(),
                converged: out.converged,
                iterations: out.iterations,
                fn_evals: out.fn_evals,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Runs every latency search once with the default options and bounds;
/// a seeded search reuses its target's scratch pulse (the scratch case
/// comes first in [`SEARCHES`]). A search that fails, or a seeded one
/// whose scratch search failed, gets an empty row, which fails its pin.
fn measure_searches() -> Vec<SearchRow> {
    let mut scratch_pulses: Vec<(&str, accqoc_grape::Pulse)> = Vec::new();
    SEARCHES
        .iter()
        .map(|case| {
            let model = ControlModel::spin_chain(case.qubits);
            let target = (case.unitary)();
            let scratch_pulse = scratch_pulses.iter().find(|(name, _)| *name == case.name);
            let seed = match (case.seed_slices, scratch_pulse) {
                (None, _) => None,
                (Some(n), Some((_, pulse))) => Some(pulse.resampled(n)),
                (Some(_), None) => {
                    eprintln!("search {}: no scratch pulse to seed from", case.name);
                    return SearchRow {
                        case,
                        probes: Vec::new(),
                        total_iterations: 0,
                        wall_ms: 0.0,
                    };
                }
            };
            let start = std::time::Instant::now();
            let result = find_minimal_latency(
                &model,
                &target,
                seed.as_ref(),
                &GrapeOptions::default(),
                &LatencySearch::default(),
                &mut Workspace::new(),
            );
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let (probes, total_iterations) = match result {
                Ok(r) => {
                    if case.seed_slices.is_none() {
                        scratch_pulses.push((case.name, r.outcome.pulse));
                    }
                    (r.probes, r.total_iterations)
                }
                Err(e) => {
                    eprintln!("search {}: {e}", case.name);
                    (Vec::new(), 0)
                }
            };
            SearchRow {
                case,
                probes,
                total_iterations,
                wall_ms,
            }
        })
        .collect()
}

/// Search gate failures: a search whose probe list or iteration total
/// differs from its pin.
fn check_searches(rows: &[SearchRow]) -> usize {
    let mut failures = 0usize;
    for row in rows.iter().filter(|r| !r.pinned()) {
        eprintln!(
            "FAIL: search {}: probes [{}] in {} iterations, pinned {:?} in {}",
            row.name(),
            row.probe_list(),
            row.total_iterations,
            row.case.probes,
            row.case.total_iterations
        );
        failures += 1;
    }
    failures
}

/// Solver gate failures: a probe whose verdict differs from its
/// feasibility mark, or that spends too many evaluations per iteration.
fn check_solver(rows: &[SolverRow]) -> usize {
    let mut failures = 0usize;
    for row in rows {
        if row.converged != row.probe.feasible {
            eprintln!(
                "FAIL: solver probe {} converged = {}, expected {}",
                row.name(),
                row.converged,
                row.probe.feasible
            );
            failures += 1;
        }
        if row.evals_per_iteration() > CHECK_MAX_EVALS_PER_ITERATION {
            eprintln!(
                "FAIL: solver probe {}: {} evaluations in {} iterations ({:.2} per iteration, gate {CHECK_MAX_EVALS_PER_ITERATION})",
                row.name(),
                row.fn_evals,
                row.iterations,
                row.evals_per_iteration()
            );
            failures += 1;
        }
    }
    failures
}

/// Deterministic non-trivial complex test data (the same LCG the kernel
/// unit tests use): no zeros, no symmetry for the kernels to exploit.
fn fill(len: usize, salt: u64) -> Vec<C64> {
    let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..len).map(|_| C64::new(next(), next())).collect()
}

/// A deterministic dense Hermitian matrix for the eigensolver-backed
/// benchmarks.
fn hermitian(n: usize, salt: u64) -> Mat {
    let data = fill(n * n, salt);
    let mut h = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let a = data[i * n + j];
            let b = data[j * n + i].conj();
            h[(i, j)] = C64::new(0.5 * (a.re + b.re), 0.5 * (a.im + b.im));
        }
    }
    h
}

fn sampler() -> Sampler {
    if fast_mode() {
        Sampler::calibrated(5)
    } else {
        Sampler::calibrated(15)
    }
}

/// Times one blocked/naive kernel pair at dimension `n` under the shared
/// sampler; `run` receives (a, b, scratch, out) slices of length `n²`.
fn time_pair(
    n: usize,
    blocked: impl Fn(&[C64], &[C64], &mut [C64], &mut [C64]),
    naive: impl Fn(&[C64], &[C64], &mut [C64], &mut [C64]),
) -> (f64, f64) {
    let a = fill(n * n, 17 + n as u64);
    let b = fill(n * n, 29 + n as u64);
    let mut scratch = vec![accqoc_linalg::ZERO; n * n];
    let mut out = vec![accqoc_linalg::ZERO; n * n];
    let s = sampler();
    let blocked_ns = s
        .measure(|| {
            blocked(&a, &b, &mut scratch, &mut out);
            black_box(out[0])
        })
        .median_ns;
    let naive_ns = s
        .measure(|| {
            naive(&a, &b, &mut scratch, &mut out);
            black_box(out[0])
        })
        .median_ns;
    (blocked_ns, naive_ns)
}

fn measure_dim(n: usize) -> Vec<Row> {
    let mut rows = Vec::new();

    let (blocked, naive) = time_pair(
        n,
        |a, b, _, out| kernels::matmul(a, b, out, n, n, n),
        |a, b, _, out| kernels::reference::matmul(a, b, out, n, n, n),
    );
    rows.push(Row {
        kernel: "matmul",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
    });

    let (blocked, naive) = time_pair(
        n,
        |a, b, _, out| kernels::dagger_matmul(a, b, out, n, n, n),
        |a, b, _, out| kernels::reference::dagger_matmul(a, b, out, n, n, n),
    );
    rows.push(Row {
        kernel: "dagger_matmul",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
    });

    let (blocked, naive) = time_pair(
        n,
        |a, b, _, out| kernels::matmul_dagger(a, b, out, n, n, n),
        |a, b, _, out| kernels::reference::matmul_dagger(a, b, out, n, n, n),
    );
    rows.push(Row {
        kernel: "matmul_dagger",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
    });

    let (blocked, naive) = time_pair(
        n,
        |v, m, scratch, out| kernels::rotate(v, m, scratch, out, n),
        |v, m, scratch, out| kernels::reference::rotate(v, m, scratch, out, n),
    );
    rows.push(Row {
        kernel: "rotate",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
    });

    let h = hermitian(n, 43 + n as u64);
    let mut eig = EigH {
        values: Vec::new(),
        vectors: Mat::zeros(0, 0),
    };
    let mut eig_ws = EighWorkspace::new();
    let eigh_ns = sampler()
        .measure(|| {
            eigh_into(black_box(&h), &mut eig, &mut eig_ws).expect("hermitian input");
            black_box(eig.values[0])
        })
        .median_ns;
    rows.push(Row {
        kernel: "eigh",
        dim: n,
        blocked_ns: eigh_ns,
        naive_ns: None,
    });

    let expm_ns = sampler()
        .measure(|| black_box(expm_i_hermitian(&h, 0.25).expect("hermitian input")))
        .median_ns;
    rows.push(Row {
        kernel: "expm_i",
        dim: n,
        blocked_ns: expm_ns,
        naive_ns: None,
    });

    rows
}

/// A full spectral cost-and-gradient pass on the spin chain whose
/// Hilbert dimension is `2^qubits`, on a warmed workspace (steady-state
/// serving conditions: zero heap allocations per call).
fn measure_cost_grad(qubits: usize) -> Row {
    let model = ControlModel::spin_chain(qubits);
    let dim = model.dim();
    let target = Mat::identity(dim);
    let n_ctrl = model.n_controls();
    let params: Vec<f64> = (0..n_ctrl * COST_STEPS)
        .map(|i| 0.05 * ((i % 7) as f64 - 3.0))
        .collect();
    let mut ws = Workspace::new();
    let mut grad = Vec::new();
    // Warm the workspace so the timed region is the steady state.
    cost_and_gradient_into(
        &model,
        &target,
        &params,
        COST_STEPS,
        GradientMethod::Spectral,
        &mut ws,
        &mut grad,
    );
    let ns = sampler()
        .measure(|| {
            black_box(cost_and_gradient_into(
                &model,
                &target,
                &params,
                COST_STEPS,
                GradientMethod::Spectral,
                &mut ws,
                &mut grad,
            ))
        })
        .median_ns;
    Row {
        kernel: "cost_and_gradient",
        dim,
        blocked_ns: ns,
        naive_ns: None,
    }
}

fn measure_once() -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in &DIMS {
        rows.extend(measure_dim(n));
    }
    for qubits in 1..=DIMS.len() {
        rows.push(measure_cost_grad(qubits));
    }
    rows
}

/// The kernel sweep [`KERNEL_RUNS`] times, each row the best of its runs.
fn measure_all() -> Vec<BestRow> {
    let runs: Vec<Vec<Row>> = (0..KERNEL_RUNS).map(|_| measure_once()).collect();
    (0..runs[0].len())
        .map(|i| BestRow::of(&runs.iter().map(|run| &run[i]).collect::<Vec<_>>()))
        .collect()
}

/// Prints both tables and writes them out. The CSV holds one table:
/// kernel rows leave the solver columns as `-`, and solver rows (named
/// `solver:<probe>`) leave the kernel timing columns as `-`.
fn write_outputs(rows: &[BestRow], solver: &[SolverRow], searches: &[SearchRow]) {
    let cells: Vec<Vec<String>> = rows.iter().map(BestRow::cells).collect();
    print_table(&HEADER, &cells);
    let solver_cells: Vec<Vec<String>> = solver.iter().map(SolverRow::cells).collect();
    println!();
    print_table(&SOLVER_HEADER, &solver_cells);
    let search_cells: Vec<Vec<String>> = searches.iter().map(SearchRow::cells).collect();
    println!();
    print_table(&SEARCH_HEADER, &search_cells);

    let header: Vec<&str> = HEADER
        .iter()
        .chain(SOLVER_HEADER[2..].iter())
        .copied()
        .collect();
    let mut csv: Vec<Vec<String>> = cells
        .into_iter()
        .map(|mut row| {
            row.resize(header.len(), "-".into());
            row
        })
        .collect();
    csv.extend(solver_cells.into_iter().map(|row| {
        let mut line = vec![format!("solver:{}", row[0]), row[1].clone()];
        line.resize(HEADER.len(), "-".into());
        line.extend(row.into_iter().skip(2));
        line
    }));
    write_csv("grape_kernels.csv", &header, &csv).ok();
    let json = JsonValue::Object(vec![
        (
            "workload".into(),
            JsonValue::String("grape kernel microbenchmarks".into()),
        ),
        (
            "kernels".into(),
            JsonValue::Array(rows.iter().map(BestRow::json).collect()),
        ),
        (
            "solver".into(),
            JsonValue::Array(solver.iter().map(SolverRow::json).collect()),
        ),
        (
            "search".into(),
            JsonValue::Array(searches.iter().map(SearchRow::json).collect()),
        ),
    ]);
    std::fs::write("BENCH_grape.json", json.to_pretty() + "\n").ok();
}

/// Exact byte comparison of two complex buffers.
fn identical(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Bit-identity sweep: every blocked kernel against its reference, all
/// dims 1–17, rectangular shapes included for the three matmul forms.
fn check_bit_identity() -> usize {
    let mut failures = 0usize;
    for n in CHECK_DIMS {
        // Rectangular shapes exercise remainder handling in every
        // direction: (m, k, n) with distinct values.
        let (m, k) = (n.max(2) - 1, n + 2);
        for &(rm, rk, rn) in &[(n, n, n), (m, k, n)] {
            let a = fill(rm * rk, 3 + rm as u64);
            let b = fill(rk * rn, 5 + rn as u64);
            let mut got = vec![accqoc_linalg::ZERO; rm * rn];
            let mut want = vec![accqoc_linalg::ZERO; rm * rn];
            kernels::matmul(&a, &b, &mut got, rm, rk, rn);
            kernels::reference::matmul(&a, &b, &mut want, rm, rk, rn);
            if !identical(&got, &want) {
                eprintln!("FAIL: matmul {rm}x{rk}x{rn} not bit-identical to reference");
                failures += 1;
            }

            let a = fill(rk * rm, 7 + rm as u64);
            let b = fill(rk * rn, 11 + rn as u64);
            kernels::dagger_matmul(&a, &b, &mut got, rk, rm, rn);
            kernels::reference::dagger_matmul(&a, &b, &mut want, rk, rm, rn);
            if !identical(&got, &want) {
                eprintln!("FAIL: dagger_matmul {rk}x{rm}x{rn} not bit-identical to reference");
                failures += 1;
            }

            let a = fill(rm * rk, 13 + rm as u64);
            let b = fill(rn * rk, 19 + rn as u64);
            kernels::matmul_dagger(&a, &b, &mut got, rm, rk, rn);
            kernels::reference::matmul_dagger(&a, &b, &mut want, rm, rk, rn);
            if !identical(&got, &want) {
                eprintln!("FAIL: matmul_dagger {rm}x{rk}x{rn} not bit-identical to reference");
                failures += 1;
            }
        }

        let v = fill(n * n, 23 + n as u64);
        let m_in = fill(n * n, 31 + n as u64);
        let mut scratch = vec![accqoc_linalg::ZERO; n * n];
        let mut got = vec![accqoc_linalg::ZERO; n * n];
        let mut want = vec![accqoc_linalg::ZERO; n * n];
        kernels::rotate(&v, &m_in, &mut scratch, &mut got, n);
        scratch.fill(accqoc_linalg::ZERO);
        kernels::reference::rotate(&v, &m_in, &mut scratch, &mut want, n);
        if !identical(&got, &want) {
            eprintln!("FAIL: rotate {n}x{n} not bit-identical to reference");
            failures += 1;
        }
    }
    failures
}

/// Eigensolver accuracy sweep: for every dim 1–17, the largest entry of
/// `V·diag(λ)·V† − A` on a dense Hermitian `A` must stay within
/// [`CHECK_EIGH_RESIDUAL`] of `max(max|a_ij|, 1)`.
fn check_eigh() -> usize {
    let mut failures = 0usize;
    for n in CHECK_DIMS {
        let h = hermitian(n, 47 + n as u64);
        let mut eig = EigH {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        };
        if let Err(e) = eigh_into(&h, &mut eig, &mut EighWorkspace::new()) {
            eprintln!("FAIL: eigh {n}x{n}: {e}");
            failures += 1;
            continue;
        }
        let mut scaled = eig.vectors.clone();
        for i in 0..n {
            for j in 0..n {
                scaled[(i, j)] = scaled[(i, j)].scale(eig.values[j]);
            }
        }
        let residual = scaled.matmul(&eig.vectors.dagger()).max_abs_diff(&h);
        let bound = CHECK_EIGH_RESIDUAL * h.max_abs().max(1.0);
        if residual > bound {
            eprintln!("FAIL: eigh {n}x{n} reconstruction residual {residual:e} above {bound:e}");
            failures += 1;
        }
    }
    failures
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("GRAPE kernel microbenchmarks — blocked vs naive reference\n");

    if check {
        let failures = check_bit_identity() + check_eigh();
        if failures == 0 {
            println!(
                "bit-identity: all kernels match their reference over dims {}-{}; \
                 eigh reconstructs within {CHECK_EIGH_RESIDUAL:e}·scale",
                CHECK_DIMS.start(),
                CHECK_DIMS.end()
            );
        }

        let rows = measure_all();
        let solver = measure_solver();
        let searches = measure_searches();
        write_outputs(&rows, &solver, &searches);
        let dim8 = rows
            .iter()
            .find(|r| r.best.kernel == "matmul" && r.best.dim == 8)
            .expect("dim-8 matmul row");
        let speedup = dim8.speedup().expect("matmul has a naive twin");
        println!(
            "\ndim-8 matmul: blocked {:.1} ns vs naive {:.1} ns ({speedup:.2}x, gate {CHECK_MIN_SPEEDUP}x)",
            dim8.best.blocked_ns,
            dim8.best.naive_ns.unwrap_or(f64::NAN),
        );
        let mut failed = failures > 0 || check_solver(&solver) > 0 || check_searches(&searches) > 0;
        if speedup < CHECK_MIN_SPEEDUP {
            eprintln!(
                "FAIL: dim-8 matmul speedup {speedup:.2}x below pinned threshold {CHECK_MIN_SPEEDUP}x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        let worst = solver
            .iter()
            .map(SolverRow::evals_per_iteration)
            .fold(0.0f64, f64::max);
        println!(
            "\nOK: bit-identical and eigh-accurate over dims {}-{}, dim-8 matmul {speedup:.2}x >= {CHECK_MIN_SPEEDUP}x, \
             solver probes at most {worst:.2} <= {CHECK_MAX_EVALS_PER_ITERATION} evaluations per iteration, \
             {} latency searches on their pinned probes",
            CHECK_DIMS.start(),
            CHECK_DIMS.end(),
            searches.len()
        );
    } else {
        let rows = measure_all();
        write_outputs(&rows, &measure_solver(), &measure_searches());
        println!("\nwrote results/grape_kernels.csv and BENCH_grape.json");
    }
}
