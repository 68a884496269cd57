//! Latency binary search.
//!
//! The paper (§IV-D): "The latency of a certain group is determined by a
//! binary search. Short latency leads to more iterations with long
//! training time and does not guarantee the convergence, while long
//! latency loses the advantages of quantum optimal control. Therefore,
//! binary search is necessary to ensure optimal latency within the target
//! fidelity convergence requirement."
//!
//! We search over the slice count `N`: first grow an upper bound until a
//! feasible pulse is found, then bisect down to the smallest feasible `N`.
//!
//! The search is a small state machine, [`Search`]: `next()` names the
//! next GRAPE solve (slice count, warm or cold init, iteration budget)
//! and `record()` takes its outcome. [`find_minimal_latency`] runs it one
//! solve at a time on the caller's [`Workspace`]. A caller that compiles
//! several groups uses more cores by running independent searches side
//! by side, each on a thread counted as one [`SolverLane`].

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use accqoc_hw::ControlModel;
use accqoc_linalg::Mat;

use crate::grape::{solve_with, GrapeOptions, GrapeOutcome, GrapeProblem, InitStrategy};
use crate::optimizer::StopCriteria;
use crate::pulse::Pulse;
use crate::workspace::Workspace;

/// Search-space bounds for the latency binary search.
#[derive(Debug, Clone)]
pub struct LatencySearch {
    /// Smallest slice count to consider.
    pub min_steps: usize,
    /// Hard cap on the slice count (the "run time budget" guard of §IV-D).
    pub max_steps: usize,
    /// Probe this slice count first (e.g. the latency of a similar,
    /// already-compiled group). A good guess collapses the exponential
    /// growth phase: feasible ⇒ bisect straight down, infeasible ⇒ grow
    /// from there. This is where the MST ordering saves most of its
    /// compile time — similar groups have similar latencies.
    pub initial_guess: Option<usize>,
}

impl Default for LatencySearch {
    fn default() -> Self {
        Self {
            min_steps: 1,
            max_steps: 256,
            initial_guess: None,
        }
    }
}

/// Failure of the latency search.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyError {
    /// No slice count up to `max_steps` reached the fidelity target.
    Infeasible {
        /// The cap that was exhausted.
        max_steps: usize,
        /// Best infidelity observed at the cap.
        best_infidelity: f64,
    },
    /// The initialization cannot start a solve on the model: a warm-start
    /// pulse (the seed, or an [`InitStrategy::Warm`] init) with another
    /// channel count than the model's or a non-finite amplitude, or an
    /// [`InitStrategy::Random`] init with a non-finite scale. Checked
    /// before any solve runs.
    InvalidInit {
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for LatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible { max_steps, best_infidelity } => write!(
                f,
                "no pulse up to {max_steps} steps met the fidelity target (best infidelity {best_infidelity:.2e})"
            ),
            Self::InvalidInit { reason } => write!(f, "invalid initial pulse: {reason}"),
        }
    }
}

impl Error for LatencyError {}

/// Result of a successful latency search.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// GRAPE outcome at the minimal feasible slice count.
    pub outcome: GrapeOutcome,
    /// Minimal feasible slice count.
    pub n_steps: usize,
    /// Minimal latency in nanoseconds (`n_steps · dt`).
    pub latency_ns: f64,
    /// Optimizer iterations summed over *all* probes — the compile-cost
    /// metric of the paper (§VI-G).
    pub total_iterations: usize,
    /// Every probe performed: `(n_steps, converged)`.
    pub probes: Vec<(usize, bool)>,
}

/// Finds the shortest pulse meeting the fidelity target via exponential
/// growth + bisection over the slice count.
///
/// `seed` is the "warm start from a similar group" behind the paper's
/// MST acceleration and the pulse library's serving path. It does two
/// things: it becomes the [`InitStrategy::Warm`] initialization of every
/// probe, and (when non-empty) its slice count becomes the search's
/// initial guess — similar unitaries have similar minimal latencies, so
/// the search brackets in fewer probes. `None` is a scratch compile.
///
/// Each probe first tries a warm start (from the best feasible pulse
/// found so far, else the seed) on a third of the iteration budget (at
/// least 40). A converged warm attempt settles the probe; otherwise a
/// cold start on the full budget decides it.
///
/// # Threads
///
/// Every solve runs on this thread and on `ws`, one at a time. The
/// thread is counted as a [`SolverLane`] for the duration of the call
/// (unless it already holds one), so the compile threads a caller starts
/// on spare cores leave this search its core.
///
/// # Panics
///
/// Panics if the target dimension disagrees with the model.
///
/// # Errors
///
/// Returns [`LatencyError::InvalidInit`] when the warm-start pulse has a
/// channel count other than the model's or a non-finite amplitude (or a
/// random init has a non-finite scale), and [`LatencyError::Infeasible`]
/// when even `search.max_steps` slices cannot reach the target.
///
/// # Examples
///
/// ```
/// use accqoc_grape::{find_minimal_latency, GrapeOptions, LatencySearch, Workspace};
/// use accqoc_hw::ControlModel;
/// use accqoc_linalg::Mat;
///
/// let model = ControlModel::spin_chain(1);
/// let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
/// let r = find_minimal_latency(
///     &model,
///     &x,
///     None,
///     &GrapeOptions::default(),
///     &LatencySearch::default(),
///     &mut Workspace::new(),
/// )?;
/// // A π-rotation at the amplitude cap takes 10 ns ⇒ 10 slices of 1 ns.
/// assert_eq!(r.n_steps, 10);
/// # Ok::<(), accqoc_grape::LatencyError>(())
/// ```
pub fn find_minimal_latency(
    model: &ControlModel,
    target: &Mat,
    seed: Option<&Pulse>,
    options: &GrapeOptions,
    search: &LatencySearch,
    ws: &mut Workspace,
) -> Result<LatencyResult, LatencyError> {
    let _caller = SolverLane::caller();
    let mut state = Search::new(model, seed, options, search)?;
    while let Some((n_steps, options)) = state.next() {
        let problem = GrapeProblem {
            model,
            target,
            n_steps,
            options,
        };
        state.record(solve_with(&problem, ws));
    }
    state.finish()
}

/// Solver lanes running in this process: the thread of every running
/// search and every thread started on a spare lane, each counted once.
static RUNNING_LANES: AtomicUsize = AtomicUsize::new(0);

/// The machine's cores, as [`std::thread::available_parallelism`] reports
/// them on first use.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

thread_local! {
    /// Whether this thread is counted in [`RUNNING_LANES`] through a
    /// [`SolverLane`].
    static ON_LANE: Cell<bool> = const { Cell::new(false) };
}

/// A solver lane held in the process-wide count of threads that run
/// GRAPE solves: how a caller that compiles on threads of its own shares
/// the machine's cores with every other thread that compiles.
///
/// Every thread that runs solves is counted once: a search counts its own
/// thread (unless the thread already holds a lane), and a thread that
/// runs many searches can hold one lane across all of them. A thread is
/// started on a [`SolverLane::spare`] lane only while fewer lanes run
/// than [`std::thread::available_parallelism`] reports, so `k` callers
/// settle on at most `max(k, cores)` solver threads.
#[derive(Debug)]
pub struct SolverLane {
    /// Whether this value holds one of [`RUNNING_LANES`], and gives it
    /// back when dropped.
    counted: bool,
    /// Whether the lane gives its core back once more lanes run than the
    /// machine has cores: a [spare](SolverLane::spare) lane.
    yields: bool,
    /// Whether this value marked its thread as counted, and so unmarks
    /// it when dropped (on the same thread).
    marks: bool,
}

impl SolverLane {
    /// Counts the calling thread as a lane until the value is dropped; a
    /// no-op when the thread already holds one.
    pub fn caller() -> Self {
        let fresh = !ON_LANE.get();
        if fresh {
            ON_LANE.set(true);
            RUNNING_LANES.fetch_add(1, Ordering::Relaxed);
        }
        Self {
            counted: fresh,
            yields: false,
            marks: fresh,
        }
    }

    /// A lane for a thread about to start, if fewer lanes run than the
    /// machine has cores. The thread calls [`SolverLane::enter`] before
    /// its first solve, so the searches it runs count no second lane.
    pub fn spare() -> Option<Self> {
        let cores = cores();
        RUNNING_LANES
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cores).then_some(n + 1)
            })
            .ok()
            .map(|_| Self {
                counted: true,
                yields: true,
                marks: false,
            })
    }

    /// Marks the current thread as running on this lane. Drop the lane on
    /// the thread that entered it.
    pub fn enter(&mut self) {
        if !ON_LANE.get() {
            ON_LANE.set(true);
            self.marks = true;
        }
    }

    /// Whether a [spare](SolverLane::spare) lane should give its core
    /// back: more lanes run than the machine has cores.
    pub fn crowded(&self) -> bool {
        self.yields && RUNNING_LANES.load(Ordering::Relaxed) > cores()
    }
}

impl Drop for SolverLane {
    fn drop(&mut self) {
        if self.counted {
            RUNNING_LANES.fetch_sub(1, Ordering::Relaxed);
        }
        if self.marks {
            ON_LANE.set(false);
        }
    }
}

/// The probe of the search that the pending solve belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// `N = 0`: the identity class needs no pulse.
    Zero,
    /// The seeded guess.
    Guess,
    /// One slice longer than an infeasible guess.
    Up,
    /// Exponential growth until a slice count converges.
    Grow,
    /// The anchored descent: one slice below the shortest feasible count,
    /// while the search floor sits right under the guess.
    Descend,
    /// One probe at the search floor below a feasible guess.
    Floor,
    /// Bisection on `(lo, hi]`.
    Bisect,
    /// Done: the shortest feasible slice count is known.
    Found,
    /// Done: nothing up to `max_steps` converged.
    Infeasible,
}

/// The latency search as an explicit state: [`Search::next`] names the
/// next solve, [`Search::record`] takes its outcome, and
/// [`find_minimal_latency`] runs what `next` names.
#[derive(Debug)]
struct Search<'a> {
    stop: &'a StopCriteria,
    /// The caller's warm start: the seed, or an [`InitStrategy::Warm`]
    /// init in the options.
    hint: Option<&'a Pulse>,
    /// The cold initialization that decides feasibility. A caller's warm
    /// start is only a *hint*: warm inits inherited from other unitaries
    /// can fail at slice counts a fresh start solves, and silently
    /// inflating the latency list would corrupt every downstream latency
    /// number.
    cold_init: InitStrategy,
    min_steps: usize,
    max_steps: usize,
    guess: Option<usize>,
    dt: f64,
    site: Site,
    /// Slice count of the pending probe.
    n: usize,
    /// Whether the pending solve is the probe's warm attempt; a failed
    /// warm attempt is followed by the cold solve at the same `n`.
    warm: bool,
    /// Largest slice count known to be infeasible.
    lo: usize,
    /// Shortest feasible slice count so far, with its outcome.
    best: Option<(usize, GrapeOutcome)>,
    best_infidelity: f64,
    total_iterations: usize,
    probes: Vec<(usize, bool)>,
}

impl<'a> Search<'a> {
    /// The search before its first solve, after checking both
    /// initializations it will use.
    fn new(
        model: &ControlModel,
        seed: Option<&'a Pulse>,
        options: &'a GrapeOptions,
        search: &LatencySearch,
    ) -> Result<Self, LatencyError> {
        let hint = seed.or(match &options.init {
            InitStrategy::Warm(pulse) => Some(pulse),
            _ => None,
        });
        let cold_init = match hint {
            Some(_) => InitStrategy::default(),
            None => options.init.clone(),
        };
        let reason = match (hint, &cold_init) {
            (Some(pulse), _) if pulse.n_controls() != model.n_controls() => Some(format!(
                "{} control channels, the model has {}",
                pulse.n_controls(),
                model.n_controls()
            )),
            (Some(pulse), _)
                if !(0..pulse.n_controls())
                    .all(|c| pulse.channel(c).iter().all(|a| a.is_finite())) =>
            {
                Some("non-finite warm-start amplitude".to_string())
            }
            (_, InitStrategy::Random { scale, .. }) if !scale.is_finite() => {
                Some(format!("random init scale {scale}"))
            }
            _ => None,
        };
        if let Some(reason) = reason {
            return Err(LatencyError::InvalidInit { reason });
        }
        let mut state = Self {
            stop: &options.stop,
            hint,
            cold_init,
            min_steps: search.min_steps,
            max_steps: search.max_steps,
            guess: seed
                .map(Pulse::n_steps)
                .filter(|&n| n > 0)
                .or(search.initial_guess),
            dt: model.dt_ns(),
            site: Site::Zero,
            n: 0,
            warm: false,
            lo: 0,
            best: None,
            best_infidelity: f64::INFINITY,
            total_iterations: 0,
            probes: Vec::new(),
        };
        state.probe(Site::Zero, 0);
        Ok(state)
    }

    /// Starts the probe at `n` for `site`: its warm attempt when there is
    /// a warm start, else its cold solve.
    fn probe(&mut self, site: Site, n: usize) {
        self.site = site;
        self.n = n;
        self.warm = self.warm_start().is_some();
    }

    /// The warm start of the next probe: the best feasible pulse so far,
    /// else the caller's.
    fn warm_start(&self) -> Option<&Pulse> {
        self.best.as_ref().map(|(_, out)| &out.pulse).or(self.hint)
    }

    fn done(&self) -> bool {
        matches!(self.site, Site::Found | Site::Infeasible)
    }

    /// The next solve, as its slice count and options; `None` once the
    /// search is done.
    fn next(&self) -> Option<(usize, GrapeOptions)> {
        if self.done() {
            return None;
        }
        let mut options = GrapeOptions {
            stop: self.stop.clone(),
            init: self.cold_init.clone(),
        };
        if let (true, Some(pulse)) = (self.warm, self.warm_start()) {
            // The warm attempt runs on a reduced budget: it converges in a
            // fraction of the cold cost when the start is good, and the
            // cold solve decides otherwise.
            options.init = InitStrategy::Warm(pulse.clone());
            options.stop.max_iters = (options.stop.max_iters / 3).max(40);
        }
        Some((self.n, options))
    }

    /// Takes the outcome of the solve [`Search::next`] named.
    fn record(&mut self, out: GrapeOutcome) {
        self.total_iterations += out.iterations;
        if out.converged {
            self.probes.push((self.n, true));
            self.converged(out);
            return;
        }
        if self.warm {
            // The cold solve at the same slice count decides the probe.
            self.warm = false;
            return;
        }
        self.probes.push((self.n, false));
        self.best_infidelity = match self.site {
            Site::Zero => out.infidelity,
            _ => self.best_infidelity.min(out.infidelity),
        };
        let n = self.n;
        match self.site {
            Site::Zero => match self.guess {
                Some(guess) => self.probe(Site::Guess, guess.clamp(1, self.max_steps)),
                None => self.probe(Site::Grow, self.min_steps.max(1)),
            },
            Site::Guess if n >= self.max_steps => self.site = Site::Infeasible,
            // A seeded guess is rarely off by much: try one slice longer
            // before falling back to exponential growth — similar groups
            // have similar minimal latencies, so the boundary usually sits
            // adjacent to the seed and the +1 probe converges, collapsing
            // the whole bracket in one step.
            Site::Guess => self.probe(Site::Up, n + 1),
            Site::Up => {
                self.lo = n;
                self.probe(Site::Grow, ((n - 1) * 2).min(self.max_steps).max(1));
            }
            Site::Grow => {
                self.lo = n;
                if n >= self.max_steps {
                    self.site = Site::Infeasible;
                } else {
                    self.probe(Site::Grow, (n * 2).min(self.max_steps));
                }
            }
            Site::Descend | Site::Floor | Site::Bisect => {
                self.lo = n;
                self.bisect();
            }
            Site::Found | Site::Infeasible => {}
        }
    }

    /// Moves past a converged solve, whose pulse becomes the warm start.
    fn converged(&mut self, out: GrapeOutcome) {
        let n = self.n;
        self.best = Some((n, out));
        match self.site {
            Site::Guess => {
                // One probe at the growth start tells us which side of it
                // the boundary lies on, cheaply narrowing the bisection
                // range (without it a good guess costs a cascade of low-N
                // probes).
                let m = self.min_steps.min(n - 1);
                if m == n - 1 && m >= 1 {
                    // The search floor sits right under the guess (the
                    // seed-anchored serving window): descend one slice at
                    // a time while the shorter probe keeps converging.
                    // Each converging probe is cheap (warm-started from the
                    // pulse one slice longer); the first failure is the
                    // tight lower bound. A near-identical seed costs
                    // exactly one extra probe, and a beatable seed walks
                    // to the true minimum without re-opening the bisection
                    // over the deep-infeasible region the floor exists to
                    // prune.
                    self.probe(Site::Descend, m);
                } else if m >= 1 {
                    self.probe(Site::Floor, m);
                } else {
                    self.bisect();
                }
            }
            Site::Descend if n > 1 => self.probe(Site::Descend, n - 1),
            Site::Up => {
                self.lo = n - 1;
                self.bisect();
            }
            _ => self.bisect(),
        }
    }

    /// Bisects `(lo, hi]`, `hi` the shortest feasible count, or finishes
    /// once the bracket is one slice wide.
    fn bisect(&mut self) {
        let hi = self.best.as_ref().map_or(self.lo, |(n, _)| *n);
        if hi - self.lo > 1 {
            self.probe(Site::Bisect, self.lo + (hi - self.lo) / 2);
        } else {
            self.site = Site::Found;
        }
    }

    /// The search's result; call once [`Search::next`] is `None`.
    fn finish(self) -> Result<LatencyResult, LatencyError> {
        debug_assert!(self.done(), "finish before the search is done");
        match (self.site, self.best) {
            (Site::Found, Some((n_steps, outcome))) => Ok(LatencyResult {
                outcome,
                n_steps,
                latency_ns: n_steps as f64 * self.dt,
                total_iterations: self.total_iterations,
                probes: self.probes,
            }),
            _ => Err(LatencyError::Infeasible {
                max_steps: self.max_steps,
                best_infidelity: self.best_infidelity,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};

    type Searched = Result<LatencyResult, LatencyError>;

    /// A scratch search with a throwaway workspace.
    fn scratch(model: &ControlModel, target: &Mat, search: &LatencySearch) -> Searched {
        find_minimal_latency(
            model,
            target,
            None,
            &GrapeOptions::default(),
            search,
            &mut Workspace::new(),
        )
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts two search results are the same bit for bit.
    fn assert_identical(got: &Searched, want: &Searched, what: &str) {
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (Err(got), Err(want)) => {
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: error");
                return;
            }
            _ => panic!("{what}: {got:?} vs {want:?}"),
        };
        assert_eq!(got.probes, want.probes, "{what}: probes");
        assert_eq!(
            got.total_iterations, want.total_iterations,
            "{what}: iterations"
        );
        assert_eq!(got.n_steps, want.n_steps, "{what}: n_steps");
        assert_eq!(
            got.latency_ns.to_bits(),
            want.latency_ns.to_bits(),
            "{what}: latency"
        );
        let (g, w) = (&got.outcome, &want.outcome);
        assert_eq!(
            (
                g.pulse.n_controls(),
                g.pulse.n_steps(),
                g.pulse.dt_ns().to_bits()
            ),
            (
                w.pulse.n_controls(),
                w.pulse.n_steps(),
                w.pulse.dt_ns().to_bits()
            ),
            "{what}: pulse shape"
        );
        assert_eq!(
            bits(&g.pulse.to_params()),
            bits(&w.pulse.to_params()),
            "{what}: pulse"
        );
        assert_eq!(
            g.infidelity.to_bits(),
            w.infidelity.to_bits(),
            "{what}: infidelity"
        );
        assert_eq!(bits(&g.history), bits(&w.history), "{what}: history");
        assert_eq!(
            (g.iterations, g.fn_evals, g.converged),
            (w.iterations, w.fn_evals, w.converged),
            "{what}: counts"
        );
    }

    fn x_gate() -> Mat {
        Mat::from_reals(&[0.0, 1.0, 1.0, 0.0])
    }

    fn cnot() -> Mat {
        Mat::from_reals(&[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0,
        ])
    }

    /// A scratch search of `target`, then one seeded with its pulse
    /// resampled to `guess` slices; returns their `(probes,
    /// total_iterations)`.
    fn scratch_then_seeded(
        qubits: usize,
        target: &Mat,
        guess: usize,
    ) -> [(Vec<(usize, bool)>, usize); 2] {
        let model = ControlModel::spin_chain(qubits);
        let search = |seed: Option<&Pulse>| {
            find_minimal_latency(
                &model,
                target,
                seed,
                &GrapeOptions::default(),
                &LatencySearch::default(),
                &mut Workspace::new(),
            )
            .unwrap()
        };
        let scratch = search(None);
        let seeded = search(Some(&scratch.outcome.pulse.resampled(guess)));
        [scratch, seeded].map(|r| (r.probes, r.total_iterations))
    }

    #[test]
    fn searches_reproduce_the_pinned_probe_lists() {
        // Pinned from the one-solve-at-a-time search this driver replaced
        // (the `grape_kernels --check` gate pins the same four). The X
        // seed at 12 slices is feasible; the CNOT seed at 16 fails its
        // guess and its +1 probe, and growth takes over.
        let [scratch, seeded] = scratch_then_seeded(1, &x_gate(), 12);
        let probes = [(0, false), (1, false), (2, false), (4, false), (8, false)];
        let tail = [(16, true), (12, true), (10, true), (9, false)];
        assert_eq!(scratch, ([&probes[..], &tail[..]].concat(), 130));
        let probes = [
            (0, false),
            (12, true),
            (1, false),
            (6, false),
            (9, false),
            (10, true),
        ];
        assert_eq!(seeded, (probes.to_vec(), 102));

        let [scratch, seeded] = scratch_then_seeded(2, &cnot(), 16);
        let probes = [
            (0, false),
            (1, false),
            (2, false),
            (4, false),
            (8, false),
            (16, false),
        ];
        let tail = [(32, true), (24, true), (20, true), (18, false), (19, true)];
        assert_eq!(scratch, ([&probes[..], &tail[..]].concat(), 793));
        let probes = [(0, false), (16, false), (17, false)];
        assert_eq!(seeded, ([&probes[..], &tail[..]].concat(), 915));
    }

    #[test]
    fn x_gate_min_latency_is_ten_ns() {
        let model = ControlModel::spin_chain(1);
        let r = scratch(&model, &x_gate(), &LatencySearch::default()).unwrap();
        // π/(Ω_max) = 10 ns exactly at the amplitude bound.
        assert_eq!(r.n_steps, 10, "probes: {:?}", r.probes);
        assert!((r.latency_ns - 10.0).abs() < 1e-12);
        assert!(r.outcome.converged);
        assert!(r.total_iterations > 0);
    }

    #[test]
    fn identity_needs_zero_steps() {
        let model = ControlModel::spin_chain(1);
        let r = scratch(&model, &Mat::identity(2), &LatencySearch::default()).unwrap();
        assert_eq!(r.n_steps, 0);
        assert_eq!(r.latency_ns, 0.0);
    }

    #[test]
    fn rotation_shorter_than_pi_needs_fewer_steps() {
        let model = ControlModel::spin_chain(1);
        let rz = circuit_unitary(&Circuit::from_gates(
            1,
            [Gate::Rx(0, std::f64::consts::PI / 2.0)],
        ));
        let r = scratch(&model, &rz, &LatencySearch::default()).unwrap();
        assert!(
            r.n_steps <= 6,
            "π/2 rotation should need ≈5 steps, got {}",
            r.n_steps
        );
        assert!(r.n_steps >= 4);
    }

    #[test]
    fn infeasible_when_cap_too_small() {
        let model = ControlModel::spin_chain(1);
        let search = LatencySearch {
            min_steps: 1,
            max_steps: 6,
            ..LatencySearch::default()
        };
        let e = scratch(&model, &x_gate(), &search).unwrap_err();
        let LatencyError::Infeasible {
            max_steps,
            best_infidelity,
        } = e
        else {
            panic!("expected Infeasible, got {e:?}");
        };
        assert_eq!(max_steps, 6);
        assert!(best_infidelity > 1e-4);
    }

    #[test]
    fn bad_inits_are_typed_errors_before_any_solve() {
        let model = ControlModel::spin_chain(1);
        let options = GrapeOptions::default();
        let search = LatencySearch::default();
        let mut nan = Pulse::zeros(model.n_controls(), 10, model.dt_ns());
        nan.set(0, 3, f64::NAN);
        let mut inf = nan.clone();
        inf.set(0, 3, f64::INFINITY);
        let wide = Pulse::zeros(model.n_controls() + 1, 10, model.dt_ns());
        for seed in [&nan, &inf, &wide] {
            let e = find_minimal_latency(
                &model,
                &x_gate(),
                Some(seed),
                &options,
                &search,
                &mut Workspace::new(),
            )
            .unwrap_err();
            assert!(matches!(e, LatencyError::InvalidInit { .. }), "{e:?}");
            // The same pulse as a warm init in the options.
            let warm = options.clone().with_init(InitStrategy::Warm(seed.clone()));
            let e = find_minimal_latency(
                &model,
                &x_gate(),
                None,
                &warm,
                &search,
                &mut Workspace::new(),
            )
            .unwrap_err();
            assert!(matches!(e, LatencyError::InvalidInit { .. }), "{e:?}");
        }
        // A random init with a NaN scale would feed NaN amplitudes to
        // the first eigensolve; as the seed's cold init it is not used.
        let nan_scale = options.clone().with_init(InitStrategy::Random {
            scale: f64::NAN,
            seed: 1,
        });
        let e = find_minimal_latency(
            &model,
            &x_gate(),
            None,
            &nan_scale,
            &search,
            &mut Workspace::new(),
        )
        .unwrap_err();
        assert!(matches!(e, LatencyError::InvalidInit { .. }), "{e:?}");
        let seed = Pulse::zeros(model.n_controls(), 10, model.dt_ns());
        let seeded = find_minimal_latency(
            &model,
            &x_gate(),
            Some(&seed),
            &nan_scale,
            &search,
            &mut Workspace::new(),
        );
        assert_eq!(seeded.map(|r| r.n_steps), Ok(10));
    }

    #[test]
    fn callers_workspace_reaches_capacity_fixed_point_across_searches() {
        // The serve path runs thousands of latency searches against one
        // leased workspace. The first search grows it to its longest
        // probe; a repeat search must then grow nothing (the
        // workspace-capacity invariant behind the allocation-free steady
        // state) and reproduce the result bit for bit.
        let model = ControlModel::spin_chain(1);
        let mut ws = Workspace::new();
        let search = |ws: &mut Workspace| {
            find_minimal_latency(
                &model,
                &x_gate(),
                None,
                &GrapeOptions::default(),
                &LatencySearch::default(),
                ws,
            )
        };
        let r1 = search(&mut ws);
        // Lengths and the buffers' addresses: a grown or replaced
        // workspace changes one of them.
        let sizes = |ws: &Workspace| {
            (
                [
                    ws.step_us.len(),
                    ws.fwd.len(),
                    ws.bwd.len(),
                    ws.eigs.len(),
                    ws.amps.len(),
                ],
                [ws.step_us.as_ptr(), ws.fwd.as_ptr(), ws.bwd.as_ptr()],
            )
        };
        let grown = sizes(&ws);
        let r2 = search(&mut ws);
        assert_eq!(grown, sizes(&ws), "repeat search grew the workspace");
        assert_identical(&r2, &r1, "ws reuse moved bits");
    }

    #[test]
    fn probes_are_recorded_and_monotone_consistent() {
        let model = ControlModel::spin_chain(1);
        let r = scratch(&model, &x_gate(), &LatencySearch::default()).unwrap();
        // Every probe below the answer must be infeasible; at/above: mostly feasible.
        for &(n, ok) in &r.probes {
            if n < r.n_steps {
                assert!(
                    !ok,
                    "probe at {n} should be infeasible (answer {})",
                    r.n_steps
                );
            }
        }
        assert!(r.probes.iter().any(|&(n, ok)| n == r.n_steps && ok));
    }
}
