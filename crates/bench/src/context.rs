//! Shared experiment setup: session, benchmark suite, and the
//! pre-compiled pulse cache.

use accqoc::{PrecompileOptions, Session};
use accqoc_circuit::Circuit;
use accqoc_hw::Topology;
use accqoc_workloads::{full_suite, profiling_split, BenchProgram};

/// Seed for the profiling split (paper: "randomly select one-third").
pub const SPLIT_SEED: u64 = 42;

/// `true` when `ACCQOC_FAST=1`: experiments shrink their sample sizes so a
/// full `paper` run completes in under a minute (useful for smoke
/// tests; published numbers should use the default mode).
pub fn fast_mode() -> bool {
    std::env::var("ACCQOC_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Everything an experiment of the `paper` binary needs.
pub struct ExperimentContext {
    /// The Melbourne/map2b4l session of the paper's headline setup; owns
    /// the (possibly pre-compiled) pulse cache.
    pub session: Session,
    /// The 159-program benchmark suite.
    pub suite: Vec<BenchProgram>,
    /// Indices of the profiling third (restricted to device-sized
    /// programs).
    pub profile_idx: Vec<usize>,
    /// Indices of the evaluation programs.
    pub eval_idx: Vec<usize>,
}

impl ExperimentContext {
    /// Builds the context without pre-compiling anything.
    ///
    /// # Panics
    ///
    /// Panics when the paper's stock configuration fails to validate
    /// (it cannot).
    pub fn bare() -> Self {
        let session = Session::builder()
            .topology(Topology::melbourne())
            .build()
            .expect("stock melbourne session is valid");
        let suite = full_suite();
        let max_q = session.config().topology.n_qubits();
        let (profile_raw, eval_raw) = profiling_split(&suite, SPLIT_SEED);
        let fits = |i: &usize| suite[*i].circuit.n_qubits() <= max_q;
        let profile_idx: Vec<usize> = profile_raw.into_iter().filter(fits).collect();
        let eval_idx: Vec<usize> = eval_raw.into_iter().filter(fits).collect();
        Self {
            session,
            suite,
            profile_idx,
            eval_idx,
        }
    }

    /// Builds the context and pre-compiles the profiling programs'
    /// group category in this process, on this thread plus every spare
    /// core. Nothing is read from disk, so every figure reports pulses
    /// of the solver it was built with.
    ///
    /// # Panics
    ///
    /// Panics if pre-compilation fails for a group (should not happen on
    /// the stock suite).
    pub fn precompiled() -> Self {
        let ctx = Self::bare();
        let programs = ctx.profile_programs();
        eprintln!(
            "[context] pre-compiling category from {} profiling programs…",
            programs.len()
        );
        let t0 = std::time::Instant::now();
        // Uncapped: the engine takes every spare core.
        let options = PrecompileOptions {
            threads: Some(usize::MAX),
            ..PrecompileOptions::default()
        };
        let (report, stats) = ctx
            .session
            .precompile(&programs, &options)
            .expect("pre-compilation succeeds on the stock suite");
        eprintln!(
            "[context] {} unique groups, {} iterations ({} makespan) in {:.1?}",
            report.n_unique_groups,
            stats.total_iterations,
            stats.makespan_iterations,
            t0.elapsed()
        );
        ctx
    }

    /// The profiling programs (cloned circuits). In fast mode only a
    /// handful of the smallest are used.
    pub fn profile_programs(&self) -> Vec<Circuit> {
        let mut idx = self.profile_idx.clone();
        if fast_mode() {
            idx.sort_by_key(|&i| self.suite[i].decomposed_len());
            idx.truncate(6);
        }
        idx.iter().map(|&i| self.suite[i].circuit.clone()).collect()
    }

    /// Evaluation programs of a bounded size, smallest first.
    pub fn eval_programs_sized(&self, max_gates: usize, count: usize) -> Vec<&BenchProgram> {
        let mut idx: Vec<usize> = self
            .eval_idx
            .iter()
            .copied()
            .filter(|&i| self.suite[i].decomposed_len() <= max_gates)
            .collect();
        idx.sort_by_key(|&i| self.suite[i].decomposed_len());
        // Take a spread: smallest, then every k-th for variety.
        idx.truncate(count.max(1) * 2);
        idx.into_iter()
            .step_by(2)
            .take(count)
            .map(|i| &self.suite[i])
            .collect()
    }
}
