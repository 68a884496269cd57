//! AccQOC: accelerating quantum-optimal-control pulse generation.
//!
//! Reproduction of Cheng, Deng & Qian, *AccQOC: Accelerating Quantum
//! Optimal Control Based Pulse Generation* (ISCA 2020). The library turns
//! gate groups into control pulses with GRAPE while attacking GRAPE's
//! compile-time cost on three fronts:
//!
//! 1. **Static pre-compilation** ([`Session::precompile`]) — profile a
//!    third of a benchmark suite, compile its de-duplicated group
//!    category once, and reuse the pulses forever (the [`PulseCache`]).
//! 2. **Similarity-MST warm starts** ([`SimilarityGraph`],
//!    [`mst_compile_order`]) — compile uncovered groups in an order that
//!    minimizes the similarity distance between consecutive groups,
//!    seeding each GRAPE run with its MST parent's pulse.
//! 3. **Balanced parallel compilation** ([`partition_tree`],
//!    [`PrecompileOptions::threads`]) — split the MST into balanced
//!    connected parts and compile them on this thread plus one thread
//!    per spare core, each with its own reusable GRAPE workspace and
//!    returning its pulses to the caller, which inserts them into the one
//!    [`PulseLibrary`]. The same engine, on one plan part, runs
//!    [`Session::compile`]; [`compile_each`] runs independent compiles
//!    on it. The partition plan is thread-count-invariant, so the
//!    persisted cache artifact is byte-identical however many threads
//!    run it.
//! 4. **Online serving** ([`PulseLibrary`],
//!    [`Session::serve_program`]) — programs arriving *after* batch
//!    precompile resolve each group against the live, fingerprint-indexed
//!    library: exact hits are free, misses warm-start GRAPE from the
//!    nearest cached neighbor (sublinear bucketed retrieval, exact
//!    similarity re-scoring on the top-k), and results insert back under
//!    an optional LRU capacity bound, with hit/miss/warm/scratch
//!    counters in [`LibraryStats`].
//!
//! The top-level entry point is [`Session`]: built once, it owns the
//! device configuration, the control models, and the pulse cache, and
//! exposes the pipeline of paper Figure 6 as explicit stages —
//! `decompose → map → group → lookup → compile → latency` — plus the
//! one-shot [`Session::compile_program`]. Every failure anywhere in the
//! pipeline surfaces as the unified [`Error`].
//!
//! Compiled output is *provable*, not just fast:
//! [`Session::verify_program`] propagates every cached pulse back through
//! the control Hamiltonians and scores it against the circuit's reference
//! unitaries ([`VerifyReport`]), and [`caches_equivalent`] is the
//! differential oracle asserting that independent compile engines realize
//! the same physics.
//!
//! # Example
//!
//! ```no_run
//! use accqoc::prelude::*;
//!
//! let session = Session::builder().topology(Topology::linear(3)).build()?;
//! let program = Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1)]);
//! let out = session.compile_program(&program)?;
//! println!("latency {:.1} ns ({:.2}x vs gate-based)",
//!          out.overall_latency_ns, out.latency_reduction());
//! # Ok::<(), accqoc::Error>(())
//! ```

#![warn(missing_docs)]

mod baselines;
mod cache;
mod compile;
mod error;
mod exec;
pub mod json;
pub mod library;
mod model;
mod mst;
mod parallel;
mod partition;
mod persist;
mod precompile;
mod session;
pub mod shard;
mod similarity;
mod verify;

pub use baselines::{brute_force_qoc, BruteForceConfig, BruteForceResult};
pub use cache::{CachedPulse, PulseCache};
pub use compile::{warm_start_allowed, AccQocConfig};
pub use error::{Error, Result};
pub use exec::compile_each;
pub use library::{
    LibraryStats, NearestPulse, PulseLibrary, ServeOptions, ServeReport, ServedGroup,
    UnitaryFingerprint,
};
pub use model::{ModelSet, MAX_MODEL_QUBITS};
pub use mst::{mst_compile_order, scratch_order, CompileOrder, CompileStep, SimilarityGraph};
pub use parallel::{ParallelStats, WorkerTiming, DEFAULT_PLAN_PARTS};
pub use partition::{partition_tree, TreePartition, WeightedTree};
pub use persist::{PersistOptions, RecoveryReport, SNAPSHOT_FILE, WAL_FILE};
pub use precompile::{collect_category, Category, PrecompileOptions, PrecompileReport};
pub use session::{
    CompileReport, CoverageStats, DecomposeReport, GroupCompilation, GroupReport, GroupTarget,
    LatencyReport, LookupReport, MapReport, ProgramCompilation, Session, SessionBuilder,
};
pub use shard::{rebalance, shard_of, RebalanceReport, ShardMove};
pub use similarity::{uhlmann_fidelity, uhlmann_fidelity_with, SimilarityFn, SimilarityScratch};
pub use verify::{
    caches_equivalent, CacheDivergence, EquivalenceReport, GroupVerification, VerifyReport,
};

/// One-line import for the common case: the session facade, the unified
/// error type, and the configuration vocabulary the builder speaks.
///
/// ```
/// use accqoc::prelude::*;
///
/// let builder = Session::builder().topology(Topology::linear(2));
/// assert!(builder.build().is_ok());
/// ```
pub mod prelude {
    // `crate::Result` is deliberately not re-exported: examples and
    // binaries routinely return `Result<(), Box<dyn Error>>`, and a
    // glob-imported alias would shadow `std::result::Result`.
    pub use crate::{
        CoverageStats, Error, LibraryStats, ModelSet, PrecompileOptions, ProgramCompilation,
        PulseCache, ServeOptions, ServeReport, Session, SessionBuilder, SimilarityFn, VerifyReport,
    };
    pub use accqoc_circuit::{Circuit, Gate};
    pub use accqoc_grape::{GrapeOptions, LatencySearch};
    pub use accqoc_group::GroupingPolicy;
    pub use accqoc_hw::Topology;
    pub use accqoc_map::MappingOptions;
}
