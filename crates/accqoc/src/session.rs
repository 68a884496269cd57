//! The [`Session`] facade: one owner for the whole AccQOC pipeline.
//!
//! A session is built once ([`Session::builder`]), owns the device
//! configuration, the [`ModelSet`], the lazily compiled single-gate
//! duration table, and the [`PulseCache`], and exposes the paper's
//! pipeline (Figure 6) as explicit stages:
//!
//! ```text
//! decompose → map → group → lookup → compile → latency
//! ```
//!
//! Each stage returns a typed report so callers can observe exactly what
//! the compiler did; [`Session::compile_program`] runs all six in order
//! and folds the reports into one [`ProgramCompilation`].

use std::cell::RefCell;
use std::path::Path;
use std::sync::{Arc, Mutex};

use accqoc_circuit::{Circuit, CircuitDag, Gate, GateKind, UnitaryKey};
use accqoc_grape::{find_minimal_latency, LatencyResult, Pulse, Workspace as GrapeWorkspace};
use accqoc_group::{dedup_groups, divide_circuit, GroupedCircuit, GroupingPolicy};
use accqoc_hw::{GateDurations, Topology};
use accqoc_linalg::Mat;
use accqoc_map::{crosstalk_metric, map_circuit, MappingOptions};

use crate::cache::{CachedPulse, PulseCache};
use crate::compile::AccQocConfig;
use crate::error::{Error, Result};
use crate::exec::compile_each;
use crate::library::serve::serve_grouped;
use crate::library::{PulseLibrary, ServeOptions, ServeReport};
use crate::model::ModelSet;
use crate::parallel::{compile_batch, ParallelStats, DEFAULT_PLAN_PARTS};
use crate::persist::{PersistOptions, RecoveryReport};
use crate::precompile::{self, PrecompileOptions, PrecompileReport};
use crate::similarity::SimilarityFn;

/// Largest entry of `U†U − I` a caller-supplied target may show and
/// still count as unitary.
const UNITARY_TOLERANCE: f64 = 1e-8;

// ---------------------------------------------------------------------------
// Stage reports.
// ---------------------------------------------------------------------------

/// Report of the decomposition stage: the program lowered to the
/// hardware-native gate alphabet.
#[derive(Debug, Clone)]
pub struct DecomposeReport {
    /// The decomposed circuit.
    pub circuit: Circuit,
    /// Gates before decomposition.
    pub input_gates: usize,
    /// Gates after decomposition.
    pub output_gates: usize,
}

/// Report of the crosstalk-aware mapping stage.
#[derive(Debug, Clone)]
pub struct MapReport {
    /// The physically mapped circuit.
    pub circuit: Circuit,
    /// Swaps inserted to satisfy the coupling graph.
    pub swap_count: usize,
    /// Crosstalk metric of the mapped circuit (close CNOT pairs/layer).
    pub crosstalk: usize,
    /// Logical→physical layout before the first gate.
    pub initial_layout: Vec<usize>,
    /// Layout after the last gate.
    pub final_layout: Vec<usize>,
}

/// One unique gate group, canonicalized for compilation and caching.
#[derive(Debug, Clone)]
pub struct GroupTarget {
    /// Canonical cache key (phase- and permutation-invariant).
    pub key: UnitaryKey,
    /// Canonical unitary GRAPE compiles toward.
    pub unitary: Mat,
    /// Number of qubits the group spans.
    pub n_qubits: usize,
}

/// Report of the grouping + de-duplication stage.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Groups and the group DAG.
    pub grouped: GroupedCircuit,
    /// The processed physical circuit the groups cover.
    pub processed: Circuit,
    /// Unique groups after de-duplication.
    pub targets: Vec<GroupTarget>,
    /// `assignment[i]` = index into `targets` of group instance `i`.
    pub assignment: Vec<usize>,
    /// Swaps inserted by mapping (carried through for the final report).
    pub swap_count: usize,
    /// Crosstalk metric of the mapped circuit (carried through).
    pub crosstalk: usize,
}

impl GroupReport {
    /// Number of group instances.
    pub fn n_instances(&self) -> usize {
        self.assignment.len()
    }

    /// Number of unique groups.
    pub fn n_unique(&self) -> usize {
        self.targets.len()
    }

    /// The program's overall latency (the Algorithm 3 dynamic program
    /// over the group DAG) from each unique group's latency, in target
    /// order.
    pub(crate) fn overall_latency(&self, per_unique: &[f64]) -> f64 {
        self.grouped
            .overall_latency(|i| per_unique[self.assignment[i]])
    }

    /// Each unique group's latency, in target order, or
    /// [`Error::UncoveredGroup`] for the first one `latency_of` lacks.
    fn latencies(
        &self,
        mut latency_of: impl FnMut(&UnitaryKey) -> Option<f64>,
    ) -> Result<Vec<f64>> {
        self.targets
            .iter()
            .map(|t| {
                latency_of(&t.key).ok_or(Error::UncoveredGroup {
                    n_qubits: t.n_qubits,
                })
            })
            .collect()
    }
}

/// Report of the cache-lookup stage (paper §V-A coverage).
#[derive(Debug, Clone)]
pub struct LookupReport {
    /// Instance coverage against the session cache.
    pub coverage: CoverageStats,
    /// Unique groups the cache does not cover, in target order.
    pub uncovered: Vec<GroupTarget>,
}

/// Result of compiling one unique group.
#[derive(Debug, Clone)]
pub struct GroupCompilation {
    /// Canonical group identity.
    pub key: UnitaryKey,
    /// Minimal pulse latency (ns).
    pub latency_ns: f64,
    /// GRAPE iterations spent (0 for cache hits).
    pub iterations: usize,
    /// Whether the pulse came from the cache.
    pub covered: bool,
}

/// Report of the MST-ordered dynamic compilation stage.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Per-group compilation results, in MST order.
    pub compiled: Vec<GroupCompilation>,
    /// GRAPE iterations spent across all groups (the paper's compile-cost
    /// metric).
    pub dynamic_iterations: usize,
    /// Groups that started from scratch (identity MST parents).
    pub scratch_starts: usize,
    /// Total similarity weight of the MST that ordered the compilation.
    pub mst_weight: f64,
}

/// Report of the Algorithm 3 latency stage.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Overall pulse latency of the program (Algorithm 3 DP), ns.
    pub overall_latency_ns: f64,
    /// Gate-based compilation latency of the same circuit, ns.
    pub gate_based_latency_ns: f64,
    /// Latency of each group instance, ns.
    pub per_instance_ns: Vec<f64>,
}

impl LatencyReport {
    /// Latency reduction factor vs gate-based compilation.
    pub fn latency_reduction(&self) -> f64 {
        if self.overall_latency_ns == 0.0 {
            1.0
        } else {
            self.gate_based_latency_ns / self.overall_latency_ns
        }
    }
}

/// Coverage statistics (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStats {
    /// Group *instances* covered by the cache.
    pub covered: usize,
    /// Total group instances in the program.
    pub total: usize,
}

impl CoverageStats {
    /// `# covered / # groups` (1.0 for empty programs).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.covered as f64 / self.total as f64
        }
    }
}

/// Full result of compiling a program through AccQOC: the folded view of
/// every stage report.
#[derive(Debug, Clone)]
pub struct ProgramCompilation {
    /// Overall pulse latency of the program (Algorithm 3), ns.
    pub overall_latency_ns: f64,
    /// Gate-based compilation latency of the same mapped circuit, ns.
    pub gate_based_latency_ns: f64,
    /// Coverage of the pulse cache (before this program's compilation).
    pub coverage: CoverageStats,
    /// GRAPE iterations spent on uncovered groups (dynamic compile cost).
    pub dynamic_iterations: usize,
    /// Unique uncovered groups compiled.
    pub n_uncovered_unique: usize,
    /// Groups after division and the processed physical circuit.
    pub grouped: GroupedCircuit,
    /// Crosstalk metric of the mapped circuit.
    pub crosstalk: usize,
    /// Swaps inserted by mapping.
    pub swap_count: usize,
}

impl ProgramCompilation {
    /// Latency reduction factor vs gate-based compilation.
    pub fn latency_reduction(&self) -> f64 {
        if self.overall_latency_ns == 0.0 {
            1.0
        } else {
            self.gate_based_latency_ns / self.overall_latency_ns
        }
    }
}

// ---------------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------------

/// Builder for [`Session`]. Only the topology is required; everything
/// else defaults to the paper's headline setup (map2b4l grouping,
/// crosstalk-aware mapping, L-BFGS GRAPE at the 1e-4 target, `fidelity1`
/// similarity with the 0.15 warm-start gate).
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    topology: Option<Topology>,
    policy: Option<GroupingPolicy>,
    mapping: Option<MappingOptions>,
    grape: Option<accqoc_grape::GrapeOptions>,
    search: Option<accqoc_grape::LatencySearch>,
    similarity: Option<SimilarityFn>,
    warm_threshold: Option<f64>,
    models: Option<ModelSet>,
    library_capacity: Option<usize>,
    persistence: Option<PersistOptions>,
}

impl SessionBuilder {
    /// Sets the device coupling topology (required).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the grouping policy (default: `map2b4l`).
    pub fn policy(mut self, policy: GroupingPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the mapping options (default: crosstalk-aware).
    pub fn mapping(mut self, mapping: MappingOptions) -> Self {
        self.mapping = Some(mapping);
        self
    }

    /// Sets the GRAPE solver options.
    pub fn grape(mut self, grape: accqoc_grape::GrapeOptions) -> Self {
        self.grape = Some(grape);
        self
    }

    /// Sets the latency-search bounds.
    pub fn search(mut self, search: accqoc_grape::LatencySearch) -> Self {
        self.search = Some(search);
        self
    }

    /// Sets the similarity function ordering the MST (default:
    /// `fidelity1`, the trace-overlap distance).
    pub fn similarity(mut self, similarity: SimilarityFn) -> Self {
        self.similarity = Some(similarity);
        self
    }

    /// Sets the warm-start gate threshold (default: 0.15).
    pub fn warm_threshold(mut self, threshold: f64) -> Self {
        self.warm_threshold = Some(threshold);
        self
    }

    /// Sets a custom model set (default: spin-chain models up to the
    /// grouping policy's width).
    pub fn models(mut self, models: ModelSet) -> Self {
        self.models = Some(models);
        self
    }

    /// Bounds the pulse library to at most `capacity` entries, evicted
    /// least-recently-used (default: unbounded — what batch
    /// pre-compilation expects; a bound is meant for the online
    /// [`Session::serve_program`] path).
    ///
    /// The batch [`Session::compile_program`] pipeline re-reads compiled
    /// pulses from the library in its latency stage, so it rejects a
    /// program whose unique-group count exceeds the capacity with
    /// [`Error::CapacityExceeded`] up front (instead of evicting its own
    /// pulses mid-pipeline); [`Session::serve_program`] folds latencies
    /// as it compiles and keeps working at any capacity, including 0.
    pub fn library_capacity(mut self, capacity: usize) -> Self {
        self.library_capacity = Some(capacity);
        self
    }

    /// Makes the pulse library durable under `dir` with default options
    /// (see [`PersistOptions::new`]): on build, any snapshot + write-ahead
    /// log found there is recovered into the library — byte-identical to
    /// the pre-crash state, fingerprint-indexed so recovered entries
    /// warm-start — and every subsequent mutation is logged.
    pub fn persistence(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.persistence_with(PersistOptions::new(dir))
    }

    /// [`SessionBuilder::persistence`] with explicit [`PersistOptions`]
    /// (compaction cadence etc.).
    pub fn persistence_with(mut self, options: PersistOptions) -> Self {
        self.persistence = Some(options);
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// [`Error::Builder`] when the topology was never set;
    /// [`Error::InvalidConfig`] when the warm threshold is not finite and
    /// non-negative, or the (defaulted) model arity is unsupported.
    pub fn build(self) -> Result<Session> {
        let topology = self.topology.ok_or(Error::Builder { field: "topology" })?;
        // Single source of truth for the paper defaults: start from the
        // stock config and overlay only what the caller set explicitly.
        let mut config = AccQocConfig::for_topology(topology);
        if let Some(policy) = self.policy {
            config.policy = policy;
        }
        if let Some(mapping) = self.mapping {
            config.mapping = mapping;
        }
        if let Some(grape) = self.grape {
            config.grape = grape;
        }
        if let Some(search) = self.search {
            config.search = search;
        }
        if let Some(similarity) = self.similarity {
            config.similarity = similarity;
        }
        if let Some(warm_threshold) = self.warm_threshold {
            if warm_threshold.is_nan() || warm_threshold < 0.0 {
                return Err(Error::InvalidConfig {
                    message: format!("warm threshold must be non-negative, got {warm_threshold}"),
                });
            }
            config.warm_threshold = warm_threshold;
        }
        let models = match self.models {
            Some(m) => m,
            None => ModelSet::spin(config.policy.max_qubits)?,
        };
        let mut library = PulseLibrary::with_capacity(self.library_capacity);
        let mut recovery = None;
        if let Some(options) = self.persistence {
            // Seed before attaching the journal so recovered state is
            // not logged a second time. Recovery hands the entries back
            // in sorted-key order, which keeps the post-restart LRU
            // order deterministic (recency stamps are ephemeral and
            // intentionally not persisted).
            let (journal, recovered) = crate::persist::open(&options)?;
            for (key, entry, unitary) in recovered.entries {
                library.insert(key, entry, unitary.as_ref());
            }
            library.attach_journal(journal);
            recovery = Some(recovered.report);
        }
        Ok(Session {
            config,
            models,
            durations: Arc::new(Mutex::new(None)),
            library,
            recovery,
        })
    }
}

// ---------------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------------

/// The AccQOC compiler session: owns configuration, device models, the
/// single-gate duration table, and the pulse library.
///
/// Pulse storage is the fingerprint-indexed [`PulseLibrary`], so every
/// method takes `&self` and the session can be shared across threads
/// (`Session` is `Sync`). GRAPE solver scratch is not part of a session:
/// compiles lease it from a pool owned by the calling thread, which every
/// session and fork on that thread shares, so keeping many sessions
/// alive does not keep many sets of solver buffers alive.
#[derive(Debug)]
pub struct Session {
    config: AccQocConfig,
    models: ModelSet,
    /// Shared across forks: the table only depends on config + models.
    durations: Arc<Mutex<Option<GateDurations>>>,
    library: PulseLibrary,
    /// What build-time recovery found (`None` without persistence).
    recovery: Option<RecoveryReport>,
}

thread_local! {
    /// Idle GRAPE workspaces of this thread. Serve and compile paths
    /// lease one per request (see [`lease_workspace`]) instead of
    /// allocating fresh solver scratch, so a long-lived thread reaches an
    /// allocation-free steady state once the pooled buffers have grown to
    /// the workload's dimensions. The pool belongs to the thread, not to
    /// a session: every session and fork served on one thread shares it,
    /// so solver scratch does not multiply with the number of sessions
    /// kept alive, and it never holds more than the thread's peak number
    /// of concurrent leases. It is freed when the thread exits.
    static WORKSPACE_POOL: RefCell<Vec<GrapeWorkspace>> = const { RefCell::new(Vec::new()) };
}

/// RAII lease on a pooled [`GrapeWorkspace`]: pops a warmed workspace
/// from the current thread's pool (or creates an empty one when the pool
/// is dry) and returns it on drop, buffers intact, to the pool of the
/// thread that drops it.
pub(crate) struct WorkspaceLease {
    ws: Option<GrapeWorkspace>,
}

impl std::ops::Deref for WorkspaceLease {
    type Target = GrapeWorkspace;
    fn deref(&self) -> &GrapeWorkspace {
        self.ws
            .as_ref()
            .expect("lease holds a workspace until drop")
    }
}

impl std::ops::DerefMut for WorkspaceLease {
    fn deref_mut(&mut self) -> &mut GrapeWorkspace {
        self.ws
            .as_mut()
            .expect("lease holds a workspace until drop")
    }
}

impl Drop for WorkspaceLease {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            // During thread teardown the pool may already be gone; that
            // only loses the recycle, never correctness.
            let _ = WORKSPACE_POOL.try_with(|pool| pool.borrow_mut().push(ws));
        }
    }
}

/// Leases a GRAPE workspace from the calling thread's pool (creating an
/// empty one only when the pool is dry). The workspace returns to the
/// pool of the thread that drops the lease, grown buffers intact.
pub(crate) fn lease_workspace() -> WorkspaceLease {
    let ws = WORKSPACE_POOL
        .try_with(|pool| pool.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    WorkspaceLease { ws: Some(ws) }
}

/// Number of idle workspaces parked in the current thread's pool.
#[cfg(test)]
pub(crate) fn pooled_workspaces() -> usize {
    WORKSPACE_POOL.with(|pool| pool.borrow().len())
}

impl Session {
    /// Starts building a session.
    ///
    /// # Examples
    ///
    /// ```
    /// use accqoc::Session;
    /// use accqoc_hw::Topology;
    ///
    /// let session = Session::builder()
    ///     .topology(Topology::linear(3)) // required; everything else defaults
    ///     .warm_threshold(0.15)
    ///     .build()?;
    /// assert_eq!(session.cache_len(), 0);
    /// assert_eq!(session.config().warm_threshold, 0.15);
    /// # Ok::<(), accqoc::Error>(())
    /// ```
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session with independent state but the same configuration and a
    /// snapshot of the current library (entries and fingerprint index;
    /// serving counters start fresh). Forks share the (lazily compiled)
    /// single-gate duration table. A fork does **not** inherit
    /// persistence — two writers on one write-ahead log would
    /// interleave inconsistently, so only the original session logs.
    pub fn fork(&self) -> Self {
        Self {
            config: self.config.clone(),
            models: self.models.clone(),
            durations: Arc::clone(&self.durations),
            library: self.library.clone(),
            recovery: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AccQocConfig {
        &self.config
    }

    /// The model set.
    pub fn models(&self) -> &ModelSet {
        &self.models
    }

    // -- cache management ---------------------------------------------------

    /// The pulse library: fingerprint-indexed, capacity-bounded storage
    /// shared by the batch and serving paths.
    pub fn library(&self) -> &PulseLibrary {
        &self.library
    }

    /// Number of cached unique groups.
    pub fn cache_len(&self) -> usize {
        self.library.len()
    }

    /// A copy of the current pulse cache (its JSON artifact is
    /// byte-deterministic, however many threads filled it).
    pub fn cache_snapshot(&self) -> PulseCache {
        self.library.snapshot()
    }

    /// `true` when the cache covers `key`.
    pub fn cache_contains(&self, key: &UnitaryKey) -> bool {
        self.library.contains(key)
    }

    /// A copy of one cache entry, if covered.
    pub fn cached(&self, key: &UnitaryKey) -> Option<CachedPulse> {
        self.library.get(key)
    }

    /// Persists the library as JSON, written atomically (temp + rename):
    /// entries sorted by key, each carrying its canonical unitary when
    /// the fingerprint index holds one. This is also the durable
    /// snapshot's format. The artifact is byte-deterministic for a given
    /// library state, loads in full via [`Session::load_cache`] (which
    /// re-indexes the embedded unitaries), and stays readable by the
    /// plain [`PulseCache::from_json`] (which drops them).
    ///
    /// # Errors
    ///
    /// [`Error::Store`] on filesystem failures.
    pub fn save_cache(&self, path: impl AsRef<Path>) -> Result<()> {
        accqoc_store::write_atomic(path.as_ref(), self.library.artifact().as_bytes())?;
        Ok(())
    }

    /// Merges a JSON cache file into the session library; returns how
    /// many unique groups the file held. Entries carrying a canonical
    /// unitary (every [`Session::save_cache`] artifact embeds them) are
    /// inserted fingerprint-indexed, so a freshly loaded library
    /// warm-starts near-misses instead of only serving exact hits.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] / [`Error::Json`] on unreadable or malformed files
    /// (the library is left untouched).
    pub fn load_cache(&self, path: impl AsRef<Path>) -> Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let entries = crate::persist::parse_library_json(&text)?;
        let n = entries.len();
        for (key, (entry, unitary)) in entries {
            self.library.insert(key, entry, unitary.as_ref());
        }
        Ok(n)
    }

    /// What build-time recovery found when the session was built with
    /// [`SessionBuilder::persistence`]; `None` for non-durable sessions
    /// (including forks, which never inherit persistence).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Forces a durability snapshot: writes the snapshot under the
    /// persistence directory and truncates the write-ahead log. A no-op
    /// `Ok(())` for non-durable sessions. The serving daemon calls this
    /// on clean shutdown; long-lived embedders can call it at natural
    /// barriers.
    ///
    /// # Errors
    ///
    /// [`Error::Store`] when a snapshot write or the log truncation
    /// fails (the previous snapshot and WAL stay recoverable). This is
    /// also where background journal append failures resurface.
    pub fn checkpoint(&self) -> Result<()> {
        self.library.checkpoint()
    }

    // -- pipeline stages ----------------------------------------------------

    /// Stage 1: decomposes a logical program into the hardware-native
    /// gate alphabet (`ccx` is never native; swaps survive until grouping
    /// decides their fate per policy).
    pub fn decompose(&self, circuit: &Circuit) -> DecomposeReport {
        let decomposed = circuit.decomposed(false);
        DecomposeReport {
            input_gates: circuit.len(),
            output_gates: decomposed.len(),
            circuit: decomposed,
        }
    }

    /// Stage 2: crosstalk-aware mapping onto the device topology (§IV-A).
    pub fn map(&self, decomposed: &DecomposeReport) -> MapReport {
        let mapped = map_circuit(
            &decomposed.circuit,
            &self.config.topology,
            &self.config.mapping,
        );
        let crosstalk = crosstalk_metric(&mapped.circuit, &self.config.topology);
        MapReport {
            crosstalk,
            swap_count: mapped.swap_count,
            initial_layout: mapped.initial_layout,
            final_layout: mapped.final_layout,
            circuit: mapped.circuit,
        }
    }

    /// Stage 3: divides the mapped circuit into gate groups under the
    /// session policy and de-duplicates them up to phase and qubit
    /// permutation (§IV-B/C).
    pub fn group(&self, mapped: &MapReport) -> GroupReport {
        let (grouped, processed) = divide_circuit(&mapped.circuit, &self.config.policy);
        let dedup = dedup_groups(&grouped.groups);
        let targets = dedup
            .unique
            .iter()
            .zip(&dedup.keys)
            .map(|(g, key)| {
                let u = g.unitary();
                let (_, perm) = UnitaryKey::canonical_with_permutation(&u, g.n_qubits());
                GroupTarget {
                    key: key.clone(),
                    unitary: accqoc_circuit::permute_qubits(&u, &perm, g.n_qubits()),
                    n_qubits: g.n_qubits(),
                }
            })
            .collect();
        GroupReport {
            grouped,
            processed,
            targets,
            assignment: dedup.assignment,
            swap_count: mapped.swap_count,
            crosstalk: mapped.crosstalk,
        }
    }

    /// Stage 4: checks every group instance against the pulse cache
    /// (paper Figure 7 measures exactly this coverage).
    pub fn lookup(&self, grouped: &GroupReport) -> LookupReport {
        let covered_unique: Vec<bool> = grouped
            .targets
            .iter()
            .map(|t| self.library.contains(&t.key))
            .collect();
        let uncovered: Vec<GroupTarget> = grouped
            .targets
            .iter()
            .zip(&covered_unique)
            .filter(|(_, &c)| !c)
            .map(|(t, _)| t.clone())
            .collect();
        let covered = grouped
            .assignment
            .iter()
            .filter(|&&u| covered_unique[u])
            .count();
        LookupReport {
            coverage: CoverageStats {
                covered,
                total: grouped.assignment.len(),
            },
            uncovered,
        }
    }

    /// Stage 5: compiles the uncovered groups in similarity-MST order
    /// with warm starts (§V-C) on the batch engine, then adds every pulse
    /// to the session cache in compile order. The plan is one part, so
    /// every group is seeded by its exact MST parent; groups whose
    /// parents are compiled run side by side on this thread plus every
    /// spare core, and the pulses are those of the sequential chain.
    ///
    /// # Errors
    ///
    /// [`Error::CompileFailed`] when a group has no feasible pulse within
    /// the latency cap; [`Error::GroupTooWide`] / [`Error::EmptyGroup`]
    /// for groups outside the model set. A failure leaves the cache
    /// untouched: no group of the batch is inserted, including the ones
    /// compiled before the failing one.
    pub fn compile(&self, lookup: &LookupReport) -> Result<CompileReport> {
        let batch = compile_batch(self, &lookup.uncovered, 1, usize::MAX)?;
        let mut compiled = Vec::with_capacity(batch.entries.len());
        for (i, entry) in batch.entries {
            let target = &lookup.uncovered[i];
            compiled.push(GroupCompilation {
                key: target.key.clone(),
                latency_ns: entry.latency_ns,
                iterations: entry.iterations,
                covered: false,
            });
            self.library
                .insert(target.key.clone(), entry, Some(&target.unitary));
        }
        Ok(CompileReport {
            compiled,
            dynamic_iterations: batch.stats.total_iterations,
            scratch_starts: batch.order.scratch_starts(),
            mst_weight: batch.order.total_weight(),
        })
    }

    /// Stage 6: the Algorithm 3 latency dynamic program over the group
    /// DAG, plus the gate-based baseline on the same circuit.
    ///
    /// # Errors
    ///
    /// [`Error::UncoveredGroup`] when a group has no cached pulse (run
    /// [`Session::compile`] first).
    pub fn latency(&self, grouped: &GroupReport) -> Result<LatencyReport> {
        let per_unique = grouped.latencies(|key| self.library.get(key).map(|e| e.latency_ns))?;
        let per_instance_ns = grouped.assignment.iter().map(|&u| per_unique[u]).collect();
        let overall_latency_ns = grouped.overall_latency(&per_unique);
        let gate_based_latency_ns = self.gate_based_latency(&grouped.processed);
        Ok(LatencyReport {
            overall_latency_ns,
            gate_based_latency_ns,
            per_instance_ns,
        })
    }

    /// Runs the whole pipeline on one program: decompose → map → group →
    /// lookup → MST-accelerated compile → Algorithm 3 latency. Compiled
    /// pulses stay in the session cache, so recompiling the same (or a
    /// similar) program is cheaper.
    ///
    /// # Errors
    ///
    /// [`Error::ProgramTooWide`] when the program declares more qubits
    /// than the device has. Propagates group-compilation failures. On a
    /// capacity-bounded library, returns [`Error::CapacityExceeded`] when
    /// the program has more unique groups than the library can hold at
    /// once (the latency stage would find its own pulses already evicted)
    /// — use [`Session::serve_program`] for bounded libraries.
    ///
    /// # Examples
    ///
    /// ```
    /// use accqoc::Session;
    /// use accqoc_circuit::{Circuit, Gate};
    /// use accqoc_hw::Topology;
    ///
    /// let mut grape = accqoc_grape::GrapeOptions::default();
    /// grape.stop.max_iters = 200;
    /// let session = Session::builder()
    ///     .topology(Topology::linear(2))
    ///     .grape(grape)
    ///     .build()?;
    /// let program = Circuit::from_gates(2, [Gate::H(0)]);
    /// let out = session.compile_program(&program)?;
    /// assert!(out.overall_latency_ns > 0.0);
    /// // Recompiling is fully covered by the session cache.
    /// let again = session.compile_program(&program)?;
    /// assert_eq!(again.dynamic_iterations, 0);
    /// # Ok::<(), accqoc::Error>(())
    /// ```
    pub fn compile_program(&self, circuit: &Circuit) -> Result<ProgramCompilation> {
        self.check_width(circuit)?;
        let decomposed = self.decompose(circuit);
        let mapped = self.map(&decomposed);
        let grouped = self.group(&mapped);
        if let Some(capacity) = self.library.capacity() {
            if capacity < grouped.targets.len() {
                return Err(Error::CapacityExceeded {
                    capacity,
                    required: grouped.targets.len(),
                });
            }
            // Refresh the covered groups first, so the compile stage's
            // inserts evict other programs' entries, never this one's.
            for target in &grouped.targets {
                self.library.touch(&target.key);
            }
        }
        let lookup = self.lookup(&grouped);
        let compiled = self.compile(&lookup)?;
        let latency = self.latency(&grouped)?;
        Ok(ProgramCompilation {
            overall_latency_ns: latency.overall_latency_ns,
            gate_based_latency_ns: latency.gate_based_latency_ns,
            coverage: lookup.coverage,
            dynamic_iterations: compiled.dynamic_iterations,
            n_uncovered_unique: lookup.uncovered.len(),
            grouped: grouped.grouped,
            crosstalk: grouped.crosstalk,
            swap_count: grouped.swap_count,
        })
    }

    /// Checks that `circuit` fits the device: [`Session::front_end`]
    /// maps each logical qubit onto a physical one, so a program may
    /// declare at most as many qubits as the topology has.
    ///
    /// # Errors
    ///
    /// [`Error::ProgramTooWide`] when it declares more.
    pub fn check_width(&self, circuit: &Circuit) -> Result<()> {
        let device = self.config.topology.n_qubits();
        if circuit.n_qubits() > device {
            return Err(Error::ProgramTooWide {
                n_qubits: circuit.n_qubits(),
                device,
            });
        }
        Ok(())
    }

    // -- lower-level entry points -------------------------------------------

    /// Front-end only: decompose, map, and group a program.
    ///
    /// # Panics
    ///
    /// Panics when the program declares more qubits than the device has
    /// (the mapper needs a physical qubit per logical one); run
    /// [`Session::check_width`] first on untrusted programs.
    pub fn front_end(&self, circuit: &Circuit) -> GroupReport {
        let decomposed = self.decompose(circuit);
        let mapped = self.map(&decomposed);
        self.group(&mapped)
    }

    /// Compiles one canonical unitary to a pulse (binary-searched minimal
    /// latency), optionally warm-started. Does **not** touch the cache.
    /// Solver scratch is leased from the calling thread's pool, so
    /// repeated compilations on one thread reuse its buffers.
    ///
    /// # Errors
    ///
    /// [`Error::GroupTooWide`] / [`Error::EmptyGroup`] for groups outside
    /// the model set; [`Error::InvalidTarget`] when `target` has a
    /// non-finite entry, is not `2^n × 2^n`, or is not unitary within
    /// 1e-8 per entry of `U†U − I`; [`Error::CompileFailed`] when no
    /// feasible pulse exists within the latency cap.
    pub fn compile_unitary(
        &self,
        target: &Mat,
        n_qubits: usize,
        warm: Option<&Pulse>,
    ) -> Result<LatencyResult> {
        self.models.for_qubits(n_qubits)?;
        let dim = 1usize << n_qubits;
        let message = if !target.is_finite() {
            Some("has a non-finite entry".to_string())
        } else if target.rows() != dim || target.cols() != dim {
            Some(format!(
                "is {}x{}, expected {dim}x{dim}",
                target.rows(),
                target.cols()
            ))
        } else if !target.is_unitary(UNITARY_TOLERANCE) {
            Some(format!("is not unitary within {UNITARY_TOLERANCE:e}"))
        } else {
            None
        };
        if let Some(message) = message {
            return Err(Error::InvalidTarget { n_qubits, message });
        }
        // Anchor 0.0 = the plain batch search (no seed-anchored floor).
        self.compile_anchored(target, n_qubits, warm, 0.0, &mut lease_workspace())
    }

    /// The compile behind every batch and serving path, on targets the
    /// front end produced (so unchecked): [`Session::compile_unitary`]
    /// plus a seed-anchored search window — a warm seed raises the
    /// search floor to `seed_steps × anchor`, pruning the deep-infeasible
    /// probes a cold search must pay for (the serving path anchors at
    /// [`SEARCH_ANCHOR`](crate::library::serve::SEARCH_ANCHOR)). Anchor
    /// `0.0` (or a scratch compile) is exactly the batch search.
    pub(crate) fn compile_anchored(
        &self,
        target: &Mat,
        n_qubits: usize,
        warm: Option<&Pulse>,
        anchor: f64,
        ws: &mut GrapeWorkspace,
    ) -> Result<LatencyResult> {
        let model = self.models.for_qubits(n_qubits)?;
        let mut search = self.config.search.clone();
        search.min_steps = search
            .min_steps
            .max((model.min_time_estimate_ns() / model.dt_ns()) as usize / 2)
            .max(1);
        if let Some(p) = warm.filter(|p| anchor > 0.0 && p.n_steps() > 0) {
            let floor = ((p.n_steps() as f64) * anchor).floor() as usize;
            search.min_steps = search
                .min_steps
                .max(floor.min(p.n_steps()))
                .min(search.max_steps);
        }
        find_minimal_latency(model, target, warm, &self.config.grape, &search, ws)
            .map_err(|source| Error::CompileFailed { n_qubits, source })
    }

    /// Static pre-compilation (§IV): profiles `programs`, compiles the
    /// groups of their de-duplicated category that the library does not
    /// yet hold on the batch engine, inserts the pulses into the session
    /// library, and reports the category statistics with the engine's
    /// per-lane timings.
    ///
    /// [`PrecompileOptions::threads`] picks the engine shape:
    ///
    /// - `None` runs one plan part, on this thread plus every spare core:
    ///   the pulses of the exact sequential MST warm-start chain.
    /// - `Some(n)` compiles on at most `n` lanes (this thread plus one
    ///   thread per spare core) over a balanced MST partition (§V-D) of
    ///   fixed width [`DEFAULT_PLAN_PARTS`], each lane with its own GRAPE
    ///   workspace. The plan does not depend on `n`, so the session
    ///   cache — and any artifact saved from it — is byte-identical
    ///   whether this runs on 1 thread or 16. Relative to `None`, the
    ///   plan's cut MST edges degrade a handful of warm starts to scratch
    ///   starts, so the two artifacts differ in exactly those groups.
    ///
    /// [`PrecompileOptions::only_qubits`] restricts the run to the unique
    /// groups of those widths — what one shard of a sharded deployment
    /// precompiles. The report then counts owned groups only, so shard
    /// reports over a width partition sum to the whole-category numbers.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `threads` is `Some(0)`;
    /// [`Error::ProgramTooWide`] when a program declares more qubits than
    /// the device has; otherwise propagates group-compilation failures,
    /// leaving the cache untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use accqoc::{PrecompileOptions, Session};
    /// use accqoc_circuit::{Circuit, Gate};
    /// use accqoc_hw::Topology;
    ///
    /// let mut grape = accqoc_grape::GrapeOptions::default();
    /// grape.stop.max_iters = 200;
    /// let session = Session::builder()
    ///     .topology(Topology::linear(2))
    ///     .grape(grape)
    ///     .build()?;
    /// let programs = vec![Circuit::from_gates(2, [Gate::H(0)])];
    /// let options = PrecompileOptions {
    ///     threads: Some(2),
    ///     ..PrecompileOptions::default()
    /// };
    /// let (report, stats) = session.precompile(&programs, &options)?;
    /// assert_eq!(report.n_unique_groups, session.cache_len());
    /// assert!(stats.total_iterations >= stats.makespan_iterations);
    /// # Ok::<(), accqoc::Error>(())
    /// ```
    pub fn precompile(
        &self,
        programs: &[Circuit],
        options: &PrecompileOptions<'_>,
    ) -> Result<(PrecompileReport, ParallelStats)> {
        for program in programs {
            self.check_width(program)?;
        }
        let (plan_width, threads) = match options.threads {
            None => (1, usize::MAX),
            Some(threads) => (DEFAULT_PLAN_PARTS, threads),
        };
        precompile::precompile(self, programs, options.only_qubits, plan_width, threads)
    }

    // -- online serving -----------------------------------------------------

    /// Serves one arriving program against the live pulse library: cache
    /// hits are free, misses warm-start GRAPE from the nearest
    /// fingerprint neighbor that passes the warm-start gate (scratch
    /// otherwise — an empty library is a valid, slow library, never an
    /// error), and every compiled pulse is inserted back under the
    /// capacity bound. Hit/miss/warm/scratch counters accumulate in
    /// [`PulseLibrary::stats`].
    ///
    /// This is the online counterpart of [`Session::compile_program`]:
    /// where the batch path plans a similarity MST over all uncovered
    /// groups at once, the serving path resolves each group against
    /// whatever the library holds *right now* — so it keeps improving as
    /// traffic flows, without ever rebuilding an O(n²) graph.
    ///
    /// # Errors
    ///
    /// [`Error::ProgramTooWide`] when the program declares more qubits
    /// than the device has; otherwise propagates group-compilation
    /// failures.
    ///
    /// # Examples
    ///
    /// ```
    /// use accqoc::Session;
    /// use accqoc_circuit::{Circuit, Gate};
    /// use accqoc_hw::Topology;
    ///
    /// let mut grape = accqoc_grape::GrapeOptions::default();
    /// grape.stop.max_iters = 200;
    /// let session = Session::builder()
    ///     .topology(Topology::linear(2))
    ///     .grape(grape)
    ///     .build()?;
    /// // Serving against an empty library falls back to scratch compiles.
    /// let first = session.serve_program(&Circuit::from_gates(2, [Gate::H(0)]))?;
    /// assert!(first.n_compiled > 0);
    /// // The same program again is a pure cache hit.
    /// let again = session.serve_program(&Circuit::from_gates(2, [Gate::H(0)]))?;
    /// assert_eq!(again.n_compiled, 0);
    /// assert!(session.library().stats().hits > 0);
    /// # Ok::<(), accqoc::Error>(())
    /// ```
    pub fn serve_program(&self, circuit: &Circuit) -> Result<ServeReport> {
        self.check_width(circuit)?;
        self.serve_grouped(&self.front_end(circuit), &ServeOptions::default())
    }

    /// [`Session::serve_program`] for callers that already ran
    /// [`Session::front_end`] — e.g. the serving daemon, which needs the
    /// program's group keys *before* serving to claim them for in-flight
    /// coalescing, and should not pay decompose/map/group twice per
    /// request — with explicit [`ServeOptions`].
    ///
    /// [`ServeOptions::only_qubits`] restricts the serve to the unique
    /// groups of those widths — what one shard of a sharded deployment
    /// serves. Because warm starts are strictly width-local (the
    /// fingerprint index never crosses a width boundary), the per-width
    /// serving state — hit/miss sequence, warm-start picks, hub rounds,
    /// compiled bytes — is identical to what a single process serving
    /// the whole program would produce, and summing the subset reports
    /// of a disjoint width partition reconstructs the unsharded counters
    /// exactly. Subset reports carry `overall_latency_ns` and
    /// `gate_based_latency_ns` of `0.0` (those are program-level numbers
    /// no single shard can see; the router folds the true overall
    /// latency from the merged per-group latencies), and their
    /// `coverage.total` counts only the owned instances, so coverage also
    /// sums exactly.
    ///
    /// # Errors
    ///
    /// Propagates group-compilation failures.
    pub fn serve_grouped(
        &self,
        grouped: &GroupReport,
        options: &ServeOptions,
    ) -> Result<ServeReport> {
        serve_grouped(self, grouped, options)
    }

    /// Folds the program-level overall latency (Algorithm 3 DP) from
    /// per-unique-group latencies supplied by the caller — the router's
    /// merge path: each shard reports latencies for the groups it owns,
    /// and the front end folds the merged map into the same number a
    /// single-process serve reports.
    ///
    /// # Errors
    ///
    /// [`Error::UncoveredGroup`] when `latency_of` has no latency for
    /// one of the program's unique groups.
    pub fn overall_latency_from<F>(&self, grouped: &GroupReport, latency_of: F) -> Result<f64>
    where
        F: FnMut(&UnitaryKey) -> Option<f64>,
    {
        Ok(grouped.overall_latency(&grouped.latencies(latency_of)?))
    }

    // -- verification -------------------------------------------------------

    /// Verifies that the session cache semantically implements `circuit`:
    /// every unique group's cached pulse is propagated through its
    /// control-model Hamiltonians and scored against the canonical group
    /// unitary with the global-phase-invariant gate fidelity, and — on
    /// registers narrow enough for dense evaluation — the per-instance
    /// unitaries are composed per the grouped schedule and checked
    /// against the whole-program reference unitary.
    ///
    /// The pass thresholds are fixed: every group fidelity at least
    /// 0.999 and, on registers of up to 8 qubits, a program fidelity of
    /// at least 0.98 and a `|0…0⟩` state overlap of at least 0.95.
    ///
    /// # Errors
    ///
    /// [`Error::ProgramTooWide`] when the program declares more qubits
    /// than the device has; [`Error::UncoveredGroup`] when a group has no
    /// cached pulse (compile the program first); [`Error::InvalidConfig`]
    /// when a cached pulse does not fit its control model;
    /// [`Error::Linalg`] when a cached pulse does not propagate (a
    /// non-finite amplitude).
    ///
    /// # Examples
    ///
    /// ```
    /// use accqoc::Session;
    /// use accqoc_circuit::{Circuit, Gate};
    /// use accqoc_hw::Topology;
    ///
    /// let mut grape = accqoc_grape::GrapeOptions::default();
    /// grape.stop.max_iters = 200;
    /// let session = Session::builder()
    ///     .topology(Topology::linear(2))
    ///     .grape(grape)
    ///     .build()?;
    /// let program = Circuit::from_gates(2, [Gate::H(0)]);
    /// session.compile_program(&program)?;
    /// let report = session.verify_program(&program)?;
    /// assert!(report.passed);
    /// assert!(report.min_group_fidelity >= 0.999);
    /// # Ok::<(), accqoc::Error>(())
    /// ```
    pub fn verify_program(&self, circuit: &Circuit) -> Result<crate::VerifyReport> {
        self.check_width(circuit)?;
        crate::verify::verify_program(self, circuit)
    }

    /// Re-optimizes one cached group on a finer time grid (§IV-G).
    ///
    /// # Errors
    ///
    /// Propagates compilation failures of the refined search.
    pub fn optimize_group(
        &self,
        key: &UnitaryKey,
        target: &Mat,
        n_qubits: usize,
    ) -> Result<(f64, f64)> {
        precompile::optimize_group(self, key, target, n_qubits)
    }

    // -- gate-based baseline ------------------------------------------------

    /// Gate-based compilation latency of a processed physical circuit:
    /// weighted critical path with device-derived per-gate pulse
    /// durations (paper §II-C).
    pub fn gate_based_latency(&self, processed: &Circuit) -> f64 {
        let durations = self.gate_durations();
        let dag = CircuitDag::from_circuit(processed);
        dag.critical_path(|i| durations.gate_duration(&dag.node(i).gate))
    }

    /// The single-gate duration table, compiled on first use: each basis
    /// gate gets a GRAPE-minimal pulse on this device, exactly how the
    /// gate-pulse lookup table of Figure 3 would be calibrated.
    pub fn gate_durations(&self) -> GateDurations {
        let mut guard = self
            .durations
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(d) = guard.as_ref() {
            return d.clone();
        }
        let table = self.build_gate_durations();
        *guard = Some(table.clone());
        table
    }

    /// Calibrates the table: one independent compile per basis gate, run
    /// side by side on spare cores by [`compile_each`].
    fn build_gate_durations(&self) -> GateDurations {
        let gates = CALIBRATION_GATES;
        // A gate this device cannot compile gets an infinite duration.
        let latencies = compile_each(gates.len(), |i, ws| {
            let gate = &gates[i].1;
            let width = gate.qubits().len();
            Ok(self
                .compile_anchored(&gate.matrix(), width, None, 0.0, ws)
                .map_or(f64::INFINITY, |r| r.latency_ns))
        })
        .expect("a calibration step never fails");
        let map: std::collections::BTreeMap<GateKind, f64> =
            gates.iter().map(|(kind, _)| *kind).zip(latencies).collect();
        let default = map.values().copied().fold(0.0, f64::max);
        GateDurations::from_single_gate_pulses(map, default)
    }
}

/// The basis gates the gate-duration table calibrates, each on the
/// lowest qubits.
const CALIBRATION_GATES: &[(GateKind, Gate)] = {
    use std::f64::consts::FRAC_PI_2;
    use GateKind::*;
    &[
        (X, Gate::X(0)),
        (Y, Gate::Y(0)),
        (Z, Gate::Z(0)),
        (H, Gate::H(0)),
        (S, Gate::S(0)),
        (Sdg, Gate::Sdg(0)),
        (T, Gate::T(0)),
        (Tdg, Gate::Tdg(0)),
        (Rx, Gate::Rx(0, FRAC_PI_2)),
        (Ry, Gate::Ry(0, FRAC_PI_2)),
        (Rz, Gate::Rz(0, FRAC_PI_2)),
        (U1, Gate::U1(0, FRAC_PI_2)),
        (U2, Gate::U2(0, 0.3, 0.9)),
        (U3, Gate::U3(0, 1.1, 0.4, -0.7)),
        (Cx, Gate::Cx(0, 1)),
        (Cz, Gate::Cz(0, 1)),
        (Swap, Gate::Swap(0, 1)),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_hw::Topology;

    fn tiny_session() -> Session {
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 200;
        Session::builder()
            .topology(Topology::linear(3))
            .grape(grape)
            .build()
            .expect("valid session")
    }

    #[test]
    fn builder_requires_topology() {
        let e = Session::builder().build().unwrap_err();
        assert!(matches!(e, Error::Builder { field: "topology" }));
    }

    // The workspace pool is per thread, and libtest runs each test on a
    // thread of its own, so every pool test starts from an empty pool
    // and its counts are exact.

    #[test]
    fn workspace_pool_recycles_leases() {
        assert_eq!(pooled_workspaces(), 0);
        {
            let _a = lease_workspace();
            let _b = lease_workspace();
            assert_eq!(pooled_workspaces(), 0);
        }
        // Both leases returned: the pool holds exactly the thread's peak
        // concurrency, and a further lease reuses one of them.
        assert_eq!(pooled_workspaces(), 2);
        drop(lease_workspace());
        assert_eq!(pooled_workspaces(), 2);
    }

    #[test]
    fn forks_share_one_workspace_pool() {
        // Two independent sessions and a fork, all compiling on this
        // thread, draw from the thread's one pool.
        let session = tiny_session();
        let other = tiny_session();
        let fork = session.fork();
        let x = Gate::X(0).matrix();
        fork.compile_unitary(&x, 1, None).unwrap();
        assert_eq!(pooled_workspaces(), 1);
        // The fork's returned workspace serves the original session and
        // the other one in turn.
        session.compile_unitary(&x, 1, None).unwrap();
        other.compile_unitary(&x, 1, None).unwrap();
        assert_eq!(pooled_workspaces(), 1);
        {
            // With the pooled workspace leased, a compile has to grow
            // the pool.
            let _held = lease_workspace();
            assert_eq!(pooled_workspaces(), 0);
            other.compile_unitary(&x, 1, None).unwrap();
            assert_eq!(pooled_workspaces(), 1);
        }
        assert_eq!(pooled_workspaces(), 2);
        fork.compile_unitary(&x, 1, None).unwrap();
        assert_eq!(pooled_workspaces(), 2);
    }

    #[test]
    fn lease_dropped_on_another_thread_returns_to_that_threads_pool() {
        let lease = lease_workspace();
        let remote = std::thread::spawn(move || {
            assert_eq!(pooled_workspaces(), 0);
            drop(lease);
            pooled_workspaces()
        })
        .join()
        .expect("remote thread");
        assert_eq!(remote, 1);
        assert_eq!(pooled_workspaces(), 0);
    }

    #[test]
    fn builder_rejects_negative_warm_threshold() {
        let e = Session::builder()
            .topology(Topology::linear(2))
            .warm_threshold(-0.1)
            .build()
            .unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }));
    }

    #[test]
    fn compile_unitary_rejects_wide_and_empty_groups() {
        let s = tiny_session();
        let wide = s.compile_unitary(&Mat::identity(8), 3, None).unwrap_err();
        assert!(matches!(
            wide,
            Error::GroupTooWide {
                n_qubits: 3,
                max: 2
            }
        ));
        let empty = s.compile_unitary(&Mat::identity(1), 0, None).unwrap_err();
        assert!(matches!(empty, Error::EmptyGroup));
    }

    #[test]
    fn coverage_rate_edge_cases() {
        assert_eq!(
            CoverageStats {
                covered: 0,
                total: 0
            }
            .rate(),
            1.0
        );
        assert!(
            (CoverageStats {
                covered: 3,
                total: 4
            }
            .rate()
                - 0.75)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn staged_pipeline_matches_one_shot() {
        use accqoc_circuit::Gate;
        let session = tiny_session();
        let circuit =
            Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::T(1), Gate::Cx(1, 2)]);

        // Drive the stages by hand.
        let decomposed = session.decompose(&circuit);
        assert!(decomposed.output_gates >= decomposed.input_gates.min(4));
        let mapped = session.map(&decomposed);
        let grouped = session.group(&mapped);
        assert!(grouped.n_unique() <= grouped.n_instances());
        let lookup = session.lookup(&grouped);
        assert_eq!(lookup.coverage.covered, 0);
        assert_eq!(lookup.uncovered.len(), grouped.n_unique());
        let compiled = session.compile(&lookup).unwrap();
        assert!(compiled.dynamic_iterations > 0);
        assert_eq!(compiled.compiled.len(), lookup.uncovered.len());
        let latency = session.latency(&grouped).unwrap();
        assert!(latency.overall_latency_ns > 0.0);
        assert!(latency.latency_reduction() > 1.0);

        // The one-shot path on a fresh fork agrees.
        let fresh = tiny_session();
        let result = fresh.compile_program(&circuit).unwrap();
        assert_eq!(result.overall_latency_ns, latency.overall_latency_ns);
        assert_eq!(result.dynamic_iterations, compiled.dynamic_iterations);
        assert_eq!(result.coverage.covered, 0);

        // Recompilation is fully covered and free.
        let again = fresh.compile_program(&circuit).unwrap();
        assert_eq!(again.coverage.covered, again.coverage.total);
        assert_eq!(again.dynamic_iterations, 0);
        assert!((again.overall_latency_ns - result.overall_latency_ns).abs() < 1e-9);
    }

    #[test]
    fn latency_stage_requires_compiled_cache() {
        use accqoc_circuit::Gate;
        let session = tiny_session();
        let grouped = session.front_end(&Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]));
        let e = session.latency(&grouped).unwrap_err();
        assert!(matches!(e, Error::UncoveredGroup { .. }));
    }

    #[test]
    fn fork_inherits_cache_but_diverges_after() {
        use accqoc_circuit::Gate;
        let session = tiny_session();
        let c1 = Circuit::from_gates(3, [Gate::H(0)]);
        session.compile_program(&c1).unwrap();
        let fork = session.fork();
        assert_eq!(fork.cache_len(), session.cache_len());
        let c2 = Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1)]);
        fork.compile_program(&c2).unwrap();
        assert!(fork.cache_len() > session.cache_len());
    }

    #[test]
    fn gate_duration_table_matches_one_compile_at_a_time() {
        let session = tiny_session();
        let table = session.gate_durations();
        for (kind, gate) in CALIBRATION_GATES {
            let width = gate.qubits().len();
            let one = session
                .compile_unitary(&gate.matrix(), width, None)
                .map_or(f64::INFINITY, |r| r.latency_ns);
            assert_eq!(
                table.gate_duration(gate).to_bits(),
                one.to_bits(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn gate_duration_table_is_sane() {
        let session = tiny_session();
        let d = session.gate_durations();
        // X needs its full π rotation: 10 ns at our drive cap.
        assert!((d.duration(GateKind::X) - 10.0).abs() < 1.5);
        // Phase-type gates are cheaper than X.
        assert!(d.duration(GateKind::T) <= d.duration(GateKind::X));
        // Entangling gates cost more than single-qubit ones.
        assert!(d.duration(GateKind::Cx) > d.duration(GateKind::H));
        // Cached on second call (identical values).
        let d2 = session.gate_durations();
        assert_eq!(d.duration(GateKind::Cx), d2.duration(GateKind::Cx));
    }
}
