//! Online serving: compile programs as they arrive, against the live
//! pulse library.
//!
//! Batch pre-compilation covers the profiled third of a suite; the
//! serving path covers everything that arrives afterwards. Each unique
//! group of an arriving program is resolved in order:
//!
//! 1. **hit** — the library already holds the canonical key: the pulse
//!    is reused as-is (and its recency refreshed);
//! 2. **warm miss** — the fingerprint index proposes the nearest cached
//!    neighbors, the exact similarity function re-scores the short list,
//!    and if the best neighbor passes the trace-overlap warm-start gate
//!    (the same [`warm_start_allowed`] rule the MST batch engine uses)
//!    GRAPE starts from its pulse;
//! 3. **scratch miss** — no neighbor (empty library, new dimension, or
//!    nothing similar enough): GRAPE starts from scratch — never an
//!    error.
//!
//! Every compiled pulse is inserted back (fingerprint-indexed, under the
//! capacity bound), so a stream of similar programs converges onto a hot
//! working set; [`LibraryStats`](crate::LibraryStats) counts hits,
//! misses, and the warm/scratch split.
//!
//! The misses of one program are planned first and compiled after: the
//! order in which they are picked and the neighbor that seeds each one
//! depend only on unitaries, so [`plan`] fixes both against the library
//! as it stands at plan time, and the [compile executor](crate::exec)
//! compiles the steps that do not wait on each other side by side. The
//! reports and library bytes are those of picking, compiling and
//! inserting one miss at a time.

use std::collections::HashMap;

use accqoc_circuit::UnitaryKey;
use accqoc_grape::{LatencyResult, Pulse};

use crate::cache::CachedPulse;
use crate::compile::warm_start_allowed;
use crate::error::Result;
use crate::exec::{self, Done, Width};
use crate::json::{self, hex_decode, hex_encode, JsonError, JsonValue};
use crate::library::{Added, PulseLibrary, UnitaryFingerprint};
use crate::session::{CoverageStats, GroupReport, GroupTarget, Session};
use crate::similarity::{SimilarityFn, SimilarityScratch};

/// Warm-started compiles anchor the latency binary search at the seed:
/// the search floor is raised to `seed_steps × SEARCH_ANCHOR` (never
/// above the seed itself), pruning the deep-infeasible probes that
/// dominate a cold search. Similar groups have similar minimal latencies
/// — the premise of the paper's §V-B — so the pruned region is (almost)
/// never where the optimum lives. At `1.0` the search *trusts* the seed's
/// slice count: it confirms the seed converges, then walks downward one
/// slice at a time while the shorter probe keeps converging (each step
/// warm-started from the last), stopping at the first failure — so
/// near-identical neighbors, like adjacent points of a parameterized
/// θ-sweep, cost two GRAPE runs instead of a whole probe cascade, and a
/// beatable seed descends to the true minimum without re-opening the
/// bisection over the deep-infeasible region. (The batch engine anchors
/// at `0.0`, which is the plain search.)
pub(crate) const SEARCH_ANCHOR: f64 = 1.0;

/// Configuration of the online serving path.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Fingerprint candidates retrieved per cache miss before exact
    /// re-scoring. Larger values recover more warm starts at slightly
    /// higher lookup cost; the default (16) saturates the golden-suite
    /// warm-start share.
    pub candidates: usize,
    /// Serve only the unique groups of these widths (`None` = every
    /// group): what one shard of a width-partitioned deployment owns.
    /// See [`Session::serve_grouped`] for what a subset report carries.
    pub only_qubits: Option<Vec<usize>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            candidates: 16,
            only_qubits: None,
        }
    }
}

/// How one unique group of a served program was resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedGroup {
    /// Canonical group key.
    pub key: UnitaryKey,
    /// Qubits the group spans.
    pub n_qubits: usize,
    /// `true` when the library covered the key (no compile).
    pub hit: bool,
    /// The neighbor whose pulse warm-started the compile, when one
    /// passed the warm-start gate.
    pub warm_from: Option<UnitaryKey>,
    /// GRAPE iterations spent (0 on hits).
    pub iterations: usize,
    /// Pulse latency of the group, ns.
    pub latency_ns: f64,
}

/// Report of serving one program through the pulse library.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Overall pulse latency of the program (Algorithm 3 DP), ns.
    pub overall_latency_ns: f64,
    /// Gate-based compilation latency of the same circuit, ns.
    pub gate_based_latency_ns: f64,
    /// Instance coverage against the library at arrival time.
    pub coverage: CoverageStats,
    /// Per-unique-group serving outcomes, in the front end's target
    /// order (the canonical order every deployment shape — one process
    /// or a width-partitioned router — reports identically; the serve
    /// *sequence* shows through each group's `warm_from` lineage).
    pub groups: Vec<ServedGroup>,
    /// Unique groups compiled (misses).
    pub n_compiled: usize,
    /// Compiled groups that were warm-started.
    pub n_warm_started: usize,
    /// GRAPE iterations spent on this program.
    pub dynamic_iterations: usize,
}

impl ServeReport {
    /// Latency reduction factor vs gate-based compilation.
    pub fn latency_reduction(&self) -> f64 {
        if self.overall_latency_ns == 0.0 {
            1.0
        } else {
            self.gate_based_latency_ns / self.overall_latency_ns
        }
    }

    /// Fraction of this program's compiles that were warm-started
    /// (0.0 when nothing was compiled).
    pub fn warm_share(&self) -> f64 {
        if self.n_compiled == 0 {
            0.0
        } else {
            self.n_warm_started as f64 / self.n_compiled as f64
        }
    }

    /// The report as a JSON value — the payload the serving daemon puts
    /// on the wire, carrying exactly the counters the in-process path
    /// reports (keys serialize as hex, like the pulse-cache artifact).
    pub fn to_json_value(&self) -> JsonValue {
        let groups = self
            .groups
            .iter()
            .map(|g| {
                JsonValue::Object(vec![
                    (
                        "key".into(),
                        JsonValue::String(hex_encode(g.key.as_bytes())),
                    ),
                    ("n_qubits".into(), JsonValue::Number(g.n_qubits as f64)),
                    ("hit".into(), JsonValue::Bool(g.hit)),
                    (
                        "warm_from".into(),
                        match &g.warm_from {
                            Some(k) => JsonValue::String(hex_encode(k.as_bytes())),
                            None => JsonValue::Null,
                        },
                    ),
                    ("iterations".into(), JsonValue::Number(g.iterations as f64)),
                    ("latency_ns".into(), JsonValue::Number(g.latency_ns)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "overall_latency_ns".into(),
                JsonValue::Number(self.overall_latency_ns),
            ),
            (
                "gate_based_latency_ns".into(),
                JsonValue::Number(self.gate_based_latency_ns),
            ),
            (
                "coverage_covered".into(),
                JsonValue::Number(self.coverage.covered as f64),
            ),
            (
                "coverage_total".into(),
                JsonValue::Number(self.coverage.total as f64),
            ),
            (
                "n_compiled".into(),
                JsonValue::Number(self.n_compiled as f64),
            ),
            (
                "n_warm_started".into(),
                JsonValue::Number(self.n_warm_started as f64),
            ),
            (
                "dynamic_iterations".into(),
                JsonValue::Number(self.dynamic_iterations as f64),
            ),
            ("groups".into(), JsonValue::Array(groups)),
        ])
    }

    /// Serializes via [`ServeReport::to_json_value`] (single line, no
    /// trailing newline — ready for the daemon's newline-delimited
    /// framing).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_compact()
    }

    /// Reconstructs a report from [`ServeReport::to_json_value`] output.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] when a field is missing or mistyped.
    pub fn from_json_value(value: &JsonValue) -> Result<Self> {
        let malformed = |message: &str| JsonError {
            message: format!("serve report: {message}"),
            offset: 0,
        };
        let num = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| malformed(&format!("missing number `{name}`")))
        };
        let count = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| malformed(&format!("missing count `{name}`")))
        };
        let groups_json = value
            .get("groups")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing `groups` array"))?;
        let mut groups = Vec::with_capacity(groups_json.len());
        for g in groups_json {
            let key_hex = g
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("group missing `key`"))?;
            let warm_from = match g.get("warm_from") {
                Some(JsonValue::Null) => None,
                Some(JsonValue::String(hex)) => Some(UnitaryKey::from_bytes(hex_decode(hex)?)),
                _ => return Err(malformed("group missing `warm_from`").into()),
            };
            groups.push(ServedGroup {
                key: UnitaryKey::from_bytes(hex_decode(key_hex)?),
                n_qubits: g
                    .get("n_qubits")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| malformed("group missing `n_qubits`"))?,
                hit: match g.get("hit") {
                    Some(JsonValue::Bool(b)) => *b,
                    _ => return Err(malformed("group missing `hit`").into()),
                },
                warm_from,
                iterations: g
                    .get("iterations")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| malformed("group missing `iterations`"))?,
                latency_ns: g
                    .get("latency_ns")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| malformed("group missing `latency_ns`"))?,
            });
        }
        Ok(Self {
            overall_latency_ns: num("overall_latency_ns")?,
            gate_based_latency_ns: num("gate_based_latency_ns")?,
            coverage: CoverageStats {
                covered: count("coverage_covered")?,
                total: count("coverage_total")?,
            },
            groups,
            n_compiled: count("n_compiled")?,
            n_warm_started: count("n_warm_started")?,
            dynamic_iterations: count("dynamic_iterations")?,
        })
    }

    /// Parses a report serialized by [`ServeReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self> {
        Self::from_json_value(&json::parse(text)?)
    }
}

/// Serves the unique groups of a front-ended program whose width is in
/// `options.only_qubits` (`None` = every group) against the session's
/// pulse library: the implementation behind [`Session::serve_program`]
/// and [`Session::serve_grouped`], whose docs state the contract. See
/// the module docs for the hit / warm-miss / scratch-miss resolution.
///
/// The misses are served in two steps. [`plan`] runs the greedy pick
/// order against the library as it stands now, under its lock and
/// without compiling: the order and every warm-start seed depend only on
/// unitaries. The [compile executor](crate::exec) then compiles the plan,
/// independent steps side by side on spare cores, and inserts each pulse
/// on this thread in plan order.
///
/// The program's latency is folded from the pulses resolved *during*
/// this call, so a bounded library that evicts one of this program's own
/// groups mid-serve still reports correct latencies.
pub(crate) fn serve_grouped(
    session: &Session,
    grouped: &GroupReport,
    options: &ServeOptions,
) -> Result<ServeReport> {
    serve_on(session, grouped, options, Width::Spare(usize::MAX))
}

/// [`serve_grouped`] on at most `width` lanes.
fn serve_on(
    session: &Session,
    grouped: &GroupReport,
    options: &ServeOptions,
    width: Width,
) -> Result<ServeReport> {
    let library = session.library();
    let mut served = Served::hits(session, grouped, options);
    if served.missing.is_empty() {
        return Ok(served.report(session, grouped, options));
    }
    let plan = plan(session, grouped, options, &served.missing);
    let after: Vec<Option<usize>> = plan
        .iter()
        .map(|step| match step.seed {
            Seed::Step(j) => Some(j),
            _ => None,
        })
        .collect();
    let run = |i: usize, done: &Done<'_, LatencyResult>, ws: &mut accqoc_grape::Workspace| {
        let step = &plan[i];
        let target = &grouped.targets[step.target];
        let seed = match &step.seed {
            Seed::Scratch => None,
            Seed::Library(pulse) => Some(pulse),
            Seed::Step(j) => Some(&done.get(*j).outcome.pulse),
        };
        session.compile_anchored(&target.unitary, target.n_qubits, seed, SEARCH_ANCHOR, ws)
    };
    let mut commit = |i: usize, result: &LatencyResult| {
        let step = &plan[i];
        let target = &grouped.targets[step.target];
        served.compiled(library, step.target, target, step.warm_from.clone(), result);
    };
    exec::execute(&after, width, &run, &mut commit)?;
    Ok(served.report(session, grouped, options))
}

/// Where a planned compile takes its warm-start pulse from.
#[derive(Debug)]
enum Seed {
    Scratch,
    /// A library pulse, copied when the plan was made.
    Library(Pulse),
    /// The pulse an earlier step of the plan compiles.
    Step(usize),
}

/// One planned compile: a miss (an index into the program's targets),
/// the neighbor whose pulse seeds it, and where that pulse comes from.
#[derive(Debug)]
struct PlanStep {
    target: usize,
    warm_from: Option<UnitaryKey>,
    seed: Seed,
}

/// The order and seeds in which the misses are compiled: nearest gated
/// neighbor first, the way a one-at-a-time serve would pick them, each
/// pick laid over the library as it would be inserted before the next.
/// So a program's own groups seed each other — the greedy online
/// analogue of the batch engine's Prim order (which also always extends
/// the tree by the cheapest edge). When no miss has a neighbor inside
/// the warm-start gate, the round is a forced scratch compile; it picks
/// the *hub* — the miss that sits within the gate of the most other
/// misses — so one scratch buys the largest downstream warm harvest. An
/// empty library (or a new dimension) is just a stream of such rounds —
/// never an error.
///
/// The plan holds the library's lock from its first query to its last
/// (the hub ranking is worked out before) and writes nothing: each
/// pick, and each eviction its insert would cause under the capacity
/// bound, is laid over the stored keys
/// ([`PlanView`](crate::library::PlanView)). So the plan is the order a
/// one-at-a-time serve takes as long as no other caller writes the
/// library before the plan's inserts.
fn plan(
    session: &Session,
    grouped: &GroupReport,
    options: &ServeOptions,
    missing: &[usize],
) -> Vec<PlanStep> {
    let config = session.config();
    let gate = config.warm_threshold;
    let targets = &grouped.targets;
    // A miss's query fingerprint never changes across rounds — compute
    // each once, not O(m²) times over the re-query loop.
    let fingerprints: Vec<UnitaryFingerprint> = missing
        .iter()
        .map(|&i| UnitaryFingerprint::of(&targets[i].unitary, targets[i].n_qubits))
        .collect();
    // Which misses sit within the warm-start gate of which: what a forced
    // scratch round ranks hubs by, worked out before the library is
    // locked.
    let mut scratch = SimilarityScratch::new();
    let within_gate: Vec<Vec<bool>> = missing
        .iter()
        .map(|&i| {
            let a = &targets[i];
            missing
                .iter()
                .map(|&j| {
                    let b = &targets[j];
                    i != j
                        && b.n_qubits == a.n_qubits
                        && SimilarityFn::TraceOverlap.distance_with(
                            &a.unitary,
                            &b.unitary,
                            &mut scratch,
                        ) <= gate
                })
                .collect()
        })
        .collect();
    let mut remaining: Vec<usize> = (0..missing.len()).collect();
    let mut planned: HashMap<&UnitaryKey, usize> = HashMap::new();
    let mut steps: Vec<PlanStep> = Vec::with_capacity(missing.len());
    let mut view = session.library().plan_view();
    while !remaining.is_empty() {
        // Nearest *gated* candidate: the warm-start gate (the exact
        // trace-overlap rule the MST batch engine applies) is checked
        // per miss, so a viable warm start is never lost to a
        // gate-failing pick that merely ranked closer under the
        // configured similarity function.
        let mut pick = 0usize;
        let mut pick_neighbor: Option<UnitaryKey> = None;
        let mut pick_distance = f64::INFINITY;
        for (slot, &m) in remaining.iter().enumerate() {
            let target = &targets[missing[m]];
            let Some((key, distance, unitary)) = view.nearest(
                &fingerprints[m],
                &target.unitary,
                options.candidates,
                config.similarity,
            ) else {
                continue;
            };
            if !warm_start_allowed(unitary, &target.unitary, gate) {
                continue;
            }
            // Strict `<` keeps the earliest target on ties.
            if distance < pick_distance {
                pick = slot;
                pick_distance = distance;
                pick_neighbor = Some(key);
            }
        }
        let seed = match &pick_neighbor {
            None => {
                // Forced scratch round: serve the hub — the miss within
                // the gate of the most other misses (ties and the no-edge
                // case keep the earliest target).
                let mut best_degree = 0usize;
                for (slot, &m) in remaining.iter().enumerate() {
                    let degree = remaining.iter().filter(|&&o| within_gate[m][o]).count();
                    if degree > best_degree {
                        best_degree = degree;
                        pick = slot;
                    }
                }
                Seed::Scratch
            }
            Some(key) => match planned.get(key) {
                Some(&step) => Seed::Step(step),
                None => Seed::Library(view.pulse(key).expect("the view found it stored")),
            },
        };
        let m = remaining.remove(pick);
        let target = &targets[missing[m]];
        view.insert(Added {
            key: &target.key,
            fingerprint: &fingerprints[m],
            unitary: &target.unitary,
        });
        planned.insert(&target.key, steps.len());
        steps.push(PlanStep {
            target: missing[m],
            warm_from: pick_neighbor,
            seed,
        });
    }
    steps
}

/// A serve's outcome so far: what pass 1's hits resolved, then each
/// compiled miss as it is committed.
struct Served {
    /// Whether each unique group is one this serve owns (its width is
    /// served).
    owned: Vec<bool>,
    /// Latency of each resolved unique group.
    per_unique: Vec<f64>,
    covered_unique: Vec<bool>,
    /// Owned unique groups the library did not hold, in target order.
    missing: Vec<usize>,
    groups: Vec<ServedGroup>,
    dynamic_iterations: usize,
}

impl Served {
    /// Pass 1: the owned unique groups the library holds, as hits.
    fn hits(session: &Session, grouped: &GroupReport, options: &ServeOptions) -> Self {
        let library = session.library();
        let n_unique = grouped.targets.len();
        let owned: Vec<bool> = grouped
            .targets
            .iter()
            .map(|t| {
                options
                    .only_qubits
                    .as_deref()
                    .is_none_or(|widths| widths.contains(&t.n_qubits))
            })
            .collect();
        let mut served = Self {
            owned,
            per_unique: vec![0.0; n_unique],
            covered_unique: vec![false; n_unique],
            missing: Vec::new(),
            groups: Vec::with_capacity(n_unique),
            dynamic_iterations: 0,
        };
        for (i, target) in grouped.targets.iter().enumerate() {
            if !served.owned[i] {
                continue;
            }
            if let Some(entry) = library.hit(&target.key) {
                library.record_hit();
                served.per_unique[i] = entry.latency_ns;
                served.covered_unique[i] = true;
                served.groups.push(ServedGroup {
                    key: target.key.clone(),
                    n_qubits: target.n_qubits,
                    hit: true,
                    warm_from: None,
                    iterations: 0,
                    latency_ns: entry.latency_ns,
                });
            } else {
                served.missing.push(i);
            }
        }
        served
    }

    /// Counts and inserts the compile of unique group `i` (`target`) and
    /// files its report row.
    fn compiled(
        &mut self,
        library: &PulseLibrary,
        i: usize,
        target: &GroupTarget,
        warm_from: Option<UnitaryKey>,
        result: &LatencyResult,
    ) {
        library.record_compile(warm_from.is_some(), result.total_iterations);
        library.insert(
            target.key.clone(),
            CachedPulse {
                // Copied on this thread: a pulse another lane compiled
                // would otherwise pin that thread's allocator for as long
                // as the library keeps it.
                pulse: result.outcome.pulse.clone(),
                latency_ns: result.latency_ns,
                iterations: result.total_iterations,
                n_qubits: target.n_qubits,
            },
            Some(&target.unitary),
        );
        self.dynamic_iterations += result.total_iterations;
        self.per_unique[i] = result.latency_ns;
        self.groups.push(ServedGroup {
            key: target.key.clone(),
            n_qubits: target.n_qubits,
            hit: false,
            warm_from,
            iterations: result.total_iterations,
            latency_ns: result.latency_ns,
        });
    }

    /// The report of a finished serve.
    fn report(
        mut self,
        session: &Session,
        grouped: &GroupReport,
        options: &ServeOptions,
    ) -> ServeReport {
        let covered = grouped
            .assignment
            .iter()
            .filter(|&&u| self.covered_unique[u])
            .count();
        let total = grouped
            .assignment
            .iter()
            .filter(|&&u| self.owned[u])
            .count();
        // Program-level latencies exist only for a whole-program serve: a
        // width subset cannot see the other shards' group latencies, so
        // the router folds the overall number from the merged per-group
        // results.
        let (overall_latency_ns, gate_based_latency_ns) = if options.only_qubits.is_none() {
            (
                grouped.overall_latency(&self.per_unique),
                session.gate_based_latency(&grouped.processed),
            )
        } else {
            (0.0, 0.0)
        };

        // Canonical report order: the front end's target order, not the
        // greedy pick order. The pick order interleaves widths by live
        // similarity distances, which no single shard of a
        // width-partitioned deployment can observe — target order is the
        // one order a router can reassemble byte-identically from
        // per-shard reports. The serve *sequence* still shows through
        // `warm_from` lineage.
        let order: HashMap<&UnitaryKey, usize> = grouped
            .targets
            .iter()
            .enumerate()
            .map(|(i, t)| (&t.key, i))
            .collect();
        self.groups
            .sort_by_key(|g| order.get(&g.key).copied().unwrap_or(usize::MAX));

        let n_compiled = self.groups.iter().filter(|g| !g.hit).count();
        let n_warm_started = self.groups.iter().filter(|g| g.warm_from.is_some()).count();
        ServeReport {
            overall_latency_ns,
            gate_based_latency_ns,
            coverage: CoverageStats { covered, total },
            groups: self.groups,
            n_compiled,
            n_warm_started,
            dynamic_iterations: self.dynamic_iterations,
        }
    }
}

/// Today's one-at-a-time serve, kept as the oracle the planned serve
/// must match bit for bit: each miss is picked against the live library,
/// compiled, and inserted before the next pick.
#[cfg(test)]
fn serve_sequential(
    session: &Session,
    grouped: &GroupReport,
    options: &ServeOptions,
) -> Result<ServeReport> {
    let library = session.library();
    let mut served = Served::hits(session, grouped, options);
    let mut missing = std::mem::take(&mut served.missing);
    let mut ws = crate::session::lease_workspace();
    let gate = session.config().warm_threshold;
    let mut scratch = SimilarityScratch::new();
    let fingerprints: Vec<UnitaryFingerprint> = grouped
        .targets
        .iter()
        .map(|t| UnitaryFingerprint::of(&t.unitary, t.n_qubits))
        .collect();
    while !missing.is_empty() {
        let mut pick = 0usize;
        let mut pick_neighbor: Option<crate::library::NearestPulse> = None;
        let mut pick_distance = f64::INFINITY;
        for (slot, &i) in missing.iter().enumerate() {
            let target = &grouped.targets[i];
            let Some(neighbor) = library.nearest_by_fingerprint(
                &fingerprints[i],
                &target.unitary,
                options.candidates,
                session.config().similarity,
            ) else {
                continue;
            };
            if !warm_start_allowed(&neighbor.unitary, &target.unitary, gate) {
                continue;
            }
            if neighbor.distance < pick_distance {
                pick = slot;
                pick_distance = neighbor.distance;
                pick_neighbor = Some(neighbor);
            }
        }
        if pick_neighbor.is_none() {
            let mut best_degree = 0usize;
            for (slot, &i) in missing.iter().enumerate() {
                let degree = missing
                    .iter()
                    .filter(|&&j| {
                        j != i
                            && grouped.targets[j].n_qubits == grouped.targets[i].n_qubits
                            && SimilarityFn::TraceOverlap.distance_with(
                                &grouped.targets[i].unitary,
                                &grouped.targets[j].unitary,
                                &mut scratch,
                            ) <= gate
                    })
                    .count();
                if degree > best_degree {
                    best_degree = degree;
                    pick = slot;
                }
            }
        }
        let i = missing.remove(pick);
        let target = &grouped.targets[i];
        let warm = pick_neighbor.as_ref();
        let result = session.compile_anchored(
            &target.unitary,
            target.n_qubits,
            warm.map(|n| &n.pulse),
            SEARCH_ANCHOR,
            &mut ws,
        )?;
        served.compiled(library, i, target, warm.map(|n| n.key.clone()), &result);
    }
    Ok(served.report(session, grouped, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LibraryStats;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};
    use accqoc_hw::Topology;
    use accqoc_workloads::{default_theta_grid, golden_suite, uccsd_family};
    use std::path::{Path, PathBuf};

    /// A 5-qubit line session with the 300-iteration GRAPE cap, durable
    /// in `dir`, with an optional capacity bound and slice cap.
    fn session_in(dir: &Path, capacity: Option<usize>, max_steps: Option<usize>) -> Session {
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 300;
        let mut builder = Session::builder()
            .topology(Topology::linear(5))
            .grape(grape)
            .persistence(dir);
        if let Some(capacity) = capacity {
            builder = builder.library_capacity(capacity);
        }
        if let Some(max_steps) = max_steps {
            builder = builder.search(accqoc_grape::LatencySearch {
                max_steps,
                ..accqoc_grape::LatencySearch::default()
            });
        }
        builder.build().expect("valid session")
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("accqoc-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The bytes of every file in `dir`, by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("data dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).expect("readable"))
            })
            .collect();
        files.sort();
        files
    }

    /// Serves `programs` in order on two fresh durable sessions, one
    /// through the sequential oracle and one through the planned serve
    /// on two forced lanes, and checks every outcome, the library
    /// artifact, the counters and the data dir's bytes are identical.
    /// Returns the outcomes, the counters and the number of entries.
    fn assert_planned_matches_oracle(
        tag: &str,
        programs: &[Circuit],
        options: &ServeOptions,
        capacity: Option<usize>,
        max_steps: Option<usize>,
    ) -> (
        Vec<std::result::Result<String, String>>,
        LibraryStats,
        usize,
    ) {
        let (dir_a, dir_b) = (
            scratch_dir(&format!("{tag}-a")),
            scratch_dir(&format!("{tag}-b")),
        );
        let oracle = session_in(&dir_a, capacity, max_steps);
        let planned = session_in(&dir_b, capacity, max_steps);
        let outcome = |r: Result<ServeReport>| r.map(|r| r.to_json()).map_err(|e| e.to_string());
        let mut outcomes = Vec::new();
        for (n, program) in programs.iter().enumerate() {
            let grouped = oracle.front_end(program);
            let want = outcome(serve_sequential(&oracle, &grouped, options));
            let got = outcome(serve_on(&planned, &grouped, options, Width::Forced(2)));
            assert_eq!(got, want, "{tag}: program {n}");
            outcomes.push(want);
        }
        assert_eq!(
            planned.library().artifact(),
            oracle.library().artifact(),
            "{tag}: library artifact"
        );
        let stats = planned.library().stats();
        assert_eq!(stats, oracle.library().stats(), "{tag}: stats");
        let len = planned.cache_len();
        drop((oracle, planned));
        assert_eq!(files(&dir_b), files(&dir_a), "{tag}: data dir bytes");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
        (outcomes, stats, len)
    }

    fn golden(names: &[&str]) -> Vec<Circuit> {
        let suite = golden_suite();
        names
            .iter()
            .map(|name| {
                suite
                    .iter()
                    .find(|p| p.name == *name)
                    .expect("golden program")
                    .circuit
                    .clone()
            })
            .collect()
    }

    #[test]
    fn planned_serve_matches_the_oracle_on_golden_programs_in_three_orders() {
        let orders: [[&str; 3]; 3] = [
            ["qft_4", "gse_4_1", "uccsd_4_3_t4"],
            ["uccsd_4_3_t4", "qft_4", "gse_4_1"],
            ["gse_4_1", "uccsd_4_3_t4", "qft_4"],
        ];
        for (n, order) in orders.iter().enumerate() {
            let (outcomes, stats, _) = assert_planned_matches_oracle(
                &format!("golden{n}"),
                &golden(order),
                &ServeOptions::default(),
                None,
                None,
            );
            assert!(outcomes.iter().all(|o| o.is_ok()));
            assert!(stats.warm_compiles > 0 && stats.scratch_compiles > 0);
        }
    }

    #[test]
    fn planned_serve_matches_the_oracle_on_the_uccsd_stream() {
        let grid = default_theta_grid();
        let programs: Vec<Circuit> = uccsd_family(4, 3, &grid[..4])
            .into_iter()
            .map(|p| p.circuit)
            .collect();
        assert_planned_matches_oracle("uccsd", &programs, &ServeOptions::default(), None, None);
    }

    #[test]
    fn planned_serve_matches_the_oracle_on_width_subsets() {
        let programs = golden(&["qft_4", "gse_4_1"]);
        for widths in [vec![1], vec![2], vec![1, 2]] {
            let options = ServeOptions {
                only_qubits: Some(widths.clone()),
                ..ServeOptions::default()
            };
            assert_planned_matches_oracle(
                &format!("subset{}", widths.len() * 10 + widths[0]),
                &programs,
                &options,
                None,
                None,
            );
        }
    }

    #[test]
    fn planned_serve_matches_the_oracle_when_the_library_evicts_its_own_groups() {
        // qft_4 alone has more unique groups than either bound, so the
        // plan's view must evict the program's own early picks as the
        // inserts do; at capacity 1 an early pick that stayed in the view
        // would be a later miss's nearest neighbor.
        let programs = golden(&["qft_4", "gse_4_1"]);
        for capacity in [1, 4] {
            let (outcomes, stats, len) = assert_planned_matches_oracle(
                &format!("bounded{capacity}"),
                &programs,
                &ServeOptions::default(),
                Some(capacity),
                None,
            );
            assert!(outcomes.iter().all(|o| o.is_ok()));
            assert_eq!(len, capacity);
            assert!(stats.misses > 8 && stats.evictions > 0, "{stats:?}");
        }
    }

    #[test]
    fn planned_serve_matches_the_oracle_on_a_mid_plan_compile_failure() {
        // Twelve slices reach the two nearby single-qubit rotations but
        // not the CNOT. The first rotation is the scratch round's hub and
        // seeds the second, so the plan fails at its third step, after
        // inserting the first two.
        let program =
            Circuit::from_gates(4, [Gate::Cx(0, 1), Gate::Rz(2, 0.40), Gate::Rz(3, 0.43)]);
        let (outcomes, stats, len) = assert_planned_matches_oracle(
            "failure",
            &[program],
            &ServeOptions::default(),
            None,
            Some(12),
        );
        assert!(
            matches!(&outcomes[0], Err(e) if e.contains("compilation failed")),
            "{outcomes:?}"
        );
        assert_eq!(len, 2, "the steps before the failure are inserted");
        assert_eq!((stats.misses, stats.warm_compiles), (2, 1));
    }

    fn sample_report() -> ServeReport {
        let key = |theta: f64| {
            let u = circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, theta)]));
            UnitaryKey::canonical(&u, 1)
        };
        ServeReport {
            overall_latency_ns: 42.5,
            gate_based_latency_ns: 120.0,
            coverage: CoverageStats {
                covered: 3,
                total: 5,
            },
            groups: vec![
                ServedGroup {
                    key: key(0.3),
                    n_qubits: 1,
                    hit: true,
                    warm_from: None,
                    iterations: 0,
                    latency_ns: 10.0,
                },
                ServedGroup {
                    key: key(0.9),
                    n_qubits: 1,
                    hit: false,
                    warm_from: Some(key(0.3)),
                    iterations: 17,
                    latency_ns: 12.25,
                },
            ],
            n_compiled: 1,
            n_warm_started: 1,
            dynamic_iterations: 17,
        }
    }

    #[test]
    fn report_json_roundtrips_byte_exactly() {
        let report = sample_report();
        let text = report.to_json();
        assert!(!text.contains('\n'), "wire format is one frame");
        let restored = ServeReport::from_json(&text).unwrap();
        // to_json is deterministic, so byte equality is full equality.
        assert_eq!(restored.to_json(), text);
        assert_eq!(restored.groups.len(), 2);
        assert_eq!(restored.groups[1].warm_from, report.groups[1].warm_from);
        assert_eq!(restored.coverage, report.coverage);
    }

    #[test]
    fn report_json_rejects_malformed_input() {
        assert!(ServeReport::from_json("not json").is_err());
        assert!(ServeReport::from_json("{}").is_err());
        let no_hit = r#"{"overall_latency_ns": 1, "gate_based_latency_ns": 2,
            "coverage_covered": 0, "coverage_total": 0, "n_compiled": 0,
            "n_warm_started": 0, "dynamic_iterations": 0,
            "groups": [{"key": "00", "n_qubits": 1, "warm_from": null,
                        "iterations": 0, "latency_ns": 1}]}"#;
        assert!(ServeReport::from_json(no_hit).is_err());
        let bad_key = r#"{"overall_latency_ns": 1, "gate_based_latency_ns": 2,
            "coverage_covered": 0, "coverage_total": 0, "n_compiled": 0,
            "n_warm_started": 0, "dynamic_iterations": 0,
            "groups": [{"key": "zz", "hit": true, "n_qubits": 1,
                        "warm_from": null, "iterations": 0, "latency_ns": 1}]}"#;
        assert!(ServeReport::from_json(bad_key).is_err());
    }
}
