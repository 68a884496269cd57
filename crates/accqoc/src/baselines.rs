//! Compilation baselines (paper §VI-H, Figure 15).
//!
//! - **Gate-based compilation**: per-gate pulse lookup + concatenation —
//!   provided by [`crate::Session::gate_based_latency`].
//! - **Brute-force QOC**: "we form the 'brute force QOC' groups by
//!   including as many qubits and gates as possible" — maximal groups
//!   compiled from scratch, giving the best latency at enormous compile
//!   cost. The paper's brute force reaches 10-qubit groups and takes
//!   hours; we cap the group width (3 qubits by default) to keep the
//!   experiment tractable while preserving the trade-off's direction;
//!   Figure 15 prints the cap beside its results.

use accqoc_circuit::Circuit;
use accqoc_grape::LatencySearch;
use accqoc_group::{GroupingPolicy, SwapMode};
use accqoc_hw::Topology;

use crate::compile::AccQocConfig;
use crate::error::Result;
use crate::exec::compile_each;
use crate::model::ModelSet;
use crate::session::Session;

/// Configuration of the brute-force QOC baseline.
#[derive(Debug, Clone)]
pub struct BruteForceConfig {
    /// Maximum qubits per brute-force group.
    pub max_qubits: usize,
    /// Maximum layers per brute-force group (bounds pulse length).
    pub max_layers: usize,
    /// Latency-search cap (brute-force groups need longer pulses).
    pub max_steps: usize,
}

impl Default for BruteForceConfig {
    fn default() -> Self {
        Self {
            max_qubits: 3,
            max_layers: 12,
            max_steps: 192,
        }
    }
}

/// Result of brute-force QOC compilation of one program.
#[derive(Debug, Clone)]
pub struct BruteForceResult {
    /// Overall program latency (Algorithm 3 over brute-force groups), ns.
    pub overall_latency_ns: f64,
    /// Total GRAPE iterations (every group compiled from scratch).
    pub total_iterations: usize,
    /// Number of group instances.
    pub n_groups: usize,
    /// Number of unique groups compiled.
    pub n_unique: usize,
}

/// Runs the brute-force QOC baseline on a logical circuit.
///
/// The circuit is mapped with the same crosstalk-aware mapper, then
/// divided with a wide grouping policy, and every unique group is
/// compiled from scratch (no cache, no MST). The groups are independent,
/// so they compile side by side on this thread plus every spare core.
///
/// # Errors
///
/// Propagates pulse-compilation failures.
pub fn brute_force_qoc(
    circuit: &Circuit,
    topology: &Topology,
    base: &AccQocConfig,
    bf: &BruteForceConfig,
) -> Result<BruteForceResult> {
    let policy = GroupingPolicy::new(SwapMode::Map, bf.max_qubits, bf.max_layers);
    let session = Session::builder()
        .topology(topology.clone())
        .policy(policy)
        .mapping(base.mapping.clone())
        .grape(base.grape.clone())
        .search(LatencySearch {
            min_steps: base.search.min_steps,
            max_steps: bf.max_steps,
            ..LatencySearch::default()
        })
        .similarity(base.similarity)
        .warm_threshold(base.warm_threshold)
        .models(ModelSet::spin(bf.max_qubits)?)
        .build()?;

    let report = session.front_end(circuit);
    let targets = &report.targets;
    let compiled = compile_each(targets.len(), |i, ws| {
        session.compile_anchored(&targets[i].unitary, targets[i].n_qubits, None, 0.0, ws)
    })?;
    let latencies: Vec<f64> = compiled.iter().map(|r| r.latency_ns).collect();

    Ok(BruteForceResult {
        overall_latency_ns: report.overall_latency(&latencies),
        total_iterations: compiled.iter().map(|r| r.total_iterations).sum(),
        n_groups: report.assignment.len(),
        n_unique: report.targets.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_circuit::Gate;

    #[test]
    fn brute_force_beats_accqoc_latency_but_costs_more() {
        let topo = Topology::linear(3);
        let mut base = AccQocConfig::for_topology(topo.clone());
        base.grape.stop.max_iters = 200;
        let circuit = Circuit::from_gates(
            3,
            [
                Gate::H(0),
                Gate::Cx(0, 1),
                Gate::T(1),
                Gate::Cx(1, 2),
                Gate::H(2),
                Gate::Cx(0, 1),
                Gate::Tdg(1),
            ],
        );
        let session = Session::builder()
            .topology(topo.clone())
            .grape(base.grape.clone())
            .build()
            .unwrap();
        let accqoc = session.compile_program(&circuit).unwrap();
        let bf = brute_force_qoc(&circuit, &topo, &base, &BruteForceConfig::default()).unwrap();

        assert!(bf.overall_latency_ns > 0.0);
        assert!(bf.n_unique <= bf.n_groups);
        // Bigger groups ⇒ at-least-as-good latency.
        assert!(
            bf.overall_latency_ns <= accqoc.overall_latency_ns + 1e-9,
            "bf {} vs accqoc {}",
            bf.overall_latency_ns,
            accqoc.overall_latency_ns
        );
    }

    #[test]
    fn default_config_is_paper_scoped() {
        let bf = BruteForceConfig::default();
        assert!(bf.max_qubits >= 3);
        assert!(bf.max_steps > 96);
    }
}
