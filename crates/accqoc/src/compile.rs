//! Pipeline configuration.
//!
//! The pipeline itself lives behind [`crate::Session`]; this module keeps
//! the configuration bag ([`AccQocConfig`]) and the warm-start gate
//! ([`warm_start_allowed`]).

use accqoc_grape::{GrapeOptions, LatencySearch};
use accqoc_group::GroupingPolicy;
use accqoc_hw::Topology;
use accqoc_linalg::Mat;
use accqoc_map::MappingOptions;

use crate::similarity::SimilarityFn;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AccQocConfig {
    /// Grouping policy (the paper settles on `map2b4l`).
    pub policy: GroupingPolicy,
    /// Device coupling topology.
    pub topology: Topology,
    /// Mapping options (crosstalk-aware by default).
    pub mapping: MappingOptions,
    /// GRAPE solver options.
    pub grape: GrapeOptions,
    /// Latency search bounds for group compilation.
    pub search: LatencySearch,
    /// Similarity function for the MST ordering (`fidelity1` — the
    /// trace-overlap distance — by default; the paper's best performer).
    pub similarity: SimilarityFn,
    /// Warm-start a child only when the *trace-overlap distance*
    /// (`1 − |Tr(P†C)|/d`) between parent and child is below this
    /// threshold; otherwise start from scratch ("if no group is similar
    /// enough, the compilation will start from the pulse of identity
    /// matrix", §V-C). The gate is deliberately uniform across similarity
    /// functions — each function shapes the *tree*, but whether a seed
    /// pulse helps is governed by how close the unitaries are in the
    /// fidelity GRAPE optimizes. Warm starts from dissimilar pulses
    /// actively hurt (the pulse sits in the parent's sharp optimum),
    /// which is also why the paper's inverse-similarity control worsens
    /// iteration counts.
    pub warm_threshold: f64,
}

impl AccQocConfig {
    /// The paper's default setup: Melbourne topology, `map2b4l`, L-BFGS
    /// GRAPE at the 1e-4 fidelity target, `fidelity1` similarity.
    pub fn melbourne() -> Self {
        Self::for_topology(Topology::melbourne())
    }

    /// Same defaults on an arbitrary topology.
    pub fn for_topology(topology: Topology) -> Self {
        Self {
            policy: GroupingPolicy::map2b4l(),
            topology,
            mapping: MappingOptions::default(),
            grape: GrapeOptions::default(),
            search: LatencySearch {
                min_steps: 8,
                max_steps: 96,
                ..LatencySearch::default()
            },
            similarity: SimilarityFn::TraceOverlap,
            warm_threshold: 0.15,
        }
    }
}

/// `true` when a parent pulse may seed a child: the unitaries are close
/// in the phase-invariant trace overlap GRAPE optimizes.
pub fn warm_start_allowed(parent: &Mat, child: &Mat, threshold: f64) -> bool {
    SimilarityFn::TraceOverlap.distance(parent, child) <= threshold
}
