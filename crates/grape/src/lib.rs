//! GRAPE — GRadient Ascent Pulse Engineering — for the AccQOC
//! reproduction.
//!
//! Implements quantum optimal control over the piecewise-constant pulse
//! model of the paper (§II-D): forward/backward propagation through
//! `exp(−iΔt·H)` slices, exact spectral gradients, an L-BFGS-B optimizer
//! over the amplitude box (the paper's BFGS choice), the `1e-4` fidelity
//! target, and
//! the latency binary search of §IV-D. Warm starts from a similar group's
//! pulse — the heart of AccQOC's MST acceleration — enter through
//! [`InitStrategy::Warm`].
//!
//! # Example
//!
//! ```
//! use accqoc_grape::{solve, GrapeOptions, GrapeProblem};
//! use accqoc_hw::ControlModel;
//! use accqoc_linalg::Mat;
//!
//! let model = ControlModel::spin_chain(1);
//! let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
//! let out = solve(&GrapeProblem {
//!     model: &model,
//!     target: &x,
//!     n_steps: 12,
//!     options: GrapeOptions::default(),
//! });
//! assert!(out.converged);
//! ```

#![warn(missing_docs)]

mod binary_search;
mod grape;
mod optimizer;
mod propagate;
mod pulse;
mod workspace;

pub use binary_search::{
    find_minimal_latency, LatencyError, LatencyResult, LatencySearch, SolverLane,
};
pub use grape::{
    cost_and_gradient_into, infidelity, solve, solve_with, GradientMethod, GrapeOptions,
    GrapeOutcome, GrapeProblem, InitStrategy,
};
pub use optimizer::StopCriteria;
pub use propagate::{
    backward_states, forward_states, realized_infidelity, step_unitaries, total_unitary,
};
pub use pulse::Pulse;
pub use workspace::Workspace;
