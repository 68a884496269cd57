//! The process-wide solver-lane count: spare lanes stop at the core
//! count, and a spare lane yields once more lanes run than cores.
//!
//! This lives in its own test binary, with one test, because the count
//! is process-wide: a sibling test's latency search would hold a lane.

use accqoc_grape::SolverLane;

#[test]
fn spare_lanes_stop_at_the_core_count_and_yield_once_crowded() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spare: Vec<SolverLane> = std::iter::from_fn(SolverLane::spare).collect();
    assert_eq!(spare.len(), cores, "one spare lane per core");
    assert!(
        spare.iter().all(|lane| !lane.crowded()),
        "a lane per core is not crowded"
    );
    let caller = SolverLane::caller();
    assert!(!caller.crowded(), "a caller's lane never yields");
    assert!(
        spare.iter().all(SolverLane::crowded),
        "one lane more than cores: every spare lane yields"
    );
    drop(caller);
    assert!(spare.iter().all(|lane| !lane.crowded()));
}
