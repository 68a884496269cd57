//! With every core's solver lane held, serving a program of independent
//! misses starts no thread: the compile executor finds no spare core,
//! so the calling thread compiles every group.
//!
//! This lives in its own test binary, with one test, because it counts
//! the threads of the whole process (from `/proc/self/task`): no sibling
//! test may start or end threads while it runs.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use accqoc::Session;
use accqoc_circuit::{Circuit, Gate};
use accqoc_grape::SolverLane;
use accqoc_hw::Topology;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("proc is mounted")
        .count()
}

#[test]
fn serving_on_a_busy_machine_starts_no_thread() {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    let session = Session::builder()
        .topology(Topology::linear(3))
        .grape(grape)
        .build()
        .expect("valid session");
    // Three single-qubit groups no warm start links: three independent
    // scratch compiles.
    let program = Circuit::from_gates(
        3,
        [Gate::H(0), Gate::Rx(1, 0.9), Gate::T(1), Gate::Ry(2, 2.3)],
    );
    let held: Vec<SolverLane> = std::iter::from_fn(SolverLane::spare).collect();

    let (stop, most) = (AtomicBool::new(false), AtomicUsize::new(0));
    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                most.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // The sampler is running: this is the count the serve may not
        // raise.
        std::thread::sleep(Duration::from_millis(20));
        let before = threads();
        let report = session.serve_program(&program).expect("serves");
        stop.store(true, Ordering::Relaxed);
        (report, before)
    });
    drop(held);
    let (report, before) = report;
    assert!(report.n_compiled >= 3, "{report:?}");
    assert_eq!(report.n_warm_started, 0, "the misses are independent");
    assert_eq!(most.into_inner(), before, "a thread was started");
}
