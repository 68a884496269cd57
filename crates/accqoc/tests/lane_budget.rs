//! With every core's solver lane held, serving a program of independent
//! misses, or compiling a batch through [`accqoc::compile_each`], starts
//! no thread: the compile executor finds no spare core, so the calling
//! thread compiles every group.
//!
//! This lives in its own test binary, with one test, because it counts
//! the threads of the whole process (from `/proc/self/task`): no sibling
//! test may start or end threads while it runs.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use accqoc::{compile_each, Session};
use accqoc_circuit::{Circuit, Gate};
use accqoc_grape::SolverLane;
use accqoc_hw::Topology;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("proc is mounted")
        .count()
}

#[test]
fn serving_and_compile_each_on_a_busy_machine_start_no_thread() {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    let session = Session::builder()
        .topology(Topology::linear(3))
        .grape(grape)
        .build()
        .expect("valid session");
    // Three single-qubit groups no warm start links: three independent
    // scratch compiles.
    let gates = [Gate::H(0), Gate::Rx(0, 0.9), Gate::Ry(0, 2.3)];
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
        // The sampler is running: this is the count neither the serve
        // nor the batch may raise.
        std::thread::sleep(Duration::from_millis(20));
        let before = threads();
        let report = session.serve_program(&program).expect("serves");
        let batch = compile_each(gates.len(), |i, _| {
            session.compile_unitary(&gates[i].matrix(), 1, None)
        })
        .expect("compiles");
        stop.store(true, Ordering::Relaxed);
        (report, batch, before)
    });
    drop(held);
    let (report, batch, before) = report;
    assert!(report.n_compiled >= 3, "{report:?}");
    assert_eq!(batch.len(), 3);
    assert!(batch.iter().all(|r| r.latency_ns > 0.0));
    assert_eq!(report.n_warm_started, 0, "the misses are independent");
    assert_eq!(most.into_inner(), before, "a thread was started");
}
