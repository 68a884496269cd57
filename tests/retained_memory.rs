//! Counting-allocator bound on what one served golden pass keeps on the
//! heap: a fresh session calibrates its gate-duration table and serves
//! `qft_4`, `gse_4_1` and `uccsd_4_3_t4` from an empty library, and the
//! session plus the three reports may hold at most [`BOUND`] bytes.
//!
//! A long-running process keeps one library per session and one report
//! per served program, so this is the memory a served program costs
//! once its compiles are done. The pass is run once before measuring, so
//! the solver scratch every thread keeps between compiles is already
//! grown and is not counted, and both passes run with every core's solver
//! lane held, so all compiles run on this thread: with executor lanes
//! beside it, which compiles this thread takes (and so how far the
//! scratch it keeps grows) depends on timing, while the compiled pulses
//! are the same on any number of lanes.
//!
//! This lives in its own test binary because it installs a process-wide
//! `#[global_allocator]`, and it holds exactly one test so no sibling
//! test thread allocates inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use accqoc_repro::accqoc::{ServeReport, Session};
use accqoc_repro::grape::SolverLane;
use accqoc_repro::hw::Topology;
use accqoc_repro::workloads::golden_suite;

/// Live heap bytes: allocated minus freed, over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Most bytes one pass may keep.
const BOUND: isize = 55_000;

/// A golden session (5-qubit line, 300-iteration GRAPE cap) with its
/// gate-duration table calibrated, and its reports of serving the three
/// programs.
fn pass() -> (Session, Vec<ServeReport>) {
    let mut grape = accqoc_repro::grape::GrapeOptions::default();
    grape.stop.max_iters = 300;
    let session = Session::builder()
        .topology(Topology::linear(5))
        .grape(grape)
        .build()
        .expect("valid session");
    session.gate_durations();
    let reports = golden_suite()
        .into_iter()
        .filter(|p| ["qft_4", "gse_4_1", "uccsd_4_3_t4"].contains(&p.name.as_str()))
        .map(|p| session.serve_program(&p.circuit).expect("serves"))
        .collect();
    (session, reports)
}

#[test]
fn a_served_golden_pass_retains_at_most_the_bound() {
    let held: Vec<SolverLane> = std::iter::from_fn(SolverLane::spare).collect();
    drop(pass());
    let before = LIVE.load(Ordering::Relaxed);
    let kept = pass();
    let retained = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(kept.1.len(), 3);
    assert_eq!(
        kept.0.cache_len(),
        kept.1.iter().map(|r| r.n_compiled).sum()
    );
    drop(held);
    eprintln!("one served golden pass retains {retained} bytes");
    assert!(
        retained <= BOUND,
        "one served golden pass retains {retained} bytes, over the {BOUND}-byte bound"
    );
}
