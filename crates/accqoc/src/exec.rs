//! The compile executor: runs a plan of compile steps on the calling
//! thread plus one scoped thread per spare core, and commits their
//! results on the calling thread in plan order.
//!
//! A plan is a list of steps, each waiting on at most one earlier step:
//! the step whose pulse seeds it. Every path that compiles more than one
//! group runs on it: the serving path's warm-start plan, the batch
//! engine's MST plan (and so [`Session::compile`](crate::Session::compile)
//! and [`Session::precompile`](crate::Session::precompile)), and
//! [`compile_each`], the public entry for independent steps. It is the
//! only place the crate starts a thread to compile on.
//!
//! # Lanes
//!
//! The caller is lane 0 and runs steps itself. Whenever more steps are
//! ready than lanes are free to take them, the executor starts another
//! scoped thread on a [`SolverLane::spare`] lane, so its threads count in
//! the process-wide solver-lane count with every thread that runs a
//! latency search: each thread is counted once, and solver threads never
//! exceed `max(callers, cores)`. With every core busy it starts no thread
//! and the caller runs every step. Among ready steps the earliest plan
//! step goes first. A thread other than the caller that finds nothing
//! ready, or finds more lanes running than cores, exits and frees its
//! lane.
//!
//! # Commits and failures
//!
//! A step's result is committed on the caller strictly in plan order, as
//! soon as it and every step before it have finished. The first step
//! that fails, in plan order, ends the run: the steps before it are
//! committed, no later step starts, and its error is returned. A panic on
//! any lane stops the others from starting steps and is re-raised on the
//! caller once every thread has stopped.
//!
//! The result of a step depends only on its inputs, never on the lane
//! that ran it, so the committed results are those of running the plan
//! one step at a time.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Scope;
use std::time::Instant;

use accqoc_grape::{SolverLane, Workspace};

use crate::error::Result;
use crate::session::lease_workspace;

/// How many lanes a run may use.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Width {
    /// At most this many, the caller included; each lane beyond the
    /// caller starts only on a spare core.
    Spare(usize),
    /// Up to this many whenever steps are ready, spare core or not: how
    /// tests run a plan on two lanes on a busy machine.
    #[cfg(test)]
    Forced(usize),
}

impl Width {
    fn max(self) -> usize {
        match self {
            Width::Spare(n) => n,
            #[cfg(test)]
            Width::Forced(n) => n,
        }
    }
}

/// Where and when one step ran.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ran {
    /// The lane: 0 is the caller; a thread the run started takes the
    /// lowest index no running thread holds, so every index is below the
    /// run's width.
    pub lane: usize,
    pub started: Instant,
    pub finished: Instant,
}

/// The results of finished steps, as a step's run reads its seed.
pub(crate) struct Done<'a, R>(&'a [OnceLock<Result<R>>]);

impl<R> Done<'_, R> {
    /// The result of `step`, which the reading step waits on (directly
    /// or through a chain), so it has finished.
    ///
    /// # Panics
    ///
    /// Panics if `step` has not finished or failed; the executor never
    /// starts a step before what it waits on has succeeded.
    pub(crate) fn get(&self, step: usize) -> &R {
        match self.0[step].get() {
            Some(Ok(result)) => result,
            _ => panic!("step {step} read before it succeeded"),
        }
    }
}

/// One step's run: its index, the finished results, and the lane's
/// workspace.
pub(crate) type Run<'a, R> = dyn Fn(usize, &Done<'_, R>, &mut Workspace) -> Result<R> + Sync + 'a;

/// Runs `n` independent steps, `step(i, ws)` on the workspace of the
/// lane that runs step `i`, on this thread plus every spare core, and
/// returns their results in index order.
///
/// # Errors
///
/// The first failure in index order; no later step starts after it.
///
/// # Panics
///
/// Re-raises a panic of `step` once every lane has stopped.
///
/// ```
/// assert_eq!(accqoc::compile_each(3, |i, _| Ok(i * i))?, [0, 1, 4]);
/// # Ok::<(), accqoc::Error>(())
/// ```
pub fn compile_each<R, F>(n: usize, step: F) -> Result<Vec<R>>
where
    R: Send + Sync,
    F: Fn(usize, &mut Workspace) -> Result<R> + Sync,
{
    each_on(n, Width::Spare(usize::MAX), step)
}

/// [`compile_each`] on at most `width` lanes.
fn each_on<R, F>(n: usize, width: Width, step: F) -> Result<Vec<R>>
where
    R: Send + Sync,
    F: Fn(usize, &mut Workspace) -> Result<R> + Sync,
{
    let run = |i: usize, _: &Done<'_, R>, ws: &mut Workspace| step(i, ws);
    let (results, _) = execute(&vec![None; n], width, &run, &mut |_, _| {})?;
    Ok(results)
}

/// Runs every step of a plan whose step `i` waits on step `after[i]`
/// (always an earlier step) and passes each result to `commit` on this
/// thread, in plan order. Returns every step's result and where it ran,
/// in plan order.
///
/// # Errors
///
/// The error of the first failing step in plan order, after every step
/// before it is committed.
///
/// # Panics
///
/// Re-raises a panic of `run` or `commit` on any lane, after every lane
/// has stopped. Panics if a step waits on itself or a later step.
pub(crate) fn execute<R: Send + Sync>(
    after: &[Option<usize>],
    width: Width,
    run: &Run<'_, R>,
    commit: &mut dyn FnMut(usize, &R),
) -> Result<(Vec<R>, Vec<Ran>)> {
    assert!(
        after
            .iter()
            .enumerate()
            .all(|(i, a)| a.is_none_or(|a| a < i)),
        "a step waits on an earlier step"
    );
    let n = after.len();
    let executor = Executor {
        after,
        width,
        run,
        results: (0..n).map(|_| OnceLock::new()).collect(),
        state: Mutex::new(State {
            started: vec![false; n],
            done: vec![false; n],
            ran: vec![None; n],
            stop: n,
            panic: None,
            starting: 0,
            caller_waits: false,
            lanes: vec![true],
            running: 1,
        }),
        wake: Condvar::new(),
    };
    let _caller = SolverLane::caller();
    std::thread::scope(|scope| executor.caller(scope, commit));
    let state = executor
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(panic) = state.panic {
        panic::resume_unwind(panic);
    }
    // The caller stops early only at a failed step, and every step
    // before it succeeded; `collect` stops at the first failure.
    let results = executor
        .results
        .into_iter()
        .map(|result| result.into_inner().expect("every step up to a failure ran"))
        .collect::<Result<_>>()?;
    let ran = state
        .ran
        .into_iter()
        .map(|ran| ran.expect("every step ran"))
        .collect();
    Ok((results, ran))
}

struct Executor<'a, 'r, R> {
    after: &'a [Option<usize>],
    width: Width,
    run: &'a Run<'r, R>,
    results: Vec<OnceLock<Result<R>>>,
    state: Mutex<State>,
    /// Signals the caller that a step finished or a lane panicked.
    wake: Condvar,
}

struct State {
    started: Vec<bool>,
    done: Vec<bool>,
    ran: Vec<Option<Ran>>,
    /// No step at or after this index starts: the earliest failed step
    /// (`n` while none has failed).
    stop: usize,
    /// The first panic of a lane other than the caller.
    panic: Option<Box<dyn Any + Send>>,
    /// Threads started that have not yet looked for a step.
    starting: usize,
    /// Whether the caller waits for a step to finish.
    caller_waits: bool,
    /// Which lane indices a running lane holds (index 0 is the caller).
    lanes: Vec<bool>,
    /// Lanes running, the caller included.
    running: usize,
}

impl State {
    fn aborted(&self) -> bool {
        self.panic.is_some()
    }
}

impl<'a, 'r, R: Send + Sync> Executor<'a, 'r, R> {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The ready steps, earliest first: not started, before the stop, and
    /// with what they wait on finished.
    fn ready<'s>(&'s self, state: &'s State) -> impl Iterator<Item = usize> + 's {
        (0..state.stop)
            .filter(move |&i| !state.started[i] && self.after[i].is_none_or(|a| state.done[a]))
    }

    /// Claims the earliest ready step, and starts threads for the ready
    /// steps no lane is free to take.
    fn claim<'s>(&'s self, scope: &'s Scope<'s, '_>, state: &mut State) -> Option<usize> {
        let step = self.ready(state).next()?;
        state.started[step] = true;
        let mut unclaimed = self.ready(state).count();
        let idle = state.starting + usize::from(state.caller_waits);
        while unclaimed > idle && state.running < self.width.max() {
            let lane = match self.width {
                Width::Spare(_) => match SolverLane::spare() {
                    Some(lane) => Some(lane),
                    None => break,
                },
                #[cfg(test)]
                Width::Forced(_) => None,
            };
            let index = state
                .lanes
                .iter()
                .position(|&held| !held)
                .unwrap_or(state.lanes.len());
            let spawned = std::thread::Builder::new()
                .name(LANE_NAME.into())
                .spawn_scoped(scope, move || self.worker(scope, index, lane));
            if spawned.is_err() {
                break;
            }
            if index == state.lanes.len() {
                state.lanes.push(true);
            } else {
                state.lanes[index] = true;
            }
            state.running += 1;
            state.starting += 1;
            unclaimed -= 1;
        }
        Some(step)
    }

    /// Runs `step` on `lane` and files its result.
    fn step(&self, step: usize, lane: usize, ws: &mut Workspace) {
        let started = Instant::now();
        let result = (self.run)(step, &Done(&self.results), ws);
        let failed = result.is_err();
        let _ = self.results[step].set(result);
        let mut state = self.lock();
        state.done[step] = true;
        state.ran[step] = Some(Ran {
            lane,
            started,
            finished: Instant::now(),
        });
        if failed {
            state.stop = state.stop.min(step);
        }
        drop(state);
        self.wake.notify_all();
    }

    /// Lane 0: runs steps and commits finished ones in plan order until
    /// every step is committed, the first failure is reached, or a lane
    /// panicked.
    fn caller<'s>(&'s self, scope: &'s Scope<'s, '_>, commit: &mut dyn FnMut(usize, &R)) {
        let _abort = AbortOnUnwind(self);
        let mut ws = lease_workspace();
        let mut committed = 0;
        let mut state = self.lock();
        loop {
            while committed < self.after.len() && state.done[committed] {
                let Some(Ok(result)) = self.results[committed].get() else {
                    return;
                };
                drop(state);
                commit(committed, result);
                committed += 1;
                state = self.lock();
            }
            if committed == self.after.len() || state.aborted() {
                return;
            }
            if let Some(step) = self.claim(scope, &mut state) {
                drop(state);
                self.step(step, 0, &mut ws);
                state = self.lock();
                continue;
            }
            state.caller_waits = true;
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.caller_waits = false;
        }
    }

    /// A lane other than the caller: runs ready steps until none is
    /// ready, its core is wanted back, or a lane panicked.
    fn worker<'s>(&'s self, scope: &'s Scope<'s, '_>, index: usize, mut lane: Option<SolverLane>) {
        if let Some(lane) = &mut lane {
            lane.enter();
        }
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ws = lease_workspace();
            let mut first = true;
            loop {
                let mut state = self.lock();
                if std::mem::take(&mut first) {
                    state.starting -= 1;
                }
                let crowded = lane.as_ref().is_some_and(SolverLane::crowded);
                let step = if state.aborted() || crowded {
                    None
                } else {
                    self.claim(scope, &mut state)
                };
                let Some(step) = step else {
                    state.running -= 1;
                    state.lanes[index] = false;
                    return;
                };
                drop(state);
                self.step(step, index, &mut ws);
            }
        }));
        if let Err(panic) = ran {
            let mut state = self.lock();
            state.running -= 1;
            state.lanes[index] = false;
            state.panic.get_or_insert(panic);
            drop(state);
            self.wake.notify_all();
        }
    }
}

/// Name of an executor lane's thread.
const LANE_NAME: &str = "compile-lane";

/// Stops the other lanes from starting steps when the caller unwinds.
struct AbortOnUnwind<'e, 'a, 'r, R>(&'e Executor<'a, 'r, R>);

impl<R> Drop for AbortOnUnwind<'_, '_, '_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.stop = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn on_caller() -> bool {
        std::thread::current().name() != Some(LANE_NAME)
    }

    /// Holds the caller's first step until a second lane has started one,
    /// so a test sees both lanes run whatever the machine's load.
    #[derive(Default)]
    struct Rendezvous {
        started: Mutex<bool>,
        wake: Condvar,
    }

    impl Rendezvous {
        fn lane_started(&self) {
            *self.started.lock().expect("test lock") = true;
            self.wake.notify_all();
        }

        fn await_lane(&self) {
            let started = self.started.lock().expect("test lock");
            let (started, _) = self
                .wake
                .wait_timeout_while(started, Duration::from_secs(60), |s| !*s)
                .expect("test lock");
            assert!(*started, "no second lane started a step");
        }

        /// On the caller, waits for a second lane; on any other lane,
        /// announces that it started a step.
        fn meet(&self) {
            if on_caller() {
                self.await_lane();
            } else {
                self.lane_started();
            }
        }
    }

    /// A run whose result is the step's index, on which the caller's
    /// first step waits for a second lane.
    fn indices(
        meet: &Rendezvous,
    ) -> impl Fn(usize, &Done<'_, usize>, &mut Workspace) -> Result<usize> + Sync + '_ {
        move |i, _, _| {
            meet.meet();
            Ok(i)
        }
    }

    #[test]
    fn commits_in_plan_order_after_what_each_step_waits_on() {
        let after = [None, None, Some(0), Some(2), None, Some(1)];
        let meet = Rendezvous::default();
        let mut committed = Vec::new();
        let (_, ran) = execute(&after, Width::Forced(2), &indices(&meet), &mut |i, r| {
            assert_eq!(i, *r);
            committed.push(i);
        })
        .unwrap();
        assert_eq!(committed, (0..after.len()).collect::<Vec<_>>());
        for (i, a) in after.iter().enumerate() {
            if let Some(a) = a {
                assert!(ran[i].started >= ran[*a].finished, "step {i} before {a}");
            }
        }
        assert!(ran.iter().any(|r| r.lane > 0), "a second lane ran a step");
        assert!(
            ran.iter().all(|r| r.lane < 2),
            "lane indices stay below the width"
        );
    }

    #[test]
    fn a_seed_step_result_reaches_its_dependents() {
        let after = [None, Some(0), Some(1)];
        let run = |i: usize, done: &Done<'_, usize>, _: &mut Workspace| {
            Ok(if i == 0 {
                7
            } else {
                done.get(after[i].unwrap()) * 2
            })
        };
        let mut got = Vec::new();
        execute(&after, Width::Forced(2), &run, &mut |_, r| got.push(*r)).unwrap();
        assert_eq!(got, [7, 14, 28]);
    }

    #[test]
    fn the_first_failure_in_plan_order_is_returned_after_the_steps_before_it() {
        let after = [None, None, None, Some(2), None, None];
        let run = |i: usize, _: &Done<'_, usize>, _: &mut Workspace| {
            if i == 2 || i == 4 {
                Err(Error::InvalidConfig {
                    message: format!("step {i}"),
                })
            } else {
                Ok(i)
            }
        };
        let mut committed = Vec::new();
        let e = execute(&after, Width::Forced(2), &run, &mut |i, _| {
            committed.push(i)
        })
        .unwrap_err();
        assert!(e.to_string().contains("step 2"), "{e}");
        assert_eq!(committed, [0, 1]);
    }

    #[test]
    fn a_panic_on_a_worker_lane_reaches_the_caller() {
        let meet = Rendezvous::default();
        let run = |_: usize, _: &Done<'_, usize>, _: &mut Workspace| {
            if on_caller() {
                meet.await_lane();
                return Ok(0);
            }
            meet.lane_started();
            panic!("worker lane bug");
        };
        let panic = panic::catch_unwind(AssertUnwindSafe(|| {
            execute(&[None; 4], Width::Forced(2), &run, &mut |_, _| {})
        }))
        .expect_err("the worker's panic is re-raised");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"worker lane bug"));
    }

    #[test]
    fn a_panic_on_the_caller_stops_the_other_lanes() {
        let meet = Rendezvous::default();
        let on_lane = AtomicUsize::new(0);
        let run = |i: usize, _: &Done<'_, usize>, _: &mut Workspace| {
            if on_caller() {
                meet.await_lane();
                panic!("caller bug");
            }
            meet.lane_started();
            on_lane.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
            Ok(i)
        };
        let panic = panic::catch_unwind(AssertUnwindSafe(|| {
            execute(&[None; 8], Width::Forced(2), &run, &mut |_, _| {})
        }))
        .expect_err("the caller's panic propagates");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"caller bug"));
        // The worker finishes what it runs and then stops, long before
        // it would have run the seven steps the caller left.
        assert!(on_lane.into_inner() < 7);
    }

    #[test]
    fn one_step_and_width_one_start_no_thread() {
        let run = |i: usize, _: &Done<'_, usize>, _: &mut Workspace| Ok(i);
        let (_, ran) = execute(&[None], Width::Forced(2), &run, &mut |_, _| {}).unwrap();
        assert_eq!(ran[0].lane, 0);
        let (_, ran) = execute(&[None; 3], Width::Spare(1), &run, &mut |_, _| {}).unwrap();
        assert!(ran.iter().all(|r| r.lane == 0));
        assert!(execute(&[], Width::Forced(2), &run, &mut |_, _| {})
            .unwrap()
            .1
            .is_empty());
    }

    #[test]
    fn each_on_two_lanes_returns_the_sequential_map_in_index_order() {
        let meet = Rendezvous::default();
        let run = |i: usize, _: &mut Workspace| {
            meet.meet();
            Ok(i * i + 1)
        };
        let got = each_on(9, Width::Forced(2), run).unwrap();
        assert_eq!(got, (0..9).map(|i| i * i + 1).collect::<Vec<_>>());
    }

    #[test]
    fn each_returns_the_earliest_failure_in_index_order() {
        let run = |i: usize, _: &mut Workspace| {
            if i == 3 || i == 5 {
                Err(Error::InvalidConfig {
                    message: format!("step {i}"),
                })
            } else {
                Ok(i)
            }
        };
        let e = each_on(8, Width::Forced(2), run).unwrap_err();
        assert!(e.to_string().contains("step 3"), "{e}");
    }
}
