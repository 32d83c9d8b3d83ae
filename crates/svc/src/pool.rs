//! The worker loop every parallel run shares.
//!
//! [`run_workers`] runs `n` workers, the calling thread being worker 0,
//! so a one-worker loop spawns no thread at all. Each worker claims one
//! job at a time from a shared `next` source, runs it under panic
//! containment, and hands the result to a `finish` callback as soon as
//! that job is done. A panicking job yields `Err(message)` for its own
//! result only; the worker rebuilds its private state, which the panic
//! may have left inconsistent, and keeps going.
//!
//! [`run_in_order`] is that loop over a fixed job count, the one pass
//! every batch makes: workers claim jobs in input order, and each
//! result reaches an `emit` callback in input order through a reorder
//! window of [`WINDOW_PER_WORKER`] jobs per worker, so a batch holds a
//! window of results however long it is. `nchecker serve`'s dispatcher
//! runs the worker loop over its request queue.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Default worker count: available parallelism, capped at 16 (analysis
/// is memory-bandwidth-bound well before that on bigger hosts).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Runs `workers` workers (at least one; the caller is worker 0) until
/// `next` returns `None` to each of them. A worker loops: claim a job
/// from `next`, run `task` on it, and pass the job and its result to
/// `finish`. Its state is built by `make_worker` when its first job
/// arrives, so an idle worker (a daemon waiting for its first submit)
/// builds nothing. A panic in `task` reaches `finish` as `Err` with the
/// panic message, and the worker's state is rebuilt for its next job.
pub fn run_workers<J, W, T>(
    workers: usize,
    make_worker: impl Fn() -> W + Sync,
    next: impl Fn() -> Option<J> + Sync,
    task: impl Fn(&mut W, &J) -> T + Sync,
    finish: impl Fn(J, Result<T, String>) + Sync,
) {
    let work = || {
        let mut state = None;
        while let Some(job) = next() {
            let worker = state.get_or_insert_with(&make_worker);
            let result = catch_unwind(AssertUnwindSafe(|| task(worker, &job)));
            let result = result.map_err(|payload| {
                state = None;
                nchecker::AnalyzeError::panic_message(&*payload)
            });
            finish(job, result);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Jobs the pool may run ahead of the oldest result not yet emitted,
/// per worker; the window is never larger than the batch. The slowest
/// store-mix miss takes about 35 median hits' worth of wall time, so
/// with twice that per worker the other workers keep claiming behind it
/// instead of idling (EXPERIMENTS.md, "One pass per batch").
pub const WINDOW_PER_WORKER: usize = 64;

/// Runs jobs `0..n` on up to `workers` workers ([`default_workers`]
/// when `None`; never more than `n`) and hands each result to `emit` in
/// input order: `Err` with the panic message for a job that panicked,
/// and every other job unaffected. `make_worker` builds each worker's
/// private state (e.g. a configured checker).
///
/// Workers claim jobs in input order, and a claim waits while the
/// reorder window ([`WINDOW_PER_WORKER`] jobs per worker) is full, so at
/// most a window of results is ever held. A result for which `halts`
/// is true ends the run as soon as it finishes: no later job is
/// claimed, and `emit` sees that result last. An `emit` that breaks
/// ends the run the same way, after the result it was given.
pub fn run_in_order<W, T: Send>(
    n: usize,
    workers: Option<usize>,
    make_worker: impl Fn() -> W + Sync,
    task: impl Fn(&mut W, usize) -> T + Sync,
    halts: impl Fn(&Result<T, String>) -> bool + Sync,
    emit: impl FnMut(usize, Result<T, String>) -> ControlFlow<()> + Send,
) {
    let workers = workers.unwrap_or_else(default_workers).clamp(1, n.max(1));
    let window = workers.saturating_mul(WINDOW_PER_WORKER).min(n);
    let state = Mutex::new(Window {
        claimed: 0,
        emitted: 0,
        end: n,
        parked: (0..window).map(|_| None).collect(),
        emit,
    });
    let lock = || state.lock().expect("no panic holds the window lock");
    let turn = Condvar::new();
    run_workers(
        workers,
        make_worker,
        || {
            let mut st = lock();
            while st.claimed < st.end && st.claimed - st.emitted == window {
                st = turn.wait(st).expect("no panic holds the window lock");
            }
            (st.claimed < st.end).then(|| {
                st.claimed += 1;
                st.claimed - 1
            })
        },
        |worker, &i| task(worker, i),
        |i, result| {
            let halt = halts(&result);
            let mut guard = lock();
            let st = &mut *guard;
            if halt {
                st.end = st.end.min(i + 1);
            }
            if i < st.end {
                st.parked[i % window] = Some(result);
            }
            while st.emitted < st.end {
                let Some(result) = st.parked[st.emitted % window].take() else {
                    break;
                };
                st.emitted += 1;
                if (st.emit)(st.emitted - 1, result).is_break() {
                    st.end = st.emitted;
                }
            }
            turn.notify_all();
        },
    );
}

/// [`run_in_order`]'s reorder window, under one lock. Jobs
/// `emitted..claimed` are running or parked; `end` is `n`, lowered by a
/// halting result or a breaking `emit`.
struct Window<R, E> {
    claimed: usize,
    emitted: usize,
    end: usize,
    /// Finished results waiting for their turn, job `i` at `i % window`.
    parked: Vec<Option<R>>,
    emit: E,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every result [`run_in_order`] emits, checking that each arrives
    /// in its input slot.
    fn collect<W, T: Send>(
        n: usize,
        workers: Option<usize>,
        make_worker: impl Fn() -> W + Sync,
        task: impl Fn(&mut W, usize) -> T + Sync,
    ) -> Vec<Result<T, String>> {
        let mut out = Vec::new();
        run_in_order(
            n,
            workers,
            make_worker,
            task,
            |_| false,
            |i, result| {
                assert_eq!(i, out.len(), "results arrive in input order");
                out.push(result);
                ControlFlow::Continue(())
            },
        );
        out
    }

    #[test]
    fn all_jobs_complete_in_order_slots() {
        let out = collect(100, Some(4), || (), |(), i| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Ok(i * 2));
        }
    }

    #[test]
    fn single_worker_and_more_workers_than_jobs() {
        assert_eq!(
            collect(3, Some(1), || (), |(), i| i),
            vec![Ok(0), Ok(1), Ok(2)]
        );
        assert_eq!(collect(2, Some(64), || (), |(), i| i), vec![Ok(0), Ok(1)]);
        assert!(collect(0, None, || (), |(), i: usize| i).is_empty());
    }

    #[test]
    fn the_window_bounds_jobs_claimed_but_not_emitted() {
        // Job 10 is slow: the other workers keep claiming behind it until
        // the window is full, and never past it. Results still arrive in
        // input order, a panicking job's `Err` in its own slot.
        let workers = 3;
        let window = workers * WINDOW_PER_WORKER;
        let (started, emitted, ahead) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let mut out = Vec::new();
        run_in_order(
            window * 3,
            Some(workers),
            || (),
            |(), i| {
                let running = started.fetch_add(1, Ordering::SeqCst) + 1;
                ahead.fetch_max(running - emitted.load(Ordering::SeqCst), Ordering::SeqCst);
                match i {
                    10 => std::thread::sleep(std::time::Duration::from_millis(200)),
                    20 => panic!("job 20 explodes"),
                    _ => {}
                }
                i
            },
            |_| false,
            |i, result| {
                assert_eq!(i, out.len(), "results arrive in input order");
                out.push(result);
                emitted.fetch_add(1, Ordering::SeqCst);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(
            ahead.load(Ordering::SeqCst),
            window,
            "the window fills, and no more"
        );
        assert_eq!(out.len(), window * 3);
        for (i, v) in out.iter().enumerate() {
            match i {
                20 => assert_eq!(*v, Err("job 20 explodes".to_owned())),
                _ => assert_eq!(*v, Ok(i)),
            }
        }
    }

    #[test]
    fn a_halting_result_or_a_breaking_emit_ends_the_run() {
        // Job 5 halts the run when it finishes: nothing after it is
        // claimed (one worker) or emitted (any count), and every job
        // before it is. An emit that breaks on job 3 ends the run there.
        for workers in [1, 3] {
            let last_started = AtomicUsize::new(0);
            let mut seen = Vec::new();
            run_in_order(
                40,
                Some(workers),
                || (),
                |(), i| {
                    last_started.fetch_max(i, Ordering::SeqCst);
                    if i < 5 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                },
                |result| *result == Ok(5),
                |i, _| {
                    seen.push(i);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(seen, (0..=5).collect::<Vec<_>>(), "{workers} workers");
            if workers == 1 {
                assert_eq!(last_started.load(Ordering::SeqCst), 5);
            }

            let mut seen = Vec::new();
            run_in_order(
                40,
                Some(workers),
                || (),
                |(), i| i,
                |_| false,
                |i, _| {
                    seen.push(i);
                    if i == 3 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(seen, (0..=3).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn a_one_job_batch_holds_a_one_result_window() {
        // The window is never larger than the batch, and one worker runs
        // on the calling thread.
        let caller = std::thread::current().id();
        let out = collect(1, Some(8), || (), |(), _| std::thread::current().id());
        assert_eq!(out, vec![Ok(caller)]);
    }

    #[test]
    fn panicking_job_loses_only_its_slot() {
        // Three workers, and one: the caller-as-worker-0 path must
        // contain a panic just like a spawned worker.
        for workers in [3, 1] {
            let rebuilds = AtomicUsize::new(0);
            let out = collect(
                20,
                Some(workers),
                || {
                    rebuilds.fetch_add(1, Ordering::SeqCst);
                },
                |(), i| {
                    if i == 7 {
                        panic!("job 7 explodes");
                    }
                    i
                },
            );
            assert_eq!(out[7], Err("job 7 explodes".to_owned()));
            for (i, v) in out.iter().enumerate() {
                if i != 7 {
                    assert_eq!(*v, Ok(i), "job {i} unaffected ({workers} workers)");
                }
            }
            // The worker that ran job 7 rebuilt its state: one worker
            // builds it for job 0 and again for job 8.
            if workers == 1 {
                assert_eq!(rebuilds.load(Ordering::SeqCst), 2);
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = collect(5, Some(1), || (), |(), _| std::thread::current().id());
        assert!(out.iter().all(|t| *t == Ok(caller)));
    }

    #[test]
    fn one_worker_claims_jobs_in_input_order() {
        // One worker runs the jobs in input order; with four, jobs are
        // still claimed in input order, so each worker's own sequence
        // rises.
        for workers in [1, 4] {
            let claims = Mutex::new(Vec::new());
            collect(
                64,
                Some(workers),
                || (),
                |(), i| {
                    claims
                        .lock()
                        .unwrap()
                        .push((std::thread::current().id(), i))
                },
            );
            let claims = claims.into_inner().unwrap();
            assert_eq!(claims.len(), 64);
            if workers == 1 {
                let order: Vec<usize> = claims.iter().map(|&(_, i)| i).collect();
                assert_eq!(order, (0..64).collect::<Vec<_>>());
            }
            let mut last = std::collections::HashMap::new();
            for (thread, i) in claims {
                if let Some(prev) = last.insert(thread, i) {
                    assert!(prev < i, "a worker ran job {i} after job {prev}");
                }
            }
        }
    }

    #[test]
    fn finish_sees_each_job_as_it_completes() {
        // `finish` runs per job, before the worker claims its next one:
        // with one worker, job i's result is in before job i + 1 starts.
        let queue = Mutex::new((0..5).collect::<std::collections::VecDeque<usize>>());
        let done = Mutex::new(Vec::new());
        run_workers(
            1,
            || (),
            || queue.lock().unwrap().pop_front(),
            |(), &i| {
                assert_eq!(done.lock().unwrap().len(), i, "job {i} started early");
                i * 10
            },
            |i, r| done.lock().unwrap().push((i, r)),
        );
        let done = done.into_inner().unwrap();
        assert_eq!(done, (0..5).map(|i| (i, Ok(i * 10))).collect::<Vec<_>>());
    }

    #[test]
    fn an_idle_worker_builds_no_state() {
        // State is built per job-taking worker, on its first job: a loop
        // with nothing to do builds none.
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
        };
        run_workers(3, build, || None::<usize>, |(), _| (), |_, _| {});
        assert_eq!(builds.load(Ordering::SeqCst), 0);
        collect(4, Some(1), build, |(), i| i);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        // Each worker counts its jobs in private state; totals add up.
        let totals = Mutex::new(Vec::new());
        let out = collect(
            50,
            Some(4),
            || 0usize,
            |count, i| {
                *count += 1;
                // Record the running count on the last visible job.
                if *count > 0 {
                    totals.lock().unwrap().push(1usize);
                }
                i
            },
        );
        assert_eq!(out.iter().flatten().count(), 50);
        assert_eq!(totals.lock().unwrap().len(), 50);
    }
}
