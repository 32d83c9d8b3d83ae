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
//! [`run_pool`] is that loop over a fixed job count: workers claim
//! indices from one atomic counter, so jobs start in input order and
//! each result lands in its input slot. `nchecker serve`'s dispatcher
//! runs the same loop over its request queue.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Runs `n` jobs on up to `workers` workers ([`default_workers`] when
/// `None`; never more than `n`) and returns one result per job, in
/// input order: `Err` with the panic message for a job that panicked,
/// and every other job unaffected. `make_worker` builds each worker's
/// private state (e.g. a configured checker).
pub fn run_pool<W, T: Send>(
    n: usize,
    workers: Option<usize>,
    make_worker: impl Fn() -> W + Sync,
    task: impl Fn(&mut W, usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    if n == 0 {
        return Vec::new();
    }
    // Relaxed: the counter only hands out indices; results travel
    // through the slot locks and the scope's join.
    let claimed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_workers(
        workers.unwrap_or_else(default_workers).clamp(1, n),
        make_worker,
        || Some(claimed.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n),
        |state, &i| task(state, i),
        |i, result| *slots[i].lock().expect("no panic holds a slot lock") = Some(result),
    );
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no panic holds a slot lock")
                .expect("every claimed job finishes")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_jobs_complete_in_order_slots() {
        let out = run_pool(100, Some(4), || (), |(), i| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Ok(i * 2));
        }
    }

    #[test]
    fn single_worker_and_more_workers_than_jobs() {
        assert_eq!(
            run_pool(3, Some(1), || (), |(), i| i),
            vec![Ok(0), Ok(1), Ok(2)]
        );
        assert_eq!(run_pool(2, Some(64), || (), |(), i| i), vec![Ok(0), Ok(1)]);
        assert!(run_pool(0, None, || (), |(), i: usize| i).is_empty());
    }

    #[test]
    fn panicking_job_loses_only_its_slot() {
        // Three workers, and one: the caller-as-worker-0 path must
        // contain a panic just like a spawned worker.
        for workers in [3, 1] {
            let rebuilds = AtomicUsize::new(0);
            let out = run_pool(
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
        let out = run_pool(5, Some(1), || (), |(), _| std::thread::current().id());
        assert!(out.iter().all(|t| *t == Ok(caller)));
    }

    #[test]
    fn one_worker_claims_jobs_in_input_order() {
        // One worker runs the jobs in input order; with four, jobs are
        // still claimed in input order, so each worker's own sequence
        // rises.
        for workers in [1, 4] {
            let claims = Mutex::new(Vec::new());
            run_pool(
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
        run_pool(4, Some(1), build, |(), i| i);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        // Each worker counts its jobs in private state; totals add up.
        let totals = Mutex::new(Vec::new());
        let out = run_pool(
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
