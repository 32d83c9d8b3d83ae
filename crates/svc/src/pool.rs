//! A fault-tolerant work-stealing worker pool.
//!
//! This is the generalized engine behind every parallel corpus run: `n`
//! jobs are pre-distributed round-robin across per-worker deques, each
//! worker drains its own deque from the front and steals from the back
//! of its neighbours' when empty (stolen work is the *oldest* queued, so
//! contention stays at opposite deque ends), and every job runs under
//! panic containment — a panicking job loses only its own result slot,
//! and the worker rebuilds its state and keeps going. The calling
//! thread is worker 0, so a one-worker pool spawns no thread at all.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Default worker count: available parallelism, capped at 16 (analysis
/// is memory-bandwidth-bound well before that on bigger hosts).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

fn pop_or_steal(me: usize, deques: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    // Own deque first, front end.
    if let Some(i) = lock(&deques[me]).pop_front() {
        return Some(i);
    }
    // Steal from the back of the others, scanning from the right
    // neighbour so thieves spread out instead of mobbing deque 0.
    let n = deques.len();
    for off in 1..n {
        if let Some(i) = lock(&deques[(me + off) % n]).pop_back() {
            return Some(i);
        }
    }
    None
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Jobs run under catch_unwind, so a poisoned deque or slot means a
    // panic escaped mid-lock; the data (a queue of indices / a result
    // option) is still well-formed, so recover rather than cascade.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `n` jobs across a work-stealing pool and returns one slot per
/// job, in order. A slot is `None` only when the job's panic escaped
/// `task`'s own containment *and* the pool's backstop — i.e. the job
/// panicked; all other jobs are unaffected.
///
/// `workers` overrides the pool size ([`default_workers`] when `None`;
/// clamped to at least 1 and at most `n`). `make_worker` builds each
/// worker's private state (e.g. a configured checker); after a contained
/// panic the state is rebuilt, since the panicking job may have left it
/// inconsistent.
pub fn run_pool<W, T>(
    n: usize,
    workers: Option<usize>,
    make_worker: impl Fn() -> W + Sync,
    task: impl Fn(&mut W, usize) -> T + Sync,
) -> Vec<Option<T>>
where
    T: Send,
{
    if n == 0 {
        return Vec::new();
    }
    let n_workers = workers.unwrap_or_else(default_workers).clamp(1, n);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..n_workers)
        .map(|w| Mutex::new((w..n).step_by(n_workers).collect()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let work = |me: usize| {
        let mut state = make_worker();
        while let Some(i) = pop_or_steal(me, &deques) {
            match catch_unwind(AssertUnwindSafe(|| task(&mut state, i))) {
                Ok(v) => *lock(&slots[i]) = Some(v),
                Err(_) => {
                    // The job panicked through `task`'s own
                    // containment; its slot stays empty and the worker
                    // state is suspect — rebuild it.
                    state = make_worker();
                }
            }
        }
    };
    // The caller is worker 0: only the other `n_workers - 1` run on
    // spawned threads, so a one-worker pool (`--jobs 1`) runs on the
    // calling thread and spawns nothing.
    std::thread::scope(|scope| {
        for me in 1..n_workers {
            let work = &work;
            scope.spawn(move || work(me));
        }
        work(0);
    });

    slots.into_iter().map(|s| lock(&s).take()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_complete_in_order_slots() {
        let out = run_pool(100, Some(4), || (), |(), i| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * 2));
        }
    }

    #[test]
    fn single_worker_and_more_workers_than_jobs() {
        assert_eq!(
            run_pool(3, Some(1), || (), |(), i| i),
            vec![Some(0), Some(1), Some(2)]
        );
        assert_eq!(
            run_pool(2, Some(64), || (), |(), i| i),
            vec![Some(0), Some(1)]
        );
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
            assert_eq!(out[7], None);
            for (i, v) in out.iter().enumerate() {
                if i != 7 {
                    assert_eq!(*v, Some(i), "job {i} unaffected ({workers} workers)");
                }
            }
            // Initial worker states plus at least one rebuild after the
            // contained panic.
            assert!(rebuilds.load(Ordering::SeqCst) > workers);
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_pool(5, Some(1), || (), |(), _| std::thread::current().id());
        assert!(out.iter().all(|t| *t == Some(caller)));
    }

    #[test]
    fn workers_steal_a_skewed_queue() {
        // One worker's own deque holds a long serial job list; stealing
        // must spread the rest. Verified indirectly: every job completes
        // even when worker 0's deque is stacked with slow jobs.
        let out = run_pool(
            32,
            Some(4),
            || (),
            |(), i| {
                if i % 4 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i + 1
            },
        );
        assert!(out.iter().all(|v| v.is_some()));
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
