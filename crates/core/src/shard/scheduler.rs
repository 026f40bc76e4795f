//! Parallel execution of per-shard solves: one shared task cursor.
//!
//! Shard tasks form a fixed list known up front, and a task never
//! spawns children, so there is nothing for work stealing to
//! rebalance: every worker claims the next unclaimed index with one
//! `fetch_add` until the cursor passes the end. A slow task holds only
//! its own worker; the others keep draining the cursor. The scope join
//! is the completion barrier.
//!
//! Everything runs on the `runtime/sync` facade, so
//! `--cfg delprop_model` builds explore the scheduler (spawn, cursor,
//! join) under the deterministic model checker;
//! `crates/core/tests/model.rs` asserts no task is lost or run twice
//! across every bounded schedule.

use crate::runtime::sync::{self, AtomicUsize, Ordering};

/// Run `run(0..num_tasks)` across up to `workers` threads, each task
/// exactly once, in unspecified order. The calling thread is worker 0;
/// at most `min(workers, num_tasks) - 1` scoped threads are spawned
/// through the facade, so one worker (or one task) spawns nothing.
pub fn run_tasks<F>(num_tasks: usize, workers: usize, run: F)
where
    F: Fn(usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let worker_loop = || loop {
        // ordering: Relaxed — the ticket value itself is the claim, and
        // the scope join publishes every task's side effects.
        let task = next.fetch_add(1, Ordering::Relaxed);
        if task >= num_tasks {
            break;
        }
        run(task);
    };

    sync::thread::scope(|scope| {
        for _ in 1..workers.min(num_tasks) {
            scope.spawn(worker_loop);
        }
        worker_loop();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::sync::{AtomicUsize, Ordering as O};

    fn assert_each_task_once(num_tasks: usize, workers: usize) {
        let seen: Vec<AtomicUsize> = (0..num_tasks).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(num_tasks, workers, |t| {
            seen[t].fetch_add(1, O::Relaxed);
        });
        for (task, count) in seen.iter().enumerate() {
            assert_eq!(count.load(O::Relaxed), 1, "task {task} ({workers} workers)");
        }
    }

    #[test]
    fn sequential_fallback_covers_all_tasks() {
        assert_each_task_once(17, 1);
        assert_each_task_once(1, 8);
        run_tasks(0, 4, |_| panic!("no tasks to run"));
    }

    #[test]
    fn parallel_runs_each_task_exactly_once() {
        for workers in [2, 3, 4, 8] {
            assert_each_task_once(97, workers);
            assert_each_task_once(workers, workers); // one task per worker
        }
    }

    #[test]
    fn skewed_task_costs_still_complete() {
        // Task 0 is much slower than the rest: the other workers must
        // drain the cursor around it for the run to finish promptly.
        let seen: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(64, 4, |t| {
            let spins = if t == 0 { 20_000 } else { 10 };
            for _ in 0..spins {
                std::hint::black_box(t);
            }
            seen[t].fetch_add(1, O::Relaxed);
        });
        assert!(seen.iter().all(|c| c.load(O::Relaxed) == 1));
    }
}
