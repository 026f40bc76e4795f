//! Parallel execution of per-shard solves: one shared task cursor.
//!
//! Shard tasks form a fixed list known up front, and a task never
//! spawns children, so there is nothing for work stealing to
//! rebalance: every worker claims the next unclaimed index with one
//! `fetch_add` until the cursor passes the end. A slow task holds only
//! its own worker; the others keep draining the cursor. The scope join
//! is the completion barrier.
//!
//! Everything a worker needs besides the cursor is its own: it builds
//! its state once, before its first task, and keeps its results in a
//! list of its own, which the join hands back to be merged. Tasks share
//! no slot, lock or counter.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `run(state, task)` for every task in `0..num_tasks` across up to
/// `workers` threads, each task exactly once, in unspecified order, and
/// return the results in task order. Each worker builds its `state` with
/// `init` once, before its first task. The calling thread is worker 0;
/// at most `min(workers, num_tasks) - 1` scoped threads are spawned,
/// so one worker (or one task) spawns nothing.
pub fn run_tasks<S, R, I, F>(num_tasks: usize, workers: usize, init: I, run: F) -> Vec<R>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let worker_loop = |results: &mut Vec<(usize, R)>| {
        let mut state = None;
        loop {
            // ordering: Relaxed — the ticket value itself is the claim,
            // and the scope join publishes every task's side effects.
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= num_tasks {
                break;
            }
            let state = state.get_or_insert_with(&init);
            results.push((task, run(state, task)));
        }
    };

    let mut results = Vec::with_capacity(num_tasks);
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(num_tasks))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    worker_loop(&mut mine);
                    mine
                })
            })
            .collect();
        worker_loop(&mut results);
        for worker in spawned {
            match worker.join() {
                Ok(mut mine) => results.append(&mut mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results.sort_unstable_by_key(|&(task, _)| task);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as O};

    fn assert_each_task_once(num_tasks: usize, workers: usize) {
        let seen: Vec<AtomicUsize> = (0..num_tasks).map(|_| AtomicUsize::new(0)).collect();
        let inits = AtomicUsize::new(0);
        let results = run_tasks(
            num_tasks,
            workers,
            || inits.fetch_add(1, O::Relaxed),
            |_, t| {
                seen[t].fetch_add(1, O::Relaxed);
                t
            },
        );
        for (task, count) in seen.iter().enumerate() {
            assert_eq!(count.load(O::Relaxed), 1, "task {task} ({workers} workers)");
        }
        assert_eq!(results, (0..num_tasks).collect::<Vec<_>>(), "task order");
        assert!(
            inits.load(O::Relaxed) <= workers.min(num_tasks),
            "one state per worker"
        );
    }

    #[test]
    fn sequential_fallback_covers_all_tasks() {
        assert_each_task_once(17, 1);
        assert_each_task_once(1, 8);
        let none: Vec<()> = run_tasks(
            0,
            4,
            || panic!("no worker state"),
            |_: &mut (), _| panic!("no tasks to run"),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn parallel_runs_each_task_exactly_once() {
        for workers in [2, 3, 4, 8] {
            assert_each_task_once(97, workers);
            assert_each_task_once(workers, workers); // one task per worker
        }
    }

    #[test]
    fn worker_state_persists_across_its_tasks() {
        // Each worker counts its own tasks in its state, so as many tasks
        // see a count of 1 as workers started, and no more than three.
        let results = run_tasks(
            64,
            3,
            || 0usize,
            |count, _| {
                *count += 1;
                *count
            },
        );
        let firsts = results.iter().filter(|&&c| c == 1).count();
        assert!((1..=3).contains(&firsts), "{firsts} workers started");
        assert_eq!(results.len(), 64);
    }

    #[test]
    fn skewed_task_costs_still_complete() {
        // Task 0 is much slower than the rest: the other workers must
        // drain the cursor around it for the run to finish promptly.
        let seen: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(
            64,
            4,
            || (),
            |_, t| {
                let spins = if t == 0 { 20_000 } else { 10 };
                for _ in 0..spins {
                    std::hint::black_box(t);
                }
                seen[t].fetch_add(1, O::Relaxed);
            },
        );
        assert!(seen.iter().all(|c| c.load(O::Relaxed) == 1));
    }
}
