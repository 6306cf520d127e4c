//! The deterministic batch runner: maps a job function over a batch of
//! independent jobs (sweep points, scenarios, sample batches) on a bounded
//! worker pool.
//!
//! Two properties matter more than raw speed here:
//!
//! * **Bounded fan-out** — a fixed number of workers share one job queue,
//!   so a 10 000-point sweep never spawns 10 000 OS threads. The queue
//!   hands out job indices in input order to whichever worker asks next,
//!   so a worker that drew a slow job (an N = 10 000 point next to an
//!   N = 10 point) never leaves the others idle while jobs remain.
//! * **Worker-count independence** — every job owns its RNG (seeded from
//!   the scenario, never from thread identity) and writes its result into
//!   its input slot, so the output is bit-identical whether the pool has 1
//!   worker or 64, and no matter which worker ran which job.
//!
//! The pool is `std::thread::scope` over three shared objects: one
//! `Mutex` around the enumerated job iterator, one `Mutex<Option<R>>`
//! result slot per job, and an `AtomicUsize` progress counter. Each
//! property this design promises is carried by a named test or by the
//! construction itself (DESIGN.md §12).
//!
//! # Example
//!
//! ```
//! use rtmac::runner::Runner;
//! use rtmac::scenario;
//!
//! let sc = scenario::tiny(9).with_intervals(50);
//! // One job per seed; the reports come back in input order.
//! let reports = Runner::new(2).map(vec![9, 10, 11], |seed| sc.clone().with_seed(seed).run());
//! assert_eq!(reports.len(), 3);
//! assert_eq!(reports[0], Ok(sc.run()?));
//! # Ok::<(), rtmac_model::ConfigError>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A bounded worker pool for batches of independent jobs.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    workers: usize,
}

impl Default for Runner {
    /// One worker per available CPU.
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Runner { workers }
    }
}

impl Runner {
    /// A runner with a fixed worker count (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Runner {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` on the worker pool. Results come back in input
    /// order and do not depend on the worker count; at most
    /// `min(workers, items.len())` threads run at once.
    ///
    /// # Panics
    ///
    /// Propagates the first panic from `f`, after every worker has been
    /// joined. A panicking worker does not strand the rest of the batch:
    /// the surviving workers drain the queue before the panic re-raises
    /// on the caller, and it cannot deadlock the pool (no lock is held
    /// while a job runs). Only the panicking job's own result is lost.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_core(items, f, |_, _| {})
    }

    /// [`Runner::map`] with a live progress callback.
    ///
    /// `on_progress(completed, total)` fires after every finished job, from
    /// whichever worker finished it. Each count from 1 to `total` is
    /// reported exactly once (a shared atomic hands them out), but calls
    /// from different workers may arrive in any order: the call that
    /// reports `total` need not be the last one.
    ///
    /// The returned results are identical to [`Runner::map`]: the callback
    /// observes progress but cannot perturb results or their order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` or `on_progress`, under the same
    /// join-first contract as [`Runner::map`].
    pub fn map_with_progress<T, R, F, P>(&self, items: Vec<T>, f: F, on_progress: P) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        P: Fn(usize, usize) + Sync,
    {
        self.map_core(items, f, on_progress)
    }

    fn map_core<T, R, F, P>(&self, items: Vec<T>, f: F, on_progress: P) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        P: Fn(usize, usize) + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for (done, item) in items.into_iter().enumerate() {
                out.push(f(item));
                on_progress(done + 1, n);
            }
            return out;
        }
        // One shared queue gives each job index to whichever worker asks
        // next, and each result lands in its own index's slot: output order
        // is input order, and the schedule cannot leak into the results.
        let queue = Mutex::new(items.into_iter().enumerate());
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let completed = AtomicUsize::new(0);
        // Both locks absorb poison: nothing done under either one can
        // panic midway (advancing the iterator, storing a result), so their
        // data stays coherent, and a job's panic re-raises after the joins
        // below.
        let work = || loop {
            // The queue guard drops at the end of this statement, so no
            // worker holds it while a job runs.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                break;
            };
            let result = f(item);
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            // lint: allow(relaxed-ordering-audit) — `completed` is the
            // progress counter and nothing else: fetch_add's atomicity
            // alone guarantees unique, monotone `done` values, and result
            // visibility is ordered by the per-index slot mutexes plus the
            // joins below, so the counter needs no ordering of its own.
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            on_progress(done, n);
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            // Join explicitly and re-raise the original payload: a bare
            // scope would replace it with its own "a scoped thread
            // panicked" panic.
            let mut first_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // lint: allow(panic-expect) — workers retire only once
                    // the queue is empty and the scope joined them all
                    // (propagating any panic), so every index was claimed
                    // and its slot filled; an empty slot would silently
                    // misalign results with inputs, so fail loudly instead.
                    .expect("worker completed every claimed job")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{self, PolicySpec};
    use crate::RunReport;

    #[test]
    fn map_preserves_order_and_bounds_threads() {
        let runner = Runner::new(3);
        let out = runner.map((0..64).collect(), |x: i32| x * x);
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<i32>>());
        // Degenerate pools still work.
        assert_eq!(Runner::new(0).workers(), 1);
        assert!(Runner::new(5).map(Vec::<i32>::new(), |x| x).is_empty());
    }

    #[test]
    fn map_with_progress_reports_every_completion() {
        // Tally every reported count: each of 1..=97 must arrive exactly
        // once, which a repeated count paired with a skipped one fails.
        let tally: Vec<AtomicUsize> = (0..=97).map(|_| AtomicUsize::new(0)).collect();
        let out = Runner::new(4).map_with_progress(
            (0..97).collect(),
            |x: u64| x + 1,
            |done, total| {
                assert_eq!(total, 97);
                assert!(done >= 1 && done <= total);
                tally[done].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(out, (1..=97).collect::<Vec<u64>>());
        for (done, hits) in tally.iter().enumerate().skip(1) {
            assert_eq!(hits.load(Ordering::SeqCst), 1, "count {done}");
        }
    }

    #[test]
    fn map_keeps_input_order_under_skewed_job_costs() {
        // The slow jobs all sit at the front of the batch, so later jobs
        // can finish first; at every pool size the results must still
        // come back in input order, and every job must run exactly once.
        for workers in [2, 3, 4, 8] {
            let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
            let out = Runner::new(workers).map((0..40).collect(), |x: usize| {
                runs[x].fetch_add(1, Ordering::SeqCst);
                if x < 10 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x * 3
            });
            assert_eq!(
                out,
                (0..40).map(|x| x * 3).collect::<Vec<usize>>(),
                "{workers} workers"
            );
            for (i, hits) in runs.iter().enumerate() {
                assert_eq!(hits.load(Ordering::SeqCst), 1, "job {i}, {workers} workers");
            }
        }
    }

    #[test]
    fn map_propagates_worker_panic_after_finishing_other_jobs() {
        // The documented contract on Runner::map: a panicking job
        // surfaces its payload on the caller, the pool neither deadlocks
        // nor strands work, and every *other* job still executes (the
        // surviving workers drain the queue).
        let executed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Runner::new(3).map((0..24).collect::<Vec<usize>>(), |x| {
                executed.fetch_add(1, Ordering::SeqCst);
                assert!(x != 11, "job 11 exploded");
                x
            });
        }));
        let payload = result.expect_err("the job panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .expect("assert! with a literal message panics with a &str payload");
        assert!(msg.contains("job 11 exploded"), "got: {msg}");
        // All 24 jobs entered `f` (the panicking one counts itself
        // before unwinding): no job was silently dropped.
        assert_eq!(executed.load(Ordering::SeqCst), 24);
    }

    #[test]
    fn runner_output_is_worker_count_independent() {
        // The satellite determinism check: the fig3 sweep (at its
        // bench seed, shortened horizon) must produce identical reports
        // under 1 worker and many workers.
        let sweep = scenario::fig3(30, 2018);
        let scenarios: Vec<_> = sweep
            .scenarios()
            .into_iter()
            .map(|sc| sc.with_policy(PolicySpec::Ldf))
            .collect();
        let run = |workers: usize| -> Vec<RunReport> {
            Runner::new(workers).map(scenarios.clone(), |sc| sc.run().expect("valid scenario"))
        };
        let single = run(1);
        let pooled = run(4);
        assert_eq!(single, pooled);
    }
}
