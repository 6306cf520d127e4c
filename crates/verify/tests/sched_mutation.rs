//! Mutation testing of the interleaving checker: seeded concurrency
//! faults in a mirror of the runner's job-queue loop must be convicted,
//! each under the property it actually breaks, while the faithful mirror
//! and the real [`rtmac::Runner`] pass the identical exploration. This is
//! the evidence that the checker's verdicts carry information — a checker
//! that passes everything proves nothing.
//!
//! Every conviction also replays: the counterexample's decision schedule
//! reproduces the violation on a fresh faulty pool.

use rtmac::runner::SchedProbe;
use rtmac::sync::{run_threads, Mutex, Ordering};
use rtmac_verify::{
    explore, replay_schedule, RunnerSubject, SchedConfig, SchedProperty, SchedSubject,
};

/// The seeded concurrency faults. Each is a small, realistic slip in the
/// queue loop — the kind a refactor could introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Faithful mirror of the runner's loop; must pass.
    None,
    /// Reads the queue cursor under one lock, drops the guard, then
    /// re-locks to advance it. Two workers that both read before either
    /// advances claim the same index.
    SplitCursorUpdate,
    /// A worker that finds the queue empty waits for the progress counter
    /// to reach the total instead of retiring. Scheduled ahead of the
    /// worker still running the last job, it spins forever — a livelock.
    SpinOnProgress,
    /// The worker that finds the queue empty retires without releasing
    /// the queue guard. The next worker to ask for a job blocks forever.
    LeakGuardOnRetire,
    /// Replaces the progress counter's `fetch_add` with a load/store
    /// pair. Interleaved updates tear, so completions are lost.
    TornProgressUpdate,
    /// Routes the last job's result into its neighbour's slot: one slot
    /// is written twice and one never.
    MisroutedSlot,
    /// Mixes the worker id into the result, leaking the schedule into the
    /// output.
    WorkerIdInResult,
}

impl Fault {
    fn expected_property(self) -> SchedProperty {
        match self {
            Fault::None => unreachable!("the faithful mirror must pass"),
            Fault::SpinOnProgress | Fault::LeakGuardOnRetire => SchedProperty::DeadlockFree,
            Fault::SplitCursorUpdate | Fault::TornProgressUpdate => SchedProperty::ExactlyOnce,
            Fault::MisroutedSlot => SchedProperty::SlotWriteOnce,
            Fault::WorkerIdInResult => SchedProperty::OutputDeterminism,
        }
    }
}

/// A mirror of [`rtmac::Runner`]'s parallel `map` loop over the same
/// `rtmac::sync` facade, with one seeded fault. Mirrors rather than
/// wraps: faults must live inside the claim/retire logic, which the real
/// runner (correctly) does not expose. Job `i`'s input is `i` itself, so
/// the queue is the index range.
struct FaultyPool {
    fault: Fault,
}

impl SchedSubject for FaultyPool {
    fn run(
        &self,
        workers: usize,
        jobs: usize,
        f: &(dyn Fn(usize) -> usize + Sync),
        on_progress: &(dyn Fn(usize, usize) + Sync),
        probe: &dyn SchedProbe,
    ) -> Vec<usize> {
        assert!(
            workers >= 2 && jobs >= workers,
            "mirror covers the parallel path"
        );
        let n = jobs;
        let queue = Mutex::new(0..n);
        let slots: Vec<Mutex<Option<usize>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let completed = rtmac::sync::AtomicUsize::new(0);
        let fault = self.fault;
        run_threads(workers, |w| loop {
            let next = match fault {
                Fault::SplitCursorUpdate => {
                    let cursor = queue.lock().start;
                    (cursor < n).then(|| {
                        queue.lock().start = cursor + 1;
                        cursor
                    })
                }
                Fault::LeakGuardOnRetire => {
                    let mut guard = queue.lock();
                    let next = guard.next();
                    if next.is_none() {
                        std::mem::forget(guard);
                    }
                    next
                }
                _ => queue.lock().next(),
            };
            let Some(i) = next else {
                if fault == Fault::SpinOnProgress {
                    while completed.load(Ordering::SeqCst) < n {}
                }
                probe.retired(w);
                break;
            };
            probe.claimed(w, i);
            let result = match fault {
                Fault::WorkerIdInResult => f(i) + w,
                _ => f(i),
            };
            let target = match fault {
                Fault::MisroutedSlot if i == n - 1 => n - 2,
                _ => i,
            };
            *slots[target].lock() = Some(result);
            probe.slot_written(w, target);
            let done = if fault == Fault::TornProgressUpdate {
                // Torn read-modify-write: a concurrent completion between
                // the load and the store is lost.
                let d = completed.load(Ordering::SeqCst) + 1;
                completed.store(d, Ordering::SeqCst);
                d
            } else {
                completed.fetch_add(1, Ordering::SeqCst) + 1
            };
            on_progress(done, n);
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or(usize::MAX))
            .collect()
    }
}

fn cfg() -> SchedConfig {
    SchedConfig::new(2, 4, 2)
}

/// The full conviction pipeline for one fault: the explorer catches it
/// under the expected property, the recorded schedule replays to the
/// same verdict on a fresh faulty pool, and the schedule is non-trivial.
fn convict(fault: Fault) {
    let cfg = cfg();
    let ce =
        explore(&FaultyPool { fault }, &cfg).expect_err(&format!("{fault:?} must be convicted"));
    assert_eq!(
        ce.property,
        fault.expected_property(),
        "{fault:?} convicted under the wrong property: {}",
        ce.detail
    );
    assert!(
        !ce.schedule.is_empty(),
        "{fault:?}: a conviction needs a non-empty decision schedule"
    );
    let again = replay_schedule(&FaultyPool { fault }, &cfg, &ce.schedule)
        .expect_err("the recorded schedule must reproduce the violation");
    assert_eq!(
        again.property, ce.property,
        "{fault:?}: replay reached a different verdict"
    );
}

#[test]
fn the_faithful_mirror_passes_the_exploration() {
    let stats =
        explore(&FaultyPool { fault: Fault::None }, &cfg()).expect("the faithful mirror must pass");
    assert!(stats.complete, "the bounded search must drain its frontier");
}

#[test]
fn the_real_runner_passes_the_identical_exploration() {
    let stats = explore(&RunnerSubject, &cfg()).expect("the real runner must pass");
    assert!(stats.complete);
    // The mirror takes the same scheduling points as the runner, so both
    // searches visit the same interleavings.
    let mirror = explore(&FaultyPool { fault: Fault::None }, &cfg()).expect("mirror passes");
    assert_eq!(
        (stats.executions, stats.decisions),
        (mirror.executions, mirror.decisions)
    );
}

#[test]
fn convicts_a_split_cursor_update_as_a_double_claim() {
    convict(Fault::SplitCursorUpdate);
}

#[test]
fn convicts_spinning_on_progress_as_a_livelock() {
    convict(Fault::SpinOnProgress);
}

#[test]
fn convicts_a_leaked_queue_guard_as_deadlock() {
    convict(Fault::LeakGuardOnRetire);
}

#[test]
fn convicts_a_torn_progress_update_as_a_lost_completion() {
    convict(Fault::TornProgressUpdate);
}

#[test]
fn convicts_a_misrouted_slot_write() {
    convict(Fault::MisroutedSlot);
}

#[test]
fn convicts_worker_identity_leaking_into_results() {
    convict(Fault::WorkerIdInResult);
}
