//! Synchronization facade for the job-queue [`Runner`](crate::Runner).
//!
//! Every concurrency primitive the runner touches goes through this module
//! instead of `std::sync` directly (the `raw-sync-primitive` lint rule
//! enforces it). In production the types here are thin wrappers over the
//! `std` primitives with no extra blocking behaviour. When the calling
//! thread is inside a [`model::run_model`] execution, the same types route
//! every acquire/release/atomic op through a cooperative scheduler that
//! serializes the threads and explores interleavings deterministically —
//! the loom-style checker in `rtmac-verify`'s `sched` module drives that
//! mode.
//!
//! Whether an instance is *modeled* is decided at construction time: a
//! [`Mutex`] or [`AtomicUsize`] created while a model execution is active
//! on the current thread participates in the model; one created outside
//! stays a plain `std` primitive forever. The runner creates all of its
//! shared state inside `map`, so the same runner code runs unmodified in
//! both worlds.
//!
//! Poisoning is absorbed: a poisoned lock only means another worker
//! panicked, and [`run_threads`] re-raises that panic at join, so the data
//! behind the lock is still coherent for the runner's purposes.

pub mod model;

pub use std::sync::atomic::Ordering;

/// A mutual-exclusion lock; `std::sync::Mutex` in production, a
/// scheduler-visible lock inside a [`model`] execution.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    lock: Option<model::LockId>,
}

impl<T> Mutex<T> {
    /// Wraps `value` in a new lock. If a model execution is active on this
    /// thread, the lock registers with it and every later acquire/release
    /// becomes a scheduling point.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
            lock: model::register_lock(),
        }
    }

    /// Acquires the lock, blocking until it is free. Poisoning is absorbed
    /// (see the module docs).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(id) = self.lock {
            model::acquire(id);
        }
        MutexGuard {
            guard: self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            lock: self.lock,
        }
    }

    /// Consumes the lock and returns the protected value, absorbing poison.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The guard returned by [`Mutex::lock`]; releases the lock on drop (and
/// tells the model scheduler, when one is active).
pub struct MutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    lock: Option<model::LockId>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(id) = self.lock {
            // The model lock frees *before* the std guard drops, but no
            // other model thread can reach the std mutex until this thread
            // parks at its next scheduling point, which is after the drop
            // completes.
            model::release(id);
        }
    }
}

/// A shared counter; `std::sync::atomic::AtomicUsize` in production, with
/// every operation a scheduling point inside a model execution.
pub struct AtomicUsize {
    inner: std::sync::atomic::AtomicUsize,
    modeled: bool,
}

impl AtomicUsize {
    /// A new counter holding `value`; modeled iff a model execution is
    /// active on the constructing thread.
    #[must_use]
    pub fn new(value: usize) -> Self {
        AtomicUsize {
            inner: std::sync::atomic::AtomicUsize::new(value),
            modeled: model::in_model_context(),
        }
    }

    /// Atomically loads the value.
    #[must_use]
    pub fn load(&self, order: Ordering) -> usize {
        if self.modeled {
            model::atomic_yield();
        }
        self.inner.load(order)
    }

    /// Atomically stores `value`.
    pub fn store(&self, value: usize, order: Ordering) {
        if self.modeled {
            model::atomic_yield();
        }
        self.inner.store(value, order);
    }

    /// Atomically adds `value`, returning the previous value.
    pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
        if self.modeled {
            model::atomic_yield();
        }
        self.inner.fetch_add(value, order)
    }

    /// Atomically stores the maximum of the current and given values,
    /// returning the previous value.
    pub fn fetch_max(&self, value: usize, order: Ordering) -> usize {
        if self.modeled {
            model::atomic_yield();
        }
        self.inner.fetch_max(value, order)
    }
}

/// Runs `f(0)`, …, `f(n - 1)` on `n` concurrent workers and joins them
/// all. In production this is `std::thread::scope`; inside a model
/// execution the workers become scheduler-controlled model threads whose
/// interleaving follows the execution's policy.
///
/// # Panics
///
/// If a worker panics, the panic is re-raised on the calling thread after
/// every worker has been joined — the same contract as
/// `std::thread::scope`. Under a model execution a detected deadlock
/// aborts the body with a sentinel panic that [`model::run_model`]
/// converts into a [`model::RunTrace::deadlock`] report.
pub fn run_threads<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if let Some(exec) = model::current_execution() {
        model::run_threads_model(&exec, n, &f);
        return;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|w| {
                let f = &f;
                scope.spawn(move || f(w))
            })
            .collect();
        // Join explicitly and re-raise the original payload: a bare scope
        // would replace it with its own "a scoped thread panicked" panic.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_mutex_is_a_plain_lock() {
        let m = Mutex::new(7);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn production_atomic_counts() {
        let a = AtomicUsize::new(0);
        assert_eq!(a.fetch_add(3, Ordering::SeqCst), 0);
        a.store(10, Ordering::SeqCst);
        assert_eq!(a.fetch_max(4, Ordering::SeqCst), 10);
        assert_eq!(a.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn run_threads_joins_all_workers() {
        let hits = AtomicUsize::new(0);
        run_threads(4, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn run_threads_propagates_worker_panics() {
        let caught = std::panic::catch_unwind(|| {
            run_threads(3, |w| {
                if w == 1 {
                    panic!("worker down");
                }
            });
        });
        let payload = caught.expect_err("the worker panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker down"));
    }
}
