//! Fixture: the relaxed-ordering-audit rule.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Bumps a counter with `Relaxed` and no audited waiver — flagged.
pub fn bump(counter: &AtomicUsize) -> usize {
    counter.fetch_add(1, Ordering::Relaxed)
}

/// SeqCst needs no waiver, and a bare `Relaxed` ident is not an ordering.
pub fn quiet(counter: &AtomicUsize, mode: Mode) -> usize {
    let _mode = Mode::Relaxed;
    drop(mode);
    counter.load(Ordering::SeqCst)
}

/// A waived `Relaxed` load names the counter and stays silent.
pub fn audited(counter: &AtomicUsize) -> usize {
    // lint: allow(relaxed-ordering-audit) — fixture: `counter` is a tally
    // whose atomicity alone carries the invariant; its value orders nothing.
    counter.load(Ordering::Relaxed)
}
