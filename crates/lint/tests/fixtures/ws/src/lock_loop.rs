//! Fixture: the lock-in-loop-hold rule.

use std::sync::Mutex;

/// Holds the own-range guard across the victim scan — the
/// symmetric-deadlock shape the rule convicts.
pub fn deadlocking_scan(ranges: &[Mutex<(usize, usize)>], w: usize) {
    let mut own = ranges[w].lock();
    for v in 0..ranges.len() {
        let other = ranges[v].lock();
        own.0 = other.0;
    }
}

/// Scoping the first guard out before the loop is the sanctioned shape.
pub fn scoped_scan(ranges: &[Mutex<(usize, usize)>], w: usize) -> usize {
    let lo = {
        let own = ranges[w].lock();
        own.0
    };
    let mut sum = lo;
    for v in 0..ranges.len() {
        let other = ranges[v].lock();
        sum = other.0;
    }
    sum
}

/// An explicit `drop` before the loop also releases the guard in time.
pub fn dropping_scan(ranges: &[Mutex<(usize, usize)>], w: usize) {
    let own = ranges[w].lock();
    drop(own);
    while let Some(v) = next_victim() {
        let _other = ranges[v].lock();
    }
}
