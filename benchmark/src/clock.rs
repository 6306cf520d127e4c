//! The benchmark's only access to the host clock.
//!
//! Every timing in the benchmark goes through [`Stamp`], so the audited
//! wall-clock waivers live here and nowhere else. Measured durations are
//! reported, never fed back into a simulated decision: the workloads'
//! outputs are checked to be identical however long each step took.

// lint: allow(wall-clock) — measuring host time is the benchmark's purpose; no simulated decision reads it.
pub use std::time::Instant as Stamp;

/// The current instant.
#[must_use]
pub fn now() -> Stamp {
    Stamp::now()
}

/// Nanoseconds from `from` to `to`, saturating at zero and at `u64::MAX`.
#[must_use]
pub fn ns_between(from: Stamp, to: Stamp) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `from`, as a `u32` latency sample (saturating at
/// about 4.3 s, far beyond any single interval).
#[must_use]
pub fn sample_ns(from: Stamp, to: Stamp) -> u32 {
    u32::try_from(ns_between(from, to)).unwrap_or(u32::MAX)
}

/// Seconds since the Unix epoch, for stamping recorded results.
#[must_use]
pub fn unix_seconds() -> u64 {
    // lint: allow(wall-clock) — a recorded result carries the date it was measured; nothing is decided by it.
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}
