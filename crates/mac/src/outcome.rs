//! Per-interval simulation results.

use rtmac_sim::Nanos;

/// What happened during one simulated interval.
///
/// Every MAC engine produces one of these per interval; the `rtmac` core
/// crate feeds `deliveries` into the [`rtmac_model::DebtLedger`] and the
/// figure harness aggregates the overhead counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalOutcome {
    /// On-time data deliveries `S_n(k)` per link.
    pub deliveries: Vec<u64>,
    /// Data transmission attempts per link (failed attempts and frames lost
    /// to collisions included; empty packets excluded).
    pub attempts: Vec<u64>,
    /// Empty priority-claim packets sent (DP protocol only).
    pub empty_packets: u64,
    /// Collision episodes (two or more frames starting together).
    pub collisions: u64,
    /// Total medium-busy time.
    pub busy_time: Nanos,
    /// Idle backoff slots that elapsed.
    pub idle_slots: u64,
    /// Time left unused at the end of the interval (after the last
    /// transmission or slot boundary).
    pub leftover: Nanos,
    /// Per-link sum of delivery completion times (relative to the interval
    /// start) over all delivered packets — `latency_sum[n] / deliveries[n]`
    /// is link `n`'s mean in-interval delivery latency.
    pub latency_sum: Vec<Nanos>,
}

/// A link's interval, as the medium saw it — the engine-event side of the
/// `rtmac-net` frame mapping: each variant corresponds one-to-one to a
/// transport frame kind, so a real deployment can reconstruct the decision
/// stream from heard frames alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkActivity {
    /// The link transmitted data this interval (`attempts > 0`).
    Claim,
    /// The link had backlog but never transmitted data — it deferred to
    /// higher priorities, lost its access coins, or ran out of interval.
    Busy,
    /// The link had no traffic this interval.
    Idle,
}

impl IntervalOutcome {
    /// Classifies what link `link` observably did this interval, given the
    /// `arrivals` it had at the interval start.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn link_activity(&self, link: usize, arrivals: u32) -> LinkActivity {
        if self.attempts[link] > 0 {
            LinkActivity::Claim
        } else if arrivals > 0 {
            LinkActivity::Busy
        } else {
            LinkActivity::Idle
        }
    }

    /// An all-zero outcome for `n` links.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        IntervalOutcome {
            // lint: allow(hot-path-alloc) — caller-owned outcome storage; DpEngine sizes its reused report once, on the first step
            deliveries: vec![0; n],
            // lint: allow(hot-path-alloc) — caller-owned outcome storage; DpEngine sizes its reused report once, on the first step
            attempts: vec![0; n],
            // lint: allow(hot-path-alloc) — caller-owned outcome storage; DpEngine sizes its reused report once, on the first step
            latency_sum: vec![Nanos::ZERO; n],
            ..Default::default()
        }
    }

    /// Total deliveries across links.
    #[must_use]
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries.iter().sum()
    }

    /// Total data attempts across links.
    #[must_use]
    pub fn total_attempts(&self) -> u64 {
        self.attempts.iter().sum()
    }

    /// Mean in-interval delivery latency of one link, if it delivered
    /// anything.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn mean_latency(&self, link: usize) -> Option<Nanos> {
        self.latency_sum[link]
            .as_nanos()
            .checked_div(self.deliveries[link])
            .map(Nanos::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_outcome_is_zeroed() {
        let o = IntervalOutcome::empty(3);
        assert_eq!(o.deliveries, [0, 0, 0]);
        assert_eq!(o.attempts, [0, 0, 0]);
        assert_eq!(o.total_deliveries(), 0);
        assert_eq!(o.collisions, 0);
        assert_eq!(o.busy_time, Nanos::ZERO);
    }

    #[test]
    fn totals_sum_links() {
        let o = IntervalOutcome {
            deliveries: vec![1, 2, 3],
            attempts: vec![2, 2, 4],
            ..IntervalOutcome::empty(3)
        };
        assert_eq!(o.total_deliveries(), 6);
        assert_eq!(o.total_attempts(), 8);
    }

    #[test]
    fn activity_classification_covers_the_three_cases() {
        let mut o = IntervalOutcome::empty(3);
        o.attempts = vec![2, 0, 0];
        assert_eq!(o.link_activity(0, 1), LinkActivity::Claim);
        assert_eq!(o.link_activity(1, 3), LinkActivity::Busy);
        assert_eq!(o.link_activity(2, 0), LinkActivity::Idle);
        // A claim with zero recorded arrivals (e.g. leftover semantics)
        // still reads as a claim: attempts dominate.
        assert_eq!(o.link_activity(0, 0), LinkActivity::Claim);
    }

    #[test]
    fn mean_latency_divides_by_deliveries() {
        let mut o = IntervalOutcome::empty(2);
        o.deliveries = vec![2, 0];
        o.latency_sum = vec![Nanos::from_micros(600), Nanos::ZERO];
        assert_eq!(o.mean_latency(0), Some(Nanos::from_micros(300)));
        assert_eq!(o.mean_latency(1), None);
    }
}
