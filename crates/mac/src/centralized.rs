//! Centralized serve-in-priority-order scheduling — the substrate beneath
//! LDF/ELDF (Algorithm 1 of the paper).

use rtmac_model::LinkId;
use rtmac_phy::channel::LossModel;
use rtmac_sim::{Nanos, SimRng};

use crate::{IntervalOutcome, MacTiming};

/// A centralized scheduler: given a priority order for the interval, it
/// serves links one after another with retransmissions until each buffer
/// drains, with zero contention overhead (the paper's "up to 60
/// transmissions in each interval" for LDF).
///
/// An optional per-transmission *polling overhead* models the cost a real
/// access point pays to collect state and issue grants — the coordination
/// cost the paper's introduction argues makes centralized scheduling
/// impractical; it is exercised by the ablation benches.
///
/// # Example
///
/// ```
/// use rtmac_mac::{CentralizedEngine, MacTiming};
/// use rtmac_phy::{channel::Bernoulli, PhyProfile};
/// use rtmac_model::LinkId;
/// use rtmac_sim::{Nanos, SeedStream};
///
/// let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
/// let mut engine = CentralizedEngine::new(timing);
/// let mut channel = Bernoulli::reliable(2);
/// let mut rng = SeedStream::new(0).rng(0);
/// let out = engine.run_interval(&[2, 2], &[LinkId::new(0), LinkId::new(1)],
///                               &mut channel, &mut rng);
/// assert_eq!(out.total_deliveries(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CentralizedEngine {
    timing: MacTiming,
    polling_overhead: Nanos,
    /// Which links the order has listed, for the permutation check; sized
    /// on the first interval.
    seen: Vec<bool>,
}

impl CentralizedEngine {
    /// An idealized centralized scheduler with no polling overhead.
    #[must_use]
    pub fn new(timing: MacTiming) -> Self {
        CentralizedEngine {
            timing,
            polling_overhead: Nanos::ZERO,
            seen: Vec::new(),
        }
    }

    /// Adds a fixed overhead before every transmission (state collection +
    /// grant signalling).
    #[must_use]
    pub fn with_polling_overhead(mut self, overhead: Nanos) -> Self {
        self.polling_overhead = overhead;
        self
    }

    /// The timing context.
    #[must_use]
    pub fn timing(&self) -> &MacTiming {
        &self.timing
    }

    /// Runs one interval, serving links in `order` (highest priority
    /// first). A link is served — retransmitting after each loss — until
    /// its buffer drains, then the next link starts; the interval ends when
    /// the next transmission no longer fits before the deadline.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the links implied by
    /// `arrivals`, or if the channel's link count disagrees.
    pub fn run_interval(
        &mut self,
        arrivals: &[u32],
        order: &[LinkId],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        let n = arrivals.len();
        assert_eq!(order.len(), n, "order must list every link exactly once");
        assert_eq!(channel.n_links(), n, "channel link count mismatch");
        self.seen.clear();
        self.seen.resize(n, false);
        for link in order {
            assert!(
                link.index() < n && !self.seen[link.index()],
                "order must be a permutation of the links"
            );
            self.seen[link.index()] = true;
        }

        let mut outcome = IntervalOutcome::empty(n);
        let mut now = Nanos::ZERO;
        for &link in order {
            let airtime = self.timing.data_airtime_for(link.index());
            let step = airtime + self.polling_overhead;
            let mut remaining = arrivals[link.index()];
            while remaining > 0 {
                if !self.timing.fits(now, step) {
                    // This link's frames no longer fit; a lower-priority
                    // link with a smaller payload may still squeeze in.
                    break;
                }
                now += step;
                outcome.attempts[link.index()] += 1;
                outcome.busy_time += airtime;
                if channel.attempt(link, rng) {
                    remaining -= 1;
                    outcome.deliveries[link.index()] += 1;
                    outcome.latency_sum[link.index()] += now;
                }
            }
        }
        outcome.leftover = self.timing.deadline().saturating_sub(now);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac_phy::channel::Bernoulli;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::SeedStream;

    fn timing() -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
    }

    fn order(ids: &[usize]) -> Vec<LinkId> {
        ids.iter().copied().map(LinkId::new).collect()
    }

    #[test]
    fn serves_in_order_until_budget_exhausted() {
        // 16 transmissions fit; reliable channel.
        let mut e = CentralizedEngine::new(timing());
        let mut ch = Bernoulli::reliable(3);
        let mut rng = SeedStream::new(1).rng(0);
        let out = e.run_interval(&[10, 10, 10], &order(&[2, 0, 1]), &mut ch, &mut rng);
        assert_eq!(out.deliveries[2], 10);
        assert_eq!(out.deliveries[0], 6);
        assert_eq!(out.deliveries[1], 0);
        assert_eq!(out.total_attempts(), 16);
    }

    #[test]
    fn retries_consume_budget_on_unreliable_channel() {
        let mut e = CentralizedEngine::new(timing());
        let mut ch = Bernoulli::new(vec![0.5]).unwrap();
        let mut rng = SeedStream::new(2).rng(0);
        let out = e.run_interval(&[16], &order(&[0]), &mut ch, &mut rng);
        assert_eq!(out.attempts[0], 16);
        assert!(out.deliveries[0] < 16);
    }

    #[test]
    fn polling_overhead_reduces_capacity() {
        // 118 µs airtime + 42 µs polling = 160 µs per transmission -> 12 fit.
        let mut e = CentralizedEngine::new(timing()).with_polling_overhead(Nanos::from_micros(42));
        let mut ch = Bernoulli::reliable(1);
        let mut rng = SeedStream::new(3).rng(0);
        let out = e.run_interval(&[16], &order(&[0]), &mut ch, &mut rng);
        assert_eq!(out.deliveries[0], 12);
    }

    #[test]
    fn empty_arrivals_do_nothing() {
        let mut e = CentralizedEngine::new(timing());
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(4).rng(0);
        let out = e.run_interval(&[0, 0], &order(&[0, 1]), &mut ch, &mut rng);
        assert_eq!(out.total_attempts(), 0);
        assert_eq!(out.leftover, Nanos::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn duplicate_order_entry_panics() {
        let mut e = CentralizedEngine::new(timing());
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(5).rng(0);
        let _ = e.run_interval(&[1, 1], &order(&[0, 0]), &mut ch, &mut rng);
    }
}
