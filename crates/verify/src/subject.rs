//! The system under check.

use rtmac_mac::{DpConfig, DpEngine, DpIntervalReport, MacTiming, PairCoins};
use rtmac_model::Permutation;
use rtmac_phy::channel::LossModel;
use rtmac_sim::SimRng;

/// Anything the model checker can drive through one DP interval with
/// every protocol decision injected.
///
/// The production implementation is [`EngineSubject`] (the real
/// [`DpEngine`]); the mutation-test harness in `crates/verify/tests`
/// implements deliberately faulty subjects to prove the checker catches
/// each property violation with a replayable counterexample.
pub trait Subject {
    /// Number of links.
    fn n_links(&self) -> usize;

    /// The current priority permutation σ.
    fn sigma(&self) -> &Permutation;

    /// Overrides the priority permutation before an interval.
    fn set_sigma(&mut self, sigma: Permutation);

    /// Runs one interval with the candidate draw, the coin flips, and the
    /// channel outcomes all injected. The report must carry a full
    /// [`rtmac_mac::TraceEvent`] timeline.
    fn run_interval(
        &mut self,
        arrivals: &[u32],
        candidates: &[usize],
        coins: &[PairCoins],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> DpIntervalReport;
}

/// The real DP engine as a checkable [`Subject`], with tracing enabled so
/// the empty-claim property can be read off the interval timeline.
#[derive(Debug, Clone)]
pub struct EngineSubject {
    engine: DpEngine,
}

impl EngineSubject {
    /// Creates the subject with the identity priority ordering.
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn new(timing: MacTiming, n_links: usize) -> Self {
        EngineSubject {
            engine: DpEngine::new(DpConfig::new(timing).with_trace(true), n_links),
        }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &DpEngine {
        &self.engine
    }
}

impl Subject for EngineSubject {
    fn n_links(&self) -> usize {
        self.engine.n_links()
    }

    fn sigma(&self) -> &Permutation {
        self.engine.sigma()
    }

    fn set_sigma(&mut self, sigma: Permutation) {
        self.engine.set_sigma(sigma);
    }

    fn run_interval(
        &mut self,
        arrivals: &[u32],
        candidates: &[usize],
        coins: &[PairCoins],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> DpIntervalReport {
        self.engine
            .step_with_coins(arrivals, candidates, coins, channel, rng)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitScript;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::{Nanos, SeedStream};

    #[test]
    fn engine_subject_round_trips_sigma_and_traces() {
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
        let mut s = EngineSubject::new(timing, 3);
        assert_eq!(s.n_links(), 3);
        let sigma = Permutation::from_priorities(vec![2, 1, 3]).unwrap();
        s.set_sigma(sigma.clone());
        assert_eq!(s.sigma(), &sigma);

        let mut ch = BitScript::new(3, Vec::new());
        let mut rng = SeedStream::new(0).rng(0);
        let coins = [PairCoins {
            hi_up: true,
            lo_up: false,
        }];
        let r = s.run_interval(&[1, 1, 1], &[1], &coins, &mut ch, &mut rng);
        assert_eq!(r.outcome.total_deliveries(), 3);
        assert!(!r.trace.is_empty(), "tracing must be on for the checker");
        assert_eq!(ch.consumed(), 3);
        assert!(s.engine().config().trace());
    }
}
