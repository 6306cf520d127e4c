//! Shared mutation harness for the verify integration tests: the real
//! engine wrapped with one seeded fault, used by both the exhaustive
//! (`mutation.rs`) and statistical (`smc.rs`) conviction pipelines.
//!
//! Not every test crate uses every fault, so dead-code warnings are
//! silenced for this shared module.
#![allow(dead_code)]

use rtmac_mac::{
    DpConfig, DpEngine, DpIntervalReport, FrameKind, MacTiming, PairCoins, TraceEvent,
};
use rtmac_model::{AdjacentTransposition, Permutation};
use rtmac_phy::channel::LossModel;
use rtmac_sim::SimRng;
use rtmac_verify::{CheckConfig, Property, Subject};

/// The seeded faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Reports a collision that never happened.
    PhantomCollision,
    /// Credits link 0 with one extra delivery.
    DoubleCount,
    /// Applies an undrawn adjacent swap to σ without reporting it.
    SilentSwap,
    /// Reports (and applies) a swap at a pair that was never drawn.
    RogueSwap,
    /// Drops empty priority-claim frames from the trace.
    SuppressClaimTrace,
}

impl Fault {
    /// The property each fault must be convicted under.
    pub fn expected_property(self) -> Property {
        match self {
            Fault::PhantomCollision => Property::CollisionFreedom,
            Fault::DoubleCount => Property::ChannelConsistency,
            Fault::SilentSwap | Fault::RogueSwap => Property::SwapDiscipline,
            Fault::SuppressClaimTrace => Property::EmptyClaim,
        }
    }

    /// Swap faults need at least one undrawn pair, hence three links.
    pub fn config(self) -> CheckConfig {
        match self {
            Fault::SilentSwap | Fault::RogueSwap => CheckConfig::new(3, 1),
            _ => CheckConfig::new(2, 1),
        }
    }
}

/// The real engine wrapped with one seeded fault.
#[derive(Debug)]
pub struct FaultySubject {
    engine: DpEngine,
    fault: Fault,
}

impl FaultySubject {
    pub fn new(timing: MacTiming, n_links: usize, fault: Fault) -> Self {
        FaultySubject {
            engine: DpEngine::new(DpConfig::new(timing).with_trace(true), n_links),
            fault,
        }
    }

    pub fn for_config(cfg: &CheckConfig, fault: Fault) -> Self {
        FaultySubject::new(cfg.timing(), cfg.n, fault)
    }
}

impl Subject for FaultySubject {
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
        let mut report = self
            .engine
            .step_with_coins(arrivals, candidates, coins, channel, rng)
            .clone();
        match self.fault {
            Fault::PhantomCollision => report.outcome.collisions += 1,
            Fault::DoubleCount => report.outcome.deliveries[0] += 1,
            Fault::SilentSwap => {
                let t = undrawn_swap(candidates);
                let mutated = self.engine.sigma().with(t);
                self.engine.set_sigma(mutated);
            }
            Fault::RogueSwap => {
                let t = undrawn_swap(candidates);
                let mutated = self.engine.sigma().with(t);
                self.engine.set_sigma(mutated);
                report.swaps.push(t);
            }
            Fault::SuppressClaimTrace => {
                report.trace.retain(|ev| {
                    !matches!(
                        ev,
                        TraceEvent::TxStart {
                            kind: FrameKind::Empty,
                            ..
                        }
                    )
                });
            }
        }
        report
    }
}

/// An adjacent pair that was not drawn this interval. The drawn set is
/// pairwise non-adjacent, so it can never contain both 1 and 2: whichever
/// of the two is absent is a legal undrawn swap (needs N ≥ 3).
pub fn undrawn_swap(candidates: &[usize]) -> AdjacentTransposition {
    let upper = if candidates.contains(&1) { 2 } else { 1 };
    AdjacentTransposition::new(upper)
}

/// A subject whose reordering is dead: it commits no swaps and pins σ to
/// whatever the checker set. Every per-interval safety property still
/// holds (σ changes by exactly the committed swaps — none), so only the
/// global sigma-liveness check can convict it.
#[derive(Debug)]
pub struct FrozenSigmaSubject {
    engine: DpEngine,
}

impl FrozenSigmaSubject {
    pub fn new(timing: MacTiming, n_links: usize) -> Self {
        FrozenSigmaSubject {
            engine: DpEngine::new(DpConfig::new(timing).with_trace(true), n_links),
        }
    }
}

impl Subject for FrozenSigmaSubject {
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
        let before = self.engine.sigma().clone();
        let mut report = self
            .engine
            .step_with_coins(arrivals, candidates, coins, channel, rng)
            .clone();
        report.swaps.clear();
        self.engine.set_sigma(before);
        report
    }
}
