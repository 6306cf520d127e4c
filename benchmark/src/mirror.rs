//! A staged copy of `Network::step`, built only from public functions, so
//! the traced run can time each layer an interval passes through.
//!
//! The copy runs the DB-DP policy on whichever DP kernel the scenario
//! selects — the timeline engine, the batched kernel, or the degraded
//! engine of the fault experiments — in `Network::step`'s order:
//!
//! 1. `ArrivalProcess::sample` on RNG lane 1;
//! 2. `eq14_mu` for every link;
//! 3. the engine's interval on RNG lane 2;
//! 4. the hand-off of the interval outcome (a clone for the batched
//!    kernel, whose report is an engine-owned buffer; a move otherwise);
//! 5. `DebtLedger::settle_interval`;
//! 6. `DeficiencySeries::record`;
//! 7. the network's accumulators (and the churn-event drain).
//!
//! [`Mirror::matches`] holds the copy to `Network::run`'s deficiency
//! series, final debts, attempts and counters exactly; a mismatch means
//! the copy no longer measures what the simulator does.

use rtmac::mac::{
    BatchedDpEngine, ChurnEvent, DpConfig, DpEngine, FaultStats, FaultyDpEngine, IntervalOutcome,
    MacTiming, RecoveryConfig,
};
use rtmac::model::influence::DebtInfluence;
use rtmac::model::metrics::DeficiencySeries;
use rtmac::model::{DebtLedger, LinkId, Requirements};
use rtmac::phy::channel::Bernoulli;
use rtmac::phy::fault::{ChurnProcess, FaultModel};
use rtmac::phy::PhyProfile;
use rtmac::scenario::{EngineSpec, Scenario, TrafficSpec};
use rtmac::sim::{Nanos, SeedStream, SimRng};
use rtmac::traffic::{ArrivalProcess, BernoulliArrivals, BurstUniform, ConstantArrivals};
use rtmac::{eq14_mu, PolicySpec, RunReport};

use crate::clock::{now, Stamp};

/// Span names, parent first: the whole staged interval, then its stages.
pub const SPANS: [&str; 8] = [
    "core.network.step",
    "traffic.sample",
    "core.policy.mu",
    "mac.engine",
    "core.policy.handoff",
    "model.settle",
    "model.deficiency",
    "core.network.accumulate",
];

/// Per-interval work counts the engine reported, summed over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounts {
    /// `eq14_mu` evaluations.
    pub mu_evals: u64,
    /// Data transmission attempts.
    pub attempts: u64,
    /// On-time deliveries.
    pub deliveries: u64,
    /// Empty priority-claim packets.
    pub empty_packets: u64,
    /// Idle backoff slots.
    pub idle_slots: u64,
    /// Swap candidates drawn.
    pub candidates: u64,
    /// Swaps committed.
    pub swaps: u64,
    /// Collision episodes.
    pub collisions: u64,
}

enum Engine {
    Timeline(Box<DpEngine>),
    Batched(Box<BatchedDpEngine>),
    Faulty(Box<FaultyDpEngine>),
}

/// The staged network.
pub struct Mirror {
    traffic: Box<dyn ArrivalProcess>,
    channel: Bernoulli,
    engine: Engine,
    influence: Box<dyn DebtInfluence>,
    r: f64,
    p: Vec<f64>,
    mu: Vec<f64>,
    debts: DebtLedger,
    deficiency: DeficiencySeries,
    arrival_rng: SimRng,
    protocol_rng: SimRng,
    arrivals: Vec<u32>,
    attempts: Vec<u64>,
    latency_sums: Vec<Nanos>,
    collisions: u64,
    empty_packets: u64,
    idle_slots: u64,
    busy_time: Nanos,
    churn_events: Vec<ChurnEvent>,
    counts: MacCounts,
}

impl std::fmt::Debug for Mirror {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mirror")
            .field("links", &self.p.len())
            .field("intervals", &self.deficiency.len())
            .finish_non_exhaustive()
    }
}

impl Mirror {
    /// Builds the staged copy of `sc.network()`.
    ///
    /// # Errors
    ///
    /// Returns a message for a scenario outside what the copy reproduces
    /// (any policy but DB-DP; tracking, admission, bursty sensing, hidden
    /// terminals, scripted churn or flash crowds) or with invalid
    /// parameters.
    pub fn new(sc: &Scenario) -> Result<Self, String> {
        let PolicySpec::DbDp {
            influence,
            r,
            swap_pairs,
        } = sc.policy
        else {
            return Err(format!(
                "the staged copy runs DB-DP only, not {}",
                sc.policy.label()
            ));
        };
        if sc.track.is_some() || sc.admission.is_some() {
            return Err("the staged copy does not track links or gate admission".into());
        }
        let n = sc.links;
        let err = |e: rtmac::model::ConfigError| e.to_string();
        let traffic: Box<dyn ArrivalProcess> = match &sc.traffic {
            TrafficSpec::Burst { alpha, burst_max } => {
                Box::new(BurstUniform::new(alpha.expand(n), *burst_max).map_err(err)?)
            }
            TrafficSpec::Bernoulli { lambda } => {
                Box::new(BernoulliArrivals::new(lambda.expand(n)).map_err(err)?)
            }
            TrafficSpec::Constant => Box::new(ConstantArrivals::one_each(n).map_err(err)?),
        };
        let p = sc.success.expand(n);
        let lambda: Vec<f64> = (0..n).map(|l| traffic.mean(LinkId::new(l))).collect();
        let requirements =
            Requirements::from_delivery_ratios(&lambda, &sc.ratio.expand(n)).map_err(err)?;
        let timing = MacTiming::new(
            PhyProfile::ieee80211a(),
            Nanos::from_micros(sc.deadline_us),
            sc.payload_bytes,
        );
        let config = DpConfig::new(timing).with_swap_pairs(swap_pairs);
        let seeds = SeedStream::new(sc.seed);
        let engine = match (&sc.fault, sc.engine) {
            (None, EngineSpec::Timeline) => Engine::Timeline(Box::new(DpEngine::new(config, n))),
            (None, EngineSpec::Batched) => {
                Engine::Batched(Box::new(BatchedDpEngine::new(config, n)))
            }
            (Some(spec), EngineSpec::Timeline) => {
                if spec.burst.is_some()
                    || !spec.hidden.is_empty()
                    || spec.churn.is_some()
                    || spec.flash_crowd.is_some()
                {
                    return Err(
                        "the staged copy injects sensing noise and Poisson churn only".into(),
                    );
                }
                let recovery = match spec.adaptive {
                    Some(a) => RecoveryConfig::new().with_adaptive_miss_limit(a.base, a.cap),
                    None => RecoveryConfig::new().with_miss_limit(spec.miss_limit),
                };
                // Lanes as in the network builder: 3 for sensing flips,
                // 4 for the churn process.
                let mut engine = FaultyDpEngine::new(config, n)
                    .with_fault_model(FaultModel::new(
                        spec.false_busy,
                        spec.false_idle,
                        seeds.rng(3),
                    ))
                    .with_recovery(recovery);
                if let Some(pc) = spec.poisson {
                    engine = engine.with_churn_process(ChurnProcess::new(n).with_poisson(
                        pc.crash_rate,
                        pc.mean_down,
                        seeds.rng(4),
                    ));
                }
                Engine::Faulty(Box::new(engine))
            }
            (Some(_), EngineSpec::Batched) => {
                return Err("the batched kernel does not inject faults".into())
            }
        };
        Ok(Mirror {
            traffic,
            channel: Bernoulli::new(p.clone()).map_err(err)?,
            engine,
            influence: influence.boxed(),
            r,
            mu: vec![0.0; n],
            p,
            debts: DebtLedger::new(requirements),
            deficiency: DeficiencySeries::new(),
            arrival_rng: seeds.rng(1),
            protocol_rng: seeds.rng(2),
            arrivals: Vec::with_capacity(n),
            attempts: vec![0; n],
            latency_sums: vec![Nanos::ZERO; n],
            collisions: 0,
            empty_packets: 0,
            idle_slots: 0,
            busy_time: Nanos::ZERO,
            churn_events: Vec::new(),
            counts: MacCounts::default(),
        })
    }

    /// Runs one interval and returns the instant each stage ended,
    /// preceded by the interval's start: `stamps[i]..stamps[i + 1]` is
    /// stage `SPANS[i + 1]`, and `stamps[0]..stamps[7]` the whole interval.
    pub fn step(&mut self) -> [Stamp; 8] {
        let mut t = [now(); 8];
        self.traffic
            .sample(&mut self.arrival_rng, &mut self.arrivals);
        t[1] = now();
        for n in 0..self.p.len() {
            self.mu[n] = eq14_mu(
                self.influence.as_ref(),
                self.r,
                self.debts.positive(LinkId::new(n)),
                self.p[n],
            );
        }
        t[2] = now();
        let arrivals = &self.arrivals;
        let (mu, channel, rng) = (&self.mu, &mut self.channel, &mut self.protocol_rng);
        let (outcome, candidates, swaps) = match &mut self.engine {
            Engine::Batched(e) => {
                let report = e.step(arrivals, mu, channel, rng);
                t[3] = now();
                let counts = (report.candidates.len(), report.swaps.len());
                (report.outcome.clone(), counts.0, counts.1)
            }
            Engine::Timeline(e) => {
                let report = e.run_interval(arrivals, mu, channel, rng);
                t[3] = now();
                (report.outcome, report.candidates.len(), report.swaps.len())
            }
            Engine::Faulty(e) => {
                let report = e.run_interval(arrivals, mu, channel, rng);
                t[3] = now();
                (report.outcome, report.candidates.len(), report.swaps.len())
            }
        };
        t[4] = now();
        self.debts.settle_interval(&outcome.deliveries);
        t[5] = now();
        self.deficiency.record(&self.debts);
        t[6] = now();
        self.accumulate(&outcome, candidates, swaps);
        if let Engine::Faulty(e) = &mut self.engine {
            self.churn_events.clear();
            e.drain_churn_events(&mut self.churn_events);
        }
        t[7] = now();
        t
    }

    fn accumulate(&mut self, outcome: &IntervalOutcome, candidates: usize, swaps: usize) {
        for (a, &x) in self.attempts.iter_mut().zip(&outcome.attempts) {
            *a += x;
        }
        for (l, &x) in self.latency_sums.iter_mut().zip(&outcome.latency_sum) {
            *l += x;
        }
        self.collisions = self.collisions.saturating_add(outcome.collisions);
        self.empty_packets = self.empty_packets.saturating_add(outcome.empty_packets);
        self.idle_slots = self.idle_slots.saturating_add(outcome.idle_slots);
        self.busy_time = self.busy_time.saturating_add(outcome.busy_time);
        let c = &mut self.counts;
        c.mu_evals += self.p.len() as u64;
        c.attempts += outcome.total_attempts();
        c.deliveries += outcome.total_deliveries();
        c.empty_packets += outcome.empty_packets;
        c.idle_slots += outcome.idle_slots;
        c.candidates += candidates as u64;
        c.swaps += swaps as u64;
        c.collisions += outcome.collisions;
    }

    /// Work counts summed over every interval so far.
    #[must_use]
    pub fn counts(&self) -> MacCounts {
        self.counts
    }

    /// The degraded engine's fault counters, when faults are injected.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        match &self.engine {
            Engine::Faulty(e) => Some(e.stats()),
            Engine::Timeline(_) | Engine::Batched(_) => None,
        }
    }

    /// Checks the copy against a report of the real network over the same
    /// intervals, bit for bit.
    ///
    /// # Errors
    ///
    /// Names the first field that differs.
    pub fn matches(&self, report: &RunReport) -> Result<(), String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(self.deficiency.as_slice()) != bits(report.deficiency.as_slice()) {
            return Err("deficiency series differs from Network::run".into());
        }
        if bits(self.debts.debts()) != bits(&report.final_debts) {
            return Err("final debts differ from Network::run".into());
        }
        if self.attempts != report.attempts {
            return Err("attempts differ from Network::run".into());
        }
        let mine = (
            self.collisions,
            self.empty_packets,
            self.idle_slots,
            self.busy_time,
        );
        let theirs = (
            report.collisions,
            report.empty_packets,
            report.idle_slots,
            report.busy_time,
        );
        if mine != theirs {
            return Err(format!(
                "counters differ from Network::run: {mine:?} vs {theirs:?}"
            ));
        }
        if self.fault_stats() != report.fault {
            return Err("fault counters differ from Network::run".into());
        }
        Ok(())
    }
}
