//! Transmission policies: the paper's algorithms and baselines, as
//! debt-driven wrappers around the `rtmac-mac` engines.

use rtmac_mac::{
    CentralizedEngine, ChurnEvent, DcfConfig, DcfEngine, DpConfig, DpEngine, FaultStats,
    FaultyDpEngine, FcsmaEngine, FcsmaQuantizer, FrameCsmaEngine, IntervalOutcome, MacTiming,
};
use rtmac_model::influence::{DebtInfluence, Linear, PaperLog};
use rtmac_model::{DebtLedger, LinkId, Permutation};
use rtmac_phy::channel::LossModel;
use rtmac_sim::SimRng;

/// A per-interval transmission policy: maps (arrivals, delivery debts) to
/// an executed interval on the shared medium.
///
/// All of the paper's algorithms fit this shape because both ELDF and DB-DP
/// make decisions only at interval boundaries, from debts.
pub trait TransmissionPolicy {
    /// Human-readable policy name for reports and bench output. Borrowed
    /// (policies with parameterized names precompute them at construction)
    /// so the per-interval hot path never allocates for display.
    fn name(&self) -> &str;

    /// Simulates one interval and returns its outcome.
    fn run_interval(
        &mut self,
        arrivals: &[u32],
        debts: &DebtLedger,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome;

    /// The current priority permutation, for policies that maintain one.
    /// Policies running in degraded mode (fault injection) return `None`
    /// here: their per-link priority beliefs need not form a permutation.
    fn sigma(&self) -> Option<&Permutation> {
        None
    }

    /// Fault/recovery counters, for policies running under fault
    /// injection. `None` for every fault-free policy.
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// Moves churn transitions (crashes/revivals) observed since the last
    /// drain into `out`. No-op for policies without a churn substrate; the
    /// network's admission gate calls this after every interval.
    fn drain_churn_events(&mut self, _out: &mut Vec<ChurnEvent>) {}

    /// Administratively blocks or unblocks a link (the admission gate's
    /// reject/shed hook). No-op for policies without a blocking substrate.
    fn set_blocked(&mut self, _link: usize, _blocked: bool) {}
}

/// Declarative policy selection used by [`crate::NetworkBuilder::policy`].
///
/// Each variant carries only the protocol-specific knobs; the builder
/// supplies network-wide context (timing, link count, success
/// probabilities).
#[derive(Debug)]
pub enum PolicyKind {
    /// The paper's decentralized algorithm (Algorithm 2 + Eq. 14).
    DbDp {
        /// Debt influence function `f` (paper: `log(max{1, 100(x+1)})`).
        influence: Box<dyn DebtInfluence>,
        /// The constant `R` of Eq. 14 (paper: 10).
        r: f64,
        /// Simultaneous swap pairs per interval (paper: 1; Remark 6 allows
        /// more; 0 freezes the ordering).
        swap_pairs: usize,
    },
    /// Centralized extended largest-debt-first (Algorithm 1).
    Eldf {
        /// Debt influence function `f`.
        influence: Box<dyn DebtInfluence>,
    },
    /// Classic LDF — `Eldf` with `f(x) = x`.
    Ldf,
    /// The discretized FCSMA baseline.
    Fcsma {
        /// Debt-to-attempt-probability quantizer.
        quantizer: FcsmaQuantizer,
    },
    /// IEEE 802.11 DCF (debt-unaware ablation baseline).
    Dcf {
        /// Backoff parameters.
        config: DcfConfig,
    },
    /// The DP protocol with reordering disabled, pinned to a fixed
    /// priority ordering (the Fig. 6 experiment).
    FixedPriority {
        /// The frozen priority permutation.
        sigma: Permutation,
    },
    /// Frame-based CSMA (the paper's reference \[23\]): per-frame open-loop
    /// schedules, feasibility-optimal only for reliable channels.
    FrameCsma {
        /// Debt influence function used for the per-frame slot allocation.
        influence: Box<dyn DebtInfluence>,
        /// Control-phase length in backoff slots.
        control_slots: u32,
    },
}

impl PolicyKind {
    /// DB-DP with the paper's simulation parameters:
    /// `f(x) = log(max{1, 100(x+1)})`, `R = 10`, one swap pair.
    #[must_use]
    pub fn db_dp() -> Self {
        Self::db_dp_with(Box::new(PaperLog::default()), 10.0, 1)
    }

    /// DB-DP with an explicit influence function, `R`, and swap-pair
    /// count — callers that loop over configurations construct the boxed
    /// influence once and pass it here instead of re-boxing per iteration.
    #[must_use]
    pub fn db_dp_with(influence: Box<dyn DebtInfluence>, r: f64, swap_pairs: usize) -> Self {
        PolicyKind::DbDp {
            influence,
            r,
            swap_pairs,
        }
    }

    /// ELDF with the paper's influence function.
    #[must_use]
    pub fn eldf() -> Self {
        Self::eldf_with(Box::new(PaperLog::default()))
    }

    /// ELDF with an explicit influence function.
    #[must_use]
    pub fn eldf_with(influence: Box<dyn DebtInfluence>) -> Self {
        PolicyKind::Eldf { influence }
    }

    /// FCSMA with the default quantizer.
    #[must_use]
    pub fn fcsma() -> Self {
        PolicyKind::Fcsma {
            quantizer: FcsmaQuantizer::paper_default(),
        }
    }

    /// DCF with 802.11a defaults.
    #[must_use]
    pub fn dcf() -> Self {
        PolicyKind::Dcf {
            config: DcfConfig::default(),
        }
    }

    /// Frame-based CSMA with linear debt weights and a 32-slot control
    /// phase.
    #[must_use]
    pub fn frame_csma() -> Self {
        Self::frame_csma_with(Box::new(Linear), 32)
    }

    /// Frame-based CSMA with an explicit influence function and
    /// control-phase length.
    #[must_use]
    pub fn frame_csma_with(influence: Box<dyn DebtInfluence>, control_slots: u32) -> Self {
        PolicyKind::FrameCsma {
            influence,
            control_slots,
        }
    }

    /// Instantiates the policy for a network of `n_links` links with the
    /// given success probabilities and timing.
    ///
    /// # Panics
    ///
    /// Panics if `success_probabilities.len() != n_links`, if a
    /// `FixedPriority` permutation has the wrong size, or if `R ≤ 0`.
    #[must_use]
    pub fn instantiate(
        self,
        n_links: usize,
        success_probabilities: &[f64],
        timing: MacTiming,
    ) -> Box<dyn TransmissionPolicy> {
        assert_eq!(
            success_probabilities.len(),
            n_links,
            "success probabilities must cover every link"
        );
        match self {
            PolicyKind::DbDp {
                influence,
                r,
                swap_pairs,
            } => Box::new(DbDp::new(
                DpEngine::new(DpConfig::new(timing).with_swap_pairs(swap_pairs), n_links),
                influence,
                r,
                success_probabilities.to_vec(),
            )),
            PolicyKind::Eldf { influence } => Box::new(Eldf::new(
                CentralizedEngine::new(timing),
                influence,
                success_probabilities.to_vec(),
            )),
            PolicyKind::Ldf => Box::new(Eldf::new(
                CentralizedEngine::new(timing),
                Box::new(Linear),
                success_probabilities.to_vec(),
            )),
            PolicyKind::Fcsma { quantizer } => {
                Box::new(FcsmaPolicy::new(FcsmaEngine::new(timing), quantizer))
            }
            PolicyKind::Dcf { config } => Box::new(DcfPolicy::new(DcfEngine::new(config, timing))),
            PolicyKind::FixedPriority { sigma } => {
                assert_eq!(sigma.len(), n_links, "fixed priority size mismatch");
                let mut engine = DpEngine::new(DpConfig::new(timing).with_swap_pairs(0), n_links);
                engine.set_sigma(sigma);
                Box::new(FixedPriority::new(engine))
            }
            PolicyKind::FrameCsma {
                influence,
                control_slots,
            } => Box::new(FrameCsmaPolicy::new(
                FrameCsmaEngine::new(timing).with_control_slots(control_slots),
                influence,
            )),
        }
    }
}

/// Frame-based CSMA as a debt-driven policy: per-frame slot allocations
/// weighted by `f(d⁺)`.
#[derive(Debug)]
pub struct FrameCsmaPolicy {
    engine: FrameCsmaEngine,
    influence: Box<dyn DebtInfluence>,
}

impl FrameCsmaPolicy {
    /// Wires the frame-based engine to its debt weights.
    #[must_use]
    pub fn new(engine: FrameCsmaEngine, influence: Box<dyn DebtInfluence>) -> Self {
        FrameCsmaPolicy { engine, influence }
    }
}

impl TransmissionPolicy for FrameCsmaPolicy {
    fn name(&self) -> &str {
        "Frame-CSMA"
    }

    fn run_interval(
        &mut self,
        arrivals: &[u32],
        debts: &DebtLedger,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        let weights: Vec<f64> = (0..arrivals.len())
            // A floor of 1 keeps debt-free backlogged links schedulable.
            .map(|n| 1.0 + self.influence.eval(debts.positive(LinkId::new(n))))
            .collect();
        self.engine.run_interval(arrivals, &weights, channel, rng)
    }
}

/// The Glauber coin parameter of Eq. 14:
/// `μ = exp(f(d⁺)·p) / (R + exp(f(d⁺)·p))`, saturated strictly inside
/// `(0, 1)` so it is always a valid DP-protocol coin.
///
/// # Panics
///
/// Panics if `r` is not positive and finite.
///
/// # Example
///
/// ```
/// use rtmac::eq14_mu;
/// use rtmac_model::influence::PaperLog;
///
/// let f = PaperLog::default();
/// let low = eq14_mu(&f, 10.0, 0.0, 0.7);
/// let high = eq14_mu(&f, 10.0, 20.0, 0.7);
/// assert!(0.0 < low && low < high && high < 1.0);
/// ```
#[must_use]
pub fn eq14_mu(influence: &dyn DebtInfluence, r: f64, d_plus: f64, p_n: f64) -> f64 {
    assert!(r.is_finite() && r > 0.0, "R must be positive and finite");
    let w = (influence.eval(d_plus) * p_n).exp();
    // For enormous debts w/(R+w) rounds to 1.0 in floating point; the DP
    // engine requires μ strictly inside (0, 1), so saturate at 1⁻.
    let mu = if w.is_infinite() { 1.0 } else { w / (r + w) };
    mu.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON)
}

/// The debt-based decentralized priority algorithm (DB-DP, Section V).
///
/// Every interval it computes the Glauber coin parameters of Eq. 14,
///
/// ```text
/// μ_n(k) = exp(f(d_n⁺(k)) · p_n) / (R + exp(f(d_n⁺(k)) · p_n)),
/// ```
///
/// and hands them to the DP protocol engine. Large debts push `μ_n → 1`,
/// so indebted links win upward swaps with high probability — the
/// stationary distribution of the priority chain then concentrates on
/// ELDF-like orderings (Proposition 3), which is what makes DB-DP
/// feasibility-optimal (Theorem 1).
#[derive(Debug)]
pub struct DbDp {
    driver: DpDriver,
    influence: Box<dyn DebtInfluence>,
    r: f64,
    p: Vec<f64>,
    mu_buf: Vec<f64>,
    name: String,
}

/// Which DP engine a [`DbDp`] policy drives: the pristine collision-free
/// engine (every fault-free run) or the degraded-mode engine of the
/// fault-injection experiments.
#[derive(Debug)]
enum DpDriver {
    Pristine(Box<DpEngine>),
    Faulty(Box<FaultyDpEngine>),
}

impl DpDriver {
    fn n_links(&self) -> usize {
        match self {
            DpDriver::Pristine(e) => e.n_links(),
            DpDriver::Faulty(e) => e.n_links(),
        }
    }
}

impl DbDp {
    /// Wires a DP engine to debt-driven coin parameters.
    ///
    /// # Panics
    ///
    /// Panics if `r ≤ 0` or not finite, or if `p.len()` differs from the
    /// engine's link count.
    #[must_use]
    pub fn new(engine: DpEngine, influence: Box<dyn DebtInfluence>, r: f64, p: Vec<f64>) -> Self {
        Self::with_driver(DpDriver::Pristine(Box::new(engine)), influence, r, p)
    }

    /// Wires the *degraded-mode* DP engine (sensing faults, churn,
    /// recovery) to the same debt-driven coin parameters. Panics as
    /// [`DbDp::new`].
    #[must_use]
    pub fn with_faults(
        engine: FaultyDpEngine,
        influence: Box<dyn DebtInfluence>,
        r: f64,
        p: Vec<f64>,
    ) -> Self {
        Self::with_driver(DpDriver::Faulty(Box::new(engine)), influence, r, p)
    }

    fn with_driver(
        driver: DpDriver,
        influence: Box<dyn DebtInfluence>,
        r: f64,
        p: Vec<f64>,
    ) -> Self {
        assert!(r.is_finite() && r > 0.0, "R must be positive and finite");
        assert_eq!(p.len(), driver.n_links(), "one p_n per link");
        let n = p.len();
        let degraded = match driver {
            DpDriver::Pristine(_) => "",
            DpDriver::Faulty(_) => ", degraded",
        };
        let name = format!("DB-DP(f={}, R={r}{degraded})", influence.name());
        DbDp {
            driver,
            influence,
            r,
            p,
            mu_buf: vec![0.0; n],
            name,
        }
    }

    /// The coin parameter `μ_n` of Eq. 14 for debt `d` (positive part) on
    /// a link with success probability `p_n`.
    #[must_use]
    pub fn mu(&self, d_plus: f64, p_n: f64) -> f64 {
        eq14_mu(self.influence.as_ref(), self.r, d_plus, p_n)
    }

    /// The underlying pristine DP engine (e.g. to inspect `σ`); `None`
    /// when the policy runs the degraded-mode engine.
    #[must_use]
    pub fn engine(&self) -> Option<&DpEngine> {
        match &self.driver {
            DpDriver::Pristine(e) => Some(e),
            DpDriver::Faulty(_) => None,
        }
    }

    /// The underlying degraded-mode engine, when faults are injected.
    #[must_use]
    pub fn faulty_engine(&self) -> Option<&FaultyDpEngine> {
        match &self.driver {
            DpDriver::Pristine(_) => None,
            DpDriver::Faulty(e) => Some(e),
        }
    }
}

impl TransmissionPolicy for DbDp {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_interval(
        &mut self,
        arrivals: &[u32],
        debts: &DebtLedger,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        for n in 0..self.p.len() {
            self.mu_buf[n] = eq14_mu(
                self.influence.as_ref(),
                self.r,
                debts.positive(LinkId::new(n)),
                self.p[n],
            );
        }
        match &mut self.driver {
            DpDriver::Pristine(engine) => engine
                .step(arrivals, &self.mu_buf, channel, rng)
                .outcome
                .clone(),
            DpDriver::Faulty(engine) => {
                engine
                    .run_interval(arrivals, &self.mu_buf, channel, rng)
                    .outcome
            }
        }
    }

    fn sigma(&self) -> Option<&Permutation> {
        match &self.driver {
            DpDriver::Pristine(engine) => Some(engine.sigma()),
            // Degraded mode: the belief multiset need not be a permutation.
            DpDriver::Faulty(_) => None,
        }
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        match &self.driver {
            DpDriver::Pristine(_) => None,
            DpDriver::Faulty(engine) => Some(engine.stats()),
        }
    }

    fn drain_churn_events(&mut self, out: &mut Vec<ChurnEvent>) {
        if let DpDriver::Faulty(engine) = &mut self.driver {
            engine.drain_churn_events(out);
        }
    }

    fn set_blocked(&mut self, link: usize, blocked: bool) {
        if let DpDriver::Faulty(engine) = &mut self.driver {
            engine.set_blocked(link, blocked);
        }
    }
}

/// Extended largest-debt-first (ELDF, Algorithm 1): the centralized
/// feasibility-optimal reference. Serves links in decreasing
/// `f(d_n⁺(k)) · p_n` with retransmissions until each buffer drains.
#[derive(Debug)]
pub struct Eldf {
    engine: CentralizedEngine,
    influence: Box<dyn DebtInfluence>,
    p: Vec<f64>,
    name: String,
}

impl Eldf {
    /// Wires a centralized engine to debt-based priorities.
    #[must_use]
    pub fn new(engine: CentralizedEngine, influence: Box<dyn DebtInfluence>, p: Vec<f64>) -> Self {
        let name = if influence.name() == "linear" {
            "LDF".to_string()
        } else {
            format!("ELDF(f={})", influence.name())
        };
        Eldf {
            engine,
            influence,
            p,
            name,
        }
    }

    /// The priority order for the current debts: links sorted by
    /// decreasing `f(d⁺)·p`, ties broken by link id for determinism.
    #[must_use]
    pub fn priority_order(&self, debts: &DebtLedger) -> Vec<LinkId> {
        let mut order: Vec<LinkId> = (0..self.p.len()).map(LinkId::new).collect();
        let weight = |l: &LinkId| self.influence.eval(debts.positive(*l)) * self.p[l.index()];
        order.sort_by(|a, b| {
            // total_cmp agrees with partial_cmp on the finite, non-negative
            // debt weights the influence functions produce, and cannot panic.
            weight(b).total_cmp(&weight(a)).then_with(|| a.cmp(b))
        });
        order
    }
}

impl TransmissionPolicy for Eldf {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_interval(
        &mut self,
        arrivals: &[u32],
        debts: &DebtLedger,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        let order = self.priority_order(debts);
        self.engine.run_interval(arrivals, &order, channel, rng)
    }
}

/// The discretized FCSMA baseline: per-slot attempt probabilities are a
/// quantized function of delivery debt.
#[derive(Debug)]
pub struct FcsmaPolicy {
    engine: FcsmaEngine,
    quantizer: FcsmaQuantizer,
}

impl FcsmaPolicy {
    /// Wires the FCSMA engine to its debt quantizer.
    #[must_use]
    pub fn new(engine: FcsmaEngine, quantizer: FcsmaQuantizer) -> Self {
        FcsmaPolicy { engine, quantizer }
    }
}

impl TransmissionPolicy for FcsmaPolicy {
    fn name(&self) -> &str {
        "FCSMA"
    }

    fn run_interval(
        &mut self,
        arrivals: &[u32],
        debts: &DebtLedger,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        let probs: Vec<f64> = (0..arrivals.len())
            .map(|n| {
                self.quantizer
                    .attempt_probability(debts.positive(LinkId::new(n)))
            })
            .collect();
        self.engine.run_interval(arrivals, &probs, channel, rng)
    }
}

/// IEEE 802.11 DCF: contention with binary exponential backoff, ignoring
/// debts entirely.
#[derive(Debug)]
pub struct DcfPolicy {
    engine: DcfEngine,
}

impl DcfPolicy {
    /// Wraps a DCF engine.
    #[must_use]
    pub fn new(engine: DcfEngine) -> Self {
        DcfPolicy { engine }
    }
}

impl TransmissionPolicy for DcfPolicy {
    fn name(&self) -> &str {
        "DCF"
    }

    fn run_interval(
        &mut self,
        arrivals: &[u32],
        _debts: &DebtLedger,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        self.engine.run_interval(arrivals, channel, rng)
    }
}

/// The DP protocol pinned to a fixed priority ordering (swap pairs
/// disabled) — the Fig. 6 experiment showing that even the lowest priority
/// receives non-zero timely-throughput.
#[derive(Debug)]
pub struct FixedPriority {
    engine: DpEngine,
    mu: Vec<f64>,
}

impl FixedPriority {
    /// Wraps a DP engine configured with zero swap pairs.
    ///
    /// # Panics
    ///
    /// Panics if the engine still has swap pairs enabled.
    #[must_use]
    pub fn new(engine: DpEngine) -> Self {
        assert_eq!(
            engine.config().swap_pairs(),
            0,
            "fixed-priority policy requires swap_pairs = 0"
        );
        let n = engine.n_links();
        FixedPriority {
            engine,
            mu: vec![0.5; n],
        }
    }
}

impl TransmissionPolicy for FixedPriority {
    fn name(&self) -> &str {
        "DP(fixed σ)"
    }

    fn run_interval(
        &mut self,
        arrivals: &[u32],
        _debts: &DebtLedger,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        // μ is irrelevant with no swap pairs; 0.5 keeps the engine's
        // validation satisfied.
        self.engine
            .step(arrivals, &self.mu, channel, rng)
            .outcome
            .clone()
    }

    fn sigma(&self) -> Option<&Permutation> {
        Some(self.engine.sigma())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac_model::Requirements;
    use rtmac_phy::channel::Bernoulli;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::{Nanos, SeedStream};

    fn timing() -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
    }

    fn debts_with(values: &[f64]) -> DebtLedger {
        // Build a ledger with chosen debts by settling one interval:
        // d = q − S, so pick q = value, S = 0.
        let reqs = Requirements::new(values.to_vec()).unwrap();
        let mut d = DebtLedger::new(reqs);
        d.settle_interval(&vec![0; values.len()]);
        d
    }

    #[test]
    fn mu_increases_with_debt_and_stays_in_unit_interval() {
        let policy = DbDp::new(
            DpEngine::new(DpConfig::new(timing()), 2),
            Box::new(PaperLog::default()),
            10.0,
            vec![0.7, 0.7],
        );
        let mut last = 0.0;
        for d in [0.0, 0.5, 1.0, 5.0, 50.0, 1e6, 1e300] {
            let m = policy.mu(d, 0.7);
            assert!(m > 0.0 && m < 1.0, "mu({d}) = {m}");
            assert!(m >= last, "mu must be nondecreasing in debt");
            last = m;
        }
    }

    #[test]
    fn eldf_orders_by_weight_with_deterministic_ties() {
        let eldf = Eldf::new(
            CentralizedEngine::new(timing()),
            Box::new(Linear),
            vec![0.5, 1.0, 1.0],
        );
        // debts 2, 1, 1 -> weights 1.0, 1.0, 1.0: all tie, order by id.
        let debts = debts_with(&[2.0, 1.0, 1.0]);
        assert_eq!(
            eldf.priority_order(&debts),
            [LinkId::new(0), LinkId::new(1), LinkId::new(2)]
        );
        // debts 1, 4, 1 -> weights 0.5, 4.0, 1.0.
        let debts = debts_with(&[1.0, 4.0, 1.0]);
        assert_eq!(
            eldf.priority_order(&debts),
            [LinkId::new(1), LinkId::new(2), LinkId::new(0)]
        );
    }

    #[test]
    fn ldf_name_and_eldf_name() {
        let ldf = Eldf::new(
            CentralizedEngine::new(timing()),
            Box::new(Linear),
            vec![1.0],
        );
        assert_eq!(ldf.name(), "LDF");
        let eldf = Eldf::new(
            CentralizedEngine::new(timing()),
            Box::new(PaperLog::default()),
            vec![1.0],
        );
        assert!(eldf.name().contains("ELDF"));
    }

    #[test]
    fn policy_kind_instantiates_every_variant() {
        let p = vec![0.8; 4];
        for kind in [
            PolicyKind::db_dp(),
            PolicyKind::eldf(),
            PolicyKind::Ldf,
            PolicyKind::fcsma(),
            PolicyKind::dcf(),
            PolicyKind::frame_csma(),
            PolicyKind::FixedPriority {
                sigma: Permutation::identity(4),
            },
        ] {
            let mut policy = kind.instantiate(4, &p, timing());
            let debts = debts_with(&[0.5; 4]);
            let mut ch = Bernoulli::new(p.clone()).unwrap();
            let mut rng = SeedStream::new(9).rng(0);
            let out = policy.run_interval(&[1, 0, 2, 1], &debts, &mut ch, &mut rng);
            assert_eq!(out.deliveries.len(), 4, "policy {}", policy.name());
            assert!(out.total_deliveries() <= 4);
        }
    }

    #[test]
    fn db_dp_prefers_indebted_links() {
        // Two links; link 1 carries huge debt, link 0 none. Over many
        // intervals with a single transmission budget, link 1 should end up
        // with high priority most of the time.
        let t = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(340), 1500);
        let mut policy = DbDp::new(
            DpEngine::new(DpConfig::new(t), 2),
            Box::new(PaperLog::default()),
            10.0,
            vec![1.0, 1.0],
        );
        let debts = debts_with(&[0.0, 30.0]);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(10).rng(0);
        let mut link1_first = 0;
        for _ in 0..400 {
            let _ = policy.run_interval(&[1, 1], &debts, &mut ch, &mut rng);
            let sigma = policy.engine().expect("pristine driver").sigma();
            if sigma.priority_of(LinkId::new(1)) == 1 {
                link1_first += 1;
            }
        }
        assert!(
            link1_first > 300,
            "indebted link should dominate priority 1, got {link1_first}/400"
        );
    }

    #[test]
    #[should_panic(expected = "R must be positive")]
    fn db_dp_rejects_nonpositive_r() {
        let _ = DbDp::new(
            DpEngine::new(DpConfig::new(timing()), 1),
            Box::new(Linear),
            0.0,
            vec![1.0],
        );
    }

    #[test]
    fn fixed_priority_reports_sigma() {
        let sigma = Permutation::from_priorities(vec![2, 1]).unwrap();
        let mut policy = PolicyKind::FixedPriority {
            sigma: sigma.clone(),
        }
        .instantiate(2, &[1.0, 1.0], timing());
        assert_eq!(policy.sigma(), Some(&sigma));
        let debts = debts_with(&[0.0, 0.0]);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(0).rng(0);
        let _ = policy.run_interval(&[1, 1], &debts, &mut ch, &mut rng);
        assert_eq!(policy.sigma(), Some(&sigma), "ordering must never change");
    }
}
