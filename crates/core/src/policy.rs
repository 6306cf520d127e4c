//! Transmission policies: the paper's algorithms and baselines, as
//! debt-driven wrappers around the `rtmac-mac` engines.

use rtmac_mac::{
    CentralizedEngine, ChurnEvent, DcfEngine, DpEngine, FaultStats, FcsmaEngine, FcsmaQuantizer,
    FrameCsmaEngine, IntervalOutcome,
};
use rtmac_model::influence::DebtInfluence;
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
/// It drives the DP protocol engine with the Glauber coin parameters of
/// Eq. 14,
///
/// ```text
/// μ_n(k) = exp(f(d_n⁺(k)) · p_n) / (R + exp(f(d_n⁺(k)) · p_n)).
/// ```
///
/// Only the links of the drawn swap pairs flip coins, so the engine asks
/// for `μ_n` lazily: Eq. 14 is evaluated once per candidate link (the
/// `2·|C(k)|` pair members, or under a fault layer every live link that
/// believes a pair side), not for all `N`. Large debts push `μ_n → 1`,
/// so indebted links win upward swaps with high probability — the
/// stationary distribution of the priority chain then concentrates on
/// ELDF-like orderings (Proposition 3), which is what makes DB-DP
/// feasibility-optimal (Theorem 1).
#[derive(Debug)]
pub struct DbDp {
    engine: DpEngine,
    influence: Box<dyn DebtInfluence>,
    r: f64,
    p: Vec<f64>,
    name: String,
}

impl DbDp {
    /// Wires a DP engine — with or without a fault layer (sensing faults,
    /// churn, recovery) — to debt-driven coin parameters.
    ///
    /// # Panics
    ///
    /// Panics if `r ≤ 0` or not finite, or if `p.len()` differs from the
    /// engine's link count.
    #[must_use]
    pub fn new(engine: DpEngine, influence: Box<dyn DebtInfluence>, r: f64, p: Vec<f64>) -> Self {
        assert!(r.is_finite() && r > 0.0, "R must be positive and finite");
        assert_eq!(p.len(), engine.n_links(), "one p_n per link");
        let degraded = if engine.has_fault_layer() {
            ", degraded"
        } else {
            ""
        };
        let name = format!("DB-DP(f={}, R={r}{degraded})", influence.name());
        DbDp {
            engine,
            influence,
            r,
            p,
            name,
        }
    }

    /// The coin parameter `μ_n` of Eq. 14 for debt `d` (positive part) on
    /// a link with success probability `p_n`.
    #[must_use]
    pub fn mu(&self, d_plus: f64, p_n: f64) -> f64 {
        eq14_mu(self.influence.as_ref(), self.r, d_plus, p_n)
    }

    /// The underlying DP engine (e.g. to inspect `σ` or the beliefs).
    #[must_use]
    pub fn engine(&self) -> &DpEngine {
        &self.engine
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
        let (influence, r, p) = (self.influence.as_ref(), self.r, &self.p);
        let mu = |n: usize| eq14_mu(influence, r, debts.positive(LinkId::new(n)), p[n]);
        self.engine
            .step_with_mu(arrivals, &mu, channel, rng)
            .outcome
            .clone()
    }

    fn sigma(&self) -> Option<&Permutation> {
        // Degraded mode: the belief multiset need not be a permutation.
        (!self.engine.has_fault_layer()).then(|| self.engine.sigma())
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.engine.has_fault_layer().then(|| self.engine.stats())
    }

    fn drain_churn_events(&mut self, out: &mut Vec<ChurnEvent>) {
        self.engine.drain_churn_events(out);
    }

    fn set_blocked(&mut self, link: usize, blocked: bool) {
        if self.engine.has_fault_layer() {
            self.engine.set_blocked(link, blocked);
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
    /// Per-link weights `f(d⁺)·p`, recomputed every interval.
    weights: Vec<f64>,
    /// The priority order, re-sorted every interval.
    order: Vec<LinkId>,
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
        let order = (0..p.len()).map(LinkId::new).collect();
        Eldf {
            engine,
            influence,
            weights: Vec::with_capacity(p.len()),
            p,
            name,
            order,
        }
    }

    /// The priority order for the current debts: links sorted by
    /// decreasing `f(d⁺)·p`, ties broken by link id for determinism.
    pub fn priority_order(&mut self, debts: &DebtLedger) -> &[LinkId] {
        self.sort_order(debts);
        &self.order
    }

    /// Recomputes the weights and re-sorts `order` for the current debts.
    fn sort_order(&mut self, debts: &DebtLedger) {
        let (influence, p) = (self.influence.as_ref(), &self.p);
        self.weights.clear();
        self.weights.extend(
            p.iter()
                .enumerate()
                .map(|(n, &p_n)| influence.eval(debts.positive(LinkId::new(n))) * p_n),
        );
        let weights = &self.weights;
        // A total order (ties go to the lower id), so the unstable sort
        // gives the one result whatever the previous interval left.
        // total_cmp agrees with partial_cmp on the finite, non-negative
        // debt weights the influence functions produce, and cannot panic.
        self.order.sort_unstable_by(|a, b| {
            weights[b.index()]
                .total_cmp(&weights[a.index()])
                .then_with(|| a.cmp(b))
        });
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
        self.sort_order(debts);
        self.engine
            .run_interval(arrivals, &self.order, channel, rng)
    }
}

/// The discretized FCSMA baseline: per-slot attempt probabilities are a
/// quantized function of delivery debt.
#[derive(Debug)]
pub struct FcsmaPolicy {
    engine: FcsmaEngine,
    quantizer: FcsmaQuantizer,
    /// Per-link attempt probabilities, refilled every interval.
    probs: Vec<f64>,
}

impl FcsmaPolicy {
    /// Wires the FCSMA engine to its debt quantizer.
    #[must_use]
    pub fn new(engine: FcsmaEngine, quantizer: FcsmaQuantizer) -> Self {
        FcsmaPolicy {
            engine,
            quantizer,
            probs: Vec::new(),
        }
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
        self.probs.clear();
        self.probs.extend((0..arrivals.len()).map(|n| {
            self.quantizer
                .attempt_probability(debts.positive(LinkId::new(n)))
        }));
        self.engine
            .run_interval(arrivals, &self.probs, channel, rng)
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
        FixedPriority { engine }
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
        // With no swap pairs no link is a candidate, so the engine never
        // evaluates the μ lookup.
        self.engine
            .step_with_mu(arrivals, &|_| 0.5, channel, rng)
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
    use crate::PolicySpec;
    use rtmac_mac::{DpConfig, MacTiming};
    use rtmac_model::influence::{Linear, PaperLog};
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
        let mut eldf = Eldf::new(
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
    fn policy_spec_instantiates_every_variant() {
        let p = vec![0.8; 4];
        for spec in [
            PolicySpec::db_dp(),
            PolicySpec::eldf(),
            PolicySpec::Ldf,
            PolicySpec::Fcsma,
            PolicySpec::Dcf,
            PolicySpec::frame_csma(),
            PolicySpec::FixedPriority,
        ] {
            let mut policy = spec.instantiate(4, &p, timing());
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
            let sigma = policy.engine().sigma();
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
        let mut engine = DpEngine::new(DpConfig::new(timing()).with_swap_pairs(0), 2);
        engine.set_sigma(sigma.clone());
        let mut policy = FixedPriority::new(engine);
        assert_eq!(policy.sigma(), Some(&sigma));
        let debts = debts_with(&[0.0, 0.0]);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(0).rng(0);
        let _ = policy.run_interval(&[1, 1], &debts, &mut ch, &mut rng);
        assert_eq!(policy.sigma(), Some(&sigma), "ordering must never change");
    }
}
