//! Fault-corner smoke: a fixed-seed run of the degraded engine at
//! N = 10 under a high-burstiness Gilbert–Elliott sensing model plus
//! Poisson churn, asserting σ-liveness through the storm and
//! reconvergence once the sensing noise stops.
//!
//! The exhaustive checker and [`mod@crate::smc`] certify the *pristine*
//! engine: [`rtmac_mac::DpEngine`] with scripted channels. The degraded
//! engine (the same [`rtmac_mac::DpEngine`] with a fault layer installed
//! by its `with_*` builders) deliberately leaves the permutation
//! invariant behind — belief vectors under sensing faults
//! need not be bijections — so its survival properties are statistical,
//! not enumerable. This module pins the two that matter at a fault
//! corner the sampled suites never visit (correlated bursts *and*
//! churn at once):
//!
//! * **σ-liveness under the storm.** Every belief stays inside
//!   `1..=N` on every interval, and data still flows (total deliveries
//!   are positive) even while the Gilbert–Elliott model flips carrier
//!   sense in bursts and Poisson churn crashes and revives links.
//! * **Reconvergence after it.** Once the fault model is withdrawn
//!   (churn keeps running), R1/R2 recovery restores a bijective belief
//!   multiset within a bounded number of intervals, and the
//!   per-recovery histogram exactly partitions the completed count.
//!
//! The run is deterministic for a given [`FaultSmokeConfig`]: the four
//! generators draw from dedicated [`SeedStream`] lanes (protocol 2,
//! sensing flips 3, churn 4, Gilbert–Elliott states 5 — the same lane
//! discipline as `rtmac_core::Network`). CI wires this next to the
//! `smc` smoke as `rtmac-verify fault-smoke`.

use rtmac_mac::{DpConfig, DpEngine, MacTiming, RecoveryConfig};
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::fault::{BurstSensing, ChurnProcess, FaultModel};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

/// Parameters of the fault-corner smoke run.
#[derive(Debug, Clone)]
pub struct FaultSmokeConfig {
    /// Number of links `N`.
    pub links: usize,
    /// Intervals to run with the fault storm active.
    pub storm_intervals: u64,
    /// Interval budget for the heal phase (fault model withdrawn).
    pub heal_budget: u64,
    /// Root seed; the run derives all four generator lanes from it.
    pub seed: u64,
}

impl FaultSmokeConfig {
    /// The CI corner: N = 10, 600 storm intervals, 3000-interval heal
    /// budget, seed 2018.
    #[must_use]
    pub fn new() -> Self {
        Self {
            links: 10,
            storm_intervals: 600,
            heal_budget: 3000,
            seed: 2018,
        }
    }

    /// Overrides the link count.
    #[must_use]
    pub fn with_links(mut self, links: usize) -> Self {
        self.links = links;
        self
    }

    /// Overrides the storm length.
    #[must_use]
    pub fn with_storm_intervals(mut self, intervals: u64) -> Self {
        self.storm_intervals = intervals;
        self
    }

    /// Overrides the heal budget.
    #[must_use]
    pub fn with_heal_budget(mut self, budget: u64) -> Self {
        self.heal_budget = budget;
        self
    }

    /// Overrides the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for FaultSmokeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What the fault-corner run observed, plus any violated properties.
#[derive(Debug, Clone)]
pub struct FaultSmokeReport {
    /// Total on-time deliveries across the storm phase.
    pub storm_deliveries: u64,
    /// Carrier-sense observations flipped during the storm.
    pub sensing_flips: u64,
    /// Pair divergences observed during the storm.
    pub divergences: u64,
    /// Links crashed by the Poisson churn process (whole run).
    pub poisson_crashes: u64,
    /// Completed desync → bijection recoveries (whole run).
    pub reconvergences: u64,
    /// Intervals the heal phase needed to restore a bijective belief
    /// multiset; `None` if the budget ran out first.
    pub healed_after: Option<u64>,
    /// Violated properties, empty on a clean run.
    pub violations: Vec<String>,
}

impl FaultSmokeReport {
    /// True when every asserted property held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the fault-corner smoke and reports what it saw.
///
/// The storm phase layers an i.i.d. sensing floor (ε = 0.02) with a
/// Gilbert–Elliott burst overlay (enter 0.05, exit 0.2, bad-state
/// ε = 0.4) and Poisson churn (rate 0.01, mean downtime 8 intervals)
/// over a reliable channel, with adaptive R2 recovery enabled. The heal
/// phase withdraws the fault model — churn keeps running — and waits
/// for [`DpEngine::is_bijective`].
#[must_use]
pub fn fault_smoke(cfg: &FaultSmokeConfig) -> FaultSmokeReport {
    let n = cfg.links;
    let seeds = SeedStream::new(cfg.seed);
    let mut engine = DpEngine::new(DpConfig::new(timing()), n)
        .with_fault_model(FaultModel::symmetric(0.02, seeds.rng(3)).with_burst(
            n,
            BurstSensing::new(0.05, 0.2, 0.4, 0.4),
            seeds.rng(5),
        ))
        .with_churn_process(ChurnProcess::new(n).with_poisson(0.01, 8.0, seeds.rng(4)))
        .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(2, 32));
    let mut rng = seeds.rng(2);
    let mut channel = Bernoulli::reliable(n);
    let arrivals = vec![1u32; n];
    let service = vec![0.4f64; n];

    let mut violations = Vec::new();
    let mut storm_deliveries = 0u64;
    let mut beliefs_in_range = true;
    for _ in 0..cfg.storm_intervals {
        let r = engine.run_interval(&arrivals, &service, &mut channel, &mut rng);
        storm_deliveries += r.outcome.deliveries.iter().sum::<u64>();
        beliefs_in_range &= engine.beliefs().iter().all(|&b| (1..=n).contains(&b));
    }
    let storm = engine.stats();
    if !beliefs_in_range {
        violations.push("belief-range: a belief left 1..=N during the storm".to_string());
    }
    if storm_deliveries == 0 {
        violations.push("sigma-liveness: no deliveries during the storm".to_string());
    }
    if storm.sensing_flips == 0 {
        violations.push("injection: the burst model flipped no observations".to_string());
    }
    if storm.divergences == 0 {
        violations.push("injection: the storm produced no divergence".to_string());
    }

    // Heal phase: withdraw the sensing faults, keep the churn running.
    engine.set_fault_model(FaultModel::none());
    let mut healed_after = None;
    for k in 0..cfg.heal_budget {
        let _ = engine.run_interval(&arrivals, &service, &mut channel, &mut rng);
        if engine.is_bijective() {
            healed_after = Some(k + 1);
            break;
        }
    }
    let stats = engine.stats();
    let poisson_crashes = engine
        .churn_process()
        .map_or(0, rtmac_phy::fault::ChurnProcess::poisson_crashes);
    if poisson_crashes == 0 {
        violations.push("injection: poisson churn crashed no links".to_string());
    }
    if healed_after.is_none() {
        violations.push(format!(
            "reconvergence: still non-bijective after the {}-interval heal budget",
            cfg.heal_budget
        ));
    }
    if stats.reconvergences == 0 {
        violations.push("reconvergence: no completed recovery was recorded".to_string());
    }
    let hist_sum: u64 = stats.reconverge_hist.iter().sum();
    if hist_sum != stats.reconvergences {
        violations.push(format!(
            "histogram: reconverge buckets sum to {hist_sum}, recoveries {}",
            stats.reconvergences
        ));
    }

    FaultSmokeReport {
        storm_deliveries,
        sensing_flips: storm.sensing_flips,
        divergences: storm.divergences,
        poisson_crashes,
        reconvergences: stats.reconvergences,
        healed_after,
        violations,
    }
}

/// The timing every checker in this crate runs under.
fn timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_corner_is_clean_at_the_pinned_seed() {
        let report = fault_smoke(&FaultSmokeConfig::new());
        assert!(
            report.is_clean(),
            "fault-corner smoke violated: {:?}",
            report.violations
        );
        assert!(report.sensing_flips > 0);
        assert!(report.divergences > 0);
        assert!(report.poisson_crashes > 0);
        assert!(report.reconvergences > 0);
        assert!(report.healed_after.is_some());
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let a = fault_smoke(&FaultSmokeConfig::new().with_storm_intervals(200));
        let b = fault_smoke(&FaultSmokeConfig::new().with_storm_intervals(200));
        assert_eq!(a.storm_deliveries, b.storm_deliveries);
        assert_eq!(a.sensing_flips, b.sensing_flips);
        assert_eq!(a.healed_after, b.healed_after);
    }

    #[test]
    fn exhausted_heal_budget_is_reported_not_panicked() {
        // A one-interval heal budget cannot absorb the storm's desync.
        let report = fault_smoke(
            &FaultSmokeConfig::new()
                .with_links(6)
                .with_storm_intervals(300)
                .with_heal_budget(1),
        );
        if report.healed_after.is_none() {
            assert!(report.violations.iter().any(|v| v.contains("heal budget")));
        }
    }
}
