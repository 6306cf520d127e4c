//! Aggregated results of a multi-interval simulation run.

use rtmac_mac::FaultStats;

use crate::admission::AdmissionReport;
use rtmac_model::metrics::{ConvergenceTracker, DeficiencySeries};
use rtmac_model::LinkId;
use rtmac_sim::Nanos;

/// Everything a figure needs from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Number of intervals simulated.
    pub intervals: usize,
    /// Total timely-throughput deficiency after each interval
    /// (Definition 1) — the paper's y-axis.
    pub deficiency: DeficiencySeries,
    /// Final total deficiency (last entry of `deficiency`).
    pub final_total_deficiency: f64,
    /// Empirical per-link timely-throughput `Σ_k S_n(k) / K`.
    pub per_link_throughput: Vec<f64>,
    /// Final per-link delivery debts `d_n(K)`.
    pub final_debts: Vec<f64>,
    /// Total data transmission attempts per link.
    pub attempts: Vec<u64>,
    /// Mean in-interval delivery latency per link (`None` for links that
    /// never delivered): how deep into the deadline window packets land on
    /// average.
    pub mean_latency: Vec<Option<Nanos>>,
    /// Total collision episodes across the run.
    pub collisions: u64,
    /// Total empty priority-claim packets (DP-family policies).
    pub empty_packets: u64,
    /// Total idle backoff slots.
    pub idle_slots: u64,
    /// Total medium-busy time.
    pub busy_time: Nanos,
    /// Convergence tracker for the watched link, when one was configured
    /// via [`Scenario::track`](crate::Scenario::track).
    pub tracked: Option<ConvergenceTracker>,
    /// Fault-injection counters (divergences, recovery fallbacks,
    /// reconvergence times) when the run used the degraded DB-DP path via
    /// [`Scenario::fault`](crate::Scenario::fault); `None` for pristine runs.
    pub fault: Option<FaultStats>,
    /// Admission-control outcome (final admitted set, accept/reject/shed
    /// counters, peak utilization) when the run used the gate via
    /// [`Scenario::admission`](crate::Scenario::admission); `None` otherwise.
    pub admission: Option<AdmissionReport>,
}

impl RunReport {
    /// Per-link deficiency `(q_n − throughput_n)⁺` given the requirements
    /// used in the run.
    ///
    /// # Panics
    ///
    /// Panics if `requirements.len()` differs from the link count.
    #[must_use]
    pub fn per_link_deficiency(&self, requirements: &[f64]) -> Vec<f64> {
        assert_eq!(
            requirements.len(),
            self.per_link_throughput.len(),
            "requirements must cover every link"
        );
        requirements
            .iter()
            .zip(&self.per_link_throughput)
            .map(|(q, tp)| (q - tp).max(0.0))
            .collect()
    }

    /// Sum of deficiencies over a subset of links (the group-wide metric of
    /// Figs. 7–8).
    ///
    /// # Panics
    ///
    /// Panics if a link is out of range or `requirements.len()` differs
    /// from the link count.
    #[must_use]
    pub fn group_deficiency(&self, requirements: &[f64], group: &[LinkId]) -> f64 {
        let per_link = self.per_link_deficiency(requirements);
        group.iter().map(|l| per_link[l.index()]).sum()
    }

    /// Mean of the last 20% of the deficiency series — a steadier summary
    /// than the single final value.
    #[must_use]
    pub fn steady_state_deficiency(&self) -> f64 {
        self.deficiency.tail_mean(0.2).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut deficiency = DeficiencySeries::new();
        for v in [3.0, 2.0, 1.0, 0.5, 0.5] {
            deficiency.push(v);
        }
        RunReport {
            policy: "test".into(),
            intervals: 5,
            final_total_deficiency: 0.5,
            deficiency,
            per_link_throughput: vec![0.8, 0.4],
            final_debts: vec![0.0, 1.0],
            attempts: vec![10, 5],
            mean_latency: vec![Some(Nanos::from_micros(500)), None],
            collisions: 0,
            empty_packets: 0,
            idle_slots: 0,
            busy_time: Nanos::ZERO,
            tracked: None,
            fault: None,
            admission: None,
        }
    }

    #[test]
    fn per_link_deficiency_clamps_at_zero() {
        let r = report();
        let d = r.per_link_deficiency(&[0.5, 0.9]);
        assert_eq!(d[0], 0.0); // over-delivering link
        assert!((d[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn group_deficiency_sums_members() {
        let r = report();
        let g1 = r.group_deficiency(&[0.9, 0.9], &[LinkId::new(0)]);
        let g2 = r.group_deficiency(&[0.9, 0.9], &[LinkId::new(1)]);
        assert!((g1 - 0.1).abs() < 1e-12);
        assert!((g2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn steady_state_uses_tail() {
        assert_eq!(report().steady_state_deficiency(), 0.5);
    }
}
