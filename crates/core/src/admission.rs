//! The runtime admission gate: pure decision helpers and the report type.
//!
//! The DB-DP engine serves whatever link set it is given; nothing in the
//! protocol stops an operator (or a flash crowd) from presenting an
//! infeasible workload. Inside the feasibility region a maximal
//! debt-clearing policy keeps every link's debt pathwise-bounded
//! (Singh–Hou–Kumar); outside it *some* debt grows without bound. The
//! remedy is classical (Jaramillo–Srikant): admit links against the
//! feasibility region instead of assuming a feasible workload. The gate
//! makes three deterministic decisions over plain slices, on the Lemma-2
//! necessary condition (a link set whose `Σ q_n/p_n` exceeds the
//! interval's transmission budget is certainly infeasible):
//!
//! * [`admitted_utilization`] — the Lemma-2 statistic `Σ_admitted q_n/p_n`
//!   divided by the interval's transmission budget;
//! * [`admit_decision`] — admit an arriving link iff the admitted set
//!   *with the candidate included* stays at or under the threshold;
//! * [`shed_order`] — when the admitted set is overloaded anyway (after
//!   `p_n` degrades, or a revival burst), drop the lowest-debt link first
//!   (ties: lowest index) until the survivors fit, never shedding the last
//!   survivor. Low debt means the protocol has been serving the link
//!   nearly on target, so dropping it forfeits the least accumulated
//!   service obligation; the highest-debt links keep their capacity.
//!
//! The helpers are infallible: the network validated `q`, `p`, and the
//! budget at build time, so the gate runs panic-free on the hot path.

/// One run's admission-control outcome, reported on
/// [`RunReport::admission`](crate::RunReport::admission).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionReport {
    /// Final admitted mask (one flag per link).
    pub admitted: Vec<bool>,
    /// Churn-event arrivals the gate accepted.
    pub accepted: u64,
    /// Churn-event arrivals the gate rejected.
    pub rejected: u64,
    /// Links shed from an overloaded admitted set.
    pub shed: u64,
    /// Highest Lemma-2 utilization the admitted set ever reached at a
    /// gate evaluation.
    pub peak_utilization: f64,
}

impl AdmissionReport {
    /// Number of links admitted at the end of the run.
    #[must_use]
    pub fn admitted_count(&self) -> usize {
        self.admitted.iter().filter(|&&a| a).count()
    }
}

/// Lemma-2 utilization of the admitted subset: `Σ_admitted q_n/p_n /
/// budget`. Links outside the admitted set are never read, so a crashed
/// link may carry degenerate parameters.
#[must_use]
pub fn admitted_utilization(q: &[f64], p: &[f64], admitted: &[bool], budget: u64) -> f64 {
    let total: f64 = q
        .iter()
        .zip(p)
        .zip(admitted)
        .filter(|&(_, &is_in)| is_in)
        .map(|((&qn, &pn), _)| qn / pn)
        .sum();
    total / budget as f64
}

/// Whether arriving link `candidate` may join: `true` iff the admitted set
/// with the candidate included stays at or under `threshold`. An
/// already-admitted candidate is re-evaluated the same way.
#[must_use]
pub fn admit_decision(
    q: &[f64],
    p: &[f64],
    admitted: &[bool],
    candidate: usize,
    budget: u64,
    threshold: f64,
) -> bool {
    let base = admitted_utilization(q, p, admitted, budget);
    if admitted[candidate] {
        return base <= threshold;
    }
    base + q[candidate] / p[candidate] / budget as f64 <= threshold
}

/// The deterministic shedding order for an overloaded admitted set:
/// lowest debt first, ties broken by lowest link index, until the
/// survivors' utilization is at or under `threshold`; the last survivor is
/// never shed. Empty when the set already fits.
#[must_use]
pub fn shed_order(
    q: &[f64],
    p: &[f64],
    admitted: &[bool],
    debts: &[f64],
    budget: u64,
    threshold: f64,
) -> Vec<usize> {
    let mut utilization = admitted_utilization(q, p, admitted, budget);
    let mut still_in = admitted.to_vec();
    let mut order = Vec::new();
    while utilization > threshold {
        if still_in.iter().filter(|&&x| x).count() <= 1 {
            break;
        }
        let mut victim: Option<usize> = None;
        for link in 0..q.len() {
            if !still_in[link] {
                continue;
            }
            match victim {
                Some(v) if debts[link] >= debts[v] => {}
                _ => victim = Some(link),
            }
        }
        let Some(v) = victim else { break };
        still_in[v] = false;
        order.push(v);
        utilization -= q[v] / p[v] / budget as f64;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_counts_only_admitted_links() {
        let q = [2.1, 2.1, 2.1];
        let p = [0.7, 0.7, 0.7];
        let u = admitted_utilization(&q, &p, &[true, false, true], 10);
        assert!((u - 0.6).abs() < 1e-12);
        // A link outside the admitted set is ignored even with a NaN
        // requirement and a zero success probability.
        let u = admitted_utilization(
            &[2.1, 2.1, 2.1, f64::NAN],
            &[0.7, 0.7, 0.7, 0.0],
            &[true, false, true, false],
            10,
        );
        assert!((u - 0.6).abs() < 1e-12);
    }

    #[test]
    fn admit_decision_is_candidate_inclusive() {
        let q = [2.1; 4];
        let p = [0.7; 4];
        let admitted = [true, true, true, false];
        assert!(!admit_decision(&q, &p, &admitted, 3, 10, 1.0));
        assert!(admit_decision(&q, &p, &admitted, 2, 10, 1.0));
    }

    #[test]
    fn shed_order_lowest_debt_first_never_last() {
        let q = [2.8; 4];
        let p = [0.7; 4];
        let debts = [9.0, 1.0, 5.0, 1.0];
        assert_eq!(shed_order(&q, &p, &[true; 4], &debts, 10, 1.0), [1, 3]);
        // A single overloaded link survives.
        assert!(shed_order(&[5.0], &[0.5], &[true], &[0.0], 10, 0.1).is_empty());
        // A set that already fits sheds nothing.
        assert!(shed_order(&[2.1; 3], &[0.7; 3], &[true; 3], &[0.0; 3], 10, 1.0).is_empty());
    }

    #[test]
    fn report_counts_admitted() {
        let r = AdmissionReport {
            admitted: vec![true, false, true],
            accepted: 1,
            rejected: 2,
            shed: 0,
            peak_utilization: 0.5,
        };
        assert_eq!(r.admitted_count(), 2);
    }
}
