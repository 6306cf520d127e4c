//! Feasible-region tools (Definitions 3–5).

use rtmac_model::ConfigError;

/// The workload necessary condition for feasibility in a fully-interfering
/// network: delivering `q_n` packets per interval on a channel with success
/// probability `p_n` consumes at least `q_n / p_n` transmission attempts in
/// expectation, and only `budget` attempts fit in an interval. So
///
/// ```text
/// Σ_n q_n / p_n ≤ budget
/// ```
///
/// is necessary (not sufficient — deadlines and burstiness cost more).
/// Returns the utilization `Σ q_n/p_n / budget`; values above 1 certify
/// infeasibility.
///
/// # Errors
///
/// Returns [`ConfigError`] if the slices disagree in length, `budget` is
/// zero, or some `p_n ∉ (0, 1]`.
///
/// # Example
///
/// ```
/// use rtmac_analysis::feasibility::workload_utilization;
///
/// // Fig. 3 at α* = 0.55: q = 0.9·3.5·0.55 per link, 20 links, p = 0.7,
/// // 60-transmission budget.
/// let q = vec![0.9 * 3.5 * 0.55; 20];
/// let p = vec![0.7; 20];
/// let u = workload_utilization(&q, &p, 60)?;
/// assert!(u < 1.0); // necessary condition satisfied
/// # Ok::<(), rtmac_model::ConfigError>(())
/// ```
pub fn workload_utilization(q: &[f64], p: &[f64], budget: u64) -> Result<f64, ConfigError> {
    if q.len() != p.len() {
        return Err(ConfigError::LengthMismatch {
            what: "success probabilities",
            expected: q.len(),
            actual: p.len(),
        });
    }
    if budget == 0 {
        return Err(ConfigError::InvalidParameter {
            name: "transmission budget",
            value: 0.0,
        });
    }
    let mut total = 0.0;
    for (link, (&qn, &pn)) in q.iter().zip(p).enumerate() {
        if !pn.is_finite() || pn <= 0.0 || pn > 1.0 {
            return Err(ConfigError::InvalidSuccessProbability { link, value: pn });
        }
        if !qn.is_finite() || qn < 0.0 {
            return Err(ConfigError::InvalidRequirement { link, value: qn });
        }
        total += qn / pn;
    }
    Ok(total / budget as f64)
}

/// Searches for the boundary of the feasible region along a one-parameter
/// load family by bisection: `probe(load)` must build and run a simulation
/// (typically LDF, the feasibility-optimal reference) and return its
/// steady-state total deficiency. A load is ruled *feasible* when the
/// deficiency falls below `tol`.
///
/// Returns the largest feasible load found in `[lo, hi]` to within
/// `resolution`, or `None` if even `lo` is infeasible.
///
/// # Panics
///
/// Panics if `lo >= hi` or `resolution <= 0`.
///
/// # Example
///
/// ```
/// use rtmac_analysis::feasibility::boundary_search;
///
/// // A toy system that is feasible up to load 0.62.
/// let probe = |load: f64| if load <= 0.62 { 0.0 } else { (load - 0.62) * 10.0 };
/// let b = boundary_search(0.1, 1.0, 0.01, 0.05, probe).unwrap();
/// assert!((b - 0.62).abs() < 0.02);
/// ```
pub fn boundary_search<F>(lo: f64, hi: f64, resolution: f64, tol: f64, mut probe: F) -> Option<f64>
where
    F: FnMut(f64) -> f64,
{
    assert!(lo < hi, "search interval must be nonempty");
    assert!(resolution > 0.0, "resolution must be positive");
    if probe(lo) >= tol {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    if probe(hi) < tol {
        return Some(hi);
    }
    while hi - lo > resolution {
        let mid = 0.5 * (lo + hi);
        if probe(mid) < tol {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Convenience: the paper's strict-feasibility probe (Definition 3) — is
/// `(1+alpha)·q` still under the workload bound for some `alpha > 0`?
/// Returns the largest inflation factor `1+alpha` allowed by the necessary
/// condition (values `≤ 1` mean not even `q` passes).
///
/// # Errors
///
/// Same as [`workload_utilization`].
pub fn max_inflation(q: &[f64], p: &[f64], budget: u64) -> Result<f64, ConfigError> {
    let u = workload_utilization(q, p, budget)?;
    if u == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(1.0 / u)
}

/// Expected number of transmission slots consumed when the links of a
/// subset are served one after another with retransmissions — each link
/// `i` needs `G_i ~ Geometric(p_i)` attempts — capped at the interval's
/// `budget` slots: `E[min(budget, Σ_i G_i)]`.
///
/// Computed exactly by convolving the geometric laws with all mass at or
/// beyond `budget` lumped together.
///
/// # Errors
///
/// Returns [`ConfigError`] for an empty subset, zero budget, or
/// out-of-range probabilities.
pub fn expected_busy_slots(p: &[f64], budget: u32) -> Result<f64, ConfigError> {
    if p.is_empty() {
        return Err(ConfigError::NoLinks);
    }
    if budget == 0 {
        return Err(ConfigError::InvalidParameter {
            name: "slot budget",
            value: 0.0,
        });
    }
    for (link, &pn) in p.iter().enumerate() {
        if !pn.is_finite() || pn <= 0.0 || pn > 1.0 {
            return Err(ConfigError::InvalidSuccessProbability { link, value: pn });
        }
    }
    let cap = budget as usize;
    // dist[s] = P(partial sum == s) for s < cap; tail = P(partial sum >= cap).
    let mut dist = vec![0.0f64; cap];
    let mut tail = 0.0f64;
    dist[0] = 1.0;
    for &pn in p {
        let mut next = vec![0.0f64; cap];
        let mut next_tail = tail; // already-overflowed mass stays overflowed
        for (s, &mass) in dist.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            // Add G ~ Geometric(pn) on {1, 2, ...}.
            let mut q = 1.0; // P(G > j-1)
            for j in 1..=(cap - s) {
                let pj = q * pn; // P(G = j)
                let target = s + j;
                if target < cap {
                    next[target] += mass * pj;
                }
                q *= 1.0 - pn;
            }
            // Everything beyond cap - s lands in the tail, including the
            // exact-cap outcomes (they consume the full budget).
            let within: f64 = 1.0 - q; // P(G <= cap - s)
            let exact_cap_mass = if cap - s >= 1 {
                // P(G = cap - s) was not stored in `next` above when
                // target == cap; account for it in the tail.
                (1.0 - pn).powi((cap - s - 1) as i32) * pn
            } else {
                0.0
            };
            next_tail += mass * (1.0 - within) + mass * exact_cap_mass;
        }
        dist = next;
        tail = next_tail;
    }
    let mut expectation = tail * f64::from(budget);
    for (s, &mass) in dist.iter().enumerate() {
        expectation += mass * s as f64;
    }
    Ok(expectation)
}

/// A subset that certifies infeasibility, with both sides of its violated
/// condition.
#[derive(Debug, Clone, PartialEq)]
pub struct InfeasibleSubset {
    /// Zero-based link indices of the violating subset.
    pub links: Vec<usize>,
    /// Required expected slots `Σ q_n / p_n`.
    pub required: f64,
    /// Available expected slots `E[min(budget, Σ G_n)]`.
    pub available: f64,
}

/// The exact feasibility test for the classic one-packet-per-interval
/// setting (Hou–Borkar–Kumar): `q` is feasible iff for **every** subset
/// `S` of links,
///
/// ```text
/// Σ_{n∈S} q_n / p_n  ≤  E[min(budget, Σ_{n∈S} G_n)],   G_n ~ Geom(p_n).
/// ```
///
/// The left side is the expected slot demand of `S`; the right side is the
/// most slot-time any policy can devote to `S` in one interval. Returns
/// `Ok(None)` when feasible, `Ok(Some(subset))` with the worst violated
/// subset otherwise.
///
/// # Errors
///
/// Returns [`ConfigError`] for inconsistent lengths, more than 16 links
/// (2^N subsets are enumerated), zero budget, or out-of-range values.
pub fn exact_single_arrival_feasibility(
    q: &[f64],
    p: &[f64],
    budget: u32,
) -> Result<Option<InfeasibleSubset>, ConfigError> {
    if q.len() != p.len() {
        return Err(ConfigError::LengthMismatch {
            what: "success probabilities",
            expected: q.len(),
            actual: p.len(),
        });
    }
    if q.is_empty() {
        return Err(ConfigError::NoLinks);
    }
    if q.len() > 16 {
        return Err(ConfigError::InvalidParameter {
            name: "links (subset enumeration capped at 16)",
            value: q.len() as f64,
        });
    }
    for (link, &qn) in q.iter().enumerate() {
        if !qn.is_finite() || !(0.0..=1.0).contains(&qn) {
            return Err(ConfigError::InvalidRequirement { link, value: qn });
        }
    }
    let n = q.len();
    let mut worst: Option<InfeasibleSubset> = None;
    for mask in 1u32..(1 << n) {
        let links: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let subset_p: Vec<f64> = links.iter().map(|&i| p[i]).collect();
        let required: f64 = links.iter().map(|&i| q[i] / p[i]).sum();
        let available = expected_busy_slots(&subset_p, budget)?;
        if required > available + 1e-12 {
            let gap = required - available;
            let replace = worst
                .as_ref()
                .is_none_or(|w| gap > w.required - w.available);
            if replace {
                worst = Some(InfeasibleSubset {
                    links,
                    required,
                    available,
                });
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_formula() {
        let u = workload_utilization(&[1.0, 2.0], &[0.5, 1.0], 8).unwrap();
        // 1/0.5 + 2/1 = 4; 4/8 = 0.5
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matches_the_admission_gate_when_everyone_is_admitted() {
        // The runtime admission gate thresholds this same Lemma-2 statistic
        // over the admitted subset.
        let q = [1.0, 2.0, 0.5];
        let p = [0.5, 0.8, 1.0];
        let all = rtmac::admission::admitted_utilization(&q, &p, &[true; 3], 7);
        let reference = workload_utilization(&q, &p, 7).unwrap();
        assert!((all - reference).abs() < 1e-12);
    }

    #[test]
    fn utilization_validates() {
        assert!(workload_utilization(&[1.0], &[0.5, 0.5], 8).is_err());
        assert!(workload_utilization(&[1.0], &[0.0], 8).is_err());
        assert!(workload_utilization(&[-1.0], &[0.5], 8).is_err());
        assert!(workload_utilization(&[1.0], &[0.5], 0).is_err());
    }

    #[test]
    fn paper_video_setting_knee_is_near_alpha_062() {
        // Workload bound for Fig. 3: q(α) = 0.9·3.5·α per link × 20 links,
        // p = 0.7, 60 transmissions. Utilization hits 1 at
        // α = 60·0.7 / (20·0.9·3.5) = 2/3 — slightly above the empirical
        // 0.62 knee, as expected for a necessary-only bound.
        let alpha_at_one: f64 = 60.0 * 0.7 / (20.0 * 0.9 * 3.5);
        assert!((alpha_at_one - 2.0 / 3.0).abs() < 1e-12);
        let q = vec![0.9 * 3.5 * 0.62; 20];
        let u = workload_utilization(&q, &[0.7; 20], 60).unwrap();
        assert!(u < 1.0 && u > 0.85, "u = {u}");
    }

    #[test]
    fn bisection_finds_boundary() {
        let probe = |x: f64| if x <= 0.4 { 0.001 } else { 1.0 };
        let b = boundary_search(0.0, 1.0, 1e-3, 0.01, probe).unwrap();
        assert!((b - 0.4).abs() < 2e-3);
    }

    #[test]
    fn bisection_handles_all_feasible_and_all_infeasible() {
        assert_eq!(boundary_search(0.0, 1.0, 0.01, 0.5, |_| 0.0), Some(1.0));
        assert_eq!(boundary_search(0.1, 1.0, 0.01, 0.5, |_| 9.0), None);
    }

    #[test]
    fn expected_busy_slots_closed_forms() {
        // Reliable link: exactly one slot.
        assert!((expected_busy_slots(&[1.0], 10).unwrap() - 1.0).abs() < 1e-12);
        // One unreliable link, generous budget: E[G] = 1/p.
        let e = expected_busy_slots(&[0.5], 200).unwrap();
        assert!((e - 2.0).abs() < 1e-9, "E = {e}");
        // Budget of 1: min(1, G) = 1 always.
        assert!((expected_busy_slots(&[0.3], 1).unwrap() - 1.0).abs() < 1e-12);
        // Two reliable links, budget 1: min(1, 2) = 1.
        assert!((expected_busy_slots(&[1.0, 1.0], 1).unwrap() - 1.0).abs() < 1e-12);
        // E[min(2, G)] for p = 0.5: 1·0.5 + 2·0.5 = 1.5.
        assert!((expected_busy_slots(&[0.5], 2).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn expected_busy_slots_monotone_in_links_and_budget() {
        let one = expected_busy_slots(&[0.6], 8).unwrap();
        let two = expected_busy_slots(&[0.6, 0.6], 8).unwrap();
        assert!(two > one);
        let tight = expected_busy_slots(&[0.6, 0.6], 3).unwrap();
        assert!(tight < two);
        assert!(tight <= 3.0);
    }

    #[test]
    fn exact_feasibility_accepts_and_rejects() {
        // 2 links, p = 1, budget 2: q = (1, 1) exactly feasible.
        assert_eq!(
            exact_single_arrival_feasibility(&[1.0, 1.0], &[1.0, 1.0], 2).unwrap(),
            None
        );
        // Budget 1 cannot serve both.
        let bad = exact_single_arrival_feasibility(&[1.0, 1.0], &[1.0, 1.0], 1)
            .unwrap()
            .expect("must be infeasible");
        assert_eq!(bad.links, [0, 1]);
        assert!((bad.required - 2.0).abs() < 1e-12);
        assert!((bad.available - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_feasibility_catches_single_link_violations() {
        // One weak link alone violates: q/p = 0.95/0.3 > E[min(3, G)].
        let e1 = expected_busy_slots(&[0.3], 3).unwrap();
        assert!(0.95 / 0.3 > e1);
        let bad = exact_single_arrival_feasibility(&[0.95, 0.1], &[0.3, 0.9], 3)
            .unwrap()
            .expect("infeasible");
        assert_eq!(bad.links, [0]);
    }

    #[test]
    fn exact_feasibility_boundary_matches_simple_analytics() {
        // Symmetric 2-link, p = 0.5, budget 4:
        // full-set condition: 2q/0.5 <= E[min(4, G1+G2)].
        let avail = expected_busy_slots(&[0.5, 0.5], 4).unwrap();
        let q_max_full = avail * 0.5 / 2.0;
        // single-link condition: q/0.5 <= E[min(4, G)] = 2·(1−0.5^4)... compute:
        let avail1 = expected_busy_slots(&[0.5], 4).unwrap();
        let q_max_single = avail1 * 0.5;
        let q_boundary = q_max_full.min(q_max_single);
        // Just inside is feasible, just outside is not.
        assert!(
            exact_single_arrival_feasibility(&[q_boundary - 1e-6; 2], &[0.5; 2], 4)
                .unwrap()
                .is_none()
        );
        assert!(
            exact_single_arrival_feasibility(&[q_boundary + 1e-3; 2], &[0.5; 2], 4)
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn exact_feasibility_validation() {
        assert!(exact_single_arrival_feasibility(&[], &[], 4).is_err());
        assert!(exact_single_arrival_feasibility(&[0.5], &[0.5, 0.5], 4).is_err());
        assert!(exact_single_arrival_feasibility(&[1.5], &[0.5], 4).is_err());
        assert!(exact_single_arrival_feasibility(&[0.5; 17], &[0.5; 17], 4).is_err());
        assert!(expected_busy_slots(&[], 4).is_err());
        assert!(expected_busy_slots(&[0.5], 0).is_err());
    }

    #[test]
    fn max_inflation_inverts_utilization() {
        let f = max_inflation(&[1.0], &[1.0], 4).unwrap();
        assert!((f - 4.0).abs() < 1e-12);
        assert_eq!(max_inflation(&[0.0], &[1.0], 4).unwrap(), f64::INFINITY);
    }
}
