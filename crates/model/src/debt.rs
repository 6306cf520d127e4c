//! Delivery-debt accounting (Eq. 1 of the paper).

use crate::{LinkId, Requirements};

/// The delivery-debt ledger: the virtual queues driving both ELDF and DB-DP.
///
/// At the beginning of interval `k` each link `n` carries debt
///
/// ```text
/// d_n(k+1) = d_n(k) − S_n(k) + q_n,      d_n(0) = 0,
/// ```
///
/// where `S_n(k)` is the number of on-time deliveries in interval `k`.
/// Equivalently `d_n(k) = k·q_n − Σ_{j<k} S_n(j)`: the debt is exactly how
/// far the link has fallen behind its requirement.
///
/// # Example
///
/// ```
/// use rtmac_model::{DebtLedger, Requirements};
///
/// let mut debts = DebtLedger::new(Requirements::uniform(2, 0.5)?);
/// debts.settle_interval(&[0, 2]);
/// assert_eq!(debts.debt(0.into()), 0.5);   // fell behind
/// assert_eq!(debts.debt(1.into()), -1.5);  // ran ahead
/// assert_eq!(debts.positive(1.into()), 0.0); // d⁺ clamps at zero
/// assert_eq!(debts.interval(), 1);
/// # Ok::<(), rtmac_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DebtLedger {
    requirements: Requirements,
    debts: Vec<f64>,
    cumulative_deliveries: Vec<u64>,
    interval: u64,
}

impl DebtLedger {
    /// Creates a ledger with all debts at zero (`d_n(0) = 0`).
    #[must_use]
    pub fn new(requirements: Requirements) -> Self {
        let n = requirements.len();
        DebtLedger {
            requirements,
            debts: vec![0.0; n],
            cumulative_deliveries: vec![0; n],
            interval: 0,
        }
    }

    /// Number of links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.debts.len()
    }

    /// Returns `true` if the ledger tracks no links (never constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.debts.is_empty()
    }

    /// The requirements this ledger enforces.
    #[must_use]
    pub fn requirements(&self) -> &Requirements {
        &self.requirements
    }

    /// The current interval index `k` (how many intervals have been settled).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Current debt `d_n(k)` of one link (may be negative).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn debt(&self, link: LinkId) -> f64 {
        self.debts[link.index()]
    }

    /// Positive part `d_n⁺(k) = max{0, d_n(k)}`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn positive(&self, link: LinkId) -> f64 {
        self.debts[link.index()].max(0.0)
    }

    /// All current debts, indexed by link.
    #[must_use]
    pub fn debts(&self) -> &[f64] {
        &self.debts
    }

    /// `‖d(k)‖_∞` — the largest debt magnitude.
    #[must_use]
    pub fn max_norm(&self) -> f64 {
        self.debts.iter().fold(0.0, |m, d| m.max(d.abs()))
    }

    /// Total deliveries of one link since interval 0.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn cumulative_deliveries(&self, link: LinkId) -> u64 {
        self.cumulative_deliveries[link.index()]
    }

    /// Applies one interval's deliveries: `d_n ← d_n − S_n + q_n`.
    ///
    /// # Panics
    ///
    /// Panics if `deliveries.len()` differs from the number of links.
    pub fn settle_interval(&mut self, deliveries: &[u64]) {
        assert_eq!(
            deliveries.len(),
            self.debts.len(),
            "deliveries vector must have one entry per link"
        );
        for ((debt, cumulative), (&s, &q)) in self
            .debts
            .iter_mut()
            .zip(&mut self.cumulative_deliveries)
            .zip(deliveries.iter().zip(self.requirements.as_slice()))
        {
            settle_link(debt, cumulative, q, s);
        }
        self.interval = self.interval.saturating_add(1);
    }

    /// [`settle_interval`](Self::settle_interval) followed by
    /// [`total_deficiency`](Self::total_deficiency), in one pass over the
    /// ledger. Each link runs the same arithmetic and the sum runs in the
    /// same link order, so the ledger and the returned total are bit for
    /// bit what the two calls give.
    ///
    /// # Panics
    ///
    /// Panics if `deliveries.len()` differs from the number of links.
    pub fn settle_and_total_deficiency(&mut self, deliveries: &[u64]) -> f64 {
        assert_eq!(
            deliveries.len(),
            self.debts.len(),
            "deliveries vector must have one entry per link"
        );
        self.interval = self.interval.saturating_add(1);
        let k = self.interval as f64;
        self.debts
            .iter_mut()
            .zip(&mut self.cumulative_deliveries)
            .zip(deliveries.iter().zip(self.requirements.as_slice()))
            .map(|((debt, cumulative), (&s, &q))| {
                settle_link(debt, cumulative, q, s);
                // 0/k = 0 and q − 0 = q exactly, so a link that has
                // delivered nothing yet owes q⁺ without the division.
                let shortfall = if *cumulative == 0 {
                    q
                } else {
                    q - *cumulative as f64 / k
                };
                shortfall.max(0.0)
            })
            .sum()
    }

    /// Empirical timely-throughput `Σ_j S_n(j) / k` of one link so far.
    ///
    /// Returns 0 before the first interval has been settled.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn empirical_throughput(&self, link: LinkId) -> f64 {
        if self.interval == 0 {
            0.0
        } else {
            self.cumulative_deliveries[link.index()] as f64 / self.interval as f64
        }
    }

    /// Timely-throughput deficiency of one link up to the current interval
    /// (Definition 1): `(q_n − Σ_j S_n(j)/k)⁺`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn deficiency(&self, link: LinkId) -> f64 {
        (self.requirements.q(link) - self.empirical_throughput(link)).max(0.0)
    }

    /// Total timely-throughput deficiency `Σ_n (q_n − Σ_j S_n(j)/k)⁺`
    /// (Definition 1). The evaluation metric of every figure in the paper.
    #[must_use]
    pub fn total_deficiency(&self) -> f64 {
        (0..self.len())
            .map(|n| self.deficiency(LinkId::new(n)))
            .sum()
    }

    /// Resets debts, delivery counts and the interval counter to zero while
    /// keeping the requirements.
    pub fn reset(&mut self) {
        self.debts.fill(0.0);
        self.cumulative_deliveries.fill(0);
        self.interval = 0;
    }
}

/// One link's share of an interval: `d_n ← d_n − S_n + q_n`, and `S_n`
/// added to the link's delivery count.
fn settle_link(debt: &mut f64, cumulative: &mut u64, q: f64, s: u64) {
    *debt += q - s as f64;
    // Saturate rather than wrap: an over-served link driven past u64::MAX
    // (or an interval counter at the horizon limit) must clamp, not wrap
    // to 0 and corrupt every later throughput and deficiency statistic.
    // Debts themselves are f64 and cannot wrap.
    *cumulative = cumulative.saturating_add(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ledger(n: usize, q: f64) -> DebtLedger {
        DebtLedger::new(Requirements::uniform(n, q).unwrap())
    }

    #[test]
    fn debt_recursion_matches_closed_form() {
        // d_n(k) = k q_n − Σ S_n(j)
        let mut d = ledger(1, 0.9);
        let deliveries = [1u64, 0, 2, 1, 0];
        for &s in &deliveries {
            d.settle_interval(&[s]);
        }
        let k = deliveries.len() as f64;
        let total: u64 = deliveries.iter().sum();
        assert!((d.debt(0.into()) - (k * 0.9 - total as f64)).abs() < 1e-12);
    }

    #[test]
    fn deficiency_is_positive_part() {
        let mut d = ledger(2, 1.0);
        d.settle_interval(&[2, 0]); // link 0 over-delivers
        assert_eq!(d.deficiency(0.into()), 0.0);
        assert_eq!(d.deficiency(1.into()), 1.0);
        assert_eq!(d.total_deficiency(), 1.0);
    }

    #[test]
    fn empirical_throughput_before_first_interval_is_zero() {
        let d = ledger(1, 0.5);
        assert_eq!(d.empirical_throughput(0.into()), 0.0);
        assert_eq!(d.deficiency(0.into()), 0.5);
    }

    #[test]
    fn max_norm_uses_absolute_values() {
        let mut d = ledger(2, 0.0);
        d.settle_interval(&[3, 0]); // debts: [-3, 0]
        assert_eq!(d.max_norm(), 3.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = ledger(2, 0.7);
        d.settle_interval(&[1, 1]);
        d.reset();
        assert_eq!(d.interval(), 0);
        assert_eq!(d.debts(), [0.0, 0.0]);
        assert_eq!(d.cumulative_deliveries(0.into()), 0);
    }

    #[test]
    #[should_panic(expected = "one entry per link")]
    fn settle_length_mismatch_panics() {
        ledger(2, 0.5).settle_interval(&[1]);
    }

    /// Boundary regression: counters at the integer edge saturate instead
    /// of wrapping (pre-fix this panicked in debug builds and wrapped to 0
    /// in release builds, corrupting every later statistic).
    #[test]
    fn counters_saturate_at_the_boundary_instead_of_wrapping() {
        let mut d = ledger(1, 0.5);
        d.settle_interval(&[u64::MAX]);
        d.settle_interval(&[u64::MAX]);
        assert_eq!(d.cumulative_deliveries(0.into()), u64::MAX);
        assert_eq!(d.interval(), 2);
        // The f64 debt side keeps its (finite, hugely negative) value.
        assert!(d.debt(0.into()) < 0.0 && d.debt(0.into()).is_finite());
        // Empirical throughput stays well-defined after saturation.
        assert!(d.empirical_throughput(0.into()).is_finite());
    }

    proptest! {
        /// The fused pass equals `settle_interval` then `total_deficiency`
        /// bit for bit, interval after interval, for requirements that
        /// include zero and deliveries that include `u64::MAX`.
        #[test]
        fn prop_fused_pass_is_bit_identical(
            qs in proptest::collection::vec((0u8..4, 0.0f64..1.5), 1..12),
            history in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 12),
                1..30,
            ),
        ) {
            let q: Vec<f64> = qs
                .iter()
                .map(|&(kind, q)| [0.0, q, q, 1.0][usize::from(kind)])
                .collect();
            let reqs = Requirements::new(q.clone()).unwrap();
            let mut split = DebtLedger::new(reqs.clone());
            let mut fused = DebtLedger::new(reqs);
            for row in &history {
                let deliveries: Vec<u64> = row[..q.len()]
                    .iter()
                    .map(|&s| if s == 5 { u64::MAX } else { u64::from(s) % 3 })
                    .collect();
                split.settle_interval(&deliveries);
                let want = split.total_deficiency();
                let got = fused.settle_and_total_deficiency(&deliveries);
                prop_assert_eq!(got.to_bits(), want.to_bits());
                let bits = |l: &DebtLedger| -> Vec<u64> {
                    l.debts().iter().map(|d| d.to_bits()).collect()
                };
                prop_assert_eq!(bits(&fused), bits(&split));
                prop_assert_eq!(&fused, &split);
            }
        }

        /// Invariant: after any delivery history, debt equals
        /// k·q − cumulative deliveries, and d⁺ is nonnegative.
        #[test]
        fn prop_debt_invariants(q in 0.0f64..2.0, history in proptest::collection::vec(0u64..4, 1..50)) {
            let mut d = ledger(1, q);
            for &s in &history {
                d.settle_interval(&[s]);
            }
            let k = history.len() as f64;
            let total: u64 = history.iter().sum();
            prop_assert!((d.debt(0.into()) - (k * q - total as f64)).abs() < 1e-9);
            prop_assert!(d.positive(0.into()) >= 0.0);
            prop_assert_eq!(d.cumulative_deliveries(0.into()), total);
        }

        /// Total deficiency is always within [0, Σ q_n].
        #[test]
        fn prop_total_deficiency_bounds(
            qs in proptest::collection::vec(0.0f64..1.0, 1..6),
            rounds in 1usize..20,
        ) {
            let reqs = Requirements::new(qs.clone()).unwrap();
            let mut d = DebtLedger::new(reqs);
            for r in 0..rounds {
                let deliveries: Vec<u64> = (0..qs.len()).map(|n| ((r + n) % 2) as u64).collect();
                d.settle_interval(&deliveries);
            }
            let total_q: f64 = qs.iter().sum();
            prop_assert!(d.total_deficiency() >= 0.0);
            prop_assert!(d.total_deficiency() <= total_q + 1e-9);
        }
    }
}
