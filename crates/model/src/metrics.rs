//! Evaluation metrics: deficiency time series and convergence tracking.

use crate::{DebtLedger, LinkId};

/// Records the total timely-throughput deficiency (Definition 1) interval by
/// interval, producing the time series plotted in every figure of the paper.
///
/// # Example
///
/// ```
/// use rtmac_model::metrics::DeficiencySeries;
/// use rtmac_model::{DebtLedger, Requirements};
///
/// let mut debts = DebtLedger::new(Requirements::uniform(1, 0.5)?);
/// let mut series = DeficiencySeries::new();
/// debts.settle_interval(&[0]);
/// series.record(&debts);
/// debts.settle_interval(&[1]);
/// series.record(&debts);
/// assert_eq!(series.len(), 2);
/// assert_eq!(series.last(), Some(0.0)); // caught up after 1 delivery / 2 intervals
/// # Ok::<(), rtmac_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeficiencySeries {
    values: Vec<f64>,
}

impl DeficiencySeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the ledger's current total deficiency.
    pub fn record(&mut self, debts: &DebtLedger) {
        self.values.push(debts.total_deficiency());
    }

    /// Appends a raw value: a total computed elsewhere, such as by
    /// [`DebtLedger::settle_and_total_deficiency`], or a test value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The recorded values, one per interval.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Number of recorded intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The most recent value.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Mean of the final `tail` fraction of the series (e.g. `0.2` averages
    /// the last 20%), a low-variance summary of the steady-state deficiency.
    ///
    /// Returns `None` on an empty series.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is not within `(0, 1]`.
    #[must_use]
    pub fn tail_mean(&self, tail: f64) -> Option<f64> {
        assert!(tail > 0.0 && tail <= 1.0, "tail fraction must be in (0, 1]");
        if self.values.is_empty() {
            return None;
        }
        let start = ((self.values.len() as f64) * (1.0 - tail)).floor() as usize;
        let slice = &self.values[start.min(self.values.len() - 1)..];
        Some(slice.iter().sum::<f64>() / slice.len() as f64)
    }
}

/// Tracks the running timely-throughput of one link and detects convergence
/// to within a relative band of its requirement — the measurement behind
/// Fig. 5 ("within 1% neighborhood of the timely-throughput requirement").
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTracker {
    link: LinkId,
    requirement: f64,
    band: f64,
    history: Vec<f64>,
    converged_at: Option<usize>,
}

impl ConvergenceTracker {
    /// Tracks `link` against `requirement`, declaring convergence when the
    /// running average throughput first enters
    /// `[requirement·(1−band), ∞)`.
    ///
    /// # Panics
    ///
    /// Panics if `band` is negative or `requirement` is not finite.
    #[must_use]
    pub fn new(link: LinkId, requirement: f64, band: f64) -> Self {
        assert!(band >= 0.0, "convergence band must be nonnegative");
        assert!(requirement.is_finite(), "requirement must be finite");
        ConvergenceTracker {
            link,
            requirement,
            band,
            history: Vec::new(),
            converged_at: None,
        }
    }

    /// The tracked link.
    #[must_use]
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// Records one interval from the ledger.
    pub fn record(&mut self, debts: &DebtLedger) {
        let tp = debts.empirical_throughput(self.link);
        self.history.push(tp);
        if self.converged_at.is_none() && tp >= self.requirement * (1.0 - self.band) {
            self.converged_at = Some(self.history.len() - 1);
        }
    }

    /// Running-average throughput per interval, as recorded.
    #[must_use]
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// The 0-based interval index at which the running average first entered
    /// the convergence band, if it has.
    #[must_use]
    pub fn converged_at(&self) -> Option<usize> {
        self.converged_at
    }

    /// The 0-based interval index after which the running average *stays*
    /// within the two-sided band `|tp − q| ≤ band·q` for the rest of the
    /// recorded history — the robust convergence-time measurement of
    /// Fig. 5. Returns `None` if the final value is still outside the band
    /// or nothing was recorded.
    #[must_use]
    pub fn settled_at(&self) -> Option<usize> {
        let bound = self.band * self.requirement.abs();
        let inside = |tp: f64| (tp - self.requirement).abs() <= bound;
        match self.history.iter().rposition(|&tp| !inside(tp)) {
            Some(last_violation) if last_violation + 1 < self.history.len() => {
                Some(last_violation + 1)
            }
            Some(_) => None, // still outside at the end
            None if self.history.is_empty() => None,
            None => Some(0),
        }
    }
}

/// An incrementally updated mean/variance accumulator (Welford), used for
/// summarizing per-link throughput across repetitions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Requirements;

    fn ledger(q: f64) -> DebtLedger {
        DebtLedger::new(Requirements::uniform(1, q).unwrap())
    }

    #[test]
    fn series_records_total_deficiency() {
        let mut debts = ledger(1.0);
        let mut s = DeficiencySeries::new();
        debts.settle_interval(&[0]);
        s.record(&debts);
        assert_eq!(s.as_slice(), [1.0]);
        debts.settle_interval(&[2]);
        s.record(&debts);
        assert_eq!(s.last(), Some(0.0));
        assert!(!s.is_empty());
    }

    #[test]
    fn tail_mean_averages_suffix() {
        let mut s = DeficiencySeries::new();
        for v in [10.0, 10.0, 10.0, 10.0, 10.0, 2.0, 2.0, 2.0, 2.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.tail_mean(0.5), Some(2.0));
        assert_eq!(s.tail_mean(1.0), Some(6.0));
        assert_eq!(DeficiencySeries::new().tail_mean(0.5), None);
    }

    #[test]
    #[should_panic(expected = "tail fraction")]
    fn tail_mean_rejects_zero() {
        let _ = DeficiencySeries::new().tail_mean(0.0);
    }

    #[test]
    fn convergence_detects_first_entry_into_band() {
        let mut debts = ledger(1.0);
        let mut tracker = ConvergenceTracker::new(LinkId::new(0), 1.0, 0.01);
        // Miss twice, then deliver every interval: running average
        // 0, 0, 1/3, 2/4, ..., crosses 0.99 slowly.
        debts.settle_interval(&[0]);
        tracker.record(&debts);
        debts.settle_interval(&[0]);
        tracker.record(&debts);
        for _ in 0..300 {
            debts.settle_interval(&[1]);
            tracker.record(&debts);
        }
        let at = tracker.converged_at().expect("must converge");
        // Needs k/(k+2) >= 0.99 -> k >= 198 -> interval index 199 (0-based, 200th record).
        assert_eq!(at, 199);
        assert_eq!(tracker.history().len(), 302);
        assert_eq!(tracker.link(), LinkId::new(0));
    }

    #[test]
    fn settled_at_requires_staying_in_band() {
        let mut tracker = ConvergenceTracker::new(LinkId::new(0), 1.0, 0.1);
        let mut debts = ledger(1.0);
        // Deliver 2, 0, then 1 forever: running average 2, 1, 4/3, 5/4, ...
        // enters [0.9, 1.1] for good once k/(k) ... compute below.
        debts.settle_interval(&[2]);
        tracker.record(&debts); // tp = 2 (outside)
        debts.settle_interval(&[0]);
        tracker.record(&debts); // tp = 1 (inside)
        for _ in 0..20 {
            debts.settle_interval(&[1]);
            tracker.record(&debts); // tp = (2 + k)/(2 + k) ... = 1 + eps
        }
        // tp after k more: (2 + k)/(2 + k)= wait: total = 2 + k, intervals = 2 + k.
        // All inside from index 1 onward; index 0 was outside.
        assert_eq!(tracker.settled_at(), Some(1));
        // One-sided first-entry fires immediately (tp = 2 >= 0.9).
        assert_eq!(tracker.converged_at(), Some(0));
    }

    #[test]
    fn settled_at_none_when_ending_outside() {
        let mut tracker = ConvergenceTracker::new(LinkId::new(0), 1.0, 0.01);
        let mut debts = ledger(1.0);
        debts.settle_interval(&[0]);
        tracker.record(&debts); // tp = 0, outside
        assert_eq!(tracker.settled_at(), None);
        let empty = ConvergenceTracker::new(LinkId::new(0), 1.0, 0.01);
        assert_eq!(empty.settled_at(), None);
    }

    #[test]
    fn settled_at_zero_when_always_inside() {
        let mut tracker = ConvergenceTracker::new(LinkId::new(0), 1.0, 0.05);
        let mut debts = ledger(1.0);
        for _ in 0..5 {
            debts.settle_interval(&[1]);
            tracker.record(&debts);
        }
        assert_eq!(tracker.settled_at(), Some(0));
    }

    #[test]
    fn convergence_none_when_never_reached() {
        let mut debts = ledger(1.0);
        let mut tracker = ConvergenceTracker::new(LinkId::new(0), 1.0, 0.01);
        for _ in 0..10 {
            debts.settle_interval(&[0]);
            tracker.record(&debts);
        }
        assert_eq!(tracker.converged_at(), None);
    }

    #[test]
    fn running_stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut st = RunningStats::new();
        for &x in &xs {
            st.push(x);
        }
        assert_eq!(st.count(), 8);
        assert!((st.mean() - 5.0).abs() < 1e-12);
        let mean = 5.0;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 7.0;
        assert!((st.variance() - var).abs() < 1e-12);
        assert!((st.std_dev() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_degenerate_cases() {
        let mut st = RunningStats::new();
        assert_eq!(st.mean(), 0.0);
        assert_eq!(st.variance(), 0.0);
        st.push(3.0);
        assert_eq!(st.mean(), 3.0);
        assert_eq!(st.variance(), 0.0);
    }
}
