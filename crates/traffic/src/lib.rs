//! # rtmac-traffic
//!
//! Arrival processes for deadline-constrained wireless traffic.
//!
//! The paper models arrivals as an i.i.d. sequence of *vectors* `A(k)`:
//! every link receives its packets at the beginning of interval `k`, counts
//! are bounded by `A_max`, and counts of different links may be correlated
//! within an interval. This crate provides the two processes the evaluation
//! uses, plus two more for tests and extensions:
//!
//! * [`BurstUniform`] — the Fig. 3–8 video model: `U{1..6}` with
//!   probability `α_n`, else 0 (mean `3.5·α_n`).
//! * [`BernoulliArrivals`] — the Fig. 9–10 control model: one packet with
//!   probability `λ_n`.
//! * [`ConstantArrivals`] — deterministic arrivals (the classic one packet
//!   per interval setting where timely-throughput equals delivery ratio).
//! * [`MarkovModulated`] — per-link Calm/Busy phases, for temporally
//!   correlated (scene-change) bursts.
//!
//! # Example
//!
//! ```
//! use rtmac_traffic::{ArrivalProcess, BurstUniform};
//! use rtmac_sim::SeedStream;
//!
//! // Fig. 3 workload at α* = 0.55 for 20 links.
//! let mut arrivals = BurstUniform::symmetric(20, 0.55, 6)?;
//! assert!((arrivals.mean(0.into()) - 3.5 * 0.55).abs() < 1e-12);
//! let mut rng = SeedStream::new(1).rng(0);
//! let mut buf = Vec::new();
//! arrivals.sample(&mut rng, &mut buf);
//! assert_eq!(buf.len(), 20);
//! assert!(buf.iter().all(|&a| a <= 6));
//! # Ok::<(), rtmac_model::ConfigError>(())
//! ```

use rand::{Rng, RngCore};
use rtmac_model::{ConfigError, LinkId};
use rtmac_sim::{bernoulli_threshold, SimRng};

/// An interval-synchronous arrival process: one sample per interval yields
/// the packet count of every link.
pub trait ArrivalProcess: std::fmt::Debug + Send {
    /// Number of links.
    fn n_links(&self) -> usize;

    /// Samples the arrival vector `A(k)` for one interval into `out`
    /// (cleared and refilled; one entry per link).
    fn sample(&mut self, rng: &mut SimRng, out: &mut Vec<u32>);

    /// Mean arrivals per interval `λ_n`.
    fn mean(&self, link: LinkId) -> f64;

    /// The bound `A_max` on per-link arrivals in one interval.
    fn max_arrivals(&self) -> u32;
}

fn validate_probability(
    values: &[f64],
    to_error: impl Fn(usize, f64) -> ConfigError,
) -> Result<(), ConfigError> {
    if values.is_empty() {
        return Err(ConfigError::NoLinks);
    }
    for (link, &v) in values.iter().enumerate() {
        if !v.is_finite() || !(0.0..=1.0).contains(&v) {
            return Err(to_error(link, v));
        }
    }
    Ok(())
}

/// The paper's video-traffic model: link `n` receives `U{1..=burst_max}`
/// packets with probability `α_n` and 0 otherwise, so
/// `λ_n = α_n · (burst_max + 1) / 2`.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstUniform {
    alpha: Vec<f64>,
    burst_max: u32,
}

impl BurstUniform {
    /// Per-link burst probabilities with a common maximum burst size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidArrivalRate`] if some
    /// `α_n ∉ [0, 1]`, [`ConfigError::NoLinks`] if empty, or
    /// [`ConfigError::InvalidParameter`] if `burst_max == 0`.
    pub fn new(alpha: Vec<f64>, burst_max: u32) -> Result<Self, ConfigError> {
        validate_probability(&alpha, |link, value| ConfigError::InvalidArrivalRate {
            link,
            value,
        })?;
        if burst_max == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "burst_max",
                value: 0.0,
            });
        }
        Ok(BurstUniform { alpha, burst_max })
    }

    /// Every one of `n` links uses the same `α`.
    ///
    /// # Errors
    ///
    /// Same as [`BurstUniform::new`].
    pub fn symmetric(n: usize, alpha: f64, burst_max: u32) -> Result<Self, ConfigError> {
        Self::new(vec![alpha; n], burst_max)
    }

    /// The burst probability `α_n` of one link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn alpha(&self, link: LinkId) -> f64 {
        self.alpha[link.index()]
    }
}

impl ArrivalProcess for BurstUniform {
    fn n_links(&self) -> usize {
        self.alpha.len()
    }

    /// Draws, link by link, the burst coin — one `next_u64` against
    /// `random_bool`'s threshold when `0 < α_n < 1`, nothing when `α_n` is
    /// 0 or 1 — and then `random_range(1..=burst_max)` on a burst: the
    /// stream of `random_bool(α_n)` followed by `random_range`. The
    /// threshold is computed once per run of equal consecutive `α_n`, and
    /// `out` is sized once and written in place.
    fn sample(&mut self, rng: &mut SimRng, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.alpha.len(), 0);
        let burst_max = self.burst_max;
        let mut slots = out.as_mut_slice();
        for run in self.alpha.chunk_by(|a, b| a == b) {
            let (head, rest) = slots.split_at_mut(run.len());
            slots = rest;
            let a = run[0];
            if a >= 1.0 {
                head.fill_with(|| rng.random_range(1..=burst_max));
            } else if a > 0.0 {
                let threshold = bernoulli_threshold(a);
                for slot in head {
                    if rng.next_u64() < threshold {
                        *slot = rng.random_range(1..=burst_max);
                    }
                }
            }
        }
    }

    fn mean(&self, link: LinkId) -> f64 {
        self.alpha[link.index()] * f64::from(self.burst_max + 1) / 2.0
    }

    fn max_arrivals(&self) -> u32 {
        self.burst_max
    }
}

/// The paper's control-traffic model: one packet with probability `λ_n`,
/// zero otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct BernoulliArrivals {
    lambda: Vec<f64>,
}

impl BernoulliArrivals {
    /// Per-link arrival probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidArrivalRate`] if some
    /// `λ_n ∉ [0, 1]` or [`ConfigError::NoLinks`] if empty.
    pub fn new(lambda: Vec<f64>) -> Result<Self, ConfigError> {
        validate_probability(&lambda, |link, value| ConfigError::InvalidArrivalRate {
            link,
            value,
        })?;
        Ok(BernoulliArrivals { lambda })
    }

    /// Every one of `n` links uses the same `λ`.
    ///
    /// # Errors
    ///
    /// Same as [`BernoulliArrivals::new`].
    pub fn symmetric(n: usize, lambda: f64) -> Result<Self, ConfigError> {
        Self::new(vec![lambda; n])
    }
}

impl ArrivalProcess for BernoulliArrivals {
    fn n_links(&self) -> usize {
        self.lambda.len()
    }

    fn sample(&mut self, rng: &mut SimRng, out: &mut Vec<u32>) {
        out.clear();
        for &l in &self.lambda {
            let hit = l > 0.0 && (l >= 1.0 || rng.random_bool(l));
            out.push(u32::from(hit));
        }
    }

    fn mean(&self, link: LinkId) -> f64 {
        self.lambda[link.index()]
    }

    fn max_arrivals(&self) -> u32 {
        1
    }
}

/// Deterministic arrivals: link `n` always receives `counts[n]` packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantArrivals {
    counts: Vec<u32>,
}

impl ConstantArrivals {
    /// Fixed per-link counts.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoLinks`] if empty.
    pub fn new(counts: Vec<u32>) -> Result<Self, ConfigError> {
        if counts.is_empty() {
            return Err(ConfigError::NoLinks);
        }
        Ok(ConstantArrivals { counts })
    }

    /// Every one of `n` links receives exactly one packet per interval —
    /// the classic setting where timely-throughput equals delivery ratio.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoLinks`] if `n == 0`.
    pub fn one_each(n: usize) -> Result<Self, ConfigError> {
        Self::new(vec![1; n])
    }
}

impl ArrivalProcess for ConstantArrivals {
    fn n_links(&self) -> usize {
        self.counts.len()
    }

    fn sample(&mut self, _rng: &mut SimRng, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.counts);
    }

    fn mean(&self, link: LinkId) -> f64 {
        f64::from(self.counts[link.index()])
    }

    fn max_arrivals(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// A two-state Markov-modulated arrival process: each link independently
/// alternates between a Calm and a Busy phase with per-interval switching
/// probabilities, drawing its packet count from a phase-specific
/// [`BurstUniform`]-style law. Models the scene-change burstiness of real
/// video sources, which the paper's i.i.d. model smooths away — used by
/// robustness tests and ablations, not by the figure reproductions.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModulated {
    calm_alpha: f64,
    busy_alpha: f64,
    calm_to_busy: f64,
    busy_to_calm: f64,
    burst_max: u32,
    in_busy: Vec<bool>,
}

impl MarkovModulated {
    /// Creates the process for `n` links; every link starts Calm.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a probability is out of `[0, 1]` (the
    /// switching probabilities must be in `(0, 1)` so both phases recur),
    /// `burst_max == 0`, or `n == 0`.
    pub fn new(
        n: usize,
        calm_alpha: f64,
        busy_alpha: f64,
        calm_to_busy: f64,
        busy_to_calm: f64,
        burst_max: u32,
    ) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::NoLinks);
        }
        for (value, name) in [(calm_alpha, "calm alpha"), (busy_alpha, "busy alpha")] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::InvalidParameter { name, value });
            }
        }
        for (value, name) in [
            (calm_to_busy, "calm-to-busy probability"),
            (busy_to_calm, "busy-to-calm probability"),
        ] {
            if !value.is_finite() || value <= 0.0 || value >= 1.0 {
                return Err(ConfigError::InvalidParameter { name, value });
            }
        }
        if burst_max == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "burst_max",
                value: 0.0,
            });
        }
        Ok(MarkovModulated {
            calm_alpha,
            busy_alpha,
            calm_to_busy,
            busy_to_calm,
            burst_max,
            in_busy: vec![false; n],
        })
    }

    /// Stationary probability of the Busy phase.
    #[must_use]
    pub fn stationary_busy(&self) -> f64 {
        self.calm_to_busy / (self.calm_to_busy + self.busy_to_calm)
    }
}

impl ArrivalProcess for MarkovModulated {
    fn n_links(&self) -> usize {
        self.in_busy.len()
    }

    fn sample(&mut self, rng: &mut SimRng, out: &mut Vec<u32>) {
        out.clear();
        for i in 0..self.in_busy.len() {
            let alpha = if self.in_busy[i] {
                self.busy_alpha
            } else {
                self.calm_alpha
            };
            let burst = alpha > 0.0 && (alpha >= 1.0 || rng.random_bool(alpha));
            out.push(if burst {
                rng.random_range(1..=self.burst_max)
            } else {
                0
            });
            // Phase transition for the next interval.
            let flip = if self.in_busy[i] {
                rng.random_bool(self.busy_to_calm)
            } else {
                rng.random_bool(self.calm_to_busy)
            };
            if flip {
                self.in_busy[i] = !self.in_busy[i];
            }
        }
    }

    fn mean(&self, link: LinkId) -> f64 {
        let _ = link;
        let b = self.stationary_busy();
        let alpha = b * self.busy_alpha + (1.0 - b) * self.calm_alpha;
        alpha * f64::from(self.burst_max + 1) / 2.0
    }

    fn max_arrivals(&self) -> u32 {
        self.burst_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac_sim::SeedStream;

    fn empirical_mean(p: &mut dyn ArrivalProcess, link: usize, trials: usize, seed: u64) -> f64 {
        let mut rng = SeedStream::new(seed).rng(0);
        let mut buf = Vec::new();
        let mut total = 0u64;
        for _ in 0..trials {
            p.sample(&mut rng, &mut buf);
            total += u64::from(buf[link]);
        }
        total as f64 / trials as f64
    }

    #[test]
    fn burst_uniform_mean_is_alpha_times_midpoint() {
        let mut p = BurstUniform::symmetric(3, 0.6, 6).unwrap();
        assert!((p.mean(0.into()) - 2.1).abs() < 1e-12);
        assert_eq!(p.alpha(2.into()), 0.6);
        let m = empirical_mean(&mut p, 1, 100_000, 11);
        assert!((m - 2.1).abs() < 0.05, "empirical {m}");
        assert_eq!(p.max_arrivals(), 6);
    }

    #[test]
    fn burst_uniform_respects_bounds() {
        let mut p = BurstUniform::symmetric(2, 1.0, 4).unwrap();
        let mut rng = SeedStream::new(2).rng(0);
        let mut buf = Vec::new();
        for _ in 0..1000 {
            p.sample(&mut rng, &mut buf);
            assert!(buf.iter().all(|&a| (1..=4).contains(&a)));
        }
    }

    /// The per-link draws `sample` must reproduce: `random_bool(α_n)`
    /// (no draw at 0 or 1), then `random_range(1..=burst_max)` on a burst.
    fn reference_sample(alpha: &[f64], burst_max: u32, rng: &mut SimRng) -> Vec<u32> {
        alpha
            .iter()
            .map(|&a| {
                let burst = a > 0.0 && (a >= 1.0 || rng.random_bool(a));
                if burst {
                    rng.random_range(1..=burst_max)
                } else {
                    0
                }
            })
            .collect()
    }

    /// The α values whose coins differ in kind: none drawn (0, 1), a
    /// threshold of 0 (1e-300), an exact power of two, and the Fig. 3 rate.
    const ALPHAS: [f64; 5] = [0.0, 1.0, 1.0 / 4096.0, 1e-300, 0.55];

    fn assert_same_stream(alpha: Vec<f64>, burst_max: u32, seed: u64) {
        let mut p = BurstUniform::new(alpha.clone(), burst_max).unwrap();
        let mut rng = SeedStream::new(seed).rng(0);
        let mut reference_rng = rng.clone();
        let mut buf = vec![9; 3];
        for _ in 0..20 {
            p.sample(&mut rng, &mut buf);
            let want = reference_sample(&alpha, burst_max, &mut reference_rng);
            assert_eq!(buf, want, "alpha {alpha:?}");
            assert_eq!(rng, reference_rng, "alpha {alpha:?}: RNG state");
        }
    }

    #[test]
    fn burst_uniform_consumes_the_random_bool_stream() {
        let mut alpha = Vec::new();
        for &a in ALPHAS.iter().chain(ALPHAS.iter().rev()) {
            alpha.extend([a; 4]);
            alpha.push(0.55);
        }
        assert_same_stream(alpha, 6, 3);
        assert_same_stream(vec![0.55; 1000], 6, 4);
        assert_same_stream(vec![1.0 / 4096.0; 5000], 3, 5);
    }

    proptest::proptest! {
        /// Random runs of the distinct α kinds, equal neighbours included.
        #[test]
        fn prop_burst_uniform_matches_the_reference(
            runs in proptest::collection::vec((0usize..5, 1usize..6), 1..20),
            burst_max in 1u32..8,
            seed in 0u64..1000,
        ) {
            let alpha = runs
                .iter()
                .flat_map(|&(kind, len)| std::iter::repeat_n(ALPHAS[kind], len))
                .collect();
            assert_same_stream(alpha, burst_max, seed);
        }
    }

    #[test]
    fn burst_uniform_validates() {
        assert!(BurstUniform::new(vec![], 6).is_err());
        assert!(BurstUniform::new(vec![1.5], 6).is_err());
        assert!(BurstUniform::new(vec![0.5], 0).is_err());
    }

    #[test]
    fn bernoulli_mean_matches() {
        let mut p = BernoulliArrivals::symmetric(2, 0.78).unwrap();
        let m = empirical_mean(&mut p, 0, 100_000, 5);
        assert!((m - 0.78).abs() < 0.01, "empirical {m}");
        assert_eq!(p.max_arrivals(), 1);
        assert!(BernoulliArrivals::new(vec![-0.1]).is_err());
    }

    #[test]
    fn constant_is_deterministic() {
        let mut p = ConstantArrivals::new(vec![2, 0, 1]).unwrap();
        let mut rng = SeedStream::new(0).rng(0);
        let mut buf = Vec::new();
        p.sample(&mut rng, &mut buf);
        assert_eq!(buf, [2, 0, 1]);
        assert_eq!(p.mean(0.into()), 2.0);
        assert_eq!(p.max_arrivals(), 2);
        let one = ConstantArrivals::one_each(4).unwrap();
        assert_eq!(one.mean(3.into()), 1.0);
    }

    #[test]
    fn markov_modulated_mean_matches_stationary_mix() {
        // Stationary busy = 0.1/(0.1+0.3) = 0.25; alpha = 0.25·0.9 + 0.75·0.2
        // = 0.375; mean = 0.375·3.5 = 1.3125.
        let mut p = MarkovModulated::new(2, 0.2, 0.9, 0.1, 0.3, 6).unwrap();
        assert!((p.stationary_busy() - 0.25).abs() < 1e-12);
        assert!((p.mean(0.into()) - 1.3125).abs() < 1e-12);
        let m = empirical_mean(&mut p, 0, 200_000, 21);
        assert!((m - 1.3125).abs() < 0.03, "empirical {m}");
        assert_eq!(p.max_arrivals(), 6);
    }

    #[test]
    fn markov_modulated_is_temporally_correlated() {
        // With sticky phases, interval counts must be positively
        // autocorrelated: P(next nonzero | current nonzero) should exceed
        // the marginal nonzero rate.
        let mut p = MarkovModulated::new(1, 0.05, 0.95, 0.02, 0.02, 6).unwrap();
        let mut rng = SeedStream::new(8).rng(0);
        let mut buf = Vec::new();
        let mut prev_nonzero = false;
        let (mut nn, mut n_after_n, mut total_n) = (0u32, 0u32, 0u32);
        for _ in 0..100_000 {
            p.sample(&mut rng, &mut buf);
            let nonzero = buf[0] > 0;
            if nonzero {
                total_n += 1;
            }
            if prev_nonzero {
                nn += 1;
                if nonzero {
                    n_after_n += 1;
                }
            }
            prev_nonzero = nonzero;
        }
        let conditional = f64::from(n_after_n) / f64::from(nn);
        let marginal = f64::from(total_n) / 100_000.0;
        assert!(
            conditional > marginal + 0.2,
            "conditional {conditional} vs marginal {marginal}"
        );
    }

    #[test]
    fn markov_modulated_validates() {
        assert!(MarkovModulated::new(0, 0.2, 0.9, 0.1, 0.3, 6).is_err());
        assert!(MarkovModulated::new(1, 1.2, 0.9, 0.1, 0.3, 6).is_err());
        assert!(MarkovModulated::new(1, 0.2, 0.9, 0.0, 0.3, 6).is_err());
        assert!(MarkovModulated::new(1, 0.2, 0.9, 0.1, 1.0, 6).is_err());
        assert!(MarkovModulated::new(1, 0.2, 0.9, 0.1, 0.3, 0).is_err());
    }
}
