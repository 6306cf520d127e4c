//! Per-link packet-loss models.
//!
//! The paper assumes a static unreliable channel: an uncollided transmission
//! on link `n` succeeds i.i.d. with probability `p_n` ([`Bernoulli`]). The
//! [`GilbertElliott`] model adds temporally correlated (bursty) losses and is
//! used by the robustness tests and ablation benches — DB-DP maintains
//! priorities through transmission *attempts*, so it must keep working when
//! losses cluster.

use rand::Rng;
use rtmac_model::{ConfigError, LinkId};
use rtmac_sim::SimRng;

/// A per-link loss process: decides whether each uncollided transmission
/// succeeds.
pub trait LossModel: std::fmt::Debug + Send {
    /// Samples the outcome of one transmission attempt on `link`.
    fn attempt(&mut self, link: LinkId, rng: &mut SimRng) -> bool;

    /// Long-run success probability of `link` (what schedulers should use
    /// as `p_n`).
    fn mean_success(&self, link: LinkId) -> f64;

    /// Number of links this model covers.
    fn n_links(&self) -> usize;
}

/// The paper's channel: i.i.d. success with per-link probability `p_n`.
///
/// # Example
///
/// ```
/// use rtmac_phy::channel::{Bernoulli, LossModel};
/// use rtmac_sim::SeedStream;
///
/// let mut ch = Bernoulli::new(vec![0.7, 1.0])?;
/// let mut rng = SeedStream::new(1).rng(0);
/// assert!(ch.attempt(1.into(), &mut rng)); // p = 1 always succeeds
/// assert_eq!(ch.mean_success(0.into()), 0.7);
/// # Ok::<(), rtmac_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bernoulli {
    p: Vec<f64>,
}

impl Bernoulli {
    /// Creates the channel from per-link success probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidSuccessProbability`] if some
    /// `p_n ∉ (0, 1]`, or [`ConfigError::NoLinks`] if empty.
    pub fn new(p: Vec<f64>) -> Result<Self, ConfigError> {
        if p.is_empty() {
            return Err(ConfigError::NoLinks);
        }
        for (link, &v) in p.iter().enumerate() {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(ConfigError::InvalidSuccessProbability { link, value: v });
            }
        }
        Ok(Bernoulli { p })
    }

    /// A perfectly reliable channel for `n` links.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn reliable(n: usize) -> Self {
        assert!(n > 0, "channel needs at least one link");
        Bernoulli { p: vec![1.0; n] }
    }
}

impl LossModel for Bernoulli {
    fn attempt(&mut self, link: LinkId, rng: &mut SimRng) -> bool {
        let p = self.p[link.index()];
        p >= 1.0 || rng.random_bool(p)
    }

    fn mean_success(&self, link: LinkId) -> f64 {
        self.p[link.index()]
    }

    fn n_links(&self) -> usize {
        self.p.len()
    }
}

/// Per-link Gilbert–Elliott parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliottParams {
    /// Success probability in the Good state.
    pub p_good: f64,
    /// Success probability in the Bad state.
    pub p_bad: f64,
    /// P(Good → Bad) per attempt.
    pub good_to_bad: f64,
    /// P(Bad → Good) per attempt.
    pub bad_to_good: f64,
}

impl GilbertElliottParams {
    /// Stationary probability of being in the Good state.
    #[must_use]
    pub fn stationary_good(&self) -> f64 {
        self.bad_to_good / (self.bad_to_good + self.good_to_bad)
    }

    /// Long-run mean success probability.
    #[must_use]
    pub fn mean_success(&self) -> f64 {
        let g = self.stationary_good();
        g * self.p_good + (1.0 - g) * self.p_bad
    }

    fn validate(&self, link: usize) -> Result<(), ConfigError> {
        for v in [self.p_good, self.p_bad] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::InvalidSuccessProbability { link, value: v });
            }
        }
        for v in [self.good_to_bad, self.bad_to_good] {
            if !v.is_finite() || v <= 0.0 || v >= 1.0 {
                return Err(ConfigError::InvalidParameter {
                    name: "gilbert-elliott transition probability",
                    value: v,
                });
            }
        }
        Ok(())
    }
}

/// A two-state burst-loss channel: each link flips between a Good and a Bad
/// state with the given per-attempt transition probabilities.
///
/// This extends the paper's static model with temporal correlation; DB-DP's
/// feasibility-optimality proof assumes static `p_n`, so this model is used
/// to probe robustness, not to reproduce figures.
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    params: Vec<GilbertElliottParams>,
    in_good: Vec<bool>,
}

impl GilbertElliott {
    /// Creates the channel; every link starts in its Good state.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any probability is out of range or the
    /// vector is empty.
    pub fn new(params: Vec<GilbertElliottParams>) -> Result<Self, ConfigError> {
        if params.is_empty() {
            return Err(ConfigError::NoLinks);
        }
        for (link, p) in params.iter().enumerate() {
            p.validate(link)?;
        }
        let n = params.len();
        Ok(GilbertElliott {
            params,
            in_good: vec![true; n],
        })
    }

    /// The per-link parameters.
    #[must_use]
    pub fn params(&self, link: LinkId) -> &GilbertElliottParams {
        &self.params[link.index()]
    }
}

impl LossModel for GilbertElliott {
    fn attempt(&mut self, link: LinkId, rng: &mut SimRng) -> bool {
        let i = link.index();
        let p = &self.params[i];
        let success_p = if self.in_good[i] { p.p_good } else { p.p_bad };
        let success = success_p >= 1.0 || (success_p > 0.0 && rng.random_bool(success_p));
        // State transition after the attempt.
        let flip = if self.in_good[i] {
            rng.random_bool(p.good_to_bad)
        } else {
            rng.random_bool(p.bad_to_good)
        };
        if flip {
            self.in_good[i] = !self.in_good[i];
        }
        success
    }

    fn mean_success(&self, link: LinkId) -> f64 {
        self.params[link.index()].mean_success()
    }

    fn n_links(&self) -> usize {
        self.params.len()
    }
}

/// A deterministic, scripted loss model: each link consumes a fixed
/// sequence of outcomes, cycling at the end. Built for differential tests
/// that must drive two implementations through *identical* channel
/// realizations, and for failure-injection tests (all-loss bursts at exact
/// attempt indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scripted {
    outcomes: Vec<Vec<bool>>,
    cursor: Vec<usize>,
}

impl Scripted {
    /// Creates the channel from per-link outcome scripts.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoLinks`] if `outcomes` is empty, and
    /// [`ConfigError::InvalidParameter`] if any link's script is empty.
    pub fn new(outcomes: Vec<Vec<bool>>) -> Result<Self, ConfigError> {
        if outcomes.is_empty() {
            return Err(ConfigError::NoLinks);
        }
        for (link, script) in outcomes.iter().enumerate() {
            if script.is_empty() {
                return Err(ConfigError::InvalidParameter {
                    name: "channel script length",
                    value: link as f64,
                });
            }
        }
        let n = outcomes.len();
        Ok(Scripted {
            outcomes,
            cursor: vec![0; n],
        })
    }
}

impl LossModel for Scripted {
    fn attempt(&mut self, link: LinkId, _rng: &mut SimRng) -> bool {
        let i = link.index();
        let script = &self.outcomes[i];
        let outcome = script[self.cursor[i] % script.len()];
        self.cursor[i] += 1;
        outcome
    }

    fn mean_success(&self, link: LinkId) -> f64 {
        let script = &self.outcomes[link.index()];
        script.iter().filter(|&&b| b).count() as f64 / script.len() as f64
    }

    fn n_links(&self) -> usize {
        self.outcomes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac_sim::SeedStream;

    #[test]
    fn scripted_replays_and_cycles() {
        let mut ch = Scripted::new(vec![vec![true, false], vec![false]]).unwrap();
        let mut rng = SeedStream::new(0).rng(0);
        let l0 = LinkId::new(0);
        let l1 = LinkId::new(1);
        assert!(ch.attempt(l0, &mut rng));
        assert!(!ch.attempt(l0, &mut rng));
        assert!(ch.attempt(l0, &mut rng)); // cycled
        assert!(!ch.attempt(l1, &mut rng));
        assert_eq!(ch.mean_success(l0), 0.5);
        assert_eq!(ch.n_links(), 2);
    }

    #[test]
    fn scripted_validates() {
        assert!(Scripted::new(vec![]).is_err());
        assert!(Scripted::new(vec![vec![true], vec![]]).is_err());
    }

    #[test]
    fn bernoulli_validates() {
        assert!(Bernoulli::new(vec![]).is_err());
        assert!(Bernoulli::new(vec![0.0]).is_err());
        assert!(Bernoulli::new(vec![1.1]).is_err());
        assert!(Bernoulli::new(vec![0.5, 1.0]).is_ok());
    }

    #[test]
    fn bernoulli_empirical_rate_matches_p() {
        let mut ch = Bernoulli::new(vec![0.7]).unwrap();
        let mut rng = SeedStream::new(42).rng(0);
        let trials = 200_000;
        let successes = (0..trials)
            .filter(|_| ch.attempt(LinkId::new(0), &mut rng))
            .count();
        let rate = successes as f64 / trials as f64;
        assert!(
            (rate - 0.7).abs() < 0.01,
            "empirical {rate} too far from 0.7"
        );
    }

    #[test]
    fn reliable_channel_never_fails() {
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(0).rng(0);
        assert!((0..1000).all(|_| ch.attempt(LinkId::new(1), &mut rng)));
        assert_eq!(ch.n_links(), 2);
    }

    #[test]
    fn gilbert_elliott_mean_matches_stationary_mix() {
        let p = GilbertElliottParams {
            p_good: 0.9,
            p_bad: 0.1,
            good_to_bad: 0.05,
            bad_to_good: 0.2,
        };
        // stationary good = 0.2/0.25 = 0.8; mean = 0.8·0.9 + 0.2·0.1 = 0.74
        assert!((p.stationary_good() - 0.8).abs() < 1e-12);
        assert!((p.mean_success() - 0.74).abs() < 1e-12);

        let mut ch = GilbertElliott::new(vec![p]).unwrap();
        let mut rng = SeedStream::new(7).rng(0);
        let trials = 400_000;
        let successes = (0..trials)
            .filter(|_| ch.attempt(LinkId::new(0), &mut rng))
            .count();
        let rate = successes as f64 / trials as f64;
        assert!(
            (rate - 0.74).abs() < 0.01,
            "empirical {rate} too far from 0.74"
        );
    }

    #[test]
    fn gilbert_elliott_validates() {
        let bad = GilbertElliottParams {
            p_good: 0.9,
            p_bad: 0.1,
            good_to_bad: 0.0, // absorbing: rejected
            bad_to_good: 0.2,
        };
        assert!(GilbertElliott::new(vec![bad]).is_err());
        assert!(GilbertElliott::new(vec![]).is_err());
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        // With sticky states, consecutive outcomes must be positively
        // correlated: count how often outcome_{t+1} == outcome_t.
        let p = GilbertElliottParams {
            p_good: 1.0,
            p_bad: 0.0,
            good_to_bad: 0.02,
            bad_to_good: 0.02,
        };
        let mut ch = GilbertElliott::new(vec![p]).unwrap();
        let mut rng = SeedStream::new(3).rng(0);
        let outcomes: Vec<bool> = (0..100_000)
            .map(|_| ch.attempt(LinkId::new(0), &mut rng))
            .collect();
        let same = outcomes.windows(2).filter(|w| w[0] == w[1]).count();
        let frac = same as f64 / (outcomes.len() - 1) as f64;
        assert!(frac > 0.9, "expected bursty outcomes, got same-rate {frac}");
    }
}
