//! The discretized FCSMA baseline (Li & Eryilmaz, as compared against in
//! Section VI of the paper).
//!
//! FCSMA is a debt-aware random-access scheme: in every idle backoff slot,
//! each backlogged link attempts transmission with a probability that grows
//! with its delivery debt. Two links attempting in the same slot collide and
//! both frames are lost. The paper highlights two structural weaknesses this
//! implementation reproduces:
//!
//! 1. *Contention loss* — random backoff wastes idle slots and, at larger
//!    network sizes, collision rates climb (the Bianchi effect the paper
//!    cites), so FCSMA supports only ≈70% of the admissible load.
//! 2. *Debt obliviousness* — the debt range is divided into finitely many
//!    sections, each mapped to one predetermined attempt probability
//!    ([`FcsmaQuantizer`]); beyond the last threshold FCSMA cannot react to
//!    further debt growth, which starves weak links in asymmetric networks
//!    (Figs. 7–8).
//!
//! # The contender list and its stretches
//!
//! At the start of an interval [`FcsmaEngine::run_interval`] lists the
//! backlogged links in link order, each with its packets left, its airtime
//! and the threshold of its coin ([`bernoulli_threshold`]). The interval
//! then runs in stretches. A stretch starts by dropping the entries whose
//! queue has emptied or whose frame no longer fits, and takes the smallest
//! last fitting start (`deadline − airtime`) among the rest as its
//! horizon. Each of its slots flips every listed coin, in link order, with
//! no queue or fit test. It ends at the first slot with an attempter, or
//! when an idle slot carries time past the horizon.
//!
//! This consumes the same RNG stream as the direct reading of the model: a
//! loop that asks every link, at every slot, whether it is backlogged and
//! its frame fits, and if so calls `random_bool(p)`.
//!
//! * Time only moves forward within an interval and queues only shrink. A
//!   link that left the list would never pass that test again.
//! * No slot of a stretch starts past its horizon, so every listed frame
//!   fits at each of them. A queue shrinks only at a capture, which ends
//!   the stretch. So every listed link passes the test at every slot of
//!   a stretch, and the next test that could drop one is the filter that
//!   starts the next stretch. Ending a stretch early would change no
//!   draw, since the filter is the model's own test; ending it late would
//!   draw for a frame that no longer fits.
//! * The list keeps link order, so the coins are drawn in link order.
//! * `random_bool(p)` for `p < 1` is one `next_u64` compared with
//!   [`bernoulli_threshold`]`(p)`. `random_bool(1.0)` draws nothing, so a
//!   link with `p = 1` holds no threshold and attempts without a draw.
//! * A slot in which no frame fits draws nothing and ends the interval.
//! * A capture's channel draw follows the slot's coins.
//!
//! `tests/fcsma_fingerprints.rs` pins the outcome and the RNG state after
//! every interval over a grid of shapes; one of them reaches a link's last
//! fitting start exactly while other links keep contending after it. The
//! list and the collision scratch are sized on the first interval. After
//! that an interval allocates only the outcome it returns
//! (`tests/alloc_regression.rs`).

use rand::RngCore;
use rtmac_model::LinkId;
use rtmac_phy::channel::LossModel;
use rtmac_phy::Medium;
use rtmac_sim::{bernoulli_threshold, Nanos, SimRng};

use crate::{IntervalOutcome, MacTiming};

/// Maps a delivery debt to a per-slot attempt probability through a finite
/// set of sections — the "predetermined sizes of the contention window" the
/// paper describes (an attempt probability `s` corresponds to a mean
/// contention window of `1/s` slots).
///
/// # Example
///
/// ```
/// use rtmac_mac::FcsmaQuantizer;
///
/// let q = FcsmaQuantizer::paper_default();
/// // Higher debt -> more aggressive, but saturating:
/// assert!(q.attempt_probability(0.1) < q.attempt_probability(5.0));
/// assert_eq!(q.attempt_probability(100.0), q.attempt_probability(1e9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FcsmaQuantizer {
    /// Section boundaries, strictly increasing.
    thresholds: Vec<f64>,
    /// Attempt probabilities, one per section (`thresholds.len() + 1`).
    probs: Vec<f64>,
}

impl FcsmaQuantizer {
    /// Creates a quantizer from section boundaries and per-section attempt
    /// probabilities (`probs.len() == thresholds.len() + 1`, nondecreasing,
    /// each in `(0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes or ranges are violated.
    #[must_use]
    pub fn new(thresholds: Vec<f64>, probs: Vec<f64>) -> Self {
        assert_eq!(
            probs.len(),
            thresholds.len() + 1,
            "need one probability per section"
        );
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly increasing"
        );
        assert!(
            probs.iter().all(|&p| p > 0.0 && p <= 1.0),
            "attempt probabilities must lie in (0, 1]"
        );
        assert!(
            probs.windows(2).all(|w| w[0] <= w[1]),
            "attempt probabilities must be nondecreasing in debt"
        );
        FcsmaQuantizer { thresholds, probs }
    }

    /// The discretization used throughout the figure reproductions: six
    /// sections with mean contention windows 64, 32, 16, 16, 16, 16 slots.
    ///
    /// The saturation at CW = 16 (attempt probability 1/16) is deliberate:
    /// it is the "oblivious above a threshold" behaviour the paper
    /// attributes to FCSMA's finite discretization — once debt passes the
    /// last section boundary the window stops shrinking, so FCSMA cannot
    /// react to further debt growth.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(
            vec![0.25, 0.5, 1.0, 2.0, 4.0],
            vec![
                1.0 / 64.0,
                1.0 / 32.0,
                1.0 / 16.0,
                1.0 / 16.0,
                1.0 / 16.0,
                1.0 / 16.0,
            ],
        )
    }

    /// The attempt probability for a link carrying debt `d`.
    #[must_use]
    pub fn attempt_probability(&self, d: f64) -> f64 {
        let section = self.thresholds.iter().filter(|&&t| d >= t).count();
        self.probs[section]
    }
}

impl Default for FcsmaQuantizer {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The FCSMA per-interval engine.
///
/// Within an interval: at every idle slot boundary each backlogged link
/// attempts with its quantized probability. A sole attempter captures the
/// medium and transmits one packet; simultaneous attempts collide and
/// every frame in the episode is lost. Contention repeats per packet, so
/// the scheme pays idle-slot overhead on every transmission and collision
/// overhead that grows with the number of backlogged links.
#[derive(Debug, Clone)]
pub struct FcsmaEngine {
    timing: MacTiming,
    /// The links still contending in the current interval, in link order.
    contenders: Vec<Contender>,
    /// The airtimes of one slot's attempters.
    airtimes: Vec<Nanos>,
}

/// A backlogged link whose frame still fits in the interval.
#[derive(Debug, Clone, Copy)]
struct Contender {
    link: usize,
    /// Packets still queued.
    left: u32,
    airtime: Nanos,
    /// Attempts when a draw lies below this; `None` attempts without one
    /// (`p = 1`).
    threshold: Option<u64>,
}

impl FcsmaEngine {
    /// Creates the engine.
    #[must_use]
    pub fn new(timing: MacTiming) -> Self {
        FcsmaEngine {
            timing,
            contenders: Vec::new(),
            airtimes: Vec::new(),
        }
    }

    /// The timing context.
    #[must_use]
    pub fn timing(&self) -> &MacTiming {
        &self.timing
    }

    /// Runs one interval.
    ///
    /// * `arrivals[n]` — packets arriving at link `n`.
    /// * `attempt_probs[n]` — the per-slot attempt probability of link `n`
    ///   for this interval (the core crate derives it from delivery debt
    ///   via [`FcsmaQuantizer`]).
    ///
    /// # Panics
    ///
    /// Panics if vector lengths or the channel's link count disagree, or if
    /// a probability is outside `(0, 1]`.
    pub fn run_interval(
        &mut self,
        arrivals: &[u32],
        attempt_probs: &[f64],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        let n = arrivals.len();
        assert_eq!(attempt_probs.len(), n, "one attempt probability per link");
        assert_eq!(channel.n_links(), n, "channel link count mismatch");
        let Self {
            timing,
            contenders,
            airtimes,
        } = self;
        // Sized on the first interval; no-ops from then on.
        contenders.clear();
        contenders.reserve(n);
        airtimes.clear();
        airtimes.reserve(n);
        for (link, (&left, &p)) in arrivals.iter().zip(attempt_probs).enumerate() {
            assert!(
                p > 0.0 && p <= 1.0,
                "attempt_probs[{link}] = {p} out of (0, 1]"
            );
            if left > 0 {
                contenders.push(Contender {
                    link,
                    left,
                    airtime: timing.data_airtime_for(link),
                    threshold: (p < 1.0).then(|| bernoulli_threshold(p)),
                });
            }
        }

        let mut outcome = IntervalOutcome::empty(n);
        let mut medium = Medium::new();
        let slot = timing.slot();
        let deadline = timing.deadline();

        let mut t = Nanos::ZERO;
        'stretch: while t < deadline {
            // A stretch starts: drop the links whose queue emptied or
            // whose frame no longer fits, and stop once none is left. A
            // kept frame fits at `t`, so `deadline − airtime` cannot
            // underflow.
            contenders.retain(|c| c.left > 0 && timing.fits(t, c.airtime));
            let Some(horizon) = contenders.iter().map(|c| deadline - c.airtime).min() else {
                break;
            };
            // Up to the horizon every listed frame fits, and no queue
            // changes before a slot with an attempter, so each slot flips
            // every listed coin, in link order, without testing either.
            // The last attempter's place in the list is the sole one's
            // when exactly one link attempts.
            let mut sole = 0;
            loop {
                airtimes.clear();
                for (i, c) in contenders.iter().enumerate() {
                    let attempts = match c.threshold {
                        Some(threshold) => rng.next_u64() < threshold,
                        None => true,
                    };
                    if attempts {
                        outcome.attempts[c.link] += 1;
                        airtimes.push(c.airtime);
                        sole = i;
                    }
                }
                if !airtimes.is_empty() {
                    break;
                }
                outcome.idle_slots += 1;
                t += slot;
                if t > horizon {
                    continue 'stretch;
                }
            }
            // A collision loses every frame and keeps the medium busy for
            // the longest of them. A sole attempter captures the medium and
            // transmits one packet, then everyone recontends.
            let tx = medium.transmit(t, airtimes);
            if airtimes.len() == 1 {
                let c = &mut contenders[sole];
                if channel.attempt(LinkId::new(c.link), rng) {
                    c.left -= 1;
                    outcome.deliveries[c.link] += 1;
                    outcome.latency_sum[c.link] += tx.ends_at;
                }
            }
            t = tx.ends_at + slot;
        }

        outcome.collisions = medium.stats().collisions;
        outcome.busy_time = medium.stats().busy_time;
        outcome.leftover = deadline.saturating_sub(medium.busy_until());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac_phy::channel::Bernoulli;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::SeedStream;

    fn timing() -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500)
    }

    #[test]
    fn quantizer_sections_and_saturation() {
        let q = FcsmaQuantizer::paper_default();
        assert_eq!(q.attempt_probability(0.0), 1.0 / 64.0);
        assert_eq!(q.attempt_probability(0.3), 1.0 / 32.0);
        assert_eq!(q.attempt_probability(0.7), 1.0 / 16.0);
        // Oblivious above the saturation point:
        assert_eq!(q.attempt_probability(1.5), 1.0 / 16.0);
        assert_eq!(q.attempt_probability(4.0), q.attempt_probability(4000.0));
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn quantizer_rejects_decreasing_probs() {
        let _ = FcsmaQuantizer::new(vec![1.0], vec![0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "one probability per section")]
    fn quantizer_rejects_shape_mismatch() {
        let _ = FcsmaQuantizer::new(vec![1.0], vec![0.5]);
    }

    #[test]
    fn single_link_eventually_delivers() {
        let mut e = FcsmaEngine::new(timing());
        let mut ch = Bernoulli::reliable(1);
        let mut rng = SeedStream::new(1).rng(0);
        let out = e.run_interval(&[3], &[0.25], &mut ch, &mut rng);
        assert_eq!(out.deliveries, [3]);
        assert_eq!(out.collisions, 0);
    }

    #[test]
    fn collisions_occur_under_aggressive_contention() {
        // 10 links all attempting with probability 1 collide forever.
        let mut e = FcsmaEngine::new(timing());
        let mut ch = Bernoulli::reliable(10);
        let mut rng = SeedStream::new(2).rng(0);
        let out = e.run_interval(&[5; 10], &[1.0; 10], &mut ch, &mut rng);
        assert_eq!(out.total_deliveries(), 0);
        assert!(out.collisions > 0);
    }

    #[test]
    fn collision_rate_grows_with_network_size() {
        let run = |n: usize| {
            let mut e = FcsmaEngine::new(timing());
            let mut ch = Bernoulli::reliable(n);
            let mut rng = SeedStream::new(3).rng(n as u64);
            let mut collisions = 0;
            let mut episodes = 0;
            for _ in 0..50 {
                let out = e.run_interval(&vec![6; n], &vec![0.125; n], &mut ch, &mut rng);
                collisions += out.collisions;
                episodes += out.collisions + out.total_attempts();
            }
            collisions as f64 / episodes.max(1) as f64
        };
        let small = run(2);
        let large = run(20);
        assert!(
            large > small,
            "collision fraction should grow with N: {small} vs {large}"
        );
    }

    #[test]
    fn throughput_below_collision_free_capacity() {
        // Saturated symmetric network: FCSMA must deliver noticeably less
        // than the ~61-transmission collision-free budget.
        let mut e = FcsmaEngine::new(timing());
        let n = 20;
        let mut ch = Bernoulli::reliable(n);
        let mut rng = SeedStream::new(4).rng(0);
        let mut total = 0;
        let reps = 20;
        for _ in 0..reps {
            let out = e.run_interval(&vec![6; n], &vec![1.0 / 16.0; n], &mut ch, &mut rng);
            total += out.total_deliveries();
        }
        let per_interval = total as f64 / f64::from(reps);
        assert!(
            per_interval < 55.0,
            "FCSMA should lose capacity to contention, got {per_interval}"
        );
        assert!(per_interval > 20.0, "but not collapse: {per_interval}");
    }

    #[test]
    fn no_arrivals_short_circuits() {
        let mut e = FcsmaEngine::new(timing());
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(5).rng(0);
        let out = e.run_interval(&[0, 0], &[0.5, 0.5], &mut ch, &mut rng);
        assert_eq!(out.total_attempts(), 0);
        assert_eq!(out.idle_slots, 0);
    }
}
