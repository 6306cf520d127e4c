//! Fault injection for the carrier-sensing substrate.
//!
//! The DP protocol's collision-freedom argument assumes the sensing oracle
//! of Eqs. 7–8 is exact and that every node stays up. This module provides
//! the deviations the robustness experiments inject:
//!
//! * [`FaultModel`] — a deterministic, seeded source of per-link sensing
//!   errors: *false busy* (an idle boundary reads as occupied) and *false
//!   idle* (an occupied boundary reads as clear), applied at the
//!   carrier-sense instants where a MAC engine asks for them. On top of the
//!   i.i.d. base rates, [`FaultModel::with_burst`] layers a
//!   [`BurstSensing`] Gilbert–Elliott process: per-link good/bad Markov
//!   chains advanced once per interval, with elevated error rates while a
//!   link's chain sits in the bad state.
//! * [`HiddenMatrix`] — an asymmetric per-link-pair sensing fault: listener
//!   `i` is deaf to transmissions from a configured subset of links (the
//!   classic hidden-terminal geometry), while every other link hears them
//!   normally.
//! * [`ChurnSchedule`] — a scripted crash/revive event: one link goes dark
//!   for a window of intervals and rejoins with whatever priority state it
//!   held before the crash (stale σ).
//! * [`ChurnProcess`] — the generalization: any number of scripted events,
//!   flash-crowd join ramps, and a seeded Poisson crash/revive process with
//!   exponentially distributed outage lengths.
//!
//! Everything is plain data plus an explicit RNG, so runs are
//! bit-reproducible under the workspace's `SeedStream` discipline.
//! [`FaultModel::none`] consumes **zero** random draws and never flips an
//! observation — engines wired with it must behave exactly like their
//! fault-free code paths. Two reduction laws keep the new models honest:
//!
//! * A [`BurstSensing`] whose bad-state rates equal the base rates flips
//!   the *same stream* as the plain i.i.d. model (the flip decision draws
//!   one bool per sense call from the flip RNG either way; the state chain
//!   draws from its own RNG), so equal-rate bursts are byte-identical.
//! * A [`ChurnProcess`] whose Poisson rate is zero consumes zero draws and
//!   replays its scripted events exactly like bare [`ChurnSchedule`]s.

use rand::Rng;
use rtmac_model::LinkId;
use rtmac_sim::SimRng;

/// Parameters of the Gilbert–Elliott bursty sensing process: a per-link
/// two-state Markov chain (good/bad) advanced once per interval, with the
/// sensing-error rates switching to `(bad_false_busy, bad_false_idle)`
/// while a link's chain sits in the bad state.
///
/// The mean bad-burst length is `1 / p_exit_bad` intervals and the
/// stationary bad fraction is `p_enter_bad / (p_enter_bad + p_exit_bad)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSensing {
    p_enter_bad: f64,
    p_exit_bad: f64,
    bad_false_busy: f64,
    bad_false_idle: f64,
}

impl BurstSensing {
    /// A bursty sensing process entering the bad state with per-interval
    /// probability `p_enter_bad`, leaving it with `p_exit_bad`, and using
    /// the given bad-state error rates.
    ///
    /// # Panics
    ///
    /// Panics if `p_enter_bad ∉ [0, 1)`, `p_exit_bad ∉ (0, 1]` (the bad
    /// state must be leavable), or either bad-state rate is outside
    /// `[0, 1)`.
    #[must_use]
    pub fn new(
        p_enter_bad: f64,
        p_exit_bad: f64,
        bad_false_busy: f64,
        bad_false_idle: f64,
    ) -> Self {
        assert!(
            p_enter_bad.is_finite() && (0.0..1.0).contains(&p_enter_bad),
            "p_enter_bad = {p_enter_bad} must lie in [0, 1)"
        );
        assert!(
            p_exit_bad.is_finite() && p_exit_bad > 0.0 && p_exit_bad <= 1.0,
            "p_exit_bad = {p_exit_bad} must lie in (0, 1]"
        );
        for (name, p) in [
            ("bad_false_busy", bad_false_busy),
            ("bad_false_idle", bad_false_idle),
        ] {
            assert!(
                p.is_finite() && (0.0..1.0).contains(&p),
                "{name} = {p} must lie in [0, 1)"
            );
        }
        BurstSensing {
            p_enter_bad,
            p_exit_bad,
            bad_false_busy,
            bad_false_idle,
        }
    }

    /// Per-interval probability of entering the bad state.
    #[must_use]
    pub fn p_enter_bad(&self) -> f64 {
        self.p_enter_bad
    }

    /// Per-interval probability of leaving the bad state.
    #[must_use]
    pub fn p_exit_bad(&self) -> f64 {
        self.p_exit_bad
    }

    /// False-busy rate while in the bad state.
    #[must_use]
    pub fn bad_false_busy(&self) -> f64 {
        self.bad_false_busy
    }

    /// False-idle rate while in the bad state.
    #[must_use]
    pub fn bad_false_idle(&self) -> f64 {
        self.bad_false_idle
    }
}

/// Per-link Gilbert–Elliott chain state carried by a [`FaultModel`].
#[derive(Debug, Clone)]
struct BurstState {
    spec: BurstSensing,
    /// Dedicated chain RNG — the flip RNG never sees state draws, so an
    /// equal-rate burst model flips the same stream as the i.i.d. model.
    state_rng: SimRng,
    bad: Vec<bool>,
}

/// A deterministic sensing-error process.
///
/// Each call to [`FaultModel::sense`] filters one carrier-sense observation:
/// with probability `false_busy` an idle medium is reported busy, with
/// probability `false_idle` a busy medium is reported idle. The model owns
/// its RNG (seed it from a dedicated `SeedStream` label) so injected faults
/// never perturb the protocol or channel randomness.
///
/// With [`FaultModel::with_burst`], the rates become state-dependent:
/// [`FaultModel::begin_interval`] advances each link's good/bad chain once
/// per interval (one draw per link from the *state* RNG), and `sense`
/// applies the bad-state rates while a link's chain is bad. The flip
/// decision still consumes exactly one draw per call from the flip RNG, so
/// a burst model with bad rates equal to the base rates is byte-identical
/// to the plain i.i.d. model.
///
/// # Example
///
/// ```
/// use rtmac_phy::fault::FaultModel;
/// use rtmac_model::LinkId;
/// use rtmac_sim::SeedStream;
///
/// let mut faults = FaultModel::symmetric(0.5, SeedStream::new(7).rng(3));
/// let heard: Vec<bool> = (0..8).map(|_| faults.sense(LinkId::new(0), false)).collect();
/// assert!(heard.contains(&true), "eps = 0.5 flips some observations");
///
/// let mut none = FaultModel::none();
/// assert!(!none.sense(LinkId::new(0), false));
/// assert_eq!(none.injected(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultModel {
    false_busy: f64,
    false_idle: f64,
    rng: SimRng,
    injected: u64,
    burst: Option<BurstState>,
}

impl FaultModel {
    /// A sensing process with the given error rates.
    ///
    /// # Panics
    ///
    /// Panics if either rate is not a probability in `[0, 1)`.
    #[must_use]
    pub fn new(false_busy: f64, false_idle: f64, rng: SimRng) -> Self {
        for (name, p) in [("false_busy", false_busy), ("false_idle", false_idle)] {
            assert!(
                p.is_finite() && (0.0..1.0).contains(&p),
                "{name} = {p} must lie in [0, 1)"
            );
        }
        FaultModel {
            false_busy,
            false_idle,
            rng,
            injected: 0,
            burst: None,
        }
    }

    /// Both error rates set to the same `eps` — the ε of the `fig_fault`
    /// sweep.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not a probability in `[0, 1)`.
    #[must_use]
    pub fn symmetric(eps: f64, rng: SimRng) -> Self {
        Self::new(eps, eps, rng)
    }

    /// The perfect-sensing model: never flips an observation and never
    /// draws from its RNG, so engines carrying it stay bit-identical to
    /// their fault-free code paths.
    #[must_use]
    pub fn none() -> Self {
        use rand::SeedableRng;
        // lint: allow(rng-lane-discipline) — placeholder generator for the never-drawing perfect-sensing model; no lane is consumed
        Self::new(0.0, 0.0, SimRng::seed_from_u64(0))
    }

    /// Layers a Gilbert–Elliott bursty process over the base rates: each of
    /// the `n_links` links carries a good/bad chain (all start good),
    /// advanced once per interval by [`FaultModel::begin_interval`], with
    /// `spec`'s elevated rates applied while a link is bad. The chain draws
    /// from `state_rng` — keep it on its own `SeedStream` lane so the flip
    /// stream stays aligned with the i.i.d. model.
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn with_burst(mut self, n_links: usize, spec: BurstSensing, state_rng: SimRng) -> Self {
        assert!(n_links > 0, "a burst process needs at least one link");
        self.burst = Some(BurstState {
            spec,
            state_rng,
            bad: vec![false; n_links],
        });
        self
    }

    /// Whether this model can ever flip an observation.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.false_busy == 0.0 && self.false_idle == 0.0 && self.burst.is_none()
    }

    /// The false-busy rate (good state).
    #[must_use]
    pub fn false_busy(&self) -> f64 {
        self.false_busy
    }

    /// The false-idle rate (good state).
    #[must_use]
    pub fn false_idle(&self) -> f64 {
        self.false_idle
    }

    /// The bursty-sensing parameters, when configured.
    #[must_use]
    pub fn burst(&self) -> Option<&BurstSensing> {
        self.burst.as_ref().map(|b| &b.spec)
    }

    /// Number of links currently in the bad sensing state (0 without a
    /// burst process).
    #[must_use]
    pub fn bad_links(&self) -> usize {
        self.burst
            .as_ref()
            .map_or(0, |b| b.bad.iter().filter(|&&x| x).count())
    }

    /// Number of observations flipped so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Advances every link's Gilbert–Elliott chain by one interval: one
    /// draw per link from the dedicated state RNG. Without a burst process
    /// this is a zero-draw no-op, so i.i.d. and perfect-sensing engines
    /// that call it per interval stay byte-identical to engines that never
    /// do.
    pub fn begin_interval(&mut self) {
        let Some(b) = &mut self.burst else {
            return;
        };
        for state in &mut b.bad {
            let p = if *state {
                b.spec.p_exit_bad
            } else {
                b.spec.p_enter_bad
            };
            if b.state_rng.random_bool(p) {
                *state = !*state;
            }
        }
    }

    /// Filters one carrier-sense observation for `link`: returns what the
    /// link *hears* given that the medium is actually `actual_busy`.
    ///
    /// With both rates zero and no burst process this returns `actual_busy`
    /// without consuming any randomness. Otherwise it consumes exactly one
    /// draw per call — regardless of the medium's actual state or the
    /// link's chain state — so the fault stream stays aligned across runs
    /// whose busy/idle patterns (or burst trajectories) differ.
    pub fn sense(&mut self, link: LinkId, actual_busy: bool) -> bool {
        if self.is_none() {
            return actual_busy;
        }
        let in_bad = self
            .burst
            .as_ref()
            .is_some_and(|b| b.bad.get(link.index()).copied().unwrap_or(false));
        let (fb, fi) = match (&self.burst, in_bad) {
            (Some(b), true) => (b.spec.bad_false_busy, b.spec.bad_false_idle),
            _ => (self.false_busy, self.false_idle),
        };
        let flip_rate = if actual_busy { fi } else { fb };
        let flip = self.rng.random_bool(flip_rate);
        if flip {
            self.injected = self.injected.saturating_add(1);
            !actual_busy
        } else {
            actual_busy
        }
    }
}

/// An asymmetric per-link-pair sensing fault: listener `i` never hears
/// transmissions from its configured hidden set, while every other listener
/// hears them normally — the hidden-terminal geometry the fully-interfering
/// model otherwise rules out.
///
/// The matrix is pure topology (no randomness): a MAC engine consults it to
/// compute each listener's *effective* busy signal before the probabilistic
/// [`FaultModel`] filter applies. An empty matrix is transparent, so
/// engines carrying one stay byte-identical to their matrix-free paths.
///
/// # Example
///
/// ```
/// use rtmac_phy::fault::HiddenMatrix;
///
/// let mut m = HiddenMatrix::new(3);
/// assert_eq!(m.pairs(), 0);
/// m.hide(0, 2); // link 0 cannot hear link 2
/// assert!(m.is_hidden(0, 2));
/// assert!(!m.is_hidden(2, 0), "hiddenness is asymmetric");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiddenMatrix {
    n: usize,
    /// Row-major `hidden[listener * n + transmitter]`.
    hidden: Vec<bool>,
    pairs: usize,
}

impl HiddenMatrix {
    /// An `n_links × n_links` matrix with nothing hidden.
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn new(n_links: usize) -> Self {
        assert!(n_links > 0, "a hidden matrix needs at least one link");
        HiddenMatrix {
            n: n_links,
            hidden: vec![false; n_links * n_links],
            pairs: 0,
        }
    }

    /// Number of links.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.n
    }

    /// Marks `transmitter` as hidden from `listener`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `listener == transmitter`
    /// (a link always knows about its own transmission).
    pub fn hide(&mut self, listener: usize, transmitter: usize) {
        assert!(
            listener < self.n && transmitter < self.n,
            "hidden pair ({listener}, {transmitter}) out of range for {} links",
            self.n
        );
        assert_ne!(listener, transmitter, "a link cannot be hidden from itself");
        let slot = &mut self.hidden[listener * self.n + transmitter];
        if !*slot {
            *slot = true;
            self.pairs += 1;
        }
    }

    /// Builder form of [`HiddenMatrix::hide`].
    ///
    /// # Panics
    ///
    /// As [`HiddenMatrix::hide`].
    #[must_use]
    pub fn with_hidden(mut self, listener: usize, transmitter: usize) -> Self {
        self.hide(listener, transmitter);
        self
    }

    /// Whether `listener` is deaf to `transmitter`. Out-of-range indices
    /// are never hidden.
    #[must_use]
    pub fn is_hidden(&self, listener: usize, transmitter: usize) -> bool {
        if listener >= self.n || transmitter >= self.n {
            return false;
        }
        self.hidden[listener * self.n + transmitter]
    }

    /// Number of configured hidden (listener, transmitter) pairs.
    #[must_use]
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Whether `listener` hears at least one of `transmitters` — the
    /// listener's effective busy signal for a slot boundary.
    #[must_use]
    pub fn hears_any(
        &self,
        listener: usize,
        transmitters: impl IntoIterator<Item = usize>,
    ) -> bool {
        transmitters
            .into_iter()
            .any(|t| !self.is_hidden(listener, t))
    }
}

/// A scripted crash/revive event: `link` is down (neither transmitting,
/// sensing, nor updating priority state) for `down_intervals` intervals
/// starting at interval `crash_at`, then rejoins with the priority state it
/// held when it crashed.
///
/// # Example
///
/// ```
/// use rtmac_phy::fault::ChurnSchedule;
/// use rtmac_model::LinkId;
///
/// let churn = ChurnSchedule::new(LinkId::new(2), 100, 25);
/// assert!(!churn.is_down(99));
/// assert!(churn.is_down(100) && churn.is_down(124));
/// assert!(!churn.is_down(125));
/// assert_eq!(churn.revives_at(), 125);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSchedule {
    link: LinkId,
    crash_at: u64,
    down_intervals: u64,
}

impl ChurnSchedule {
    /// A crash of `link` at interval `crash_at` lasting `down_intervals`
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics if `down_intervals == 0` (a zero-length crash is a no-op the
    /// caller almost certainly did not mean).
    #[must_use]
    pub fn new(link: LinkId, crash_at: u64, down_intervals: u64) -> Self {
        assert!(
            down_intervals > 0,
            "a crash must last at least one interval"
        );
        ChurnSchedule {
            link,
            crash_at,
            down_intervals,
        }
    }

    /// The crashing link.
    #[must_use]
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// The interval at which the link goes down.
    #[must_use]
    pub fn crash_at(&self) -> u64 {
        self.crash_at
    }

    /// The first interval at which the link is back up.
    #[must_use]
    pub fn revives_at(&self) -> u64 {
        self.crash_at.saturating_add(self.down_intervals)
    }

    /// Whether the link is down during interval `interval`.
    #[must_use]
    pub fn is_down(&self, interval: u64) -> bool {
        interval >= self.crash_at && interval < self.revives_at()
    }
}

/// A general crash/revive process over the whole network: any number of
/// scripted [`ChurnSchedule`] events, flash-crowd join ramps (links dark
/// from time 0 until a join interval), and an optional seeded Poisson
/// crash process with exponentially distributed outage lengths.
///
/// Callers advance the process once per interval with
/// [`ChurnProcess::advance_to`] (idempotent) before querying
/// [`ChurnProcess::is_down`]. With no Poisson component — or a crash rate
/// of exactly zero — advancing consumes **zero** random draws, so a
/// process holding only scripted events replays them byte-identically to
/// bare [`ChurnSchedule`] checks.
///
/// # Example
///
/// ```
/// use rtmac_phy::fault::{ChurnProcess, ChurnSchedule};
/// use rtmac_model::LinkId;
///
/// let mut churn = ChurnProcess::new(4)
///     .with_event(ChurnSchedule::new(LinkId::new(1), 10, 5))
///     .with_flash_crowd(2, 2, 20); // links 2 and 3 join at interval 20
/// churn.advance_to(0);
/// assert!(!churn.is_down(1, 0) && churn.is_down(2, 0) && churn.is_down(3, 0));
/// churn.advance_to(12);
/// assert!(churn.is_down(1, 12));
/// churn.advance_to(25);
/// assert!(!churn.is_down(2, 25) && !churn.is_down(3, 25));
/// ```
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    n: usize,
    scripted: Vec<ChurnSchedule>,
    poisson: Option<PoissonChurn>,
    /// Poisson component only: `down_until[l] > k` means link `l` is in a
    /// Poisson outage at interval `k`.
    down_until: Vec<u64>,
    /// First interval not yet advanced.
    advanced_to: u64,
    crashes: u64,
}

/// The seeded Poisson crash component of a [`ChurnProcess`].
#[derive(Debug, Clone)]
struct PoissonChurn {
    crash_rate: f64,
    mean_down: f64,
    rng: SimRng,
}

impl ChurnProcess {
    /// An empty process (nothing ever goes down) over `n_links` links.
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn new(n_links: usize) -> Self {
        assert!(n_links > 0, "a churn process needs at least one link");
        ChurnProcess {
            n: n_links,
            scripted: Vec::new(),
            poisson: None,
            down_until: vec![0; n_links],
            advanced_to: 0,
            crashes: 0,
        }
    }

    /// Adds one scripted crash/revive event.
    ///
    /// # Panics
    ///
    /// Panics if the event's link is out of range.
    #[must_use]
    pub fn with_event(mut self, event: ChurnSchedule) -> Self {
        assert!(
            event.link().index() < self.n,
            "churn link {} out of range for {} links",
            event.link().index(),
            self.n
        );
        self.scripted.push(event);
        self
    }

    /// Adds a flash-crowd ramp: links `first_link .. first_link + count`
    /// are dark from interval 0 and all join (come up for the first time)
    /// at interval `join_at` — the arrival burst the admission controller
    /// has to absorb.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the link count, `count == 0`, or
    /// `join_at == 0`.
    #[must_use]
    pub fn with_flash_crowd(mut self, first_link: usize, count: usize, join_at: u64) -> Self {
        assert!(count > 0, "a flash crowd needs at least one link");
        assert!(
            first_link.saturating_add(count) <= self.n,
            "flash crowd {first_link}..{} out of range for {} links",
            first_link + count,
            self.n
        );
        for link in first_link..first_link + count {
            self.scripted
                .push(ChurnSchedule::new(LinkId::new(link), 0, join_at));
        }
        self
    }

    /// Adds the Poisson component: every up link crashes with per-interval
    /// probability `crash_rate`; outage lengths are exponential with mean
    /// `mean_down` intervals (minimum 1). Draws come from `rng` — keep it
    /// on its own `SeedStream` lane. A rate of exactly zero consumes zero
    /// draws, reducing the process to its scripted events.
    ///
    /// # Panics
    ///
    /// Panics if `crash_rate ∉ [0, 1)` or `mean_down < 1`.
    #[must_use]
    pub fn with_poisson(mut self, crash_rate: f64, mean_down: f64, rng: SimRng) -> Self {
        assert!(
            crash_rate.is_finite() && (0.0..1.0).contains(&crash_rate),
            "crash_rate = {crash_rate} must lie in [0, 1)"
        );
        assert!(
            mean_down.is_finite() && mean_down >= 1.0,
            "mean_down = {mean_down} must be at least one interval"
        );
        self.poisson = Some(PoissonChurn {
            crash_rate,
            mean_down,
            rng,
        });
        self
    }

    /// Number of links.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.n
    }

    /// The scripted events (including flash-crowd ramps).
    #[must_use]
    pub fn scripted(&self) -> &[ChurnSchedule] {
        &self.scripted
    }

    /// Whether a Poisson component with a nonzero rate is configured.
    #[must_use]
    pub fn has_random_churn(&self) -> bool {
        self.poisson.as_ref().is_some_and(|p| p.crash_rate > 0.0)
    }

    /// Number of Poisson crash events drawn so far.
    #[must_use]
    pub fn poisson_crashes(&self) -> u64 {
        self.crashes
    }

    /// Advances the Poisson component through interval `interval`
    /// inclusive. Idempotent: re-advancing to an already-covered interval
    /// does nothing, so engines can call it unconditionally at interval
    /// start. Zero draws when no nonzero-rate Poisson component exists.
    pub fn advance_to(&mut self, interval: u64) {
        if !self.has_random_churn() {
            self.advanced_to = self.advanced_to.max(interval.saturating_add(1));
            return;
        }
        while self.advanced_to <= interval {
            let k = self.advanced_to;
            // Split-borrow: the closure over scripted events cannot borrow
            // self while poisson is borrowed mutably.
            let (scripted, down_until) = (&self.scripted, &mut self.down_until);
            if let Some(p) = &mut self.poisson {
                for (link, down) in down_until.iter_mut().enumerate() {
                    let scripted_down = scripted
                        .iter()
                        .any(|c| c.link().index() == link && c.is_down(k));
                    if scripted_down || *down > k {
                        continue; // already down: no crash draw
                    }
                    if p.rng.random_bool(p.crash_rate) {
                        let u: f64 = p.rng.random();
                        // Inverse-transform exponential outage length,
                        // clamped to at least one interval.
                        let len = (-(1.0 - u).ln() * p.mean_down).ceil().max(1.0);
                        // f64→u64 saturates on overflow, which is exactly
                        // the "down for the rest of the run" semantics an
                        // astronomically long draw deserves.
                        *down = k.saturating_add(len as u64);
                        self.crashes = self.crashes.saturating_add(1);
                    }
                }
            }
            self.advanced_to += 1;
        }
    }

    /// Whether `link` is down during `interval`. Callers must have
    /// [`advance_to`](ChurnProcess::advance_to)'d through `interval` for
    /// the Poisson component to be decided; scripted events need no
    /// advancement. Out-of-range links are never down.
    #[must_use]
    pub fn is_down(&self, link: usize, interval: u64) -> bool {
        if link >= self.n {
            return false;
        }
        if self.down_until[link] > interval {
            return true;
        }
        self.scripted
            .iter()
            .any(|c| c.link().index() == link && c.is_down(interval))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac_sim::SeedStream;

    #[test]
    fn none_is_transparent_and_drawless() {
        let mut a = FaultModel::none();
        let mut b = FaultModel::none();
        for i in 0..100 {
            let busy = i % 3 == 0;
            assert_eq!(a.sense(LinkId::new(i % 4), busy), busy);
        }
        a.begin_interval(); // no burst process: zero-draw no-op
        assert_eq!(a.injected(), 0);
        assert!(a.is_none());
        // The RNG was never touched: both models stay bit-equal.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!b.sense(LinkId::new(0), false));
    }

    #[test]
    fn rates_bias_the_right_direction() {
        // false_busy only: idle observations flip sometimes, busy never.
        let mut m = FaultModel::new(0.5, 0.0, SeedStream::new(1).rng(0));
        let mut idle_flips = 0;
        for _ in 0..200 {
            if m.sense(LinkId::new(0), false) {
                idle_flips += 1;
            }
            assert!(
                m.sense(LinkId::new(0), true),
                "false_idle = 0 never flips busy"
            );
        }
        assert!(
            idle_flips > 50,
            "eps = 0.5 must flip often, got {idle_flips}"
        );
        assert_eq!(m.injected(), idle_flips);
    }

    #[test]
    fn fault_stream_is_reproducible() {
        let run = || {
            let mut m = FaultModel::symmetric(0.3, SeedStream::new(9).rng(3));
            (0..64)
                .map(|i| m.sense(LinkId::new(0), i % 2 == 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn draw_count_is_independent_of_medium_state() {
        // Same seed, different busy/idle histories: the *number* of draws
        // per call is constant, so the streams stay aligned.
        let seq = |pattern: fn(usize) -> bool| {
            let mut m = FaultModel::symmetric(0.25, SeedStream::new(4).rng(3));
            for i in 0..32 {
                let _ = m.sense(LinkId::new(0), pattern(i));
            }
            // Observable alignment: the next flip decision matches.
            m.sense(LinkId::new(0), false)
        };
        // Both observations answer "does draw #33 flip an idle reading?".
        assert_eq!(seq(|_| false), seq(|i| i % 2 == 0));
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1)")]
    fn rejects_rate_of_one() {
        let _ = FaultModel::symmetric(1.0, SeedStream::new(0).rng(0));
    }

    #[test]
    fn equal_rate_burst_is_byte_identical_to_iid() {
        // The reduction law: bad rates == good rates makes the flip stream
        // byte-identical to the i.i.d. model, because the flip decision
        // draws one bool per call at the same rate from the same flip RNG
        // regardless of the chain state.
        let eps = 0.2;
        let stream = |bursty: bool| {
            let mut m = FaultModel::symmetric(eps, SeedStream::new(17).rng(3));
            if bursty {
                m = m.with_burst(
                    3,
                    BurstSensing::new(0.3, 0.4, eps, eps),
                    SeedStream::new(17).rng(5),
                );
            }
            let mut out = Vec::new();
            for k in 0..50 {
                m.begin_interval();
                for link in 0..3usize {
                    out.push(m.sense(LinkId::new(link), (k + link) % 2 == 0));
                }
            }
            out
        };
        assert_eq!(stream(true), stream(false));
    }

    mod reduction_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
        #[test]
        fn prop_equal_rate_burst_reduces_to_iid(
            seed in 0u64..1_000,
            eps in 0.0f64..0.9,
            p_enter in 0.0f64..0.9,
            p_exit in 0.01f64..1.0,
            busy_bits in proptest::collection::vec(0u8..2, 1..120),
        ) {
            // Reduction law, property form: for ANY chain parameters, a
            // burst whose bad rates equal the good rates produces the same
            // sensing-flip stream as the plain i.i.d. model over an
            // arbitrary busy/idle history.
            let stream = |bursty: bool| {
                let mut m = FaultModel::symmetric(eps, SeedStream::new(seed).rng(3));
                if bursty {
                    m = m.with_burst(
                        2,
                        BurstSensing::new(p_enter, p_exit, eps, eps),
                        SeedStream::new(seed).rng(5),
                    );
                }
                let mut out = Vec::new();
                for (k, &bit) in busy_bits.iter().enumerate() {
                    m.begin_interval();
                    out.push(m.sense(LinkId::new(k % 2), bit == 1));
                }
                (out, m.injected())
            };
            prop_assert_eq!(stream(true), stream(false));
        }
        }
    }

    #[test]
    fn bad_state_elevates_error_rate() {
        // Good rate 0, bad rate 0.5, p_enter 0.9: flips only happen via the
        // bad state, so some must appear and bad_links must go positive.
        let mut m = FaultModel::new(0.0, 0.0, SeedStream::new(2).rng(3)).with_burst(
            2,
            BurstSensing::new(0.9, 0.1, 0.5, 0.5),
            SeedStream::new(2).rng(5),
        );
        assert!(!m.is_none(), "a burst process makes the model active");
        let mut saw_bad = false;
        for _ in 0..100 {
            m.begin_interval();
            saw_bad |= m.bad_links() > 0;
            let _ = m.sense(LinkId::new(0), false);
            let _ = m.sense(LinkId::new(1), true);
        }
        assert!(saw_bad, "p_enter = 0.9 must reach the bad state");
        assert!(m.injected() > 0, "bad-state rate 0.5 must flip");
    }

    #[test]
    fn burst_chains_are_per_link() {
        // With p_exit = 1 every bad burst lasts exactly one interval, and
        // chains advance independently per link.
        let mut m = FaultModel::new(0.0, 0.0, SeedStream::new(6).rng(3)).with_burst(
            4,
            BurstSensing::new(0.5, 1.0, 0.3, 0.3),
            SeedStream::new(6).rng(5),
        );
        let mut partial = false;
        for _ in 0..50 {
            m.begin_interval();
            let bad = m.bad_links();
            partial |= bad > 0 && bad < 4;
        }
        assert!(partial, "independent chains must sometimes disagree");
    }

    #[test]
    #[should_panic(expected = "p_exit_bad")]
    fn burst_rejects_absorbing_bad_state() {
        let _ = BurstSensing::new(0.1, 0.0, 0.2, 0.2);
    }

    #[test]
    fn hidden_matrix_is_asymmetric_and_counts_pairs() {
        let mut m = HiddenMatrix::new(4);
        assert_eq!(m.pairs(), 0);
        m.hide(0, 3);
        m.hide(0, 3); // idempotent
        m.hide(3, 1);
        assert_eq!(m.pairs(), 2);
        assert!(m.is_hidden(0, 3) && !m.is_hidden(3, 0));
        assert!(m.hears_any(0, [1, 2]));
        assert!(!m.hears_any(0, [3]));
        assert!(m.hears_any(1, [3]));
        assert!(!m.hears_any(0, []), "an empty boundary is silent");
    }

    #[test]
    #[should_panic(expected = "hidden from itself")]
    fn hidden_matrix_rejects_self_pair() {
        let _ = HiddenMatrix::new(2).with_hidden(1, 1);
    }

    #[test]
    fn churn_window_is_half_open() {
        let c = ChurnSchedule::new(LinkId::new(1), 10, 5);
        assert_eq!(c.link(), LinkId::new(1));
        assert_eq!(c.crash_at(), 10);
        assert_eq!(c.revives_at(), 15);
        let downs: Vec<u64> = (0..20).filter(|&k| c.is_down(k)).collect();
        assert_eq!(downs, [10, 11, 12, 13, 14]);
    }

    #[test]
    #[should_panic(expected = "at least one interval")]
    fn zero_length_crash_rejected() {
        let _ = ChurnSchedule::new(LinkId::new(0), 5, 0);
    }

    #[test]
    fn zero_rate_poisson_replays_scripted_events_byte_identically() {
        // The second reduction law: rate 0 draws nothing, so the process
        // is exactly its scripted events.
        let event = ChurnSchedule::new(LinkId::new(1), 10, 5);
        let mut plain = ChurnProcess::new(3).with_event(event);
        let mut zero = ChurnProcess::new(3).with_event(event).with_poisson(
            0.0,
            10.0,
            SeedStream::new(77).rng(4),
        );
        for k in 0..40 {
            plain.advance_to(k);
            zero.advance_to(k);
            for link in 0..3 {
                assert_eq!(plain.is_down(link, k), zero.is_down(link, k));
                assert_eq!(plain.is_down(link, k), event.is_down(k) && link == 1);
            }
        }
        assert_eq!(zero.poisson_crashes(), 0);
        assert!(!zero.has_random_churn());
    }

    #[test]
    fn poisson_churn_crashes_and_revives() {
        let mut churn = ChurnProcess::new(8).with_poisson(0.05, 5.0, SeedStream::new(3).rng(4));
        let mut down_intervals = 0u64;
        let mut up_intervals = 0u64;
        for k in 0..400 {
            churn.advance_to(k);
            for link in 0..8 {
                if churn.is_down(link, k) {
                    down_intervals += 1;
                } else {
                    up_intervals += 1;
                }
            }
        }
        assert!(churn.poisson_crashes() > 0, "rate 0.05 must crash links");
        assert!(down_intervals > 0, "crashes must produce outages");
        assert!(
            up_intervals > down_intervals,
            "mean outage 5 at rate 0.05 keeps most link-intervals up"
        );
    }

    #[test]
    fn poisson_advance_is_idempotent_and_deterministic() {
        let run = |double_advance: bool| {
            let mut churn = ChurnProcess::new(4).with_poisson(0.1, 3.0, SeedStream::new(9).rng(4));
            let mut mask = Vec::new();
            for k in 0..100 {
                churn.advance_to(k);
                if double_advance {
                    churn.advance_to(k); // re-advance must not redraw
                }
                for link in 0..4 {
                    mask.push(churn.is_down(link, k));
                }
            }
            (mask, churn.poisson_crashes())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn flash_crowd_links_join_together() {
        let mut churn = ChurnProcess::new(6).with_flash_crowd(2, 3, 50);
        churn.advance_to(0);
        for k in [0, 25, 49] {
            for link in 2..5 {
                assert!(churn.is_down(link, k), "link {link} dark before join");
            }
            assert!(!churn.is_down(0, k) && !churn.is_down(5, k));
        }
        for link in 2..5 {
            assert!(!churn.is_down(link, 50), "link {link} joins at 50");
        }
        assert_eq!(churn.scripted().len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flash_crowd_rejects_overflowing_range() {
        let _ = ChurnProcess::new(4).with_flash_crowd(2, 3, 10);
    }
}
