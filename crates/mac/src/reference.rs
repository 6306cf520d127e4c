//! A reference implementation of the DP protocol, written from the
//! *device's* point of view.
//!
//! [`crate::DpEngine`] is written like a simulator: one walk with global
//! visibility of every counter. This module re-implements Algorithm 2 the
//! way a real radio would run it — each device is an isolated state
//! machine that sees only
//!
//! * its own arrivals, priority index, coin flip, and the shared draw
//!   `C(k)`,
//! * the carrier state at each slot boundary, and
//! * its own transmission completions,
//!
//! and the [`ReferenceNetwork`] driver merely delivers those observations
//! through an [`rtmac_sim::Simulator`] event loop. Differential tests in
//! this module (and in the workspace integration suite) drive both
//! implementations through identical arrivals, coin flips, and scripted
//! channel outcomes and require bit-identical behaviour — strong evidence
//! that the fast engine implements the *decentralized* protocol and not an
//! accidental centralized approximation of it.

use rtmac_model::{AdjacentTransposition, LinkId, Permutation};
use rtmac_phy::channel::LossModel;
use rtmac_phy::Medium;
use rtmac_sim::{Nanos, SimControl, SimRng, Simulator};

use crate::{FrameKind, IntervalOutcome, MacTiming};

/// The role a device plays in this interval's reordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Not a swap candidate.
    Bystander,
    /// The candidate at priority `C` (may move down).
    Upper {
        /// Its coin: `true` = ξ = +1 (stay).
        stays: bool,
    },
    /// The candidate at priority `C + 1` (may move up).
    Lower {
        /// Its coin: `true` = ξ = +1 (move up).
        climbs: bool,
    },
}

/// What a device decides at the end of the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapDecision {
    /// Keep the current priority.
    Stay,
    /// Move down one priority (upper candidate conceding or swapping).
    Down,
    /// Move up one priority (lower candidate winning the handshake).
    Up,
}

/// One radio: the per-device state machine of Algorithm 2.
#[derive(Debug)]
struct Device {
    counter: u64,
    data: u32,
    pending_empty: bool,
    done: bool,
    role: Role,
    // Carrier-sense handshake state.
    checked_at_1: bool,
    heard_busy_at_1: bool,
    heard_idle_at_1: bool,
    transmitted: bool,
    // Failed-claim concede (see `Pair::concede_at` in dp.rs).
    concede_armed: bool,
    concede_arm_next: bool,
    concedes: bool,
    // Set while this device's counter stands at 1 for the current boundary,
    // so `observe` knows to run the sense check.
    at_one_now: bool,
}

impl Device {
    fn new(counter: u64, data: u32, pending_empty: bool, role: Role) -> Self {
        Device {
            counter,
            data,
            pending_empty,
            done: false,
            role,
            checked_at_1: false,
            heard_busy_at_1: false,
            heard_idle_at_1: false,
            transmitted: false,
            concede_armed: false,
            concede_arm_next: false,
            concedes: false,
            at_one_now: false,
        }
    }

    /// Next frame this device would send, if any.
    fn next_frame(&self) -> Option<FrameKind> {
        if self.data > 0 {
            Some(FrameKind::Data)
        } else if self.pending_empty {
            Some(FrameKind::Empty)
        } else {
            None
        }
    }

    /// Slot boundary: decrement (unless this is the interval start), then
    /// decide whether to start transmitting. Independent of every other
    /// device — the carrier observation arrives separately via
    /// [`Device::observe`].
    fn on_boundary(
        &mut self,
        first: bool,
        now: Nanos,
        timing: &MacTiming,
        me: usize,
    ) -> Option<FrameKind> {
        if self.done {
            return None;
        }
        if !first && self.counter > 0 {
            self.counter -= 1;
        }
        self.at_one_now = self.counter == 1;
        if self.counter != 0 {
            return None;
        }
        let Some(frame) = self.next_frame() else {
            self.done = true;
            return None;
        };
        let airtime = match frame {
            FrameKind::Data => timing.data_airtime_for(me),
            FrameKind::Empty => timing.empty_airtime(),
        };
        if timing.fits(now, airtime) {
            Some(frame)
        } else {
            // Remark 4: out of time. A staying upper candidate arms the
            // concede check for the next boundary.
            self.done = true;
            if let Role::Upper { stays: true } = self.role {
                self.concede_arm_next = true;
            }
            None
        }
    }

    /// Carrier observation for the boundary just decided: `busy` iff some
    /// transmission started at it.
    fn observe(&mut self, busy: bool) {
        if self.concede_armed {
            self.concedes = busy;
            self.concede_armed = false;
        }
        if self.concede_arm_next {
            self.concede_armed = true;
            self.concede_arm_next = false;
        }
        if self.at_one_now && !self.checked_at_1 && !self.done {
            match self.role {
                Role::Upper { stays: false } => {
                    self.checked_at_1 = true;
                    self.heard_busy_at_1 = busy;
                }
                Role::Lower { climbs: true } => {
                    self.checked_at_1 = true;
                    self.heard_idle_at_1 = !busy;
                }
                _ => {}
            }
        }
        self.at_one_now = false;
    }

    /// A transmission of this device just finished; decide whether the
    /// burst continues.
    fn on_tx_complete(
        &mut self,
        kind: FrameKind,
        delivered: bool,
        now: Nanos,
        timing: &MacTiming,
        me: usize,
    ) -> Option<FrameKind> {
        self.transmitted = true;
        match kind {
            FrameKind::Data => {
                if delivered {
                    self.data -= 1;
                }
            }
            FrameKind::Empty => self.pending_empty = false,
        }
        let Some(next) = self.next_frame() else {
            self.done = true;
            return None;
        };
        let airtime = match next {
            FrameKind::Data => timing.data_airtime_for(me),
            FrameKind::Empty => timing.empty_airtime(),
        };
        if timing.fits(now, airtime) {
            Some(next)
        } else {
            self.done = true;
            None
        }
    }

    /// End of interval: the device's local reordering decision (Step 5/7).
    fn decide(&self) -> SwapDecision {
        match self.role {
            Role::Bystander => SwapDecision::Stay,
            Role::Upper { stays } => {
                if (!stays && self.heard_busy_at_1) || self.concedes {
                    SwapDecision::Down
                } else {
                    SwapDecision::Stay
                }
            }
            Role::Lower { climbs } => {
                if climbs && self.heard_idle_at_1 && self.transmitted {
                    SwapDecision::Up
                } else {
                    SwapDecision::Stay
                }
            }
        }
    }
}

/// Events of the reference driver's simulator.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// An idle slot boundary (`first` marks the interval start, which does
    /// not decrement counters).
    Boundary { first: bool },
    /// A transmission episode completes.
    TxEnd {
        link: usize,
        kind: FrameKind,
        delivered: bool,
    },
}

/// The reference network: devices plus a driver that only relays carrier
/// observations.
#[derive(Debug)]
pub struct ReferenceNetwork {
    timing: MacTiming,
    sigma: Permutation,
}

impl ReferenceNetwork {
    /// Creates the network with the identity priority ordering.
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn new(timing: MacTiming, n_links: usize) -> Self {
        ReferenceNetwork {
            timing,
            sigma: Permutation::identity(n_links),
        }
    }

    /// The current priority ordering.
    #[must_use]
    pub fn sigma(&self) -> &Permutation {
        &self.sigma
    }

    /// Overrides the ordering.
    ///
    /// # Panics
    ///
    /// Panics if the size differs.
    pub fn set_sigma(&mut self, sigma: Permutation) {
        assert_eq!(sigma.len(), self.sigma.len(), "permutation size mismatch");
        self.sigma = sigma;
    }

    /// Runs one interval with an explicit candidate priority `c` (or none)
    /// and explicit coin flips (`xi_up[n]` = ξ_n = +1), consuming channel
    /// outcomes from `channel`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent input sizes or on a diverged handshake (a
    /// protocol-correctness failure).
    pub fn run_interval(
        &mut self,
        arrivals: &[u32],
        candidate: Option<usize>,
        xi_up: &[bool],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> IntervalOutcome {
        let n = self.sigma.len();
        assert_eq!(arrivals.len(), n, "one arrival count per link");
        assert_eq!(xi_up.len(), n, "one coin per link");
        if let Some(c) = candidate {
            assert!(c >= 1 && c < n, "candidate priority out of range");
        }

        // Interval setup: every device derives its own backoff from its
        // priority, its role, and the shared C (Eq. 6).
        let mut devices: Vec<Device> = (0..n)
            .map(|link| {
                let sigma_n = self.sigma.priority_of(LinkId::new(link));
                let (role, counter) = match candidate {
                    Some(c) if sigma_n == c => {
                        let stays = xi_up[link];
                        let xi: i64 = if stays { 1 } else { -1 };
                        (Role::Upper { stays }, (sigma_n as i64 - xi) as u64)
                    }
                    Some(c) if sigma_n == c + 1 => {
                        let climbs = xi_up[link];
                        let xi: i64 = if climbs { 1 } else { -1 };
                        (Role::Lower { climbs }, (sigma_n as i64 - xi) as u64)
                    }
                    Some(c) => {
                        let beta = if sigma_n < c {
                            sigma_n as u64 - 1
                        } else {
                            sigma_n as u64 + 1
                        };
                        (Role::Bystander, beta)
                    }
                    None => (Role::Bystander, sigma_n as u64 - 1),
                };
                let is_candidate = !matches!(role, Role::Bystander);
                Device::new(
                    counter,
                    arrivals[link],
                    is_candidate && arrivals[link] == 0,
                    role,
                )
            })
            .collect();

        let mut outcome = IntervalOutcome::empty(n);
        let mut medium = Medium::new();
        let timing = self.timing.clone();
        let deadline = timing.deadline();
        let slot = timing.slot();

        let mut sim: Simulator<Ev> = Simulator::new();
        sim.schedule_at(Nanos::ZERO, Ev::Boundary { first: true });
        // Run through the deadline instant itself: a frame may end exactly
        // at the deadline and still count (`fits` allows end == deadline);
        // no *new* transmission can start there because every airtime is
        // positive.
        sim.run_until(deadline, |h, ev| {
            match ev {
                Ev::Boundary { first } => {
                    let now = h.now();
                    // Phase 1: every device decides independently.
                    let mut starters: Vec<(usize, FrameKind)> = Vec::new();
                    for (link, dev) in devices.iter_mut().enumerate() {
                        if let Some(frame) = dev.on_boundary(first, now, &timing, link) {
                            starters.push((link, frame));
                        }
                    }
                    // Phase 2: the carrier reflects the union of decisions.
                    let busy = !starters.is_empty();
                    for dev in devices.iter_mut() {
                        dev.observe(busy);
                    }
                    // Phase 3: transmissions occupy the medium.
                    assert!(
                        starters.len() <= 1,
                        "reference protocol collided: {starters:?}"
                    );
                    if let Some(&(link, kind)) = starters.first() {
                        let airtime = match kind {
                            FrameKind::Data => timing.data_airtime_for(link),
                            FrameKind::Empty => timing.empty_airtime(),
                        };
                        let tx = medium.transmit(now, &[airtime]);
                        let delivered = match kind {
                            FrameKind::Data => {
                                outcome.attempts[link] += 1;
                                channel.attempt(LinkId::new(link), rng)
                            }
                            FrameKind::Empty => {
                                outcome.empty_packets += 1;
                                false
                            }
                        };
                        h.schedule_at(
                            tx.ends_at,
                            Ev::TxEnd {
                                link,
                                kind,
                                delivered,
                            },
                        );
                    } else {
                        outcome.idle_slots += 1;
                        if devices.iter().any(|d| !d.done) {
                            h.schedule_at(now + slot, Ev::Boundary { first: false });
                        }
                    }
                }
                Ev::TxEnd {
                    link,
                    kind,
                    delivered,
                } => {
                    let now = h.now();
                    if kind == FrameKind::Data && delivered {
                        outcome.deliveries[link] += 1;
                        outcome.latency_sum[link] += now;
                    }
                    if let Some(next) =
                        devices[link].on_tx_complete(kind, delivered, now, &timing, link)
                    {
                        let airtime = match next {
                            FrameKind::Data => timing.data_airtime_for(link),
                            FrameKind::Empty => timing.empty_airtime(),
                        };
                        let tx = medium.transmit(now, &[airtime]);
                        let delivered = match next {
                            FrameKind::Data => {
                                outcome.attempts[link] += 1;
                                channel.attempt(LinkId::new(link), rng)
                            }
                            FrameKind::Empty => {
                                outcome.empty_packets += 1;
                                false
                            }
                        };
                        h.schedule_at(
                            tx.ends_at,
                            Ev::TxEnd {
                                link,
                                kind: next,
                                delivered,
                            },
                        );
                    } else {
                        h.schedule_at(now + slot, Ev::Boundary { first: false });
                    }
                }
            }
            SimControl::Continue
        });

        // Interval end: collect the devices' local decisions; they must be
        // consistent by construction.
        if let Some(c) = candidate {
            let hi = self.sigma.link_with_priority(c);
            let lo = self.sigma.link_with_priority(c + 1);
            let hi_dec = devices[hi.index()].decide();
            let lo_dec = devices[lo.index()].decide();
            match (hi_dec, lo_dec) {
                (SwapDecision::Down, SwapDecision::Up) => {
                    self.sigma.apply(AdjacentTransposition::new(c));
                }
                (SwapDecision::Stay, SwapDecision::Stay) => {}
                // lint: allow(panic-macro) — this engine exists to
                // differential-test DpEngine; a diverged handshake is the
                // exact protocol bug it is built to detect, so it must
                // abort the comparison run, not limp on.
                other => panic!("handshake diverged: {other:?}"),
            }
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
    use crate::{DpConfig, DpEngine, PairCoins};
    use proptest::prelude::*;
    use rand::Rng;
    use rtmac_phy::channel::Scripted;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::SeedStream;

    fn timing(deadline_us: u64) -> MacTiming {
        MacTiming::new(
            PhyProfile::ieee80211a(),
            Nanos::from_micros(deadline_us),
            300,
        )
    }

    /// Drives the fast engine and the reference network through identical
    /// arrivals, candidates, coins, and scripted channel outcomes, and
    /// demands identical results.
    fn differential(
        n: usize,
        intervals: usize,
        deadline_us: u64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let seeds = SeedStream::new(seed);
        let mut meta_rng = seeds.rng(0);
        let mut dummy_rng = seeds.rng(1);

        let mut engine = DpEngine::new(DpConfig::new(timing(deadline_us)), n);
        let mut reference = ReferenceNetwork::new(timing(deadline_us), n);

        for k in 0..intervals {
            let arrivals: Vec<u32> = (0..n).map(|_| meta_rng.random_range(0..3)).collect();
            let candidate = if n >= 2 {
                Some(meta_rng.random_range(1..n))
            } else {
                None
            };
            let xi_up: Vec<bool> = (0..n).map(|_| meta_rng.random_bool(0.5)).collect();
            // The engine gets the candidate pair's coins injected verbatim.
            let coins: Vec<PairCoins> = candidate
                .iter()
                .map(|&c| PairCoins {
                    hi_up: xi_up[engine.sigma().link_with_priority(c).index()],
                    lo_up: xi_up[engine.sigma().link_with_priority(c + 1).index()],
                })
                .collect();
            // One shared scripted channel realization per interval.
            let script: Vec<Vec<bool>> = (0..n)
                .map(|_| (0..64).map(|_| meta_rng.random_bool(0.7)).collect())
                .collect();
            let mut ch_a = Scripted::new(script.clone()).unwrap();
            let mut ch_b = Scripted::new(script).unwrap();

            let fast = engine
                .step_with_coins(
                    &arrivals,
                    candidate.as_slice(),
                    &coins,
                    &mut ch_a,
                    &mut dummy_rng,
                )
                .clone();
            let slow =
                reference.run_interval(&arrivals, candidate, &xi_up, &mut ch_b, &mut dummy_rng);

            prop_assert_eq!(
                &fast.outcome.deliveries,
                &slow.deliveries,
                "deliveries diverged at interval {} (seed {})",
                k,
                seed
            );
            prop_assert_eq!(&fast.outcome.attempts, &slow.attempts);
            prop_assert_eq!(fast.outcome.empty_packets, slow.empty_packets);
            prop_assert_eq!(&fast.outcome.latency_sum, &slow.latency_sum);
            prop_assert_eq!(
                engine.sigma(),
                reference.sigma(),
                "priority orderings diverged at interval {}",
                k
            );
        }
        Ok(())
    }

    #[test]
    fn matches_fast_engine_on_a_basic_interval() {
        differential(4, 20, 5000, 7).unwrap();
    }

    #[test]
    fn matches_fast_engine_under_deadline_pressure() {
        // Tiny intervals exercise the Remark-4 and concede paths.
        differential(5, 200, 900, 11).unwrap();
        differential(3, 200, 400, 13).unwrap();
    }

    #[test]
    fn single_link_no_candidates() {
        differential(1, 10, 2000, 3).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The two implementations agree across random sizes, deadlines,
        /// and seeds.
        #[test]
        fn prop_reference_equivalence(
            n in 1usize..7,
            deadline_us in 350u64..6000,
            seed in 0u64..10_000,
        ) {
            differential(n, 40, deadline_us, seed)?;
        }
    }
}
