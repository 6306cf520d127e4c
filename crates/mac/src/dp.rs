//! The Decentralized Priority (DP) protocol — Algorithm 2 of the paper,
//! including the multi-pair generalization of Remark 6.
//!
//! Each link holds a unique priority index `σ_n(k−1) ∈ 1..=N`. At the start
//! of interval `k` every device derives the same random swap-candidate
//! priorities `C(k)` from a shared seed, computes a *deterministic* backoff
//! from its own priority (Eq. 6), and counts idle slots. Because the backoff
//! numbers are distinct by construction, transmissions never collide. The
//! two candidate links flip private coins `ξ` (Eq. 5) and detect each
//! other's intention purely by carrier sensing at the instant their backoff
//! counter reaches 1 (Eqs. 7–8); a confirmed handshake exchanges their
//! priorities for the next interval.
//!
//! # How [`DpEngine`] steps an interval
//!
//! A literal replay would visit every slot boundary, decrement all `N`
//! backoff counters and scan for the link whose counter reached zero:
//! `O(N × deadline/slot)` work, although at most `⌊deadline/airtime⌋`
//! links ever transmit. The engine instead exploits that Eq. 6 makes the
//! counters *deterministic in the priority order*: a non-candidate with
//! priority `s` starts at `(s − 1) + 2·|{pairs with C + 1 < s}|`, and the
//! two members of swap pair `j` (upper priority `C`) occupy counters in
//! `[C − 1 + 2j, C + 2 + 2j]` depending only on their coins. Three facts
//! follow, giving `O(min(N, deadline/slot))` per interval:
//!
//! 1. **Counters are distinct per (priority, coin)** and a link with
//!    initial counter `c` acts at slot boundary `k = c` (counters
//!    decrement once per processed boundary after the first). Walking
//!    priorities 1..=N — each pair block as its four claim slots: hi
//!    staying, lo moving up, hi moving down, lo staying — visits claimants
//!    in strictly increasing counter order.
//! 2. **Idle gaps collapse**: between two consecutive actors the interval
//!    advances by whole idle slots, so the walk jumps `gap` boundaries in
//!    O(1) arithmetic (bounded by `⌈(deadline − t)/slot⌉` so the
//!    deadline-stop boundary is exact).
//! 3. **Carrier-sense checks only hear the pair's own claims**: "busy at
//!    boundary `k`" means "a transmission starts at `k`". The Eq. 7/8
//!    checks fall at counter 1 — lo's at `C − 1 + 2j`, where only a
//!    staying hi claims, and hi's at `C + 2j`, where only an upward lo
//!    claims — and so does the Remark-4 concede check one boundary after a
//!    staying hi's claim that did not fit. They are resolved *after* the
//!    walk from the pair's claim flags, guarded by the processed bound
//!    `B` (a boundary never processed means "check never ran").
//!
//! The RNG is consumed in protocol order — shared candidate draw, per-pair
//! coins in candidate order (hi before lo), channel attempts in counter
//! order — and the decision trace is pinned by FNV fingerprints in
//! `tests/dp_fingerprints.rs`. The device-view [`crate::reference`]
//! network is the independent slot-by-slot oracle.
//!
//! # The fault layer
//!
//! Installing any fault component — a [`FaultModel`], a [`ChurnProcess`],
//! a [`HiddenMatrix`], a [`RecoveryConfig`], corrupted beliefs
//! ([`DpEngine::set_beliefs`]) or a blocked link ([`DpEngine::set_blocked`])
//! — gives the engine a fault layer, and its presence (never its rates)
//! selects the degraded semantics:
//!
//! * σ is replaced by per-link priority **beliefs**, an arbitrary multiset
//!   over `1..=N`, with a priority → live-links index. The same walk
//!   visits, for each priority, the group of live links that believe it. A
//!   group of one is the fault-free claim; two or more senders at one
//!   boundary are the modeled collision: every frame is destroyed and the
//!   medium stays busy for the longest airtime.
//! * Every live link that believes a drawn pair's side flips a coin (hi
//!   side's links in link order, then lo side's); down and blocked links
//!   draw none, and a colliding group draws no channel attempt.
//! * Each sense check is filtered through the hidden-terminal matrix and
//!   then the [`FaultModel`] (one `sense` draw per check and armed
//!   concede, in boundary order and then believer order). The two sides
//!   can then commit inconsistent moves: a [`TraceEvent::Divergence`].
//! * The R1/R2 recovery rule and [`FaultStats`] keep the bookkeeping
//!   incremental: an interval touches believers, transmitters and
//!   changed beliefs, not all `N` links (churn and bursty sensing advance
//!   their per-link chains once per interval by design).
//!
//! An empty layer is not the fault-free engine, because R2 still runs. It
//! replays the fault-free engine interval for interval from a bijection
//! exactly while every drawn upper candidate's claim fits before the
//! deadline; in a saturated interval a lo candidate can miss that claim
//! for the miss limit, fall back, and part the trajectories.
//!
//! # Allocation discipline
//!
//! The constructor allocates only σ, and a fault layer allocates its
//! per-link state when installed. The first step sizes the working
//! storage — the per-pair state, the reused [`DpIntervalReport`], and
//! under a layer the `N`-sized group scratch — and from then on stepping
//! performs **zero heap allocations**, with or without a layer (pinned by
//! `tests/alloc_regression.rs` with a counting allocator). Trace mode is
//! the documented exception: it buffers and sorts events and is meant for
//! debugging, not the hot path.
//!
//! # Lazy coin parameters
//!
//! Eq. 5's coins are flipped only by the links of the drawn pairs `C(k)`,
//! so [`DpEngine::step_with_mu`] takes `μ` as a per-link lookup and calls
//! it once per candidate link, after the shared draw, hi before lo: an
//! interval computes `2·|C(k)|` coin parameters (under a fault layer, one
//! per believer), never `N`. Every value it computes is asserted to lie in
//! `(0, 1)` in all builds. The dense `&[f64]` entry points
//! ([`DpEngine::step`], [`DpEngine::step_with_candidates`]) are thin
//! adapters over the same body; they additionally range-check all `N`
//! entries, in debug builds only.

use rand::seq::SliceRandom;
use rand::Rng;
use rtmac_model::{AdjacentTransposition, LinkId, Permutation};
use rtmac_phy::channel::LossModel;
use rtmac_phy::fault::{ChurnProcess, FaultModel, HiddenMatrix};
use rtmac_phy::Medium;
use rtmac_sim::{Nanos, SimRng};

use crate::{ChurnEvent, FaultStats, IntervalOutcome, MacTiming, MissLimit, RecoveryConfig};

/// Configuration of a [`DpEngine`].
#[derive(Debug, Clone)]
pub struct DpConfig {
    timing: MacTiming,
    swap_pairs: usize,
    trace: bool,
}

impl DpConfig {
    /// The paper's protocol: one swap pair per interval.
    #[must_use]
    pub fn new(timing: MacTiming) -> Self {
        DpConfig {
            timing,
            swap_pairs: 1,
            trace: false,
        }
    }

    /// Uses `pairs` simultaneous non-adjacent swap pairs per interval
    /// (Remark 6). `0` disables reordering entirely — the fixed-priority
    /// variant measured in Fig. 6.
    #[must_use]
    pub fn with_swap_pairs(mut self, pairs: usize) -> Self {
        self.swap_pairs = pairs;
        self
    }

    /// Records a [`TraceEvent`] timeline for every interval (off by
    /// default; costs an allocation per event).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The timing context.
    #[must_use]
    pub fn timing(&self) -> &MacTiming {
        &self.timing
    }

    /// Number of swap pairs drawn per interval.
    #[must_use]
    pub fn swap_pairs(&self) -> usize {
        self.swap_pairs
    }

    /// Whether tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> bool {
        self.trace
    }
}

/// Explicit coin outcomes for one drawn candidate pair — Eq. 5 made
/// external, the way [`DpEngine::step_with_candidates`] already
/// externalizes the shared candidate draw. Used by the bounded model
/// checker (`crates/verify`) to enumerate every ξ vector exhaustively
/// instead of sampling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCoins {
    /// ξ of the higher-priority candidate: `true` is `+1` ("stay up"),
    /// `false` is `−1` ("move down").
    pub hi_up: bool,
    /// ξ of the lower-priority candidate: `true` is `+1` ("move up"),
    /// `false` is `−1` ("stay down").
    pub lo_up: bool,
}

/// Where an interval's coin flips come from: drawn from `μ` (Eq. 5) or
/// injected verbatim, one [`PairCoins`] per drawn candidate pair.
#[derive(Clone, Copy)]
enum CoinSource<'a> {
    Mu(&'a dyn Fn(usize) -> f64),
    Fixed(&'a [PairCoins]),
}

/// The kind of frame a [`TraceEvent::TxStart`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A data packet (with ACK and guard time folded into its airtime).
    Data,
    /// An empty priority-claim packet (Step 2 of Algorithm 2).
    Empty,
}

/// One entry in an interval's protocol timeline (enabled by
/// [`DpConfig::with_trace`]). Timestamps are relative to the interval
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A link's initial backoff counter (Eq. 6), emitted at interval start.
    BackoffSet {
        /// The link.
        link: LinkId,
        /// Its backoff counter β_n(k).
        counter: u64,
    },
    /// A frame transmission begins.
    TxStart {
        /// The transmitting link.
        link: LinkId,
        /// Start time within the interval.
        at: Nanos,
        /// Data or empty priority-claim frame.
        kind: FrameKind,
    },
    /// A frame transmission ends.
    TxEnd {
        /// The transmitting link.
        link: LinkId,
        /// End time within the interval.
        at: Nanos,
        /// Whether a data frame was delivered (always `false` for empty
        /// frames).
        delivered: bool,
    },
    /// A swap candidate performed its carrier-sense check at backoff
    /// counter 1 (Step 5, Eqs. 7–8).
    SenseCheck {
        /// The sensing link.
        link: LinkId,
        /// Time of the slot boundary.
        at: Nanos,
        /// What it heard.
        busy: bool,
    },
    /// A priority swap committed at interval end (Step 7).
    SwapCommitted {
        /// The upper priority `C` of the exchanged pair.
        upper: usize,
    },
    /// Fault layer only: the two sides of a drawn pair committed
    /// inconsistent priority moves, so the local σ views diverged. A
    /// [`DpEngine`] without a fault layer never emits this.
    Divergence {
        /// The upper priority `C` of the diverging pair.
        upper: usize,
    },
}

/// Result of one DP interval: the generic [`IntervalOutcome`] plus the
/// protocol's reordering trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DpIntervalReport {
    /// Deliveries, attempts and overhead counters.
    pub outcome: IntervalOutcome,
    /// The swap-candidate upper priorities `C(k)` drawn this interval.
    pub candidates: Vec<usize>,
    /// The adjacent transpositions actually committed (subset of
    /// `candidates`).
    pub swaps: Vec<AdjacentTransposition>,
    /// The protocol timeline (empty unless [`DpConfig::with_trace`] is on).
    pub trace: Vec<TraceEvent>,
}

/// The four claim slots of a pair block in counter order, as (hi side,
/// wants to move): hi staying, lo moving up, hi moving down, lo staying.
/// Pair `j` with upper priority `C` puts them at counters `C − 1 + 2j`
/// through `C + 2 + 2j`.
const BLOCK: [(bool, bool); 4] = [(true, false), (false, true), (true, true), (false, false)];

/// One link playing a side of a drawn pair this interval. Without a fault
/// layer every pair has exactly two: hi holds `C`, lo holds `C + 1`. Under
/// a layer, every live link that believes `C` or `C + 1` plays that side.
#[derive(Debug, Clone, Copy)]
struct Member {
    link: usize,
    is_hi: bool,
    /// hi: `ξ = −1`, it wants to move down; lo: `ξ = +1`, it wants up.
    wants: bool,
    /// It began a frame at its boundary: a clean claim or a collision.
    /// Eq. 9's `R_i + R_j ≥ 1` needs lo's.
    sent: bool,
    /// Its frame collided (the R1 trigger).
    collided: bool,
    /// Its frame no longer fit before the deadline (Remark 4).
    no_fit: bool,
    /// Its Eq. 7/8 check heard what its move needs: busy for hi, idle
    /// for lo.
    observed: bool,
    /// The deadline corner the paper leaves unspecified (it idealizes
    /// claim frames to zero width, Definition 10). hi chose to *stay*, but
    /// its claim no longer fit; at that boundary lo's counter stands at 1
    /// and senses idle, so lo infers "hi wants down". To keep the
    /// permutation consistent with sensing alone, hi concedes iff a
    /// transmission starts at exactly the next boundary, which only lo's
    /// claim can occupy.
    concede: bool,
    /// It committed its move at interval end.
    moved: bool,
}

impl Member {
    /// The initial backoff counter (Eq. 6) of this believer of pair `j`
    /// with upper priority `c`: its slot of the pair block.
    fn counter(&self, c: usize, j: usize) -> u64 {
        let slot = match (self.is_hi, self.wants) {
            (true, false) => 0,
            (false, true) => 1,
            (true, true) => 2,
            (false, false) => 3,
        };
        (c - 1 + 2 * j) as u64 + slot
    }
}

/// One drawn swap pair: its upper priority and its believers.
#[derive(Debug, Clone, Copy)]
struct Pair {
    /// Upper priority `C` (pairs are sorted and pairwise non-adjacent).
    c: usize,
    /// `believers[start..end]`: hi-side links, then lo-side links, each in
    /// link order.
    start: usize,
    end: usize,
    /// The last hi believer whose claim went out clean, in boundary order:
    /// the claim the lo side's R2 rule listens for.
    heard: Option<usize>,
}

/// Per-interval working storage, owned by the engine and sized on the
/// first step so the hot loop never allocates after it.
#[derive(Debug, Clone, Default)]
struct DpState {
    /// The drawn pairs, in candidate order.
    pairs: Vec<Pair>,
    /// Every pair's believers, pair by pair.
    believers: Vec<Member>,
    /// The drawn candidate set (reused buffer).
    candidates: Vec<usize>,
    /// Shuffle scratch for the stars-and-bars candidate draw.
    draw_pool: Vec<usize>,
    /// Links whose per-link outcome entries were written this interval;
    /// clearing only these keeps the reset O(transmitters), not O(N).
    touched: Vec<usize>,
    /// Fault layer only: links whose frames collided this interval.
    collided: Vec<usize>,
    /// Fault layer only: one group's members as (id, link, fate).
    fates: Vec<(usize, usize, Claim)>,
    /// Fault layer only: one group's airtimes, for the medium.
    airtimes: Vec<Nanos>,
    /// Trace mode only: events keyed by (boundary, phase, seq) for the
    /// post-walk merge into protocol order. Phase 0 is a sense check,
    /// phase 1 a frame.
    trace_tmp: Vec<((u64, u32, u32), TraceEvent)>,
    /// Trace mode only: start time of every processed boundary.
    boundary_times: Vec<Nanos>,
}

/// What happened to a claimant at its action boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// The deadline was reached before the claimant acted.
    Stopped,
    /// Nothing to send (no data, no pending empty claim).
    Idle,
    /// The frame no longer fit before the deadline (Remark 4).
    NoFit,
    /// The claimant transmitted alone: a clean claim.
    Transmitted,
    /// The claimant's frame started together with others' and was lost.
    Collided,
}

/// What a claimant offers at the boundary the walk just reached.
enum Offer {
    Idle,
    NoFit,
    Send(Nanos),
}

/// The walking state of one interval: current time, next unprocessed
/// boundary, and the sinks the walk writes into.
struct Walk<'a> {
    timing: &'a MacTiming,
    slot: Nanos,
    deadline: Nanos,
    arrivals: &'a [u32],
    channel: &'a mut dyn LossModel,
    rng: &'a mut SimRng,
    outcome: &'a mut IntervalOutcome,
    touched: &'a mut Vec<usize>,
    fates: &'a mut Vec<(usize, usize, Claim)>,
    airtimes: &'a mut Vec<Nanos>,
    trace: Option<TraceRec<'a>>,
    medium: Medium,
    t: Nanos,
    next_boundary: u64,
}

/// Trace-mode sinks (separate struct so the hot path carries one `Option`).
struct TraceRec<'a> {
    events: &'a mut Vec<((u64, u32, u32), TraceEvent)>,
    times: &'a mut Vec<Nanos>,
}

impl TraceRec<'_> {
    /// One frame's start and end events, the `seq`-th and next at
    /// boundary `counter`.
    fn frame(
        &mut self,
        (counter, seq): (u64, u32),
        link: usize,
        (at, end): (Nanos, Nanos),
        kind: FrameKind,
        delivered: bool,
    ) {
        let link = LinkId::new(link);
        self.events
            .push(((counter, 1, seq), TraceEvent::TxStart { link, at, kind }));
        self.events.push((
            (counter, 1, seq + 1),
            TraceEvent::TxEnd {
                link,
                at: end,
                delivered,
            },
        ));
    }
}

impl Walk<'_> {
    /// Processes `count` idle boundaries: one idle slot each.
    fn advance_idle(&mut self, count: u64) {
        if let Some(tr) = &mut self.trace {
            for i in 0..count {
                tr.times.push(self.t + self.slot * i);
            }
        }
        self.outcome.idle_slots += count;
        self.t += self.slot * count;
        self.next_boundary += count;
    }

    /// Advances through the idle gap to boundary `counter`; `false` when
    /// the deadline stops the walk first.
    fn reach(&mut self, counter: u64) -> bool {
        debug_assert!(
            counter >= self.next_boundary,
            "claimants must arrive in counter order"
        );
        // A boundary where t >= deadline is never processed.
        if self.t >= self.deadline {
            return false;
        }
        // Idle gap: every boundary strictly before `counter` belongs to no
        // remaining claimant, so each processed one adds exactly one idle
        // slot. `m` is how many boundaries fit before the deadline
        // (t + (m−1)·slot < deadline ≤ t + m·slot), so the walk stops at
        // exactly the boundary a slot-by-slot replay would stop at.
        let gap = counter - self.next_boundary;
        let remaining = self.deadline - self.t;
        let m = remaining / self.slot + u64::from(!(remaining % self.slot).is_zero());
        if gap >= m {
            self.advance_idle(m);
            return false;
        }
        // Boundary `counter` is processed (t < deadline holds because
        // gap ≤ m − 1).
        self.advance_idle(gap);
        true
    }

    /// What `link` offers at the boundary just reached. `pending_empty`
    /// is Step 2's flag: the link is a swap candidate with no arrivals, so
    /// it claims its backoff slot with an empty frame.
    fn offer(&self, link: usize, pending_empty: bool) -> Offer {
        let has_data = self.arrivals[link] > 0;
        if !has_data && !pending_empty {
            return Offer::Idle;
        }
        let airtime = if has_data {
            self.timing.data_airtime_for(link)
        } else {
            self.timing.empty_airtime()
        };
        if self.timing.fits(self.t, airtime) {
            Offer::Send(airtime)
        } else {
            Offer::NoFit
        }
    }

    /// Advances to boundary `counter` and lets `link`, its only claimant,
    /// act there.
    fn claim(&mut self, link: usize, counter: u64, pending_empty: bool) -> Claim {
        if !self.reach(counter) {
            return Claim::Stopped;
        }
        match self.offer(link, pending_empty) {
            Offer::Idle => {
                self.advance_idle(1);
                Claim::Idle
            }
            Offer::NoFit => {
                // Remark 4: not enough time left — idle out the interval.
                self.advance_idle(1);
                Claim::NoFit
            }
            Offer::Send(airtime) => {
                self.transmit(link, counter, airtime);
                Claim::Transmitted
            }
        }
    }

    /// Advances to boundary `counter` and lets a group of claimants act
    /// there together: corrupted beliefs can put several links on one
    /// boundary. `members` yields `(id, link, pending_empty)`; afterwards
    /// `fates` holds each member's `(id, link, fate)`. A lone sender's claim
    /// is clean; two or more senders are the modeled collision. `false`
    /// when the deadline stops the walk first.
    fn claim_group(
        &mut self,
        counter: u64,
        members: impl Iterator<Item = (usize, usize, bool)>,
    ) -> bool {
        if !self.reach(counter) {
            return false;
        }
        self.fates.clear();
        self.airtimes.clear();
        let mut sender = 0;
        for (id, link, pending_empty) in members {
            let fate = match self.offer(link, pending_empty) {
                Offer::Idle => Claim::Idle,
                Offer::NoFit => Claim::NoFit,
                Offer::Send(airtime) => {
                    self.airtimes.push(airtime);
                    sender = link;
                    Claim::Transmitted
                }
            };
            self.fates.push((id, link, fate));
        }
        match self.airtimes.len() {
            0 => self.advance_idle(1),
            1 => {
                let airtime = self.airtimes[0];
                self.transmit(sender, counter, airtime);
            }
            _ => {
                // Every frame is destroyed and the medium stays busy for
                // the longest airtime (one collision episode).
                if let Some(tr) = &mut self.trace {
                    tr.times.push(self.t);
                }
                let tx = self.medium.transmit(self.t, self.airtimes);
                let mut seq: u32 = 1;
                for (_, link, fate) in self.fates.iter_mut() {
                    if *fate != Claim::Transmitted {
                        continue;
                    }
                    *fate = Claim::Collided;
                    let kind = if self.arrivals[*link] > 0 {
                        self.outcome.attempts[*link] += 1;
                        self.touched.push(*link);
                        FrameKind::Data
                    } else {
                        self.outcome.empty_packets += 1;
                        FrameKind::Empty
                    };
                    if let Some(tr) = &mut self.trace {
                        tr.frame((counter, seq), *link, (self.t, tx.ends_at), kind, false);
                        seq += 2;
                    }
                }
                self.t = tx.ends_at + self.slot;
                self.next_boundary = counter + 1;
            }
        }
        true
    }

    /// Step 6 for the lone sender at boundary `counter`: hold the medium
    /// back-to-back until the buffer drains or time runs out, or send the
    /// one empty claim frame.
    fn transmit(&mut self, link: usize, counter: u64, airtime: Nanos) {
        if let Some(tr) = &mut self.trace {
            tr.times.push(self.t);
        }
        let mut now = self.t;
        let mut seq: u32 = 1;
        let mut data = self.arrivals[link];
        if data > 0 {
            self.touched.push(link);
            while data > 0 && self.timing.fits(now, airtime) {
                let tx = self.medium.transmit(now, &[airtime]);
                self.outcome.attempts[link] += 1;
                let delivered = self.channel.attempt(LinkId::new(link), self.rng);
                if delivered {
                    data -= 1;
                    self.outcome.deliveries[link] += 1;
                    self.outcome.latency_sum[link] += tx.ends_at;
                }
                if let Some(tr) = &mut self.trace {
                    let span = (now, tx.ends_at);
                    tr.frame((counter, seq), link, span, FrameKind::Data, delivered);
                    seq += 2;
                }
                now = tx.ends_at;
            }
        } else {
            let tx = self.medium.transmit(now, &[airtime]);
            self.outcome.empty_packets += 1;
            if let Some(tr) = &mut self.trace {
                tr.frame(
                    (counter, seq),
                    link,
                    (now, tx.ends_at),
                    FrameKind::Empty,
                    false,
                );
            }
            now = tx.ends_at;
        }
        self.t = now + self.slot; // one idle slot before the next boundary
        self.next_boundary = counter + 1;
    }
}

/// Records a claimant's fate on its believer (and its pair).
fn settle(pair: &mut Pair, b: &mut Member, fate: Claim, collided: &mut Vec<usize>) {
    match fate {
        Claim::Transmitted => {
            b.sent = true;
            if b.is_hi {
                pair.heard = Some(b.link);
            }
        }
        Claim::Collided => {
            b.sent = true;
            b.collided = true;
            collided.push(b.link);
        }
        Claim::NoFit => b.no_fit = true,
        Claim::Idle | Claim::Stopped => {}
    }
}

/// The interval's rank source: which live links claim each priority, how
/// they hear the medium, and how committed moves land. σ yields exactly
/// one link per priority, hears exactly and commits whole transpositions,
/// so the fault-free engine is the plain permutation walk. The fault layer
/// yields every live link that believes a priority.
trait Ranks {
    /// The live links claiming one priority, in link order.
    type At<'a>: Iterator<Item = usize>
    where
        Self: 'a;

    /// The live links that hold (or believe they hold) priority `p`.
    fn claimants(&self, p: usize) -> Self::At<'_>;

    /// The priority `link` acts on this interval; `None` while it is down.
    fn priority(&self, link: usize) -> Option<usize>;

    /// Starts an interval.
    fn begin(&mut self) {}

    /// What `listener` hears at a boundary where `senders` began frames.
    fn sense(&mut self, listener: usize, senders: impl Iterator<Item = usize>) -> bool;

    /// Commits the moves of one pair's believers (`moved` is set), given
    /// how many moved on each side.
    fn commit(&mut self, c: usize, block: &[Member], hi_moves: usize, lo_moves: usize);

    /// Ends the interval once every pair has committed.
    fn finish(&mut self, _pairs: &[Pair], _believers: &[Member], _collided: &[usize]) {}
}

impl Ranks for Permutation {
    type At<'a> = std::iter::Once<usize>;

    fn claimants(&self, p: usize) -> Self::At<'_> {
        std::iter::once(self.link_with_priority(p).index())
    }

    fn priority(&self, link: usize) -> Option<usize> {
        Some(self.priority_of(LinkId::new(link)))
    }

    fn sense(&mut self, _listener: usize, mut senders: impl Iterator<Item = usize>) -> bool {
        senders.next().is_some()
    }

    fn commit(&mut self, c: usize, _block: &[Member], hi_moves: usize, lo_moves: usize) {
        debug_assert_eq!(
            hi_moves, lo_moves,
            "swap handshake diverged for pair C = {c} (σ = {self})"
        );
        if hi_moves == 1 && lo_moves == 1 {
            self.apply(AdjacentTransposition::new(c));
        }
    }
}

/// Sentinel for "no link" in the fault layer's belief index.
const NONE: usize = usize::MAX;

/// The degraded-mode state of a [`DpEngine`] (see the module docs): the
/// per-link belief vector with its priority → live-links index, the
/// sensing-fault model, churn, hidden terminals, administrative blocking,
/// the R1/R2 recovery state, and [`FaultStats`].
#[derive(Debug, Clone)]
struct FaultLayer {
    fault: FaultModel,
    /// Flips folded in from fault models replaced via
    /// [`DpEngine::set_fault_model`].
    flips_base: u64,
    churn: Option<ChurnProcess>,
    hidden: Option<HiddenMatrix>,
    recovery: RecoveryConfig,
    /// Intervals run since the layer was installed.
    interval: u64,
    /// `beliefs[n]`: the priority link `n` believes it holds.
    beliefs: Vec<usize>,
    /// `head[p]`: the lowest live link believing `p`, or [`NONE`].
    head: Vec<usize>,
    /// `next[n]`: the next live link with `n`'s belief, in link order.
    next: Vec<usize>,
    /// `holders[p − 1]`: how many links (live or down) believe `p`.
    holders: Vec<u32>,
    /// `Σ_p max(0, holders − 1)`: zero iff the beliefs are a bijection.
    excess: usize,
    /// Consecutive R2-eligible intervals in which each link missed the
    /// adjacent upper claim.
    missed: Vec<u32>,
    /// Per-link R2 miss limit currently in force (constant under
    /// [`MissLimit::Fixed`], backed off per link under
    /// [`MissLimit::Adaptive`]).
    r2_limit: Vec<u32>,
    desync_since: Option<u64>,
    stats: FaultStats,
    /// Churn down-state per link, as of the current interval.
    down: Vec<bool>,
    /// Links administratively blocked (admission-rejected/shed): treated
    /// exactly like crashed links, but controlled by the caller.
    blocked: Vec<bool>,
    /// Crash/revive transitions not yet drained by the admission layer.
    churn_events: Vec<ChurnEvent>,
}

/// The live links believing one priority, in link order.
#[derive(Debug, Clone)]
struct Believing<'a> {
    next: &'a [usize],
    link: usize,
}

impl Iterator for Believing<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let link = self.link;
        if link == NONE {
            return None;
        }
        self.link = self.next[link];
        Some(link)
    }
}

impl FaultLayer {
    /// An empty layer over `beliefs`: perfect sensing, no churn, nothing
    /// hidden or blocked, the default [`RecoveryConfig`].
    fn new(beliefs: Vec<usize>) -> Self {
        let n = beliefs.len();
        let recovery = RecoveryConfig::new();
        let mut layer = FaultLayer {
            fault: FaultModel::none(),
            flips_base: 0,
            churn: None,
            hidden: None,
            interval: 0,
            beliefs: Vec::new(),
            head: vec![NONE; n + 1],
            next: vec![NONE; n],
            holders: vec![0; n],
            excess: 0,
            missed: vec![0; n],
            r2_limit: vec![recovery.initial_miss_limit(n); n],
            recovery,
            desync_since: None,
            stats: FaultStats::default(),
            down: vec![false; n],
            blocked: vec![false; n],
            // At most one transition per link and interval.
            churn_events: Vec::with_capacity(n),
        };
        layer.reset_beliefs(beliefs);
        layer
    }

    /// Replaces the belief vector and rebuilds the index and counts.
    fn reset_beliefs(&mut self, beliefs: Vec<usize>) {
        self.beliefs = beliefs;
        self.holders.fill(0);
        self.excess = 0;
        self.head.fill(NONE);
        for link in (0..self.beliefs.len()).rev() {
            let p = self.beliefs[link];
            self.hold(p);
            if self.live(link) {
                self.next[link] = self.head[p];
                self.head[p] = link;
            }
        }
        self.missed.fill(0);
    }

    fn live(&self, link: usize) -> bool {
        !self.down[link] && !self.blocked[link]
    }

    fn hold(&mut self, p: usize) {
        self.holders[p - 1] += 1;
        if self.holders[p - 1] > 1 {
            self.excess += 1;
        }
    }

    fn release(&mut self, p: usize) {
        if self.holders[p - 1] > 1 {
            self.excess -= 1;
        }
        self.holders[p - 1] -= 1;
    }

    /// Inserts live `link` into its belief's list, keeping link order.
    fn link(&mut self, link: usize) {
        let p = self.beliefs[link];
        let mut prev = NONE;
        let mut cur = self.head[p];
        while cur != NONE && cur < link {
            prev = cur;
            cur = self.next[cur];
        }
        self.next[link] = cur;
        if prev == NONE {
            self.head[p] = link;
        } else {
            self.next[prev] = link;
        }
    }

    /// Removes `link` from its belief's list.
    fn unlink(&mut self, link: usize) {
        let p = self.beliefs[link];
        let mut prev = NONE;
        let mut cur = self.head[p];
        while cur != link {
            prev = cur;
            cur = self.next[cur];
        }
        if prev == NONE {
            self.head[p] = self.next[link];
        } else {
            self.next[prev] = self.next[link];
        }
    }

    /// Moves `link`'s belief to `p`.
    fn set_belief(&mut self, link: usize, p: usize) {
        debug_assert!(
            (1..=self.beliefs.len()).contains(&p),
            "belief {p} of link {link} escaped 1..=N"
        );
        let live = self.live(link);
        if live {
            self.unlink(link);
        }
        self.release(self.beliefs[link]);
        self.beliefs[link] = p;
        self.hold(p);
        if live {
            self.link(link);
        }
    }

    /// Re-indexes `link` after its down or blocked flag changed.
    fn relink(&mut self, link: usize, was_live: bool) {
        match (was_live, self.live(link)) {
            (true, false) => self.unlink(link),
            (false, true) => self.link(link),
            _ => {}
        }
    }

    /// Drops `link` to the lowest priority `N` (R1/R2).
    fn fall_back(&mut self, link: usize) {
        let n = self.beliefs.len();
        if self.beliefs[link] != n {
            self.set_belief(link, n);
            self.stats.fallbacks += 1;
        }
    }
}

impl Ranks for FaultLayer {
    type At<'a> = Believing<'a>;

    fn claimants(&self, p: usize) -> Believing<'_> {
        Believing {
            next: &self.next,
            link: self.head[p],
        }
    }

    fn priority(&self, link: usize) -> Option<usize> {
        self.live(link).then_some(self.beliefs[link])
    }

    /// Advances the fault processes exactly once per interval and edge-
    /// detects churn transitions. Both advances are zero-draw no-ops for
    /// i.i.d./none sensing and scripted-only churn.
    fn begin(&mut self) {
        self.fault.begin_interval();
        let interval = self.interval;
        let Some(churn) = self.churn.as_mut() else {
            return;
        };
        churn.advance_to(interval);
        for link in 0..self.down.len() {
            let down = self
                .churn
                .as_ref()
                .is_some_and(|c| c.is_down(link, interval));
            if down != self.down[link] {
                let was_live = self.live(link);
                self.down[link] = down;
                self.relink(link, was_live);
                self.churn_events.push(ChurnEvent {
                    link,
                    up: !down,
                    interval,
                });
            }
        }
    }

    /// The ground-truth busy signal is listener-specific under a hidden-
    /// terminal matrix (deafness is topology, not noise); the fault
    /// model's flip applies on top and draws once per call either way.
    fn sense(&mut self, listener: usize, mut senders: impl Iterator<Item = usize>) -> bool {
        let busy = match &self.hidden {
            Some(h) => h.hears_any(listener, senders),
            None => senders.next().is_some(),
        };
        self.fault.sense(LinkId::new(listener), busy)
    }

    /// Each believer commits the move it *thinks* it completed. When the
    /// two sides disagree that is a divergence, and it is exactly how the
    /// belief multiset loses bijectivity.
    fn commit(&mut self, _c: usize, block: &[Member], hi_moves: usize, lo_moves: usize) {
        for b in block.iter().filter(|b| b.moved) {
            let p = if b.is_hi {
                self.beliefs[b.link] + 1
            } else {
                self.missed[b.link] = 0;
                self.beliefs[b.link] - 1
            };
            self.set_belief(b.link, p);
        }
        if hi_moves != lo_moves {
            self.stats.divergences += 1;
        }
    }

    /// Recovery — R1 (a collision in an owned slot) and R2 (the miss
    /// limit on the adjacent upper claim) both fall back to the lowest
    /// priority; re-entry happens through the empty-claim mechanism — then
    /// the desync-epoch accounting.
    fn finish(&mut self, pairs: &[Pair], believers: &[Member], collided: &[usize]) {
        let recovery = self.recovery;
        if recovery.collision_fallback() {
            for &link in collided {
                self.missed[link] = 0;
                self.fall_back(link);
            }
        }
        if recovery.miss_fallback() {
            for pair in pairs {
                for b in &believers[pair.start..pair.end] {
                    // Eligible: a lo believer that did not move up and was
                    // not already handled by R1.
                    if b.is_hi || b.moved || (b.collided && recovery.collision_fallback()) {
                        continue;
                    }
                    let link = b.link;
                    // A claim only counts if this listener can physically
                    // hear the claimant.
                    let heard = pair.heard.is_some_and(|tx| {
                        !self.hidden.as_ref().is_some_and(|h| h.is_hidden(link, tx))
                    });
                    if heard {
                        self.missed[link] = 0;
                        // Adaptive R2: a heard claim is evidence the
                        // neighborhood works again — halve the backed-off
                        // limit toward its initial value.
                        if let MissLimit::Adaptive { .. } = recovery.miss_limit() {
                            let initial = recovery.initial_miss_limit(self.beliefs.len());
                            self.r2_limit[link] = (self.r2_limit[link] / 2).max(initial);
                        }
                    } else {
                        self.missed[link] = self.missed[link].saturating_add(1);
                        if self.missed[link] >= self.r2_limit[link] {
                            self.missed[link] = 0;
                            // Adaptive R2: back off this link's limit so a
                            // persistently deaf neighborhood stops thrashing
                            // the priority floor.
                            if let MissLimit::Adaptive { cap, .. } = recovery.miss_limit() {
                                self.r2_limit[link] =
                                    self.r2_limit[link].saturating_mul(2).min(cap);
                            }
                            self.fall_back(link);
                        }
                    }
                }
            }
        }

        // A desync epoch opens at the end of the first interval whose
        // belief multiset is not a bijection and closes when bijectivity
        // returns.
        let interval = self.interval;
        if self.excess == 0 {
            if let Some(since) = self.desync_since.take() {
                let burst = interval.saturating_sub(since).max(1);
                let s = &mut self.stats;
                s.reconvergences += 1;
                s.reconverge_interval_sum = s.reconverge_interval_sum.saturating_add(burst);
                s.reconverge_hist[FaultStats::reconverge_bucket(burst)] += 1;
            }
        } else {
            self.stats.desync_intervals += 1;
            self.desync_since.get_or_insert(interval);
        }
        self.interval = interval + 1;
    }
}

/// The DP protocol engine. Persists the priority permutation `σ` across
/// intervals; everything else is per-interval state, stepped in
/// `O(min(N, deadline/slot))` (see the module docs). Installing any fault
/// component gives it a fault layer, and from then on it runs the
/// degraded semantics over per-link priority beliefs (see the module docs).
///
/// # Example
///
/// ```
/// use rtmac_mac::{DpConfig, DpEngine, MacTiming};
/// use rtmac_phy::channel::Bernoulli;
/// use rtmac_phy::PhyProfile;
/// use rtmac_sim::{Nanos, SeedStream};
///
/// let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
/// let mut engine = DpEngine::new(DpConfig::new(timing), 4);
/// let mut channel = Bernoulli::reliable(4);
/// let mut rng = SeedStream::new(7).rng(0);
/// // One packet per link, neutral coins: everything is delivered
/// // collision-free in priority order.
/// let report = engine.step(&[1, 1, 1, 1], &[0.5; 4], &mut channel, &mut rng);
/// assert_eq!(report.outcome.total_deliveries(), 4);
/// assert_eq!(report.outcome.collisions, 0);
/// ```
///
/// With sensing faults:
///
/// ```
/// use rtmac_mac::{DpConfig, DpEngine, MacTiming};
/// use rtmac_phy::channel::Bernoulli;
/// use rtmac_phy::fault::FaultModel;
/// use rtmac_phy::PhyProfile;
/// use rtmac_sim::{Nanos, SeedStream};
///
/// let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
/// let mut engine = DpEngine::new(DpConfig::new(timing), 4)
///     .with_fault_model(FaultModel::symmetric(0.2, SeedStream::new(7).rng(3)));
/// let mut channel = Bernoulli::reliable(4);
/// let mut rng = SeedStream::new(7).rng(2);
/// for _ in 0..50 {
///     let _ = engine.step(&[1, 1, 1, 1], &[0.5; 4], &mut channel, &mut rng);
/// }
/// // Sensing errors desynchronize the views, and recovery heals them:
/// // whatever happened, beliefs stay inside 1..=N.
/// assert!(engine.beliefs().iter().all(|&b| (1..=4).contains(&b)));
/// ```
#[derive(Debug, Clone)]
pub struct DpEngine {
    config: DpConfig,
    sigma: Permutation,
    state: DpState,
    report: DpIntervalReport,
    faults: Option<Box<FaultLayer>>,
}

/// The name the standalone benchmark package (`benchmark/`) imports for
/// the interval kernel; it is [`DpEngine`] itself.
pub type BatchedDpEngine = DpEngine;

/// The name the standalone benchmark package (`benchmark/`) imports for
/// the degraded engine; it is [`DpEngine`] itself, with a fault layer
/// installed by its `with_*` builders.
pub type FaultyDpEngine = DpEngine;

impl DpEngine {
    /// Creates an engine for `n_links` links with the identity priority
    /// ordering (`σ_n(0) = n + 1`) and no fault layer. Only σ is allocated
    /// here; the working buffers are sized on the first step.
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn new(config: DpConfig, n_links: usize) -> Self {
        DpEngine {
            config,
            sigma: Permutation::identity(n_links),
            state: DpState::default(),
            report: DpIntervalReport::default(),
            faults: None,
        }
    }

    /// The current priority permutation `σ(k−1)`. With a fault layer
    /// installed the priorities live in [`DpEngine::beliefs`], and σ keeps
    /// the order the beliefs started from.
    #[must_use]
    pub fn sigma(&self) -> &Permutation {
        &self.sigma
    }

    /// Overrides the priority permutation (e.g. to start a fixed-priority
    /// experiment from a chosen ordering); under a fault layer it also
    /// resets the beliefs to it.
    ///
    /// # Panics
    ///
    /// Panics if the permutation size differs from the engine's link count.
    pub fn set_sigma(&mut self, sigma: Permutation) {
        assert_eq!(
            sigma.len(),
            self.sigma.len(),
            "permutation size must match link count"
        );
        if let Some(layer) = &mut self.faults {
            layer.reset_beliefs(sigma.priorities().to_vec());
        }
        self.sigma = sigma;
    }

    /// Number of links.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.sigma.len()
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// The report of the most recent step (empty before the first) — the
    /// same engine-owned buffer the stepping methods return, for callers
    /// that step through a wrapper such as a policy.
    #[must_use]
    pub fn last_report(&self) -> &DpIntervalReport {
        &self.report
    }

    /// The fault layer, installed empty on first use.
    fn layer(&mut self) -> &mut FaultLayer {
        let sigma = &self.sigma;
        self.faults
            .get_or_insert_with(|| Box::new(FaultLayer::new(sigma.priorities().to_vec())))
    }

    /// Installs a sensing-fault model (and with it the fault layer).
    #[must_use]
    pub fn with_fault_model(mut self, fault: FaultModel) -> Self {
        self.set_fault_model(fault);
        self
    }

    /// Replaces the sensing-fault model mid-run (test hook: e.g. stop
    /// injecting errors and watch recovery heal the views). Flip counts of
    /// the outgoing model are preserved in [`DpEngine::stats`].
    pub fn set_fault_model(&mut self, fault: FaultModel) {
        let layer = self.layer();
        layer.flips_base = layer.flips_base.saturating_add(layer.fault.injected());
        layer.fault = fault;
    }

    /// Installs a churn process (scripted events, flash crowds, Poisson
    /// crash/revive).
    ///
    /// # Panics
    ///
    /// Panics if the process link count differs from the engine's.
    #[must_use]
    pub fn with_churn_process(mut self, churn: ChurnProcess) -> Self {
        assert_eq!(
            churn.n_links(),
            self.n_links(),
            "churn process link count mismatch"
        );
        self.layer().churn = Some(churn);
        self
    }

    /// Installs an asymmetric hidden-terminal matrix: each listener's
    /// carrier-sense observations (and R2 claim hearing) ignore
    /// transmitters hidden from it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix link count differs from the engine's.
    #[must_use]
    pub fn with_hidden(mut self, hidden: HiddenMatrix) -> Self {
        assert_eq!(
            hidden.n_links(),
            self.n_links(),
            "hidden matrix link count mismatch"
        );
        self.layer().hidden = Some(hidden);
        self
    }

    /// Installs the recovery rule (default [`RecoveryConfig::new`]).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        let n = self.n_links();
        let layer = self.layer();
        layer.recovery = recovery;
        layer.r2_limit.fill(recovery.initial_miss_limit(n));
        self
    }

    /// Administratively blocks or unblocks a link. A blocked link behaves
    /// exactly like a crashed one — it neither transmits, senses, nor
    /// updates its belief — until unblocked. This is the admission
    /// controller's shedding hook.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_blocked(&mut self, link: usize, blocked: bool) {
        assert!(link < self.n_links(), "blocked link out of range");
        let layer = self.layer();
        let was_live = layer.live(link);
        layer.blocked[link] = blocked;
        layer.relink(link, was_live);
    }

    /// Overrides the belief vector — the test hook for starting from a
    /// corrupted multiset (duplicates and holes allowed).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the link count or any value falls
    /// outside `1..=N`.
    pub fn set_beliefs(&mut self, beliefs: Vec<usize>) {
        let n = self.n_links();
        assert_eq!(beliefs.len(), n, "belief vector size must match link count");
        for (link, &b) in beliefs.iter().enumerate() {
            assert!(
                (1..=n).contains(&b),
                "belief {b} of link {link} outside 1..={n}"
            );
        }
        self.layer().reset_beliefs(beliefs);
    }

    /// Whether a fault layer is installed: the engine then runs the
    /// degraded semantics, even with every rate at zero.
    #[must_use]
    pub fn has_fault_layer(&self) -> bool {
        self.faults.is_some()
    }

    /// The per-link priority beliefs (`beliefs()[n]` is what link `n`
    /// thinks its own priority is): σ's priorities without a fault layer.
    #[must_use]
    pub fn beliefs(&self) -> &[usize] {
        self.faults
            .as_ref()
            .map_or(self.sigma.priorities(), |l| &l.beliefs)
    }

    /// Whether the belief multiset currently forms a bijection of `1..=N`
    /// (always, without a fault layer).
    #[must_use]
    pub fn is_bijective(&self) -> bool {
        self.faults.as_ref().is_none_or(|l| l.excess == 0)
    }

    /// The per-link R2 miss limits currently in force (empty without a
    /// fault layer).
    #[must_use]
    pub fn r2_limits(&self) -> &[u32] {
        self.faults.as_ref().map_or(&[], |l| &l.r2_limit)
    }

    /// The churn process, if any.
    #[must_use]
    pub fn churn_process(&self) -> Option<&ChurnProcess> {
        self.faults.as_ref().and_then(|l| l.churn.as_ref())
    }

    /// Cumulative fault/recovery counters (all zero without a fault
    /// layer).
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map_or_else(FaultStats::default, |l| FaultStats {
                sensing_flips: l.flips_base.saturating_add(l.fault.injected()),
                ..l.stats
            })
    }

    /// Moves all churn transitions (crashes and revivals) recorded since
    /// the last drain into `out`, oldest first. The admission layer calls
    /// this after each interval to learn about joiners and leavers.
    pub fn drain_churn_events(&mut self, out: &mut Vec<ChurnEvent>) {
        if let Some(layer) = &mut self.faults {
            out.append(&mut layer.churn_events);
        }
    }

    /// Runs one interval of the DP protocol (Steps 1–7 of Algorithm 2),
    /// drawing the shared candidate set internally. The returned report is
    /// an engine-owned buffer, valid until the next step; clone it to keep
    /// it.
    ///
    /// * `arrivals[n]` — packets arriving at link `n` at the interval start.
    /// * `mu[n]` — the coin parameter `μ_n ∈ (0, 1)` of Eq. 5. The DB-DP
    ///   algorithm computes these from delivery debts (Eq. 14); any other
    ///   choice yields the generic protocol of Section IV.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals`, `mu`, or the channel's link count disagree
    /// with the engine's, or (candidate links always, every link in debug
    /// builds) if some `μ_n ∉ (0, 1)`.
    pub fn step(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        check_dense_mu(mu, self.n_links());
        self.run(arrivals, CoinSource::Mu(&|l| mu[l]), None, channel, rng)
    }

    /// [`DpEngine::step`] with the coin parameters given as a per-link
    /// lookup: `mu(n)` is `μ_n`, and the engine calls it only for the
    /// links of the drawn candidate pairs, once each, hi before lo. A
    /// caller whose `μ` is costly (DB-DP evaluates Eq. 14 per link) pays
    /// for `2·|C(k)|` links per interval instead of `N`. RNG consumption
    /// and every decision equal [`DpEngine::step`] with the dense vector
    /// `(mu(0), …, mu(N−1))`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` or the channel's link count disagree with the
    /// engine's, or if `mu` returns a value outside `(0, 1)` for a
    /// candidate link.
    pub fn step_with_mu(
        &mut self,
        arrivals: &[u32],
        mu: &dyn Fn(usize) -> f64,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        self.run(arrivals, CoinSource::Mu(mu), None, channel, rng)
    }

    /// Runs one interval with an explicitly chosen candidate set — the
    /// "common random seed" of Step 1 made external, so tests and
    /// multi-node deployments can inject the shared draw. `candidates`
    /// must be sorted upper priorities `C ∈ 1..N`, pairwise non-adjacent.
    ///
    /// # Panics
    ///
    /// Same as [`DpEngine::step`], plus a panic if the candidate set is
    /// malformed.
    pub fn step_with_candidates(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        candidates: &[usize],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        check_dense_mu(mu, self.n_links());
        self.run(
            arrivals,
            CoinSource::Mu(&|l| mu[l]),
            Some(candidates),
            channel,
            rng,
        )
    }

    /// Runs one interval with both the candidate draw *and* the private
    /// coin flips injected — every random protocol decision except the
    /// channel made explicit. `coins[j]` gives the ξ outcomes of pair
    /// `candidates[j]`; `rng` is only consumed by the channel model.
    /// This is the model checker's entry point: it enumerates all
    /// `(candidates, coins, channel)` combinations exhaustively.
    ///
    /// # Panics
    ///
    /// Same as [`DpEngine::step_with_candidates`], plus a panic if `coins`
    /// and `candidates` disagree in length.
    pub fn step_with_coins(
        &mut self,
        arrivals: &[u32],
        candidates: &[usize],
        coins: &[PairCoins],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        assert_eq!(
            coins.len(),
            candidates.len(),
            "one PairCoins per candidate pair"
        );
        self.run(
            arrivals,
            CoinSource::Fixed(coins),
            Some(candidates),
            channel,
            rng,
        )
    }

    /// [`DpEngine::step`] returning an owned copy of the report, for
    /// callers that keep it past the next interval.
    ///
    /// # Panics
    ///
    /// Same as [`DpEngine::step`].
    pub fn run_interval(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> DpIntervalReport {
        self.step(arrivals, mu, channel, rng).clone()
    }

    /// Sizes the working storage on the first step. Injected candidate
    /// sets may hold more pairs than the configured draw, up to `n/2`;
    /// data transmitters are bounded by the links and by the boundaries
    /// an interval can process before the deadline stops it.
    fn size_buffers(&mut self) {
        let n = self.sigma.len();
        let want = self.config.swap_pairs.min(n / 2);
        let timing = &self.config.timing;
        let by_deadline = (timing.deadline() / timing.slot()) as usize + 2;
        let state = &mut self.state;
        state.pairs.reserve(want);
        state.believers.reserve(2 * want);
        state.candidates.reserve(want);
        if want > 1 {
            state.draw_pool.reserve(n);
        }
        state.touched.reserve(n.min(by_deadline));
        self.report.outcome = IntervalOutcome::empty(n);
        self.report.candidates.reserve(want);
        self.report.swaps.reserve(want);
    }

    /// The shared interval body over σ, or over the fault layer's beliefs
    /// when one is installed.
    fn run(
        &mut self,
        arrivals: &[u32],
        coins: CoinSource<'_>,
        inject: Option<&[usize]>,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        let n = self.sigma.len();
        assert_eq!(arrivals.len(), n, "arrivals must have one entry per link");
        assert_eq!(channel.n_links(), n, "channel link count mismatch");
        if self.report.outcome.deliveries.len() != n {
            self.size_buffers();
        }
        let Self {
            config,
            sigma,
            state,
            report,
            faults,
        } = self;
        match faults.as_deref_mut() {
            None => Self::walk_interval(
                sigma, config, state, report, arrivals, coins, inject, channel, rng,
            ),
            Some(layer) => {
                // Under a layer any link can believe a pair side or share
                // a boundary: size the group scratch for all N once.
                if state.fates.capacity() < n {
                    state.touched.reserve(n);
                    state.collided.reserve(n);
                    state.believers.reserve(n);
                    state.fates.reserve(n);
                    state.airtimes.reserve(n);
                }
                Self::walk_interval(
                    layer, config, state, report, arrivals, coins, inject, channel, rng,
                );
            }
        }
        &self.report
    }

    /// The shared interval body (Steps 1–7 of Algorithm 2) over any rank
    /// source.
    // One interval, one function: the draw, the walk, the sense resolution
    // and the commit are a single documented unit over the engine's
    // split-borrowed parts.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn walk_interval<R: Ranks>(
        ranks: &mut R,
        config: &DpConfig,
        state: &mut DpState,
        report: &mut DpIntervalReport,
        arrivals: &[u32],
        coins: CoinSource<'_>,
        inject: Option<&[usize]>,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) {
        let n = arrivals.len();
        let timing = config.timing();
        let tracing = config.trace();
        let DpState {
            pairs,
            believers,
            candidates,
            draw_pool,
            touched,
            collided,
            fates,
            airtimes,
            trace_tmp,
            boundary_times,
        } = state;

        // ------------------------------------------------------ reset
        for &l in touched.iter() {
            report.outcome.deliveries[l] = 0;
            report.outcome.attempts[l] = 0;
            report.outcome.latency_sum[l] = Nanos::ZERO;
        }
        touched.clear();
        collided.clear();
        report.outcome.empty_packets = 0;
        report.outcome.collisions = 0;
        report.outcome.busy_time = Nanos::ZERO;
        report.outcome.idle_slots = 0;
        report.outcome.leftover = Nanos::ZERO;
        report.candidates.clear();
        report.swaps.clear();
        report.trace.clear();
        trace_tmp.clear();
        boundary_times.clear();
        ranks.begin();

        // ------------------------------------- Step 1: candidate draw
        match inject {
            Some(c) => {
                candidates.clear();
                candidates.extend_from_slice(c);
            }
            None => {
                draw_nonadjacent_candidates_into(n, config.swap_pairs(), rng, candidates, draw_pool)
            }
        }
        for (i, &c) in candidates.iter().enumerate() {
            assert!(c >= 1 && c < n, "candidate priority {c} out of range");
            if i > 0 {
                assert!(
                    c >= candidates[i - 1] + 2,
                    "candidates must be sorted and non-adjacent"
                );
            }
        }
        report.candidates.extend_from_slice(candidates);

        // ------------------ Steps 2–3: coins, per pair and side.
        // Coins are drawn in candidate order, hi side before lo side, each
        // side's links in link order.
        pairs.clear();
        believers.clear();
        for (j, &c) in candidates.iter().enumerate() {
            let start = believers.len();
            for (is_hi, p) in [(true, c), (false, c + 1)] {
                for link in ranks.claimants(p) {
                    // ξ = +1 with probability μ (Eq. 5), unless injected
                    // verbatim. μ is looked up here and only here: once per
                    // candidate link.
                    let up = match coins {
                        CoinSource::Mu(mu) => {
                            let m = mu(link);
                            assert!(m > 0.0 && m < 1.0, "mu[{link}] = {m} must lie in (0, 1)");
                            rng.random_bool(m)
                        }
                        CoinSource::Fixed(flips) if is_hi => flips[j].hi_up,
                        CoinSource::Fixed(flips) => flips[j].lo_up,
                    };
                    believers.push(Member {
                        link,
                        is_hi,
                        wants: if is_hi { !up } else { up },
                        sent: false,
                        collided: false,
                        no_fit: false,
                        observed: false,
                        concede: false,
                        moved: false,
                    });
                }
            }
            pairs.push(Pair {
                c,
                start,
                end: believers.len(),
                heard: None,
            });
        }

        // Trace mode: every live link's BackoffSet (Step 4, Eq. 6) in link
        // order, before any transmission. O(N · believers) here is fine —
        // trace mode is explicitly off the hot path.
        if tracing {
            for link in 0..n {
                let Some(priority) = ranks.priority(link) else {
                    continue;
                };
                let believer = pairs.iter().enumerate().find_map(|(j, pair)| {
                    believers[pair.start..pair.end]
                        .iter()
                        .find(|b| b.link == link)
                        .map(|b| b.counter(pair.c, j))
                });
                let counter = believer.unwrap_or_else(|| {
                    let pairs_above = pairs.iter().filter(|p| p.c + 1 < priority).count() as u64;
                    (priority as u64 - 1) + 2 * pairs_above
                });
                report.trace.push(TraceEvent::BackoffSet {
                    link: LinkId::new(link),
                    counter,
                });
            }
        }

        // --------------------- Phase 1: the priority walk (Steps 4/6).
        // Claimants are visited in strictly increasing counter order: the
        // priority sweep 1..=N, with each pair block's four claim slots in
        // counter order (pair j's counters lie strictly between its
        // neighbours' — see the module docs).
        let mut walk = Walk {
            timing,
            slot: timing.slot(),
            deadline: timing.deadline(),
            arrivals,
            channel,
            rng,
            outcome: &mut report.outcome,
            touched,
            fates,
            airtimes,
            trace: if tracing {
                Some(TraceRec {
                    events: trace_tmp,
                    times: boundary_times,
                })
            } else {
                None
            },
            medium: Medium::new(),
            t: Nanos::ZERO,
            next_boundary: 0,
        };
        let mut pair_idx = 0usize;
        let mut p = 1usize;
        'walk: while p <= n {
            if pair_idx < pairs.len() && pairs[pair_idx].c == p {
                let pair = &mut pairs[pair_idx];
                let block = &mut believers[pair.start..pair.end];
                let first = (p - 1 + 2 * pair_idx) as u64;
                for (offset, &(is_hi, wants)) in BLOCK.iter().enumerate() {
                    let counter = first + offset as u64;
                    let in_slot = |b: &Member| b.is_hi == is_hi && b.wants == wants;
                    let mut members = block.iter().enumerate().filter(|(_, b)| in_slot(b));
                    match (members.next(), members.next()) {
                        (None, _) => {}
                        (Some((i, b)), None) => {
                            // Step 2: a candidate with no arrivals claims its
                            // backoff slot with an empty frame.
                            let fate = walk.claim(b.link, counter, arrivals[b.link] == 0);
                            if fate == Claim::Stopped {
                                break 'walk;
                            }
                            settle(pair, &mut block[i], fate, collided);
                        }
                        _ => {
                            let group = block
                                .iter()
                                .enumerate()
                                .filter(|(_, b)| in_slot(b))
                                .map(|(i, b)| (i, b.link, arrivals[b.link] == 0));
                            if !walk.claim_group(counter, group) {
                                break 'walk;
                            }
                            for &(i, _, fate) in walk.fates.iter() {
                                settle(pair, &mut block[i], fate, collided);
                            }
                        }
                    }
                }
                p += 2;
                pair_idx += 1;
            } else {
                let counter = (p as u64 - 1) + 2 * pair_idx as u64;
                let mut group = ranks.claimants(p);
                match (group.next(), group.next()) {
                    (None, _) => {} // a hole: nobody believes p
                    (Some(link), None) => {
                        if walk.claim(link, counter, false) == Claim::Stopped {
                            break 'walk;
                        }
                    }
                    (Some(a), Some(b)) => {
                        let members = [a, b].into_iter().chain(group).map(|l| (l, l, false));
                        if !walk.claim_group(counter, members) {
                            break 'walk;
                        }
                        collided.extend(
                            walk.fates
                                .iter()
                                .filter(|f| f.2 == Claim::Collided)
                                .map(|f| f.1),
                        );
                    }
                }
                p += 1;
            }
        }
        // The first boundary the interval does *not* process: either the
        // deadline-stop boundary or `max counter + 1` once every claimant
        // acted. Sense checks at boundaries ≥ b_end never ran.
        let b_end = walk.next_boundary;
        let stats = *walk.medium.stats();
        let busy_until = walk.medium.busy_until();
        report.outcome.collisions += stats.collisions;
        report.outcome.busy_time = stats.busy_time;
        report.outcome.leftover = timing.deadline().saturating_sub(busy_until);
        if tracing {
            debug_assert_eq!(
                boundary_times.len() as u64,
                b_end,
                "one recorded time per processed boundary"
            );
        }

        // ------------- Phase 2: sense resolution (Step 5, Eqs. 7–8).
        // Pair j's checks fall on its own block: lo (wanting up) senses at
        // counter 1, boundary C − 1 + 2j, where only the staying hi claims;
        // hi (wanting down) senses at C + 2j, where only the upward lo claims,
        // and so does a staying hi whose claim did not fit (the concede).
        // Checks run in boundary order, then believer order.
        for (j, pair) in pairs.iter().enumerate() {
            let block = &mut believers[pair.start..pair.end];
            let lo_check = (pair.c - 1 + 2 * j) as u64;
            for (listen_hi, s) in [(false, lo_check), (true, lo_check + 1)] {
                if s >= b_end {
                    continue;
                }
                for i in 0..block.len() {
                    let b = block[i];
                    let checks = b.wants || (b.is_hi && b.no_fit);
                    if b.is_hi != listen_hi || !checks {
                        continue;
                    }
                    // The claim this side listens for: the other side's
                    // opposite intention (hi staying for lo, lo moving up for
                    // hi).
                    let senders = block
                        .iter()
                        .filter(|o| o.is_hi != listen_hi && o.wants == listen_hi && o.sent)
                        .map(|o| o.link);
                    let busy = ranks.sense(b.link, senders);
                    if !b.wants {
                        block[i].concede = busy;
                        continue;
                    }
                    block[i].observed = busy == listen_hi;
                    if tracing {
                        trace_tmp.push((
                            (s, 0, (pair.start + i) as u32),
                            TraceEvent::SenseCheck {
                                link: LinkId::new(b.link),
                                at: boundary_times[s as usize],
                                busy,
                            },
                        ));
                    }
                }
            }
        }

        // ---------------------------------------- Step 7: the commit.
        for (j, pair) in pairs.iter().enumerate() {
            let block = &mut believers[pair.start..pair.end];
            let (mut hi_moves, mut lo_moves) = (0, 0);
            for b in block.iter_mut() {
                b.moved = if b.is_hi {
                    (b.wants && b.observed) || b.concede
                } else {
                    b.wants && b.observed && b.sent
                };
                if b.moved && b.is_hi {
                    hi_moves += 1;
                } else if b.moved {
                    lo_moves += 1;
                }
            }
            let event = if hi_moves == 1 && lo_moves == 1 {
                report.swaps.push(AdjacentTransposition::new(pair.c));
                Some(TraceEvent::SwapCommitted { upper: pair.c })
            } else {
                (hi_moves != lo_moves).then_some(TraceEvent::Divergence { upper: pair.c })
            };
            if let (true, Some(e)) = (tracing, event) {
                trace_tmp.push(((u64::MAX, 0, j as u32), e));
            }
            ranks.commit(pair.c, block, hi_moves, lo_moves);
        }
        ranks.finish(pairs, believers, collided);

        // Trace mode: merge the out-of-order sense checks back into
        // per-boundary emission order. Keys are unique: a sense check is keyed
        // by its believer, a frame by its sequence at the boundary.
        if tracing {
            trace_tmp.sort_unstable_by_key(|&(k, _)| k);
            report.trace.extend(trace_tmp.iter().map(|&(_, e)| e));
        }

        // Interval postconditions (debug only): each drawn pair commits at
        // most one transposition, so the committed swaps are a
        // strictly-increasing subset of the drawn candidates.
        debug_assert!(
            report.swaps.len() <= report.candidates.len(),
            "more swaps committed ({}) than pairs drawn ({})",
            report.swaps.len(),
            report.candidates.len()
        );
        #[cfg(debug_assertions)]
        for w in report.swaps.windows(2) {
            debug_assert!(
                w[0].upper() < w[1].upper(),
                "a drawn pair committed two swaps (uppers {} and {})",
                w[0].upper(),
                w[1].upper()
            );
        }
    }
}

/// The dense-`μ` adapters' input check: one entry per link, and (debug
/// builds only; all `N` would dominate a step at `N = 10 000`) every entry
/// inside `(0, 1)`. The candidates' entries are asserted in all builds by
/// the interval body.
fn check_dense_mu(mu: &[f64], n: usize) {
    assert_eq!(mu.len(), n, "mu must have one entry per link");
    #[cfg(debug_assertions)]
    for (i, &m) in mu.iter().enumerate() {
        debug_assert!(m > 0.0 && m < 1.0, "mu[{i}] = {m} must lie in (0, 1)");
    }
}

/// Draws `want` pairwise non-adjacent upper priorities `C` uniformly at
/// random from `{1, …, N−1}` (Step 1 of Algorithm 2 / Remark 6).
///
/// Non-adjacent means `|C_i − C_j| ≥ 2`, so the swap pairs `{C, C+1}` are
/// disjoint; the result is sorted ascending. `want` is clamped to `⌊n/2⌋`
/// (the maximum number of disjoint adjacent pairs), and the draw is empty
/// when `n < 2` or `want == 0`. This is the same sampler
/// [`DpEngine::step`] uses internally for its shared candidate
/// draw; the statistical model checker (`crates/verify`) calls it directly
/// to sample the candidate-*set* dimension of a trajectory.
///
/// # Example
///
/// ```
/// use rtmac_mac::draw_nonadjacent_candidates;
/// use rtmac_sim::SeedStream;
///
/// let mut rng = SeedStream::new(7).rng(0);
/// let set = draw_nonadjacent_candidates(6, 2, &mut rng);
/// assert_eq!(set.len(), 2);
/// assert!(set.windows(2).all(|w| w[1] - w[0] >= 2));
/// assert!(set.iter().all(|&c| (1..6).contains(&c)));
/// ```
#[must_use]
pub fn draw_nonadjacent_candidates(n: usize, want: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pool = Vec::new();
    draw_nonadjacent_candidates_into(n, want, rng, &mut out, &mut pool);
    out
}

/// Buffer-reusing form of [`draw_nonadjacent_candidates`]: writes the drawn
/// set into `out` using `pool` as shuffle scratch.
///
/// Consumes exactly the same RNG sequence as the allocating form, so a
/// caller that swaps one for the other (the interval kernel does) keeps
/// bit-identical traces. Both buffers are cleared first; after the
/// first call at a given `(n, want)` no further allocation occurs.
pub fn draw_nonadjacent_candidates_into(
    n: usize,
    want: usize,
    rng: &mut SimRng,
    out: &mut Vec<usize>,
    pool: &mut Vec<usize>,
) {
    out.clear();
    let want = want.min(n / 2);
    if n < 2 || want == 0 {
        return;
    }
    if want == 1 {
        out.push(rng.random_range(1..n));
        return;
    }
    // Stars-and-bars bijection: sorted non-adjacent `want`-sets of
    // {1..n−1} correspond one-to-one to plain `want`-subsets of
    // {1..n−want} via x_i = y_i + (i − 1), so drawing a uniform subset
    // and shifting yields an exactly uniform non-adjacent set in O(n).
    // (Rejection sampling degenerates near the maximum packing: at
    // n = 20, want = 10 only one of the C(19,10) = 92378 subsets is
    // non-adjacent.)
    pool.clear();
    pool.extend(1..=n - want);
    pool.shuffle(rng);
    out.extend_from_slice(&pool[..want]);
    out.sort_unstable();
    for (i, x) in out.iter_mut().enumerate() {
        *x += i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtmac_phy::channel::Bernoulli;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::SeedStream;

    fn timing_ms(ms: u64, payload: u32) -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(ms), payload)
    }

    fn engine(n: usize) -> DpEngine {
        DpEngine::new(DpConfig::new(timing_ms(20, 1500)), n)
    }

    #[test]
    fn reliable_network_delivers_everything_when_capacity_allows() {
        let mut e = engine(4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(1).rng(0);
        let report = e.run_interval(&[3, 2, 1, 4], &[0.5; 4], &mut ch, &mut rng);
        assert_eq!(report.outcome.deliveries, [3, 2, 1, 4]);
        assert_eq!(report.outcome.total_attempts(), 10);
        assert_eq!(report.outcome.collisions, 0);
    }

    #[test]
    fn is_collision_free_across_many_random_intervals() {
        let mut e = engine(10);
        let mut ch = Bernoulli::new(vec![0.7; 10]).unwrap();
        let mut rng = SeedStream::new(2).rng(0);
        for k in 0..200 {
            let arrivals: Vec<u32> = (0..10).map(|i| ((k + i) % 4) as u32).collect();
            let report = e.run_interval(&arrivals, &[0.3; 10], &mut ch, &mut rng);
            assert_eq!(report.outcome.collisions, 0, "collision at interval {k}");
        }
    }

    #[test]
    fn priority_determines_service_order() {
        // Overload the interval so only the highest-priority links get
        // through: N links each with a full buffer.
        let timing = timing_ms(2, 100); // 16 transmissions fit
        let mut e = DpEngine::new(DpConfig::new(timing).with_swap_pairs(0), 4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(3).rng(0);
        // Reverse priorities: link 3 is highest.
        e.set_sigma(Permutation::from_priorities(vec![4, 3, 2, 1]).unwrap());
        let report = e.run_interval(&[10, 10, 10, 10], &[0.5; 4], &mut ch, &mut rng);
        // 16 slots: link3 gets 10, link2 gets 6 (minus backoff overhead,
        // possibly 5), links 1 and 0 get nothing.
        assert_eq!(report.outcome.deliveries[3], 10);
        assert!(report.outcome.deliveries[2] >= 4);
        assert_eq!(report.outcome.deliveries[0], 0);
        assert!(report.swaps.is_empty());
    }

    #[test]
    fn swap_pairs_zero_never_reorders() {
        let mut e = DpEngine::new(DpConfig::new(timing_ms(20, 1500)).with_swap_pairs(0), 6);
        let before = e.sigma().clone();
        let mut ch = Bernoulli::reliable(6);
        let mut rng = SeedStream::new(4).rng(0);
        for _ in 0..50 {
            let r = e.run_interval(&[1; 6], &[0.5; 6], &mut ch, &mut rng);
            assert!(r.candidates.is_empty());
            assert!(r.swaps.is_empty());
        }
        assert_eq!(e.sigma(), &before);
    }

    #[test]
    fn forced_swap_exchanges_the_candidate_pair() {
        // μ near 1 for the lower candidate and near 0 for the upper one
        // makes ξ_lo = +1 and ξ_hi = −1 almost surely, so candidates swap
        // whenever drawn. With N = 2 the pair is always (1, 2).
        let mut e = DpEngine::new(DpConfig::new(timing_ms(20, 1500)), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(5).rng(0);
        // link0 has priority 1 (upper candidate): wants down with 1−μ0.
        let mu = [1e-9, 1.0 - 1e-9];
        let r = e.run_interval(&[1, 1], &mu, &mut ch, &mut rng);
        assert_eq!(r.candidates, [1]);
        assert_eq!(r.swaps, [AdjacentTransposition::new(1)]);
        assert_eq!(e.sigma().priorities(), [2, 1]);
    }

    #[test]
    fn refused_swap_keeps_priorities() {
        // μ flipped: upper wants to stay up, lower wants to stay down.
        let mut e = DpEngine::new(DpConfig::new(timing_ms(20, 1500)), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(6).rng(0);
        let mu = [1.0 - 1e-9, 1e-9];
        let r = e.run_interval(&[1, 1], &mu, &mut ch, &mut rng);
        assert!(r.swaps.is_empty());
        assert_eq!(e.sigma().priorities(), [1, 2]);
    }

    #[test]
    fn empty_packets_claim_priority_without_arrivals() {
        // No arrivals anywhere: only the two candidates transmit empty
        // packets; the swap still completes.
        let mut e = DpEngine::new(DpConfig::new(timing_ms(20, 1500)), 3);
        let mut ch = Bernoulli::reliable(3);
        let mut rng = SeedStream::new(7).rng(0);
        let mu = [1e-9, 1e-9, 1.0 - 1e-9];
        // Try a few intervals; whenever the drawn pair is (link at C wants
        // down, link at C+1 wants up) the swap happens. Just verify empty
        // packets are sent and no data attempts occur.
        let r = e.run_interval(&[0, 0, 0], &mu, &mut ch, &mut rng);
        assert_eq!(r.outcome.total_attempts(), 0);
        assert_eq!(r.outcome.total_deliveries(), 0);
        assert_eq!(r.outcome.empty_packets, 2);
    }

    #[test]
    fn no_swap_when_interval_too_short_for_any_frame() {
        // Deadline shorter than even an empty frame: nothing can transmit,
        // so the handshake cannot complete (the R_i + R_j >= 1 term of
        // Eq. 9) and priorities stay.
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(40), 1500);
        let mut e = DpEngine::new(DpConfig::new(timing), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(8).rng(0);
        let mu = [1e-9, 1.0 - 1e-9]; // would swap if they could transmit
        for _ in 0..20 {
            let r = e.run_interval(&[0, 0], &mu, &mut ch, &mut rng);
            assert!(r.swaps.is_empty());
            assert_eq!(r.outcome.empty_packets, 0);
        }
        assert_eq!(e.sigma().priorities(), [1, 2]);
    }

    #[test]
    fn unreliable_channel_retries_until_deadline() {
        // One link, p = 0.5: attempts keep going until the buffer drains or
        // the interval ends; attempts >= deliveries.
        let mut e = DpEngine::new(DpConfig::new(timing_ms(2, 100)), 1);
        let mut ch = Bernoulli::new(vec![0.5]).unwrap();
        let mut rng = SeedStream::new(9).rng(0);
        let r = e.run_interval(&[8], &[0.5], &mut ch, &mut rng);
        assert!(r.outcome.attempts[0] >= r.outcome.deliveries[0]);
        assert!(r.outcome.attempts[0] <= 16);
        assert!(r.outcome.deliveries[0] <= 8);
    }

    #[test]
    fn backoff_overhead_costs_at_most_a_couple_transmissions() {
        // The paper: DB-DP has "1 or 2 fewer transmissions per interval"
        // than the 60 of LDF in the video setting.
        let mut e = engine(20);
        let mut ch = Bernoulli::reliable(20);
        let mut rng = SeedStream::new(10).rng(0);
        // Saturate: plenty of packets everywhere.
        let r = e.run_interval(&[6; 20], &[0.5; 20], &mut ch, &mut rng);
        let total = r.outcome.total_deliveries();
        assert!(
            (58..=61).contains(&total),
            "expected ~59-61 deliveries, got {total}"
        );
    }

    #[test]
    fn multi_pair_draws_disjoint_pairs_and_swaps_consistently() {
        let mut e = DpEngine::new(DpConfig::new(timing_ms(20, 1500)).with_swap_pairs(3), 10);
        let mut ch = Bernoulli::reliable(10);
        let mut rng = SeedStream::new(11).rng(0);
        for _ in 0..100 {
            let r = e.run_interval(&[1; 10], &[0.5; 10], &mut ch, &mut rng);
            assert_eq!(r.candidates.len(), 3);
            let mut sorted = r.candidates.clone();
            sorted.sort_unstable();
            assert!(sorted.windows(2).all(|w| w[1] - w[0] >= 2));
            assert_eq!(r.outcome.collisions, 0);
            // σ must remain a valid permutation.
            assert!(Permutation::from_priorities(e.sigma().priorities().to_vec()).is_ok());
        }
    }

    /// Reproduces Example 2 / Fig. 2 of the paper exactly: N = 4 links,
    /// p_n = 1, one packet each, σ(1) = [1,2,3,4], candidates C = 2. With
    /// ξ_2 = −1 (β_2 = 3) and ξ_3 = +1 (β_3 = 2), links 2 and 3 exchange
    /// priorities and σ(2) = [1,3,2,4]. The trace pins the whole timeline.
    #[test]
    fn paper_example_2_timeline() {
        let slot = Nanos::from_micros(9);
        let airtime = PhyProfile::ieee80211a().packet_exchange_airtime(1500); // 326 µs
        let timing = timing_ms(20, 1500);
        let mut e = DpEngine::new(DpConfig::new(timing).with_trace(true), 4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(0).rng(0);
        // Paper's link 2 = our link index 1 (wants down: μ ≈ 0);
        // paper's link 3 = our link index 2 (wants up: μ ≈ 1).
        let mu = [0.5, 1e-12, 1.0 - 1e-12, 0.5];
        let report = e
            .step_with_candidates(&[1; 4], &mu, &[2], &mut ch, &mut rng)
            .clone();

        // Backoffs per Eq. 6 / Fig. 2: β = [0, 3, 2, 5].
        let backoffs: Vec<(usize, u64)> = report
            .trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::BackoffSet { link, counter } => Some((link.index(), *counter)),
                _ => None,
            })
            .collect();
        assert_eq!(backoffs, [(0, 0), (1, 3), (2, 2), (3, 5)]);

        // Transmission order and exact start times:
        //   link 0 at t = 0,
        //   link 2 at A + 2 slots (its counter 2 drains in two idle slots),
        //   link 1 at 2A + 3 slots (frozen at 1 during link 2's frame),
        //   link 3 at 3A + 5 slots (β = 5, one decrement after each of the
        //   three frames plus two trailing idle slots).
        let starts: Vec<(usize, Nanos)> = report
            .trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::TxStart { link, at, kind } => {
                    assert_eq!(*kind, FrameKind::Data);
                    Some((link.index(), *at))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            [
                (0, Nanos::ZERO),
                (2, airtime + slot * 2),
                (1, airtime * 2 + slot * 3),
                (3, airtime * 3 + slot * 5),
            ]
        );

        // Both candidates sensed at counter 1: lo heard idle, hi heard busy.
        let checks: Vec<(usize, bool)> = report
            .trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::SenseCheck { link, busy, .. } => Some((link.index(), *busy)),
                _ => None,
            })
            .collect();
        assert_eq!(checks, [(2, false), (1, true)]);

        // The swap committed: σ(2) = [1,3,2,4].
        assert_eq!(report.swaps, [AdjacentTransposition::new(2)]);
        assert!(report
            .trace
            .contains(&TraceEvent::SwapCommitted { upper: 2 }));
        assert_eq!(e.sigma().priorities(), [1, 3, 2, 4]);
        assert_eq!(report.outcome.deliveries, [1, 1, 1, 1]);
    }

    /// All four injected ξ combinations of a single pair:
    /// the swap commits iff (hi wants down) AND (lo wants up), matching
    /// Eq. 9's (1−μ_i)·μ_j structure.
    #[test]
    fn handshake_truth_table() {
        for (hi_up, lo_up, expect_swap) in [
            (true, true, false),   // hi stays, lo wants up -> blocked
            (true, false, false),  // both stay
            (false, true, true),   // hi down, lo up -> swap
            (false, false, false), // hi wants down, lo stays
        ] {
            let mut e = DpEngine::new(DpConfig::new(timing_ms(20, 1500)), 2);
            let mut ch = Bernoulli::reliable(2);
            let mut rng = SeedStream::new(9).rng(0);
            let coins = [PairCoins { hi_up, lo_up }];
            let r = e
                .step_with_coins(&[1, 1], &[1], &coins, &mut ch, &mut rng)
                .clone();
            assert_eq!(
                !r.swaps.is_empty(),
                expect_swap,
                "hi_up={hi_up} lo_up={lo_up}"
            );
            let expected = if expect_swap { [2, 1] } else { [1, 2] };
            assert_eq!(e.sigma().priorities(), expected);
        }
    }

    /// The deadline corner case the paper leaves unspecified: hi chose to
    /// stay (ξ = +1) but its data frame no longer fits, while lo's shorter
    /// empty claim does. lo senses idle at counter 1 and infers "hi wants
    /// down"; the concede rule makes hi agree, keeping σ consistent.
    #[test]
    fn concede_path_keeps_sigma_consistent() {
        // N = 2, C = 1: hi = link0 (priority 1, ξ = +1 -> β = 0),
        // lo = link1 (priority 2, ξ = +1 -> β = 1).
        // Deadline: one empty frame (62 µs) fits after one slot, but a
        // data frame (326 µs) does not fit at t = 0.
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(200), 1500);
        let mut e = DpEngine::new(DpConfig::new(timing).with_trace(true), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(3).rng(0);
        let eps = 1e-12;
        // hi has a data packet (doesn't fit); lo has no arrival -> empty
        // claim frame (fits).
        let mu = [1.0 - eps, 1.0 - eps];
        let r = e
            .step_with_candidates(&[1, 0], &mu, &[1], &mut ch, &mut rng)
            .clone();
        // lo transmitted its empty claim; hi conceded; both swapped.
        assert_eq!(r.outcome.empty_packets, 1);
        assert_eq!(r.outcome.attempts, [0, 0], "hi's data frame never fit");
        assert_eq!(r.swaps, [AdjacentTransposition::new(1)]);
        assert_eq!(e.sigma().priorities(), [2, 1]);
    }

    /// Same corner but lo's frame does not fit either: nothing transmits,
    /// nobody concedes, σ unchanged.
    #[test]
    fn concede_requires_lo_transmission() {
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(60), 1500);
        let mut e = DpEngine::new(DpConfig::new(timing), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(4).rng(0);
        let eps = 1e-12;
        let mu = [1.0 - eps, 1.0 - eps];
        // Both have data frames (326 µs) that can never fit in 60 µs; lo's
        // would-be empty frame is not generated because it has an arrival.
        let r = e
            .step_with_candidates(&[1, 1], &mu, &[1], &mut ch, &mut rng)
            .clone();
        assert!(r.swaps.is_empty());
        assert_eq!(r.outcome.total_deliveries(), 0);
        assert_eq!(e.sigma().priorities(), [1, 2]);
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let mut e = engine(3);
        let mut ch = Bernoulli::reliable(3);
        let mut rng = SeedStream::new(1).rng(0);
        let report = e.run_interval(&[1; 3], &[0.5; 3], &mut ch, &mut rng);
        assert!(report.trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn adjacent_candidate_set_rejected() {
        let mut e = engine(6);
        let mut ch = Bernoulli::reliable(6);
        let mut rng = SeedStream::new(1).rng(0);
        let _ = e
            .step_with_candidates(&[1; 6], &[0.5; 6], &[2, 3], &mut ch, &mut rng)
            .clone();
    }

    /// Mixed payloads on one medium: a 100 B control link squeezes its
    /// frame into tail time a 1500 B video frame cannot use.
    #[test]
    fn heterogeneous_payloads_share_the_interval() {
        // Deadline fits one 326 µs video frame plus one 118 µs control
        // frame (444 µs + slots), but not two video frames.
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(500), 1500)
            .with_link_payloads(&[1500, 100]);
        let mut e = DpEngine::new(DpConfig::new(timing).with_swap_pairs(0), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(1).rng(0);
        let r = e.run_interval(&[2, 2], &[0.5, 0.5], &mut ch, &mut rng);
        // Video link (priority 1) sends one frame; its second doesn't fit.
        assert_eq!(r.outcome.deliveries[0], 1);
        // Control link still delivers one 118 µs frame in the remainder.
        assert_eq!(r.outcome.deliveries[1], 1);
    }

    #[test]
    fn single_link_network_just_transmits() {
        let mut e = DpEngine::new(DpConfig::new(timing_ms(2, 100)), 1);
        let mut ch = Bernoulli::reliable(1);
        let mut rng = SeedStream::new(12).rng(0);
        let r = e.run_interval(&[5], &[0.5], &mut ch, &mut rng);
        assert_eq!(r.outcome.deliveries, [5]);
        assert!(r.candidates.is_empty());
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn mu_out_of_range_panics() {
        let mut e = engine(2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(0).rng(0);
        let _ = e.run_interval(&[1, 1], &[0.0, 0.5], &mut ch, &mut rng);
    }

    #[test]
    fn report_buffer_resets_between_intervals() {
        let mut e = engine(3);
        let mut ch = Bernoulli::reliable(3);
        let mut rng = SeedStream::new(4).rng(0);
        let first = e.step(&[2, 0, 1], &[0.5; 3], &mut ch, &mut rng).clone();
        assert_eq!(first.outcome.total_deliveries(), 3);
        // A later all-idle interval must not leak the previous counters.
        let second = e.step(&[0, 0, 0], &[0.5; 3], &mut ch, &mut rng);
        assert_eq!(second.outcome.total_deliveries(), 0);
        assert_eq!(second.outcome.total_attempts(), 0);
    }

    /// Injected coins equal to what μ would draw reproduce the μ-driven
    /// interval, and the injected path leaves the coin draws off `rng`.
    #[test]
    fn injected_coins_match_extreme_mu() {
        let eps = 1e-12;
        for (hi_up, lo_up) in [(true, true), (true, false), (false, true), (false, false)] {
            let mu = [
                if hi_up { 1.0 - eps } else { eps },
                if lo_up { 1.0 - eps } else { eps },
                0.5,
                0.5,
            ];
            let mut a = engine(4);
            let mut b = engine(4);
            let (mut ch_a, mut ch_b) = (Bernoulli::reliable(4), Bernoulli::reliable(4));
            let mut rng_a = SeedStream::new(5).rng(0);
            let mut rng_b = SeedStream::new(5).rng(0);
            let from_mu = a
                .step_with_candidates(&[1, 0, 2, 1], &mu, &[1], &mut ch_a, &mut rng_a)
                .clone();
            let coins = [PairCoins { hi_up, lo_up }];
            let injected = b.step_with_coins(&[1, 0, 2, 1], &[1], &coins, &mut ch_b, &mut rng_b);
            assert_eq!(&from_mu, injected);
            assert_eq!(a.sigma(), b.sigma());
        }
    }

    #[test]
    #[should_panic(expected = "one PairCoins per candidate pair")]
    fn coins_must_match_candidates() {
        let mut e = engine(4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(1).rng(0);
        let _ = e.step_with_coins(&[1; 4], &[1], &[], &mut ch, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn candidate_mu_out_of_range_panics() {
        let mut e = DpEngine::new(DpConfig::new(timing_ms(2, 100)), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(5).rng(0);
        e.step_with_candidates(&[1, 1], &[1.5, 0.5], &[1], &mut ch, &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Core protocol invariants over random workloads: never a
        /// collision, σ stays a valid permutation, per-link deliveries never
        /// exceed arrivals, and the swap handshake never diverges (the
        /// debug assertions inside run_interval enforce agreement).
        #[test]
        fn prop_dp_invariants(
            n in 2usize..8,
            seed in 0u64..500,
            intervals in 1usize..30,
            pairs in 0usize..3,
        ) {
            let timing = MacTiming::new(
                PhyProfile::ieee80211a(),
                Nanos::from_millis(5),
                300,
            );
            let mut e = DpEngine::new(DpConfig::new(timing).with_swap_pairs(pairs), n);
            let seeds = SeedStream::new(seed);
            let mut rng = seeds.rng(0);
            let mut arr_rng = seeds.rng(1);
            let mut ch = Bernoulli::new(vec![0.6; n]).unwrap();
            for _ in 0..intervals {
                let arrivals: Vec<u32> =
                    (0..n).map(|_| arr_rng.random_range(0..4)).collect();
                let mu: Vec<f64> = (0..n).map(|_| arr_rng.random_range(0.05..0.95)).collect();
                let r = e.run_interval(&arrivals, &mu, &mut ch, &mut rng);
                prop_assert_eq!(r.outcome.collisions, 0);
                for (link, &d) in r.outcome.deliveries.iter().enumerate() {
                    prop_assert!(
                        d <= u64::from(arrivals[link]),
                        "link {} delivered {} of {}", link, d, arrivals[link]
                    );
                }
                prop_assert!(
                    Permutation::from_priorities(e.sigma().priorities().to_vec()).is_ok()
                );
                // Every committed swap corresponds to exactly one drawn
                // candidate pair: at most |C(k)| swaps, each at a drawn
                // upper priority, and no upper priority swaps twice.
                prop_assert!(r.swaps.len() <= r.candidates.len());
                for (i, t) in r.swaps.iter().enumerate() {
                    prop_assert!(
                        r.candidates.contains(&t.upper()),
                        "swap at {} not among drawn candidates {:?}",
                        t.upper(),
                        r.candidates
                    );
                    if i > 0 {
                        prop_assert!(r.swaps[i - 1].upper() < t.upper());
                    }
                }
                if pairs <= 1 {
                    // The paper's configuration: at most one adjacent pair
                    // exchanges priorities per interval.
                    prop_assert!(r.swaps.len() <= 1);
                }
                // Busy time can never exceed the interval.
                prop_assert!(r.outcome.busy_time <= Nanos::from_millis(5));
            }
        }
    }
}
