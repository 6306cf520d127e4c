//! # rtmac-mac
//!
//! Medium-access protocol engines over the `rtmac-phy` substrate. Each
//! engine simulates one deadline interval at a time: given the interval's
//! arrivals (and protocol-specific per-interval inputs derived from delivery
//! debts by the `rtmac` core crate), it plays out carrier sensing, backoff,
//! transmissions, losses, and collisions, and reports an [`IntervalOutcome`].
//!
//! Engines:
//!
//! * [`DpEngine`] — the paper's contribution: the Decentralized Priority
//!   protocol (Algorithm 2). Collision-free deterministic backoff derived
//!   from per-link priority indices, randomized adjacent-pair reordering
//!   driven purely by coin flips and carrier sensing, empty priority-claim
//!   packets, and the multi-pair generalization of Remark 6. One interval
//!   costs `O(min(N, deadline/slot))`: the engine walks links in counter
//!   order and resolves carrier-sense checks against the drawn pairs' own
//!   claims. An optional fault layer runs the same walk over per-link
//!   priority *beliefs*, with injected carrier-sensing faults, hidden
//!   terminals and link churn, modeled collisions instead of asserted
//!   collision-freedom, and a self-stabilizing recovery rule that restores
//!   the priority bijection ([`RecoveryConfig`], [`FaultStats`]).
//! * [`FcsmaEngine`] — the discretized Fast-CSMA baseline of Li & Eryilmaz
//!   as used in the paper's comparison: slotted random access whose
//!   per-slot attempt probability is a quantized function of delivery debt,
//!   with real collisions.
//! * [`DcfEngine`] — IEEE 802.11 DCF with binary exponential backoff, a
//!   debt-unaware ablation baseline.
//! * [`FrameCsmaEngine`] — frame-based CSMA, the paper's reference \[23\]:
//!   a slot allocation agreed once per interval and executed open-loop,
//!   the Section-I example of a scheme that wastes capacity on unreliable
//!   channels.
//! * [`CentralizedEngine`] — serve-in-priority-order scheduling with
//!   retransmissions and no contention: the substrate for LDF/ELDF
//!   (Algorithm 1).
//!
//! [`mod@reference`] re-implements Algorithm 2 from each device's point of
//! view, as the oracle [`DpEngine`] is differential-tested against.
//!
//! # Example
//!
//! ```
//! use rtmac_mac::{CentralizedEngine, MacTiming};
//! use rtmac_phy::channel::Bernoulli;
//! use rtmac_phy::PhyProfile;
//! use rtmac_model::LinkId;
//! use rtmac_sim::{Nanos, SeedStream};
//!
//! // 2 links, perfectly reliable, 2 ms deadline, 100 B packets.
//! let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
//! let mut engine = CentralizedEngine::new(timing);
//! let mut channel = Bernoulli::reliable(2);
//! let mut rng = SeedStream::new(1).rng(0);
//! let order = [LinkId::new(1), LinkId::new(0)];
//! let outcome = engine.run_interval(&[3, 2], &order, &mut channel, &mut rng);
//! assert_eq!(outcome.deliveries, [3, 2]); // both buffers fit in 16 slots
//! ```

mod centralized;
mod dcf;
mod dp;
mod faulty;
mod fcsma;
mod frame_csma;
mod outcome;
pub mod reference;
pub mod timeline;
mod timing;

pub use centralized::CentralizedEngine;
pub use dcf::{DcfConfig, DcfEngine};
pub use dp::{
    draw_nonadjacent_candidates, draw_nonadjacent_candidates_into, BatchedDpEngine, DpConfig,
    DpEngine, DpIntervalReport, FaultyDpEngine, FrameKind, PairCoins, TraceEvent,
};
pub use faulty::{ChurnEvent, FaultStats, MissLimit, RecoveryConfig};
pub use fcsma::{FcsmaEngine, FcsmaQuantizer};
pub use frame_csma::FrameCsmaEngine;
pub use outcome::{IntervalOutcome, LinkActivity};
pub use timing::MacTiming;
