//! # rtmac-phy
//!
//! The wireless PHY substrate for the `rtmac` workspace. The paper evaluates
//! its protocols in ns-3 over IEEE 802.11a; this crate rebuilds exactly the
//! PHY behaviour that evaluation exercises:
//!
//! * [`PhyProfile`] — 802.11a/g OFDM timing: 9 µs slots, SIFS/DIFS,
//!   preamble + 4 µs symbols, and the airtime math that yields the paper's
//!   numbers (≈330 µs for a 1500 B exchange, ≈120 µs for 100 B, ≈60–70 µs
//!   for an empty priority-claim frame). A `wifi_nano` profile with 800 ns
//!   slots reproduces the paper's citation of WiFi-Nano for the
//!   slot-overhead ablation.
//! * [`Medium`] — the shared channel of a fully-interfering network:
//!   busy/idle state for carrier sensing, simultaneous-start collision
//!   detection, and airtime accounting.
//! * [`channel`] — per-link packet-loss models: the paper's i.i.d.
//!   [`channel::Bernoulli`] success probability `p_n`, plus a
//!   [`channel::GilbertElliott`] burst-loss extension used by the
//!   robustness tests.
//! * [`fault`] — deterministic fault injection: seeded false-busy /
//!   false-idle carrier-sensing errors ([`fault::FaultModel`]), optionally
//!   driven through per-link Gilbert–Elliott good/bad chains
//!   ([`fault::BurstSensing`]); asymmetric hidden-terminal deafness
//!   ([`fault::HiddenMatrix`]); and link crash/revive churn, from one
//!   scripted event ([`fault::ChurnSchedule`]) up to seeded Poisson
//!   crash/revive processes and flash-crowd join ramps
//!   ([`fault::ChurnProcess`]) for the degraded-mode DP experiments.
//!
//! # Example
//!
//! ```
//! use rtmac_phy::PhyProfile;
//!
//! let phy = PhyProfile::ieee80211a();
//! // Total airtime for a 1500 B data packet + ACK + guard time: the paper's
//! // "about 330 µs" (we compute 326 µs from the OFDM symbol math).
//! let t = phy.packet_exchange_airtime(1500);
//! assert_eq!(t.as_micros_f64(), 326.0);
//! ```

pub mod channel;
pub mod fault;
mod medium;
mod profile;

pub use medium::{Medium, MediumStats, TransmitOutcome};
pub use profile::PhyProfile;
