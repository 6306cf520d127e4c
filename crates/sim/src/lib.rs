//! # rtmac-sim
//!
//! Simulation time and deterministic randomness for the `rtmac` workspace.
//!
//! Every engine in `rtmac-mac` runs its own interval loop; this crate holds
//! what they all share:
//!
//! * [`Nanos`] — a nanosecond-precision simulation time newtype with checked
//!   arithmetic and convenient constructors ([`Nanos::from_micros`],
//!   [`Nanos::from_millis`], ...).
//! * [`SimRng`] — the workspace's xoshiro256++ generator, which every
//!   stochastic component takes as a `&mut SimRng`, and
//!   [`bernoulli_threshold`], which turns a success probability into the
//!   integer threshold a coin compares one draw against.
//! * [`SeedStream`] — a deterministic hierarchy of RNG seeds so independent
//!   stochastic components (channels, arrivals, coin flips, ...) each get
//!   their own reproducible stream, and [`rng_from_seed`] for a generator
//!   from one explicit seed.
//!
//! # Example
//!
//! ```
//! use rand::Rng;
//! use rtmac_sim::{Nanos, SeedStream};
//!
//! let slot = Nanos::from_micros(9);
//! assert_eq!(Nanos::from_millis(2) / slot, 222);
//! let mut a = SeedStream::new(2018).rng(3);
//! let mut b = SeedStream::new(2018).rng(3);
//! assert_eq!(a.random_range(0..100u32), b.random_range(0..100u32));
//! ```

mod rng;
mod time;

pub use rng::{bernoulli_threshold, rng_from_seed, SeedStream, SimRng};
pub use time::Nanos;
