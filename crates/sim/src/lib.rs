//! # rtmac-sim
//!
//! A small, deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate underneath the wireless MAC simulators in the
//! `rtmac` workspace. It provides:
//!
//! * [`Nanos`] — a nanosecond-precision simulation time newtype with checked
//!   arithmetic and convenient constructors ([`Nanos::from_micros`],
//!   [`Nanos::from_millis`], ...).
//! * [`EventQueue`] — a stable priority queue of timed events. Events that
//!   share a timestamp are dequeued in insertion order, which makes
//!   simulations reproducible independent of heap internals.
//! * [`Simulator`] — a minimal event loop that owns a clock and an event
//!   queue and dispatches events to a user-supplied handler.
//! * [`SeedStream`] — a deterministic hierarchy of RNG seeds so independent
//!   stochastic components (channels, arrivals, coin flips, ...) each get
//!   their own reproducible stream.
//!
//! # Example
//!
//! ```
//! use rtmac_sim::{EventQueue, Nanos};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(Nanos::from_micros(9), "slot boundary");
//! queue.schedule(Nanos::ZERO, "interval start");
//! let (t, ev) = queue.pop().expect("queue is non-empty");
//! assert_eq!(t, Nanos::ZERO);
//! assert_eq!(ev, "interval start");
//! ```

mod event;
mod rng;
mod simulator;
mod time;

pub use event::EventQueue;
pub use rng::{bernoulli_threshold, rng_from_seed, SeedStream, SimRng};
pub use simulator::{SimControl, SimHandle, Simulator};
pub use time::Nanos;
