//! # rtmac
//!
//! A Rust implementation of Hsieh & Hou, *A Decentralized Medium Access
//! Protocol for Real-Time Wireless Ad Hoc Networks With Unreliable
//! Transmissions* (ICDCS 2018).
//!
//! The paper's setting: `N` fully-interfering wireless links carry
//! deadline-constrained traffic — packets arrive at the start of each
//! interval of length `T` and are dropped at its end — over unreliable
//! channels (per-link success probability `p_n`). Each link must sustain a
//! timely-throughput `q_n`. The paper proposes:
//!
//! * **ELDF / LDF** ([`Eldf`]) — a centralized feasibility-optimal
//!   scheduler: serve links in decreasing `f(d_n⁺)·p_n`, where `d_n` is the
//!   delivery debt and `f` a [debt influence function](rtmac_model::influence).
//! * **The DP protocol** ([`rtmac_mac::DpEngine`]) — a fully decentralized
//!   priority-maintenance protocol built from carrier sensing and
//!   collision-free backoff alone.
//! * **DB-DP** ([`DbDp`]) — the DP protocol with Glauber-dynamics coin
//!   parameters `μ_n = exp(f(d_n⁺)p_n)/(R + exp(f(d_n⁺)p_n))` (Eq. 14),
//!   which is feasibility-optimal (Theorem 1) while remaining fully
//!   decentralized.
//!
//! This crate ties the substrates together: describe a [`Scenario`], pick
//! a [`PolicySpec`], build its [`Network`], run intervals, and read a
//! [`RunReport`].
//!
//! # Quickstart
//!
//! ```
//! use rtmac::scenario::{self, Param, Scenario};
//!
//! // The paper's control network, shrunk: 4 links, 2 ms deadline, 100 B
//! // packets, one arrival per interval, 95% delivery ratio, DB-DP, seed
//! // 42; with p = 0.8 instead of the paper's 0.7.
//! let sc = Scenario {
//!     success: Param::Uniform(0.8),
//!     ..scenario::control(4, 1.0, 0.95, 42)
//! };
//! let report = sc.with_intervals(500).run()?;
//! // The requirement is comfortably feasible: deficiency dies out.
//! assert!(report.final_total_deficiency < 0.05);
//! # Ok::<(), rtmac_model::ConfigError>(())
//! ```

pub mod admission;
mod network;
mod policy;
mod report;
pub mod runner;
pub mod scenario;

pub use admission::AdmissionReport;
pub use network::{Network, Overrides};
pub use policy::{
    eq14_mu, DbDp, DcfPolicy, Eldf, FcsmaPolicy, FixedPriority, FrameCsmaPolicy, TransmissionPolicy,
};
pub use report::RunReport;
pub use runner::Runner;
pub use scenario::{AdmissionSpec, ChurnSpec, FaultSpec, PolicySpec, Scenario};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use rtmac_mac as mac;
pub use rtmac_model as model;
pub use rtmac_phy as phy;
pub use rtmac_sim as sim;
pub use rtmac_traffic as traffic;
