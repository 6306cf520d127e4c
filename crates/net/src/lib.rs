//! # rtmac-net
//!
//! Runs the DP protocol over a real transport instead of the in-process
//! simulator — and proves, byte for byte, that nothing changed.
//!
//! The deterministic engine behind [`rtmac::Network`] decides everything a
//! link does from the shared scenario, the shared seed, and the claims it
//! hears. This crate lifts that engine behind the [`Transport`] trait and
//! runs one [`LinkNode`] per link as a *deterministic lockstep replica*:
//! every node steps an identical `Network` replica and broadcasts one
//! versioned, length-prefixed [`Frame`] per interval (claim / busy / idle,
//! carrying the interval index, the link's priority rank, and a debt-state
//! digest). Received frames are cross-checked against the local replica —
//! any divergence is detected as a [`NetError::Desync`] — and the ordered
//! stream of decoded frames forms the **decision trace**, fingerprinted
//! with the same FNV-1a scheme as the DP engine's fingerprint suite.
//!
//! ## The replay contract
//!
//! The same scenario and seed must produce the same decision-trace
//! fingerprint on every backend:
//!
//! * [`sim_trace`] — the pure simulator, no transport at all;
//! * [`LoopbackHub`] — in-memory channels carrying encoded frames;
//! * [`UdpTransport`] — real UDP sockets, one per link.
//!
//! The emulation harness ([`run_emulation`], [`run_emulation_processes`])
//! checks the contract on every run, and `rtmac emulate` is its front
//! end. What is allowed to differ across backends is wall-clock timing
//! only — the harness measures it and reports per-node deadline-miss rates
//! next to the usual [`rtmac::RunReport`]. DESIGN.md §15 spells out the
//! full contract and the wire format.
//!
//! ## Entry points
//!
//! * [`run_emulation`] — spawn every link of a scenario on one box
//!   (threads over loopback or UDP), check each against the sim, and
//!   collect an [`EmulationReport`].
//! * [`netd`] — the `rtmac-netd` daemon: one OS process per link,
//!   exchanging frames over UDP. [`run_emulation_processes`] launches a
//!   whole fleet of them and checks and folds their reports the same way.
//! * [`scenario_file`] — the deployment config format: a scenario as a
//!   plain-text `key = value` file that `rtmac-netd --scenario` loads.
//!
//! ```
//! use rtmac_net::{run_emulation, sim_trace, NodeConfig, TransportKind};
//!
//! let sc = rtmac::scenario::by_name("tiny").unwrap();
//! let cfg = NodeConfig::new(sc.clone(), 20);
//! let report = run_emulation(&cfg, TransportKind::Loopback).unwrap();
//! assert_eq!(report.links, 3);
//! assert_eq!(report.run.intervals, 20);
//! // The replay contract: every node matched the transport-free sim.
//! assert_eq!(report.fingerprint, sim_trace(&sc, 20).unwrap().fingerprint);
//! ```

pub mod emul;
pub mod frame;
pub mod netd;
pub mod node;
pub mod scenario_file;
pub mod sim;
pub mod trace;
pub mod transport;
pub mod udp;

mod error;

pub use emul::{
    default_netd_path, run_emulation, run_emulation_processes, EmulationReport, TransportKind,
};
pub use error::NetError;
pub use frame::{Activity, Beacon, CodecError, Frame, FrameKind};
pub use node::{LinkNode, NodeConfig, NodeReport};
pub use sim::{link_frame, scenario_digest, sim_trace, SimTrace};
pub use trace::{fnv1a, state_digest, DecisionTrace, FNV_OFFSET, FNV_PRIME};
pub use transport::{LoopbackHub, Transport};
pub use udp::UdpTransport;
