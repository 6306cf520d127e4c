//! # rtmac-benchmark
//!
//! The end-to-end benchmark of the rtmac workspace: five named workloads
//! that reach `Network::step` the ways users do — one network stepped
//! directly, a parallel figure sweep, and a deployed lockstep node — with
//! every output checked, every metric printed with its unit, sample count
//! and spread, and a traced run that times each layer from the outside.
//! `benchmark/README.md` has the metric and workload tables and how to
//! run, trace and record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod emulate;
pub mod json;
pub mod mirror;
pub mod output;
pub mod script;
pub mod sim;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod workloads;
