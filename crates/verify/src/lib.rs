//! Bounded exhaustive model checking of the DP protocol core.
//!
//! The DP protocol's value proposition (Algorithm 2 of the paper) is that
//! it is *provably* collision-free and keeps the priority vector σ a
//! permutation while reordering it one adjacent swap at a time. The
//! simulation crates spot-check those properties on sampled seeds; this
//! crate certifies them **exhaustively** for small configurations by
//! enumerating every protocol decision the engine can face:
//!
//! * every reachable priority permutation σ (DFS over the permutohedron,
//!   visited set indexed by [`rtmac_model::Permutation::rank`]),
//! * every arrival pattern with up to `A_max` packets per link,
//! * every drawn swap-candidate pair `C(k)`,
//! * every coin-flip vector ξ (via
//!   [`rtmac_mac::DpEngine::step_with_coins`]),
//! * every per-attempt channel outcome (via [`BitScript`], a scripted
//!   [`rtmac_phy::channel::LossModel`] that branches each success bit).
//!
//! On every enumerated interval the checker asserts the paper's safety
//! properties ([`Property`]): collision-freedom, σ stays a bijection, at
//! most one adjacent swap per drawn pair and only at the drawn pair,
//! empty priority-claim packets from candidates without arrivals, the
//! debt recursion `d_n(k+1) = d_n(k) − S_n(k) + q_n` bit-for-bit, and
//! channel-log consistency. A violation is returned as a replayable
//! [`Counterexample`]: an interval-by-interval decision log from the
//! identity permutation to the failing state that [`replay`] can re-run
//! against any [`Subject`] — the regression harness in
//! `crates/verify/tests` replays them against both the real engine and
//! intentionally faulty mutants.
//!
//! Exhaustive enumeration stops being tractable around N = 4, so the
//! crate scales past it along two axes:
//!
//! * **Symmetry reduction** ([`check_with_symmetry`]): the engine treats
//!   equally-provisioned links interchangeably, so the σ-DFS is
//!   quotiented by link relabeling and only one canonical representative
//!   per orbit is explored — on a homogeneous network all `N!` states
//!   collapse into a single orbit, which carries the full suite to N = 5.
//! * **Statistical model checking** ([`smc()`]): a seeded Monte-Carlo
//!   explorer samples full decision trajectories at N ∈ {10, 20} on the
//!   `rtmac` core crate's worker pool and reports exact Clopper–Pearson
//!   confidence bounds ([`clopper_pearson`]) per property, with the same
//!   replayable counterexample traces on violation.
//!
//! The `rtmac-verify` binary wires this into CI (`--quick` gates every
//! push next to `rtmac-lint`; an `smc` smoke run guards the statistical
//! path; a `fault-smoke` run ([`fault_smoke()`]) pins σ-liveness and
//! reconvergence of the degraded engine at a correlated-fault corner).

pub mod channel;
pub mod checker;
pub mod counterexample;
pub mod fault_smoke;
pub mod smc;
pub mod subject;
pub mod symmetry;

pub use channel::BitScript;
pub use checker::{check, full_suite, quick_suite, CheckConfig, CheckStats, Property, SuiteEntry};
pub use counterexample::{replay, Counterexample, Step};
pub use fault_smoke::{fault_smoke, FaultSmokeConfig, FaultSmokeReport};
pub use smc::{
    clopper_pearson, smc, LivenessProbe, PropertyBound, SmcConfig, SmcReport, LIVENESS_MIN_DRAWS,
};
pub use subject::{EngineSubject, Subject};
pub use symmetry::{check_with_symmetry, LinkClasses};
