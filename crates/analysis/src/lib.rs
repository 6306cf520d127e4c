//! # rtmac-analysis
//!
//! Exact analysis tools for the DP priority protocol and the paper's
//! theoretical claims:
//!
//! * [`markov`] — the priority permutation Markov chain `{σ(k)}`: its
//!   `N!×N!` transition matrix (Eq. 9), numeric stationary distribution,
//!   the closed-form product distribution of Proposition 2 (Eqs. 10–12),
//!   detailed-balance/irreducibility/aperiodicity checks, and
//!   total-variation mixing diagnostics. Also an empirical-distribution
//!   sampler that runs the *actual* `DpEngine` and compares.
//! * [`feasibility`] — admission tools: the workload necessary condition
//!   `Σ q_n / p_n ≤ T/airtime`, and an LDF-based bisection search for the
//!   boundary of the feasible region (the "maximum admissible α*" the
//!   paper reads off Fig. 3).
//! * [`optimal`] — an exact finite-horizon dynamic program over *all*
//!   scheduling policies for small instances, used to verify Lemma 3: the
//!   ELDF priority ordering maximizes the expected debt-weighted deliveries
//!   `E[Σ f(d⁺)·S]` in every interval.

pub mod drift;
pub mod feasibility;
pub mod markov;
pub mod optimal;
