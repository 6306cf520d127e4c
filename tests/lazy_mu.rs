//! Differential test of DB-DP's lazy, candidate-only Eq. 14 against the
//! dense reference: every link's `eq14_mu` computed up front and handed to
//! `DpEngine::step`.
//!
//! The policy asks the engine for `μ_n` only for the links of the drawn
//! swap pairs. That must change no RNG draw and no decision, so the two
//! sides are stepped side by side from equal seeds and compared on every
//! interval: outcome, drawn candidates, committed swaps and σ.

use std::cell::Cell;

use rand::Rng;
use rtmac::mac::{DpConfig, DpEngine, MacTiming};
use rtmac::model::influence::PaperLog;
use rtmac::model::{DebtLedger, LinkId, Requirements};
use rtmac::phy::channel::Bernoulli;
use rtmac::phy::PhyProfile;
use rtmac::sim::{Nanos, SeedStream};
use rtmac::{eq14_mu, DbDp, TransmissionPolicy};

const R: f64 = 10.0;
const INTERVALS: usize = 150;

fn timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(5), 300)
}

/// Success probabilities spread over (0, 1].
fn mixed_p(n: usize) -> Vec<f64> {
    (0..n)
        .map(|l| 0.25 + 0.75 * ((l * 7 % 11) as f64) / 10.0)
        .collect()
}

/// A ledger whose debts include 0 (requirement 0, so the debt only ever
/// falls), 1e300 (μ saturates at 1 − ε) and a spread in between.
fn mixed_debts(n: usize) -> DebtLedger {
    let q: Vec<f64> = (0..n)
        .map(|l| match l % 5 {
            0 => 0.0,
            1 => 1e300,
            2 => 0.4,
            3 => 2.5,
            _ => 30.0,
        })
        .collect();
    let mut debts = DebtLedger::new(Requirements::new(q).expect("finite, nonnegative q"));
    debts.settle_interval(&vec![0; n]);
    debts
}

fn differential(n: usize, pairs: usize, seed: u64) {
    let p = mixed_p(n);
    let config = DpConfig::new(timing()).with_swap_pairs(pairs);
    let mut lazy = DbDp::new(
        DpEngine::new(config.clone(), n),
        Box::new(PaperLog::default()),
        R,
        p.clone(),
    );
    let mut dense = DpEngine::new(config, n);
    let influence = PaperLog::default();
    let mut debts = mixed_debts(n);

    let seeds = SeedStream::new(seed);
    let (mut rng_lazy, mut rng_dense) = (seeds.rng(2), seeds.rng(2));
    let mut arrival_rng = seeds.rng(1);
    let mut ch_lazy = Bernoulli::new(p.clone()).expect("p in (0, 1]");
    let mut ch_dense = Bernoulli::new(p.clone()).expect("p in (0, 1]");
    let mut arrivals = vec![0u32; n];
    let mut mu = vec![0.0; n];

    for k in 0..INTERVALS {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=3);
        }
        for (l, m) in mu.iter_mut().enumerate() {
            *m = eq14_mu(&influence, R, debts.positive(LinkId::new(l)), p[l]);
        }
        let outcome = lazy.run_interval(&arrivals, &debts, &mut ch_lazy, &mut rng_lazy);
        let reference = dense.step(&arrivals, &mu, &mut ch_dense, &mut rng_dense);
        let engine = lazy.engine();
        let got = engine.last_report();
        let ctx = format!("N = {n}, pairs = {pairs}, interval {k}");
        assert_eq!(outcome, reference.outcome, "outcome, {ctx}");
        assert_eq!(got.outcome, reference.outcome, "report outcome, {ctx}");
        assert_eq!(got.candidates, reference.candidates, "candidates, {ctx}");
        assert_eq!(got.swaps, reference.swaps, "swaps, {ctx}");
        assert_eq!(engine.sigma(), dense.sigma(), "σ, {ctx}");
        debts.settle_interval(&outcome.deliveries);
    }
}

#[test]
fn lazy_mu_matches_dense_eq14_on_every_interval() {
    for n in [2, 3, 20, 1000] {
        for pairs in [0, 1, 3] {
            differential(n, pairs, 2018 + n as u64);
        }
    }
}

/// The lookup runs once per candidate link and never for anyone else.
#[test]
fn lookup_runs_only_for_candidate_links() {
    let n = 1000;
    let mut engine = DpEngine::new(DpConfig::new(timing()).with_swap_pairs(3), n);
    let mut channel = Bernoulli::reliable(n);
    let mut rng = SeedStream::new(7).rng(2);
    let calls = Cell::new(0usize);
    let mu = |_: usize| {
        calls.set(calls.get() + 1);
        0.5
    };
    for _ in 0..50 {
        calls.set(0);
        let report = engine.step_with_mu(&vec![1; n], &mu, &mut channel, &mut rng);
        assert_eq!(report.candidates.len(), 3);
        assert_eq!(calls.get(), 2 * report.candidates.len());
    }
}

/// A non-candidate's value is never computed, so it is never checked.
#[test]
fn lookup_out_of_range_off_candidates_is_never_seen() {
    let mut engine = DpEngine::new(DpConfig::new(timing()).with_swap_pairs(0), 20);
    let mut channel = Bernoulli::reliable(20);
    let mut rng = SeedStream::new(8).rng(2);
    let report = engine.step_with_mu(&[1; 20], &|_| 1.0, &mut channel, &mut rng);
    assert_eq!(report.outcome.total_deliveries(), 20);
}

/// A candidate's out-of-range value is asserted in every build, release
/// included.
#[test]
#[should_panic(expected = "must lie in (0, 1)")]
fn lookup_returning_one_for_a_candidate_panics() {
    // N = 2 with one pair: both links are candidates every interval.
    let mut engine = DpEngine::new(DpConfig::new(timing()), 2);
    let mut channel = Bernoulli::reliable(2);
    let mut rng = SeedStream::new(9).rng(2);
    let _ = engine.step_with_mu(&[1, 1], &|_| 1.0, &mut channel, &mut rng);
}
