//! Mutation testing of the checker itself: deliberately faulty subjects
//! must be caught, and every counterexample must be a replayable trace
//! that (a) reproduces the violation on a fresh faulty subject and
//! (b) passes cleanly on the real engine.

mod common;

use common::{Fault, FaultySubject, FrozenSigmaSubject};
use rtmac_mac::{DpConfig, DpEngine, MacTiming, RecoveryConfig};
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};
use rtmac_verify::{
    check, check_with_symmetry, replay, CheckConfig, Counterexample, EngineSubject, LinkClasses,
    Property,
};

/// Runs the full conviction pipeline for one fault: the checker catches
/// it, the trace round-trips through text, replays against a fresh
/// faulty subject to the same property, and is clean on the real engine.
fn convict(fault: Fault) {
    let cfg = fault.config();
    let mut subject = FaultySubject::for_config(&cfg, fault);
    let ce = check(&mut subject, &cfg).expect_err("the seeded fault must be caught");
    assert_eq!(
        ce.property,
        fault.expected_property(),
        "{fault:?} convicted under the wrong property: {}",
        ce.detail
    );
    assert!(
        !ce.steps.is_empty(),
        "a counterexample needs at least one step"
    );

    // The quotiented checker reaches the same verdict: symmetry reduction
    // must not mask a fault the plain DFS catches.
    let mut quotient = FaultySubject::for_config(&cfg, fault);
    let sym_ce = check_with_symmetry(&mut quotient, &cfg, &LinkClasses::homogeneous(cfg.n))
        .expect_err("the symmetry-reduced checker must also convict");
    assert_eq!(
        sym_ce.property, ce.property,
        "quotient verdict diverged for {fault:?}"
    );

    // The printed trace round-trips.
    let decoded = Counterexample::decode(&ce.encode()).expect("trace must parse back");
    assert_eq!(decoded, *ce);

    // Replay on a fresh faulty subject reproduces the same violation.
    let mut fresh = FaultySubject::for_config(&cfg, fault);
    let found =
        replay(&mut fresh, &decoded).expect_err("the trace must reproduce on the faulty subject");
    assert_eq!(found.property, ce.property);
    assert_eq!(
        found.steps.len(),
        ce.steps.len(),
        "must fail at the recorded step"
    );

    // The same trace is clean on the real engine: the fault is in the
    // mutant, not the protocol.
    let mut clean = EngineSubject::new(cfg.timing(), cfg.n);
    replay(&mut clean, &decoded).expect("the real engine must pass the trace");
}

#[test]
fn frozen_sigma_breaks_liveness() {
    let cfg = CheckConfig::new(2, 1);
    let mut subject = FrozenSigmaSubject::new(cfg.timing(), cfg.n);
    let ce = check(&mut subject, &cfg).expect_err("a frozen σ must be convicted");
    assert_eq!(ce.property, Property::SigmaLiveness, "{}", ce.detail);
    assert!(
        ce.detail.contains("unreachable"),
        "only the identity ordering is reachable: {}",
        ce.detail
    );
    // Liveness counterexamples have no failing step (the violation is the
    // absence of transitions) but still round-trip through the text format.
    assert!(ce.steps.is_empty());
    let decoded = Counterexample::decode(&ce.encode()).expect("trace must parse back");
    assert_eq!(decoded, *ce);
    // The real engine's reordering is live under the same configuration.
    let mut clean = EngineSubject::new(cfg.timing(), cfg.n);
    check(&mut clean, &cfg).expect("the real engine reaches every ordering");
}

#[test]
fn frozen_sigma_breaks_quotient_liveness() {
    // Under the quotient all states share one orbit, so orbit coverage
    // alone cannot see the freeze — the generator-coverage half of the
    // quotient liveness argument must convict instead.
    let cfg = CheckConfig::new(3, 1);
    let mut subject = FrozenSigmaSubject::new(cfg.timing(), cfg.n);
    let ce = check_with_symmetry(&mut subject, &cfg, &LinkClasses::homogeneous(cfg.n))
        .expect_err("a frozen σ must be convicted in the quotient too");
    assert_eq!(ce.property, Property::SigmaLiveness, "{}", ce.detail);
}

/// The recovery mutant of the degraded engine: a link that never falls
/// back to the lowest priority. Conviction is behavioral — from a
/// corrupted (non-bijective) belief multiset, the self-stabilizing rule
/// must restore a bijection while the mutant provably never does.
#[test]
fn recovery_mutant_that_never_falls_back_is_convicted() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let reconverged_at = |recovery: RecoveryConfig| -> Option<usize> {
        let mut engine = DpEngine::new(DpConfig::new(timing.clone()), 2).with_recovery(recovery);
        engine.set_beliefs(vec![1, 1]); // duplicate priority beliefs
        let mut channel = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(7).rng(0);
        for k in 0..400 {
            engine.run_interval(&[1, 1], &[0.5, 0.5], &mut channel, &mut rng);
            if engine.is_bijective() {
                return Some(k);
            }
        }
        None
    };
    assert!(
        reconverged_at(RecoveryConfig::new()).is_some(),
        "self-stabilization must heal the duplicate"
    );
    assert_eq!(
        reconverged_at(RecoveryConfig::disabled()),
        None,
        "with fallback disabled the duplicate must persist forever"
    );
}

#[test]
fn phantom_collision_is_caught() {
    convict(Fault::PhantomCollision);
}

#[test]
fn double_counted_delivery_is_caught() {
    convict(Fault::DoubleCount);
}

#[test]
fn silent_sigma_mutation_is_caught() {
    convict(Fault::SilentSwap);
}

#[test]
fn rogue_undrawn_swap_is_caught() {
    convict(Fault::RogueSwap);
}

#[test]
fn suppressed_claim_trace_is_caught() {
    convict(Fault::SuppressClaimTrace);
}
