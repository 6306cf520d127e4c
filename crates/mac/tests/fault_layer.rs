//! The DP engine's fault layer: degraded-mode Algorithm 2 over per-link
//! priority beliefs.
//!
//! * an empty layer at zero faults, from a bijection, replays the fault-free
//!   engine interval for interval (when every drawn upper candidate's claim
//!   fits before the deadline, so R2 never fires);
//! * sensing faults desynchronize the beliefs and R1/R2 recovery heals them
//!   from any corrupted multiset;
//! * collisions are modeled, not asserted; churn, blocking, hidden
//!   terminals and the adaptive miss limit keep their semantics.

use proptest::prelude::*;
use rand::Rng;
use rtmac_mac::{
    ChurnEvent, DpConfig, DpEngine, FaultStats, MacTiming, RecoveryConfig, TraceEvent,
};
use rtmac_model::LinkId;
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::fault::{BurstSensing, ChurnProcess, ChurnSchedule, FaultModel, HiddenMatrix};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

fn timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
}

fn reliable(n: usize) -> Bernoulli {
    Bernoulli::reliable(n)
}

#[test]
fn zero_faults_identity_beliefs_match_pristine_engine() {
    let n = 5;
    let mut pristine = DpEngine::new(DpConfig::new(timing()).with_trace(true), n);
    let mut faulty = DpEngine::new(DpConfig::new(timing()).with_trace(true), n)
        .with_fault_model(FaultModel::none());
    let mut rng_a = SeedStream::new(42).rng(2);
    let mut rng_b = SeedStream::new(42).rng(2);
    let mut ch_a = reliable(n);
    let mut ch_b = reliable(n);
    let arrivals = [2, 0, 1, 3, 0];
    let mu = [0.4; 5];
    for k in 0..200 {
        let a = pristine.run_interval(&arrivals, &mu, &mut ch_a, &mut rng_a);
        let b = faulty.run_interval(&arrivals, &mu, &mut ch_b, &mut rng_b);
        assert_eq!(a, b, "interval {k} diverged");
        assert_eq!(pristine.sigma().priorities(), faulty.beliefs());
    }
    let s = faulty.stats();
    assert_eq!(s, FaultStats::default());
    assert!(faulty.is_bijective());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_none_fault_is_byte_identical_to_pristine(
        seed in 0u64..1_000,
        n in 2usize..7,
        pairs in 0usize..3,
        p in 0.3f64..1.0,
    ) {
        let cfg = || DpConfig::new(timing()).with_swap_pairs(pairs).with_trace(true);
        let mut pristine = DpEngine::new(cfg(), n);
        let mut faulty = DpEngine::new(cfg(), n).with_fault_model(FaultModel::none());
        let mut rng_a = SeedStream::new(seed).rng(2);
        let mut rng_b = SeedStream::new(seed).rng(2);
        let mut arr_rng = SeedStream::new(seed).rng(1);
        let mut ch_a = Bernoulli::new(vec![p; n]).unwrap();
        let mut ch_b = Bernoulli::new(vec![p; n]).unwrap();
        let mut arrivals = vec![0u32; n];
        let mut mu = vec![0.0f64; n];
        for k in 0..40 {
            for a in arrivals.iter_mut() {
                *a = arr_rng.random_range(0..3);
            }
            for m in mu.iter_mut() {
                *m = arr_rng.random_range(1..100) as f64 / 100.0;
            }
            let a = pristine.run_interval(&arrivals, &mu, &mut ch_a, &mut rng_a);
            let b = faulty.run_interval(&arrivals, &mu, &mut ch_b, &mut rng_b);
            prop_assert_eq!(&a, &b, "interval {} diverged", k);
            prop_assert_eq!(pristine.sigma().priorities(), faulty.beliefs());
        }
        prop_assert_eq!(faulty.stats(), FaultStats::default());
    }

    #[test]
    fn prop_recovery_restores_a_bijection(
        seed in 0u64..1_000,
        n in 2usize..7,
        raw in proptest::collection::vec(1usize..100, 2..7),
    ) {
        // An arbitrary corrupted multiset: duplicates and holes.
        let beliefs: Vec<usize> = (0..n).map(|i| raw[i % raw.len()] % n + 1).collect();
        let mut engine = DpEngine::new(DpConfig::new(timing()), n);
        engine.set_beliefs(beliefs);
        let mut rng = SeedStream::new(seed).rng(2);
        let mut channel = reliable(n);
        let arrivals = vec![1u32; n];
        let mu = vec![0.5f64; n];
        let mut healed_at = None;
        const BOUND: u64 = 1500;
        for k in 0..BOUND {
            let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
            if engine.is_bijective() {
                healed_at = Some(k);
                break;
            }
        }
        prop_assert!(
            healed_at.is_some(),
            "beliefs {:?} never reconverged within {} intervals",
            engine.beliefs(), BOUND
        );
        // And bijectivity is absorbing without faults: it never breaks
        // again.
        for _ in 0..20 {
            let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
            prop_assert!(engine.is_bijective());
        }
    }
}

#[test]
fn sensing_faults_diverge_and_recovery_heals() {
    let n = 4;
    let mut engine = DpEngine::new(DpConfig::new(timing()).with_trace(true), n)
        .with_fault_model(FaultModel::symmetric(0.3, SeedStream::new(5).rng(3)));
    let mut rng = SeedStream::new(5).rng(2);
    let mut channel = reliable(n);
    let arrivals = [1u32; 4];
    let mu = [0.5f64; 4];
    let mut saw_divergence = false;
    for _ in 0..300 {
        let report = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
        saw_divergence |= report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Divergence { .. }));
    }
    assert!(saw_divergence, "eps = 0.3 must desynchronize the views");
    let stats = engine.stats();
    assert!(stats.divergences > 0);
    assert!(stats.sensing_flips > 0);
    assert!(stats.desync_intervals > 0);
    // Switch the faults off: recovery must re-establish the bijection
    // and hold it.
    engine.set_fault_model(FaultModel::none());
    let mut healed = false;
    for _ in 0..400 {
        let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
        if engine.is_bijective() {
            healed = true;
            break;
        }
    }
    assert!(healed, "recovery must reconverge once faults stop");
    let after = engine.stats();
    assert!(after.reconvergences > 0);
    assert!(after.mean_time_to_reconverge().is_some());
    // Flip counts from the replaced model were preserved: the none()
    // model injects nothing, so the count is frozen where it stood.
    assert_eq!(after.sensing_flips, stats.sensing_flips);
}

#[test]
fn disabled_recovery_never_reconverges_from_a_duplicate() {
    // Both links believe they hold priority 1: without the fallback
    // rule they collide forever and the multiset stays corrupted.
    let n = 2;
    let mut engine =
        DpEngine::new(DpConfig::new(timing()), n).with_recovery(RecoveryConfig::disabled());
    engine.set_beliefs(vec![1, 1]);
    let mut rng = SeedStream::new(11).rng(2);
    let mut channel = reliable(n);
    for _ in 0..300 {
        let report = engine.run_interval(&[1, 1], &[0.5, 0.5], &mut channel, &mut rng);
        assert!(!engine.is_bijective());
        let _ = report;
    }
    assert_eq!(engine.stats().fallbacks, 0);
    assert_eq!(engine.stats().reconvergences, 0);

    // The identical run with recovery enabled heals.
    let mut engine = DpEngine::new(DpConfig::new(timing()), n);
    engine.set_beliefs(vec![1, 1]);
    let mut rng = SeedStream::new(11).rng(2);
    let mut channel = reliable(n);
    let mut healed = false;
    for _ in 0..300 {
        let _ = engine.run_interval(&[1, 1], &[0.5, 0.5], &mut channel, &mut rng);
        if engine.is_bijective() {
            healed = true;
            break;
        }
    }
    assert!(healed, "default recovery must fix the duplicate");
}

#[test]
fn collisions_are_modeled_not_asserted() {
    // Two links in the same backoff slot transmit, both fail, and the
    // medium is busy for one airtime — no debug assertion fires.
    let n = 3;
    let mut engine = DpEngine::new(DpConfig::new(timing()).with_trace(true), n)
        .with_recovery(RecoveryConfig::disabled());
    engine.set_beliefs(vec![2, 2, 3]); // hole at 1, duplicate at 2
    let mut rng = SeedStream::new(3).rng(2);
    let mut channel = reliable(n);
    // No candidates: the duplicate pair shares β = 1 deterministically.
    let report = engine.step_with_candidates(&[1, 1, 1], &[0.5; 3], &[], &mut channel, &mut rng);
    assert_eq!(report.outcome.collisions, 1, "one collision episode");
    assert_eq!(report.outcome.deliveries[0], 0);
    assert_eq!(report.outcome.deliveries[1], 0);
    assert_eq!(report.outcome.deliveries[2], 1, "link 2 is unaffected");
    assert_eq!(report.outcome.attempts[0], 1);
    assert_eq!(report.outcome.attempts[1], 1);
    let collided_ends: Vec<_> = report
        .trace
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::TxEnd {
                    delivered: false,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(collided_ends.len(), 2, "both colliding frames are lost");
}

#[test]
fn collision_fallback_sends_both_duplicates_to_the_bottom() {
    let n = 3;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n);
    engine.set_beliefs(vec![2, 2, 3]);
    let mut rng = SeedStream::new(3).rng(2);
    let mut channel = reliable(n);
    let _ = engine.step_with_candidates(&[1, 1, 1], &[0.5; 3], &[], &mut channel, &mut rng);
    // R1: both colliding links fall back to the lowest priority N = 3.
    assert_eq!(engine.beliefs()[0], 3);
    assert_eq!(engine.beliefs()[1], 3);
    assert_eq!(engine.stats().fallbacks, 2);
}

#[test]
fn miss_fallback_fires_after_the_limit() {
    // Link 0 (belief 1) is crashed, so the lo side of pair C = 1 never
    // hears the adjacent claim; with μ ≈ 0 it never moves up either and
    // must fall back after exactly `miss_limit` eligible intervals.
    let n = 3;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n)
        .with_churn_process(ChurnProcess::new(n).with_event(ChurnSchedule::new(
            LinkId::new(0),
            0,
            100,
        )))
        .with_recovery(RecoveryConfig::new().with_miss_limit(3));
    let mut rng = SeedStream::new(8).rng(2);
    let mut channel = reliable(n);
    let mu = [1e-9; 3];
    for k in 0..3 {
        assert_eq!(engine.beliefs()[1], 2, "no fallback before interval {k}");
        let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
    }
    assert_eq!(engine.beliefs()[1], 3, "R2 fallback after 3 misses");
    assert_eq!(engine.stats().fallbacks, 1);
    // The crashed link's belief is frozen (stale σ).
    assert_eq!(engine.beliefs()[0], 1);
}

#[test]
fn churn_crash_and_revive_with_stale_belief() {
    let n = 4;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n).with_churn_process(
        ChurnProcess::new(n).with_event(ChurnSchedule::new(LinkId::new(2), 5, 10)),
    );
    let mut rng = SeedStream::new(21).rng(2);
    let mut channel = reliable(n);
    let arrivals = [1u32; 4];
    let mu = [0.5f64; 4];
    let mut down_deliveries = 0u64;
    let mut live_deliveries = 0u64;
    for k in 0..5 {
        let r = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
        assert_eq!(r.outcome.total_deliveries(), 4, "all up in interval {k}");
    }
    for _ in 5..15 {
        let r = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
        down_deliveries += r.outcome.deliveries[2];
        live_deliveries += r.outcome.total_deliveries();
    }
    assert_eq!(down_deliveries, 0, "a crashed link never transmits");
    // The other three links keep delivering around the hole (a stray
    // recovery collision may cost the odd packet, not the service).
    assert!(
        live_deliveries >= 25,
        "live links must keep working through the crash, got {live_deliveries}/30"
    );
    // After revival the link rejoins with whatever belief it held; the
    // run continues without panicking and reconverges to a bijection.
    let mut healed = false;
    for _ in 15..300 {
        let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
        if engine.is_bijective() {
            healed = true;
        }
    }
    assert!(healed, "network heals after the churn event");
}

#[test]
fn crashed_only_transmitter_leaves_the_boundary_idle() {
    // Regression for the empty-transmitter boundary: when the only
    // link that would have claimed a slot is crashed, the boundary is
    // an idle slot — `Medium::transmit` is never handed an empty
    // airtime slice and nothing panics.
    let n = 2;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n).with_churn_process(
        ChurnProcess::new(n).with_event(ChurnSchedule::new(LinkId::new(0), 0, 5)),
    );
    let mut rng = SeedStream::new(2).rng(2);
    let mut channel = reliable(n);
    // Only the crashed link has traffic.
    let report = engine.step_with_candidates(&[3, 0], &[0.5, 0.5], &[], &mut channel, &mut rng);
    assert_eq!(report.outcome.total_attempts(), 0);
    assert_eq!(report.outcome.collisions, 0);
    assert_eq!(report.outcome.busy_time, Nanos::ZERO);
}

#[test]
fn divergence_counter_matches_trace_events() {
    let n = 4;
    let mut engine = DpEngine::new(DpConfig::new(timing()).with_trace(true), n)
        .with_fault_model(FaultModel::symmetric(0.4, SeedStream::new(13).rng(3)));
    let mut rng = SeedStream::new(13).rng(2);
    let mut channel = reliable(n);
    let mut traced = 0u64;
    for _ in 0..200 {
        let report = engine.run_interval(&[1; 4], &[0.5; 4], &mut channel, &mut rng);
        traced += report
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Divergence { .. }))
            .count() as u64;
    }
    assert_eq!(engine.stats().divergences, traced);
    assert!(traced > 0);
}

#[test]
#[should_panic(expected = "belief 5 of link 0 outside")]
fn set_beliefs_rejects_out_of_range() {
    let mut engine = DpEngine::new(DpConfig::new(timing()), 4);
    engine.set_beliefs(vec![5, 1, 2, 3]);
}

#[test]
fn adaptive_miss_limit_scales_and_backs_off() {
    // N = 3 ⇒ initial limit max(base = 1, ⌈log₂ 4⌉ = 2) = 2. With link
    // 0 crashed the lo side of pair C = 1 never hears the adjacent
    // claim: the first fallback fires after 2 misses, doubles the
    // link's personal limit to 4, and the next epoch takes 4 misses.
    let n = 3;
    let recovery = RecoveryConfig::new().with_adaptive_miss_limit(1, 8);
    assert_eq!(recovery.initial_miss_limit(n), 2);
    let mut engine = DpEngine::new(DpConfig::new(timing()), n)
        .with_churn_process(ChurnProcess::new(n).with_event(ChurnSchedule::new(
            LinkId::new(0),
            0,
            1000,
        )))
        .with_recovery(recovery);
    let mut rng = SeedStream::new(8).rng(2);
    let mut channel = reliable(n);
    let mu = [1e-9; 3];
    for k in 0..2 {
        assert_eq!(engine.beliefs()[1], 2, "no fallback before interval {k}");
        let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
    }
    assert_eq!(engine.beliefs()[1], 3, "adaptive R2 fires after 2 misses");
    assert_eq!(engine.r2_limits()[1], 4, "limit doubled after the fire");
    // Second epoch: restore the belief and watch the backed-off limit
    // tolerate twice as many silent intervals.
    engine.set_beliefs(vec![1, 2, 3]);
    for k in 0..4 {
        assert_eq!(engine.beliefs()[1], 2, "no second fallback before miss {k}");
        let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
    }
    assert_eq!(engine.beliefs()[1], 3, "second fire after 4 misses");
    assert_eq!(engine.r2_limits()[1], 8, "limit doubled again, at the cap");
    assert_eq!(engine.stats().fallbacks, 2);
}

#[test]
fn adaptive_limit_decays_when_claims_are_heard_again() {
    // Drive the limit up with a crashed upper neighbor, then revive it:
    // every heard claim halves the limit back toward the initial value.
    let n = 3;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n)
        .with_churn_process(ChurnProcess::new(n).with_event(ChurnSchedule::new(
            LinkId::new(0),
            0,
            10,
        )))
        .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(1, 16));
    let mut rng = SeedStream::new(8).rng(2);
    let mut channel = reliable(n);
    let mu = [1e-9; 3];
    for _ in 0..10 {
        let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
        if engine.beliefs()[1] != 2 {
            engine.set_beliefs(vec![1, 2, 3]); // re-arm the lo side after each fire
        }
    }
    assert!(engine.r2_limits()[1] > 2, "fires backed the limit off");
    // Upper neighbor is back: its claims now reset and decay the limit.
    for _ in 10..20 {
        let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
    }
    assert_eq!(
        engine.r2_limits()[1],
        2,
        "heard claims decay the limit back to the initial value"
    );
}

#[test]
fn hidden_terminal_starves_r2_despite_live_claims() {
    // Link 0 transmits a clean claim at priority 1 every interval. A
    // listener that hears it never falls back; the same listener with
    // link 0 in its hidden set is deaf to the claims and R2 fires.
    let run = |hidden: Option<HiddenMatrix>| {
        let mut engine =
            DpEngine::new(DpConfig::new(timing()), 3).with_fault_model(FaultModel::none());
        if let Some(h) = hidden {
            engine = engine.with_hidden(h);
        }
        let mut rng = SeedStream::new(8).rng(2);
        let mut channel = reliable(3);
        let mu = [1e-9; 3];
        let mut fell_back_at = None;
        for k in 0..20 {
            let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
            if fell_back_at.is_none() && engine.beliefs()[1] != 2 {
                fell_back_at = Some(k);
            }
        }
        fell_back_at
    };
    assert_eq!(run(None), None, "heard claims keep the lo side in place");
    let deaf = run(Some(HiddenMatrix::new(3).with_hidden(1, 0)));
    assert_eq!(
        deaf,
        Some(2),
        "a hidden upper neighbor looks crashed: R2 fires after 3 misses"
    );
}

#[test]
fn churn_events_are_drained_with_edges() {
    let n = 4;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n).with_churn_process(
        ChurnProcess::new(n).with_event(ChurnSchedule::new(LinkId::new(2), 2, 3)),
    );
    let mut rng = SeedStream::new(21).rng(2);
    let mut channel = reliable(n);
    let mut events = Vec::new();
    for _ in 0..8 {
        let _ = engine.run_interval(&[1; 4], &[0.5; 4], &mut channel, &mut rng);
    }
    engine.drain_churn_events(&mut events);
    assert_eq!(
        events,
        [
            ChurnEvent {
                link: 2,
                up: false,
                interval: 2
            },
            ChurnEvent {
                link: 2,
                up: true,
                interval: 5
            },
        ]
    );
    // Draining empties the queue.
    events.clear();
    engine.drain_churn_events(&mut events);
    assert!(events.is_empty());
}

#[test]
fn blocked_link_behaves_like_a_crashed_one() {
    let n = 3;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n);
    engine.set_blocked(0, true);
    let mut rng = SeedStream::new(4).rng(2);
    let mut channel = reliable(n);
    for _ in 0..10 {
        let r = engine.run_interval(&[1; 3], &[0.5; 3], &mut channel, &mut rng);
        assert_eq!(r.outcome.deliveries[0], 0, "a blocked link never sends");
        assert_eq!(r.outcome.attempts[0], 0);
    }
    // Unblocking re-admits it through the normal claim mechanism.
    engine.set_blocked(0, false);
    let mut delivered = 0;
    for _ in 0..50 {
        let r = engine.run_interval(&[1; 3], &[0.5; 3], &mut channel, &mut rng);
        delivered += r.outcome.deliveries[0];
    }
    assert!(delivered > 0, "unblocked link resumes service");
}

#[test]
fn poisson_churn_and_bursty_sensing_survive_at_engine_level() {
    let n = 6;
    let mut engine = DpEngine::new(DpConfig::new(timing()), n)
        .with_fault_model(
            FaultModel::symmetric(0.02, SeedStream::new(31).rng(3)).with_burst(
                n,
                BurstSensing::new(0.05, 0.2, 0.4, 0.4),
                SeedStream::new(31).rng(5),
            ),
        )
        .with_churn_process(ChurnProcess::new(n).with_poisson(
            0.01,
            8.0,
            SeedStream::new(31).rng(4),
        ))
        .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(2, 32));
    let mut rng = SeedStream::new(31).rng(2);
    let mut channel = reliable(n);
    for _ in 0..600 {
        let _ = engine.run_interval(&[1; 6], &[0.4; 6], &mut channel, &mut rng);
        assert!(engine.beliefs().iter().all(|&b| (1..=n).contains(&b)));
    }
    let mid = engine.stats();
    assert!(mid.sensing_flips > 0, "bursty model must flip");
    assert!(mid.divergences > 0, "bursty sensing must desynchronize");
    assert!(
        engine
            .churn_process()
            .is_some_and(|c| c.poisson_crashes() > 0),
        "poisson churn must crash links"
    );
    // Stop injecting sensing errors: self-stabilization must close the
    // open desync epoch even while Poisson churn keeps running.
    engine.set_fault_model(FaultModel::none());
    let mut healed = false;
    for _ in 0..2000 {
        let _ = engine.run_interval(&[1; 6], &[0.4; 6], &mut channel, &mut rng);
        if engine.is_bijective() {
            healed = true;
            break;
        }
    }
    assert!(healed, "recovery heals once the sensing noise stops");
    let stats = engine.stats();
    // The histogram partitions exactly the completed recoveries.
    assert!(stats.reconvergences > 0);
    assert_eq!(
        stats.reconverge_hist.iter().sum::<u64>(),
        stats.reconvergences
    );
}

#[test]
fn equal_rate_burst_engine_is_byte_identical_to_iid_engine() {
    // Engine-level reduction: the GE model with bad rates equal to the
    // base rates replays the i.i.d. run draw-for-draw, including the
    // per-interval begin_interval() advancement.
    let n = 4;
    let eps = 0.1;
    let run = |bursty: bool| {
        let mut fault = FaultModel::symmetric(eps, SeedStream::new(12).rng(3));
        if bursty {
            fault = fault.with_burst(
                n,
                BurstSensing::new(0.2, 0.5, eps, eps),
                SeedStream::new(12).rng(5),
            );
        }
        let mut engine = DpEngine::new(DpConfig::new(timing()), n).with_fault_model(fault);
        let mut rng = SeedStream::new(12).rng(2);
        let mut channel = reliable(n);
        let mut reports = Vec::new();
        for _ in 0..120 {
            reports.push(engine.run_interval(&[1; 4], &[0.5; 4], &mut channel, &mut rng));
        }
        (reports, engine.beliefs().to_vec())
    };
    assert_eq!(run(true), run(false));
}
