//! End-to-end integration tests: full networks (traffic → policy → PHY →
//! debts) exercised through the public API, comparing the paper's
//! algorithms on feasible and infeasible workloads. Every network is
//! constructed through the [`Scenario`] layer.

use rtmac::scenario::{self, Param};
use rtmac::{PolicySpec, Scenario};

fn run(sc: Scenario, intervals: usize) -> rtmac::RunReport {
    sc.with_intervals(intervals).run().unwrap()
}

/// On a comfortably feasible workload every debt-aware policy fulfills the
/// requirement: total deficiency dies out.
#[test]
fn feasible_workload_is_fulfilled_by_all_debt_aware_policies() {
    for policy in scenario::CONTENDERS {
        let report = run(scenario::control(6, 0.6, 0.9, 1).with_policy(policy), 3000);
        assert!(
            report.final_total_deficiency < 0.05,
            "{} left deficiency {}",
            policy.label(),
            report.final_total_deficiency
        );
    }
}

/// On a clearly infeasible workload (utilization far above capacity) every
/// policy shows a persistent deficiency — fulfillment is impossible, not a
/// policy defect.
#[test]
fn infeasible_workload_shows_persistent_deficiency() {
    // 20 links each wanting 0.99 of one packet per interval over p = 0.7
    // needs ~28 expected attempts; the 2 ms / 100 B budget is 16.
    for policy in scenario::CONTENDERS {
        let report = run(
            scenario::control(20, 1.0, 0.99, 2).with_policy(policy),
            1500,
        );
        assert!(
            report.final_total_deficiency > 1.0,
            "{} reported deficiency {} on an infeasible load",
            policy.label(),
            report.final_total_deficiency
        );
    }
}

/// DB-DP tracks the centralized LDF reference closely (the paper's
/// headline result), and both dominate FCSMA at loads near capacity.
#[test]
fn db_dp_tracks_ldf_and_beats_fcsma_near_capacity() {
    let run = |policy| {
        run(scenario::video(20, 0.5, 0.9, 3).with_policy(policy), 4000).final_total_deficiency
    };
    let db_dp = run(PolicySpec::db_dp());
    let ldf = run(PolicySpec::Ldf);
    let fcsma = run(PolicySpec::Fcsma);
    assert!(db_dp < 0.2, "DB-DP deficiency {db_dp}");
    assert!(ldf < 0.2, "LDF deficiency {ldf}");
    assert!(
        fcsma > db_dp + 1.0,
        "FCSMA ({fcsma}) should clearly trail DB-DP ({db_dp}) at alpha* = 0.5"
    );
}

/// The paper's Section-I claim about frame-based CSMA [23]: feasibility-
/// optimal with reliable channels, but suboptimal with unreliable ones
/// because per-frame schedules cannot adapt to losses. DB-DP fulfills a
/// load that Frame-CSMA cannot.
#[test]
fn frame_csma_is_suboptimal_under_unreliable_channels() {
    let run = |policy, p: f64| {
        let mut sc = scenario::control(8, 0.9, 0.95, 14).with_policy(policy);
        sc.success = Param::Uniform(p);
        run(sc, 2500).final_total_deficiency
    };
    // Reliable channel: both fulfill.
    assert!(run(PolicySpec::frame_csma(), 1.0) < 0.05);
    assert!(run(PolicySpec::db_dp(), 1.0) < 0.05);
    // Unreliable channel at a load DB-DP still fulfills:
    let db_dp = run(PolicySpec::db_dp(), 0.6);
    let frame = run(PolicySpec::frame_csma(), 0.6);
    assert!(db_dp < 0.1, "DB-DP deficiency {db_dp}");
    assert!(
        frame > db_dp + 0.5,
        "Frame-CSMA ({frame}) must clearly trail DB-DP ({db_dp})"
    );
}

/// The whole pipeline is deterministic: same scenario, same report.
#[test]
fn runs_are_reproducible() {
    let run = || {
        let report = run(
            scenario::video(8, 0.5, 0.9, 99).with_policy(PolicySpec::db_dp()),
            300,
        );
        (
            report.per_link_throughput.clone(),
            report.deficiency.as_slice().to_vec(),
            report.empty_packets,
        )
    };
    assert_eq!(run(), run());
}

/// A scenario's `engine` field is inert data: `Batched` (the spelling the
/// benchmark workloads use) and `Timeline` give byte-identical
/// [`RunReport`]s, and `Batched` no longer refuses other policies or fault
/// injection, because there is one fault-free DP engine.
#[test]
fn batched_engine_report_is_identical_to_timeline() {
    use rtmac::scenario::EngineSpec;

    let with_engine = |sc: Scenario, engine| Scenario { engine, ..sc };
    let faulty = |sc: Scenario| Scenario {
        fault: Some(rtmac::scenario::FaultSpec::sensing(0.05)),
        ..sc
    };
    for (links, seed) in [(4usize, 11u64), (12, 23), (20, 99)] {
        for base in [
            scenario::video(links, 0.5, 0.9, seed).with_policy(PolicySpec::db_dp()),
            scenario::video(links, 0.5, 0.9, seed).with_policy(PolicySpec::Ldf),
            faulty(scenario::video(links, 0.5, 0.9, seed).with_policy(PolicySpec::db_dp())),
        ] {
            let timeline = run(with_engine(base.clone(), EngineSpec::Timeline), 400);
            let batched = run(with_engine(base, EngineSpec::Batched), 400);
            assert_eq!(
                format!("{timeline:?}"),
                format!("{batched:?}"),
                "engine field changed a run at links = {links}, seed = {seed}"
            );
        }
    }
}

/// The DP protocol family never collides, even across long mixed runs.
#[test]
fn dp_family_is_collision_free_end_to_end() {
    for policy in [
        PolicySpec::db_dp(),
        PolicySpec::FixedPriority,
        PolicySpec::db_dp_pairs(3),
    ] {
        let report = run(scenario::video(10, 0.6, 0.9, 5).with_policy(policy), 800);
        assert_eq!(report.collisions, 0, "policy {}", report.policy);
    }
}

/// Random-access baselines do collide under load — the loss DP avoids.
#[test]
fn random_access_baselines_do_collide() {
    for policy in [PolicySpec::Fcsma, PolicySpec::Dcf] {
        let report = run(scenario::video(20, 0.6, 0.9, 6).with_policy(policy), 300);
        assert!(report.collisions > 0, "policy {}", report.policy);
    }
}

/// In-interval delivery latency behaves sanely: always within the
/// deadline, and under a *fixed* priority ordering the top-priority link
/// delivers strictly earlier on average than the bottom one.
#[test]
fn latency_ordering_under_fixed_priorities() {
    let deadline = rtmac::sim::Nanos::from_millis(20);
    let report = run(
        scenario::video(10, 0.8, 0.9, 4).with_policy(PolicySpec::FixedPriority),
        1000,
    );
    let lat: Vec<_> = report
        .mean_latency
        .iter()
        .map(|l| l.expect("every link delivers something at alpha = 0.8"))
        .collect();
    for &l in &lat {
        assert!(l <= deadline, "latency {l} beyond the deadline");
        assert!(!l.is_zero());
    }
    assert!(
        lat[0] < lat[9],
        "priority 1 ({}) should beat priority 10 ({})",
        lat[0],
        lat[9]
    );
}

/// FCSMA's contention shows up as extra delivery latency relative to the
/// collision-free centralized scheduler on the same workload.
#[test]
fn fcsma_pays_latency_for_contention() {
    let mean_over_links = |policy| {
        let report = run(scenario::control(6, 0.7, 0.9, 8).with_policy(policy), 1500);
        let total: u128 = report
            .mean_latency
            .iter()
            .flatten()
            .map(|l| u128::from(l.as_nanos()))
            .sum();
        total as f64 / report.mean_latency.len() as f64
    };
    let ldf = mean_over_links(PolicySpec::Ldf);
    let fcsma = mean_over_links(PolicySpec::Fcsma);
    assert!(fcsma > ldf, "FCSMA latency {fcsma} should exceed LDF {ldf}");
}

/// Debts of a fulfilled link go negative (it runs ahead); the ledger's
/// cumulative accounting matches the reported throughput.
#[test]
fn ledger_accounting_is_consistent_with_report() {
    let mut net = scenario::tiny(7)
        .with_policy(PolicySpec::Ldf)
        .network()
        .unwrap();
    let report = net.run(500);
    for link in net.config().links() {
        let tp = report.per_link_throughput[link.index()];
        let debt = report.final_debts[link.index()];
        let q = net.requirements().q(link);
        // d(K) = K·q − Σ S  =>  Σ S / K = q − d/K.
        let reconstructed = q - debt / 500.0;
        assert!(
            (tp - reconstructed).abs() < 1e-9,
            "{link}: throughput {tp} vs reconstructed {reconstructed}"
        );
    }
}
