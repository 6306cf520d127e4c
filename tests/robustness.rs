//! Robustness beyond the paper's model assumptions: bursty channels,
//! bursty traffic, extreme parameters, and failure injection. Networks
//! start from [`Scenario`]s; the non-i.i.d. channels and traffic models
//! that the declarative layer cannot express are attached through the
//! [`Scenario::to_builder`] escape hatch.

use rtmac::phy::channel::{GilbertElliott, GilbertElliottParams, Scripted};
use rtmac::scenario::{self, EngineSpec, Param, TrafficSpec};
use rtmac::{PolicySpec, Scenario};
use rtmac_traffic::MarkovModulated;

/// DB-DP keeps fulfilling a feasible requirement when losses are bursty
/// (Gilbert–Elliott) instead of i.i.d. with the same mean — the protocol's
/// priority maintenance never depends on individual packet outcomes.
#[test]
fn db_dp_survives_bursty_losses() {
    let ge = GilbertElliottParams {
        p_good: 0.9,
        p_bad: 0.1,
        good_to_bad: 0.02,
        bad_to_good: 0.06, // stationary mean 0.7
    };
    let mut net = scenario::control(8, 0.6, 0.9, 31)
        .with_policy(PolicySpec::db_dp())
        .to_builder()
        .channel(Box::new(GilbertElliott::new(vec![ge; 8]).unwrap()))
        .build()
        .unwrap();
    let report = net.run(6000);
    assert_eq!(report.collisions, 0);
    assert!(
        report.final_total_deficiency < 0.15,
        "deficiency {} under bursty losses",
        report.final_total_deficiency
    );
}

/// Markov-modulated (scene-change) traffic with the same mean rate is
/// handled by both DB-DP and LDF; debts absorb the phase bursts.
#[test]
fn db_dp_handles_markov_modulated_traffic() {
    for policy in [PolicySpec::db_dp(), PolicySpec::Ldf] {
        let traffic = MarkovModulated::new(12, 0.2, 0.8, 0.05, 0.15, 6).unwrap();
        let mean = {
            use rtmac_traffic::ArrivalProcess;
            traffic.mean(0.into())
        };
        // Keep the load moderate relative to the 61-transmission budget.
        assert!(mean * 12.0 / 0.7 < 45.0);
        let mut net = scenario::video(12, 0.5, 0.9, 17)
            .with_policy(policy)
            .to_builder()
            .traffic(Box::new(traffic))
            .build()
            .unwrap();
        let report = net.run(5000);
        assert!(
            report.final_total_deficiency < 0.2,
            "{}: deficiency {}",
            report.policy,
            report.final_total_deficiency
        );
    }
}

/// Failure injection: a scripted channel that black-holes one link for a
/// long stretch. The link's debt grows, DB-DP escalates its priority, and
/// once the channel heals the link catches up — while the healthy links
/// never miss their requirements.
#[test]
fn blackout_recovery() {
    // Link 0: 400 consecutive failures, then perfect. Links 1-3: perfect.
    let mut scripts = vec![vec![true]; 4];
    scripts[0] = {
        let mut s = vec![false; 400];
        s.extend(vec![true; 4000]);
        s
    };
    let mut net = scenario::control(4, 0.9, 0.9, 23)
        .with_policy(PolicySpec::db_dp())
        .to_builder()
        .channel(Box::new(Scripted::new(scripts).unwrap()))
        .build()
        .unwrap();
    let report = net.run(4000);
    // Healthy links unaffected.
    for link in 1..4 {
        let q = net.requirements().q(link.into());
        assert!(
            report.per_link_throughput[link] >= q - 0.02,
            "healthy link {link} starved: {} < {q}",
            report.per_link_throughput[link]
        );
    }
    // The blacked-out link recovered to its requirement over the run.
    assert!(
        report.final_total_deficiency < 0.05,
        "deficiency {} after blackout recovery",
        report.final_total_deficiency
    );
    // During the blackout its debt spiked well above steady state.
    assert!(report.attempts[0] > 400, "the link kept retrying");
}

/// Extreme parameter smoke tests: the stack stays correct (no panics, no
/// collisions, conservation) at the edges of its domain.
#[test]
fn extreme_parameters_smoke() {
    // Near-zero success probability.
    let mut sc = scenario::control(3, 0.9, 0.9, 41).with_policy(PolicySpec::db_dp());
    sc.success = Param::Uniform(0.01);
    let r = sc.with_intervals(300).run().unwrap();
    assert_eq!(r.collisions, 0);
    assert!(
        r.final_total_deficiency > 0.5,
        "p = 0.01 cannot be fulfilled"
    );

    // Single link, deterministic arrivals, p = 1, 100% ratio.
    let report = Scenario {
        name: "single",
        links: 1,
        deadline_us: 2000,
        payload_bytes: 100,
        success: Param::Uniform(1.0),
        traffic: TrafficSpec::Constant,
        ratio: Param::Uniform(1.0),
        policy: PolicySpec::db_dp(),
        intervals: 200,
        seed: 43,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    }
    .run()
    .unwrap();
    assert_eq!(report.per_link_throughput, [1.0]);
    assert_eq!(report.final_total_deficiency, 0.0);

    // Large network (50 links) smoke run.
    let report = scenario::video(50, 0.2, 0.9, 47)
        .with_policy(PolicySpec::db_dp())
        .with_intervals(150)
        .run()
        .unwrap();
    assert_eq!(report.collisions, 0);
    assert_eq!(report.per_link_throughput.len(), 50);
}
