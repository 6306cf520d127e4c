//! The exact `RunReport`s of the networks that carry what a [`Scenario`]
//! cannot describe — a custom loss model, a custom arrival process, per-link
//! payloads — and of the explicit-requirement run of
//! `tests/theory_checks.rs`, pinned by an FNV-1a hash of their `Debug`
//! text. The runs are the ones `tests/robustness.rs`,
//! `tests/theory_checks.rs` and the `mixed_traffic` and `bursty_channel`
//! examples make; a change to how a network is assembled from its
//! description that alters any of them fails here.

use rtmac::phy::channel::{GilbertElliott, GilbertElliottParams, Scripted};
use rtmac::scenario::{self, EngineSpec, Param, TrafficSpec};
use rtmac::{Overrides, PolicySpec, RunReport, Scenario};
use rtmac_traffic::MarkovModulated;

fn fnv(report: &RunReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn assert_pinned(what: &str, report: &RunReport, want: u64) {
    let got = fnv(report);
    assert_eq!(got, want, "{what}: {got:#018x}\n{report:?}");
}

/// The stationary-mean-0.7 burst-loss channel of `tests/robustness.rs` and
/// the `bursty_channel` example.
const GE: GilbertElliottParams = GilbertElliottParams {
    p_good: 0.9,
    p_bad: 0.1,
    good_to_bad: 0.02,
    bad_to_good: 0.06,
};

#[test]
fn gilbert_elliott_channel() {
    let report = scenario::control(8, 0.6, 0.9, 31)
        .with_policy(PolicySpec::db_dp())
        .network_with(Overrides {
            channel: Some(Box::new(GilbertElliott::new(vec![GE; 8]).unwrap())),
            ..Overrides::default()
        })
        .unwrap()
        .run(6000);
    assert_pinned("robustness", &report, 0xA76D_5C0A_9546_E062);
    let report = scenario::control(10, 0.7, 0.9, 21)
        .with_policy(PolicySpec::db_dp())
        .network_with(Overrides {
            channel: Some(Box::new(GilbertElliott::new(vec![GE; 10]).unwrap())),
            ..Overrides::default()
        })
        .unwrap()
        .run(8000);
    assert_pinned("bursty_channel example", &report, 0x4588_0EFF_ECB3_253F);
}

#[test]
fn scripted_channel() {
    let mut scripts = vec![vec![true]; 4];
    scripts[0] = vec![false; 400];
    scripts[0].extend(vec![true; 4000]);
    let report = scenario::control(4, 0.9, 0.9, 23)
        .with_policy(PolicySpec::db_dp())
        .network_with(Overrides {
            channel: Some(Box::new(Scripted::new(scripts).unwrap())),
            ..Overrides::default()
        })
        .unwrap()
        .run(4000);
    assert_pinned("blackout", &report, 0xC879_AAC5_7106_20F8);
}

#[test]
fn markov_modulated_traffic() {
    for (policy, want) in [
        (PolicySpec::db_dp(), 0x7657_2857_1982_5444),
        (PolicySpec::Ldf, 0x7B4C_7B10_AD8A_289A),
    ] {
        let traffic = MarkovModulated::new(12, 0.2, 0.8, 0.05, 0.15, 6).unwrap();
        let report = scenario::video(12, 0.5, 0.9, 17)
            .with_policy(policy)
            .network_with(Overrides {
                traffic: Some(Box::new(traffic)),
                ..Overrides::default()
            })
            .unwrap()
            .run(5000);
        assert_pinned(&policy.label(), &report, want);
    }
}

#[test]
fn per_link_payloads() {
    let mut alpha = vec![0.4; 8];
    alpha.extend(vec![0.28; 8]);
    let sc = Scenario {
        name: "mixed",
        links: 16,
        deadline_us: 20_000,
        payload_bytes: 1500,
        success: Param::Uniform(0.7),
        traffic: TrafficSpec::Burst {
            alpha: Param::PerLink(alpha),
            burst_max: 6,
        },
        ratio: Param::Uniform(0.9),
        policy: PolicySpec::db_dp(),
        intervals: 4000,
        seed: 5,
        track: None,
        fault: None,
        admission: None,
        engine: EngineSpec::Timeline,
    };
    let mut payloads = vec![1500u32; 8];
    payloads.extend(vec![100u32; 8]);
    let report = sc
        .network_with(Overrides {
            link_payloads: Some(payloads),
            ..Overrides::default()
        })
        .unwrap()
        .run(sc.intervals);
    assert_pinned("mixed_traffic example", &report, 0x0000_BA4D_55EE_E350);
}

#[test]
fn explicit_requirements() {
    use rtmac_analysis::feasibility::expected_busy_slots;

    let n = 10;
    let avail = expected_busy_slots(&[0.7; 10], 16).unwrap();
    let q_boundary = (avail * 0.7 / n as f64).min(1.0);
    for (q, want) in [
        (q_boundary * 0.96, 0x554F_838F_DDC3_CC51),
        ((q_boundary * 1.05).min(1.0), 0xE19D_2587_FFBC_E822),
    ] {
        let sc = Scenario {
            traffic: TrafficSpec::Constant,
            ratio: Param::Uniform(q),
            ..scenario::control(n, 1.0, 0.9, 12)
        };
        let report = sc.with_policy(PolicySpec::Ldf).network().unwrap().run(6000);
        assert_pinned(&format!("q = {q}"), &report, want);
    }
}
