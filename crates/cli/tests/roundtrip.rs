//! Property: every flag-expressible [`Scenario`] round-trips through the
//! CLI grammar — render to `rtmac run` tokens, parse them back, rebuild the
//! scenario, and land on the same value (and the same tokens again).

use proptest::prelude::*;
use rtmac::scenario::{EngineSpec, Param, Scenario, TrafficSpec};
use rtmac_cli::{parse, render_run_command, Command, PolicySpec};

fn policy_by_index(i: usize) -> PolicySpec {
    match i {
        0 => PolicySpec::db_dp(),
        1 => PolicySpec::Ldf,
        2 => PolicySpec::eldf(),
        3 => PolicySpec::Fcsma,
        4 => PolicySpec::Dcf,
        _ => PolicySpec::frame_csma(),
    }
}

fn traffic_by_index(kind: usize, rate: f64) -> TrafficSpec {
    match kind {
        0 => TrafficSpec::Burst {
            alpha: Param::Uniform(rate),
            burst_max: 6,
        },
        1 => TrafficSpec::Bernoulli {
            lambda: Param::Uniform(rate),
        },
        _ => TrafficSpec::Constant,
    }
}

proptest! {
    #[test]
    fn scenario_round_trips_through_flag_grammar(
        links in 1usize..64,
        deadline_us in 100u64..100_000,
        payload in 1u32..3000,
        p in 0.01f64..1.0,
        traffic_kind in 0usize..3,
        rate in 0.01f64..1.0,
        ratio in 0.01f64..1.0,
        intervals in 1usize..10_000,
        seed in 0u64..u64::MAX,
        policy_i in 0usize..6,
    ) {
        let sc = Scenario {
            name: "custom",
            links,
            deadline_us,
            payload_bytes: payload,
            success: Param::Uniform(p),
            traffic: traffic_by_index(traffic_kind, rate),
            ratio: Param::Uniform(ratio),
            policy: policy_by_index(policy_i),
            intervals,
            seed,
            replications: 1,
            track: None,
            fault: None,
            admission: None,
            engine: EngineSpec::Timeline,
        };

        let argv = render_run_command(&sc);
        prop_assert!(argv.is_some(), "uniform scenario must be expressible: {sc:?}");
        let argv = argv.unwrap();

        let parsed = parse(&argv);
        prop_assert!(parsed.is_ok(), "rendered tokens must parse: {argv:?} -> {parsed:?}");
        let Command::Run { opts, policy } = parsed.unwrap() else {
            return Err(TestCaseError::fail("rendered tokens must parse to `run`"));
        };

        let back = opts.to_scenario(policy);
        prop_assert!(back.is_ok(), "parsed options must rebuild: {back:?}");
        let back = back.unwrap();
        prop_assert_eq!(&back, &sc);

        // Re-rendering is a fixed point: same tokens again.
        prop_assert_eq!(render_run_command(&back), Some(argv));
    }
}
