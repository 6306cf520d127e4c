//! Property: the scenario vocabulary has one spelling. Every value that
//! `rtmac::scenario` renders parses back to the same value — the per-link
//! parameters, the traffic models, the policies and the sweep axes, which
//! the CLI's flags and the `rtmac-netd` scenario file both read.

use proptest::prelude::*;
use rtmac::scenario::{Axis, InfluenceSpec, Param, PolicySpec, TrafficSpec};

proptest! {
    #[test]
    fn parameter_and_traffic_spellings_parse_back(
        uniform in 0usize..2,
        values in proptest::collection::vec((-10.0f64..10.0, -30i32..30), 1..6),
        kind in 0usize..3,
        burst_max in 0u32..100_000,
    ) {
        // Finite numbers spanning many magnitudes and digit counts.
        let mut values: Vec<f64> = values.into_iter().map(|(m, e)| m * 10f64.powi(e)).collect();
        let p = if uniform == 0 {
            Param::Uniform(values.swap_remove(0))
        } else {
            Param::PerLink(values)
        };
        let text = p.render();
        prop_assert_eq!(Param::parse(&text), Ok(p.clone()), "{}", text);

        let traffic = match kind {
            0 => TrafficSpec::Burst { alpha: p, burst_max },
            1 => TrafficSpec::Bernoulli { lambda: p },
            _ => TrafficSpec::Constant,
        };
        let text = traffic.render();
        prop_assert_eq!(TrafficSpec::parse(&text), Ok(traffic), "{}", text);
    }

    #[test]
    fn policy_and_axis_spellings_parse_back(k in 0u32..10_000, axis in 0usize..4) {
        let spelled = [
            PolicySpec::db_dp(),
            PolicySpec::db_dp_pairs(k as usize),
            PolicySpec::Ldf,
            PolicySpec::eldf(),
            PolicySpec::Fcsma,
            PolicySpec::Dcf,
            PolicySpec::frame_csma(),
            PolicySpec::FrameCsma { influence: InfluenceSpec::Linear, control_slots: k },
            PolicySpec::FixedPriority,
        ];
        for spec in spelled {
            let text = spec.render();
            prop_assert!(text.is_some(), "{:?} has no spelling", spec);
            prop_assert_eq!(PolicySpec::parse(&text.unwrap()), Ok(spec));
        }
        // Parameterizations no spelling names render as nothing.
        let unspelled = [
            PolicySpec::DbDp { influence: InfluenceSpec::Power(2.0), r: 10.0, swap_pairs: 1 },
            PolicySpec::Eldf { influence: InfluenceSpec::Log1p },
            PolicySpec::FrameCsma { influence: InfluenceSpec::PaperLog, control_slots: k },
        ];
        for spec in unspelled {
            prop_assert_eq!(spec.render(), None, "{:?}", spec);
        }

        let axis = [Axis::Alpha, Axis::Lambda, Axis::Ratio, Axis::SuccessProbability][axis];
        prop_assert_eq!(Axis::parse(axis.render()), Ok(axis));
    }
}
