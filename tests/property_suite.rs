//! Cross-crate property tests: random workloads, channels, and policies
//! through the full public API, checking the invariants that must hold for
//! *any* configuration. Every network is described as a [`Scenario`] first.

use proptest::prelude::*;
use rtmac::scenario::{EngineSpec, Param, TrafficSpec};
use rtmac::{PolicySpec, Scenario};
use rtmac_traffic::{ArrivalProcess, BurstUniform};

fn build_policy(code: u8) -> PolicySpec {
    match code % 5 {
        0 => PolicySpec::db_dp(),
        1 => PolicySpec::Ldf,
        2 => PolicySpec::eldf(),
        3 => PolicySpec::Fcsma,
        _ => PolicySpec::Dcf,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every policy and random configuration:
    /// * per-link throughput never exceeds the arrival rate by more than
    ///   sampling noise,
    /// * deficiency is within [0, Σ q_n],
    /// * busy time never exceeds simulated time,
    /// * the debt recursion reconstructs the throughput exactly.
    #[test]
    fn prop_network_invariants(
        n in 2usize..8,
        alpha in 0.1f64..0.9,
        p in 0.3f64..1.0,
        rho in 0.5f64..1.0,
        seed in 0u64..200,
        policy_code in 0u8..5,
        intervals in 50usize..200,
    ) {
        let sc = Scenario {
            name: "prop",
            links: n,
            deadline_us: 5000,
            payload_bytes: 400,
            success: Param::Uniform(p),
            traffic: TrafficSpec::Burst {
                alpha: Param::Uniform(alpha),
                burst_max: 6,
            },
            ratio: Param::Uniform(rho),
            policy: build_policy(policy_code),
            intervals,
            seed,
            track: None,
            fault: None,
            admission: None,
            engine: EngineSpec::Timeline,
        };
        let mut net = sc.network().unwrap();
        let report = net.run(intervals);

        let lambda = 3.5 * alpha;
        let total_q: f64 = net.requirements().as_slice().iter().sum();
        prop_assert!(report.final_total_deficiency >= 0.0);
        prop_assert!(report.final_total_deficiency <= total_q + 1e-9);
        for link in net.config().links() {
            let tp = report.per_link_throughput[link.index()];
            // Sampling tolerance: ~4 sigma of a mean over `intervals`.
            let tol = 4.0 * 2.0 / (intervals as f64).sqrt();
            prop_assert!(tp <= lambda + tol, "tp {} vs lambda {}", tp, lambda);
            let q = net.requirements().q(link);
            let reconstructed = q - report.final_debts[link.index()] / intervals as f64;
            prop_assert!((tp - reconstructed).abs() < 1e-9);
        }
        let sim_time = net.config().deadline() * intervals as u64;
        prop_assert!(report.busy_time <= sim_time);
    }

    /// Arrival processes respect their declared bound and mean through the
    /// public trait, for parameters drawn at random.
    #[test]
    fn prop_arrivals_bounded(
        n in 1usize..6,
        alpha in 0.0f64..1.0,
        burst in 1u32..8,
        seed in 0u64..500,
    ) {
        let mut process = BurstUniform::symmetric(n, alpha, burst).unwrap();
        let mut rng = rtmac::sim::SeedStream::new(seed).rng(0);
        let mut buf = Vec::new();
        let mut total = 0u64;
        let reps = 300;
        for _ in 0..reps {
            process.sample(&mut rng, &mut buf);
            prop_assert_eq!(buf.len(), n);
            for &a in &buf {
                prop_assert!(a <= process.max_arrivals());
            }
            total += u64::from(buf[0]);
        }
        let mean = total as f64 / f64::from(reps);
        let expected = process.mean(0.into());
        // Loose CLT band.
        prop_assert!((mean - expected).abs() < 1.0, "mean {} vs {}", mean, expected);
    }

    /// DB-DP's priority permutation remains a valid bijection whatever the
    /// workload, and deficiency is monotone under requirement inflation
    /// (a harder requirement can only look worse for the same run).
    #[test]
    fn prop_requirement_inflation_monotone(
        seed in 0u64..100,
        rho_lo in 0.5f64..0.7,
        bump in 0.05f64..0.29,
    ) {
        let run = |rho: f64| {
            rtmac::scenario::control(5, 0.8, rho, seed)
                .with_policy(PolicySpec::Ldf)
                .with_intervals(400)
                .run()
                .unwrap()
                .final_total_deficiency
        };
        let lo = run(rho_lo);
        let hi = run(rho_lo + bump);
        // LDF scheduling depends on debts, so runs differ — but a strictly
        // harder requirement cannot end with *less* total deficiency than
        // the slack the easier one leaves: allow generous tolerance for the
        // policy-path difference.
        prop_assert!(hi + 0.35 >= lo, "rho {} -> {}, rho {} -> {}",
            rho_lo, lo, rho_lo + bump, hi);
    }
}
