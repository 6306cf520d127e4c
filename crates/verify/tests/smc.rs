//! Statistical model checking at scale: the pristine engine is clean at
//! N = 10 and N = 20, seeded mutants are convicted with replayable
//! traces, the run is worker-count independent, and multi-candidate
//! traces round-trip through the text format.

mod common;

use std::process::Command;

use common::{Fault, FaultySubject, FrozenSigmaSubject};
use proptest::prelude::*;
use rand::Rng;
use rtmac::runner::Runner;
use rtmac_mac::{draw_nonadjacent_candidates, PairCoins};
use rtmac_model::Permutation;
use rtmac_sim::SeedStream;
use rtmac_verify::{replay, smc, Counterexample, EngineSubject, Property, SmcConfig, Step};

#[test]
fn pristine_engine_is_clean_at_ten_links() {
    let cfg = SmcConfig::new(10, 1_500).with_seed(2018);
    let check_cfg = cfg.check_config();
    let report = smc(&cfg, &Runner::new(4), || {
        EngineSubject::new(check_cfg.timing(), check_cfg.n)
    });
    assert!(report.is_clean(), "violation: {:?}", report.counterexample);
    assert_eq!(report.samples, 1_500);
    assert_eq!(report.intervals, u64::from(cfg.depth) * 1_500);
    for bound in &report.bounds {
        assert_eq!(bound.violations, 0, "{} violated", bound.property);
        assert_eq!(bound.lower, 0.0);
        assert!(
            bound.upper > 0.0 && bound.upper < 0.005,
            "{}: zero violations in 1500 samples bound p below 0.5%, got {}",
            bound.property,
            bound.upper
        );
    }
    // The liveness probe actually exercised every pair.
    assert!(report
        .liveness
        .draws
        .iter()
        .all(|&d| d >= rtmac_verify::LIVENESS_MIN_DRAWS));
    assert!(report.liveness.commits.iter().all(|&c| c > 0));
}

#[test]
fn smc_is_worker_count_independent() {
    let cfg = SmcConfig::new(6, 300).with_seed(99);
    let check_cfg = cfg.check_config();
    let run = |workers| {
        smc(&cfg, &Runner::new(workers), || {
            EngineSubject::new(check_cfg.timing(), check_cfg.n)
        })
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(one.bounds, eight.bounds);
    assert_eq!(one.intervals, eight.intervals);
    assert_eq!(one.liveness, eight.liveness);
    assert_eq!(one.counterexample.is_none(), eight.counterexample.is_none());
    // The batch geometry is a pure function of the sample budget, so the
    // whole report — not just each field — is identical across pool sizes.
    let three = run(3);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
    assert_eq!(format!("{one:?}"), format!("{three:?}"));
}

#[test]
fn smc_convicts_a_seeded_mutant_with_a_replayable_trace() {
    // The PR 3 phantom-collision mutation at N = 10: every interval
    // reports a collision that never happened.
    let cfg = SmcConfig::new(10, 40).with_seed(2018);
    let check_cfg = cfg.check_config();
    let report = smc(&cfg, &Runner::new(2), || {
        FaultySubject::new(check_cfg.timing(), check_cfg.n, Fault::PhantomCollision)
    });
    assert!(!report.is_clean());
    let collision_bound = &report.bounds[0];
    assert_eq!(collision_bound.property, Property::CollisionFreedom);
    assert_eq!(collision_bound.violations, 40, "every trajectory violates");
    assert_eq!(collision_bound.upper, 1.0);
    assert!(
        collision_bound.lower > 0.8,
        "x = n pushes the lower bound up"
    );

    let ce = report.counterexample.expect("a trace must be produced");
    assert_eq!(ce.property, Property::CollisionFreedom);
    assert_eq!(ce.seed, Some(2018), "the trace records the run seed");
    assert!(ce.detail.starts_with("sample 0:"), "{}", ce.detail);
    assert_eq!(ce.steps.len(), 1, "the first interval already violates");

    // Write the trace like `rtmac-verify smc --trace` would, read it
    // back, and reproduce the violation on a fresh mutant.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smc_mutant_trace.txt");
    std::fs::write(&path, ce.encode()).expect("trace must be writable");
    let text = std::fs::read_to_string(&path).expect("trace must be readable");
    let decoded = Counterexample::decode(&text).expect("trace must parse back");
    assert_eq!(decoded, *ce);
    let mut fresh = FaultySubject::new(check_cfg.timing(), check_cfg.n, Fault::PhantomCollision);
    let found =
        replay(&mut fresh, &decoded).expect_err("the trace must reproduce on the faulty subject");
    assert_eq!(found.property, Property::CollisionFreedom);

    // The real engine stays clean on the same trace — both through the
    // library and through the binary's --replay mode.
    let mut clean = EngineSubject::new(check_cfg.timing(), check_cfg.n);
    replay(&mut clean, &decoded).expect("the real engine must pass the trace");
    let output = Command::new(env!("CARGO_BIN_EXE_rtmac-verify"))
        .args(["--replay", path.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("the rtmac-verify binary must run");
    assert!(output.status.success(), "--replay must exit 0: {output:?}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("clean"));
}

#[test]
fn smc_liveness_probe_convicts_a_frozen_sigma() {
    // Every per-interval property holds on the frozen mutant; only the
    // statistical liveness probe (pairs drawn, never committed) trips.
    let cfg = SmcConfig::new(4, 300).with_seed(5);
    let check_cfg = cfg.check_config();
    let report = smc(&cfg, &Runner::new(2), || {
        FrozenSigmaSubject::new(check_cfg.timing(), check_cfg.n)
    });
    assert_eq!(report.violations(), 0, "no per-interval property trips");
    assert!(!report.is_clean());
    let ce = report.counterexample.expect("the probe must convict");
    assert_eq!(ce.property, Property::SigmaLiveness);
    assert!(ce.steps.is_empty());
    assert!(!report
        .liveness
        .starved(rtmac_verify::LIVENESS_MIN_DRAWS)
        .is_empty());

    // The genuine engine under the identical run is live.
    let clean_report = smc(&cfg, &Runner::new(2), || {
        EngineSubject::new(check_cfg.timing(), check_cfg.n)
    });
    assert!(clean_report.is_clean());
}

#[test]
fn smc_trajectories_continue_from_the_previous_sigma() {
    // depth > 1 must carry σ across intervals: with a subject that
    // records the σ values it was handed, consecutive intervals of one
    // sample chain instead of resetting. Cheap proxy: a depth-1 run and
    // a depth-4 run must execute 1× and 4× the intervals respectively.
    let base = SmcConfig::new(5, 100).with_seed(11);
    let check_cfg = base.check_config();
    for depth in [1u32, 4] {
        let cfg = base.clone().with_depth(depth);
        let report = smc(&cfg, &Runner::new(2), || {
            EngineSubject::new(check_cfg.timing(), check_cfg.n)
        });
        assert_eq!(report.intervals, u64::from(depth) * 100);
        assert!(report.is_clean());
    }
}

#[test]
fn binary_help_and_error_messages_name_the_modes() {
    let bin = env!("CARGO_BIN_EXE_rtmac-verify");
    let help = Command::new(bin)
        .arg("--help")
        .output()
        .expect("binary runs");
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout);
    for flag in ["smc", "--samples", "--confidence", "--seed", "--replay"] {
        assert!(text.contains(flag), "help must document {flag}");
    }

    let unknown = Command::new(bin)
        .arg("--bogus")
        .output()
        .expect("binary runs");
    assert_eq!(unknown.status.code(), Some(2));
    let err = String::from_utf8_lossy(&unknown.stderr);
    assert!(
        err.contains("--quick") && err.contains("smc") && err.contains("--replay"),
        "unknown-argument errors must name the valid modes: {err}"
    );

    // `sched` is not a mode: like any unknown argument it exits 2.
    let sched = Command::new(bin)
        .arg("sched")
        .output()
        .expect("binary runs");
    assert_eq!(sched.status.code(), Some(2));
    assert!(!text.contains("sched"), "help must not offer a sched mode");

    let bad_flag = Command::new(bin)
        .args(["smc", "--what"])
        .output()
        .expect("binary runs");
    assert_eq!(bad_flag.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_flag.stderr).contains("--samples"));
}

/// Traces that parse but that the engine would panic on are input
/// errors: exit 2 with one line on stderr. The clean trace replays with 0.
#[test]
fn binary_replay_of_a_malformed_trace_exits_2_with_one_line() {
    let head = "rtmac-verify counterexample v1\nproperty = swap-discipline\n\
                a_max = 2\npayload = 100\nq = 0.7\n";
    let step = |sigma: &str, arrivals: &str, candidates: &str, coins: &str| {
        format!(
            "n = 3\nstep sigma={sigma} arrivals={arrivals} \
             candidates={candidates} coins={coins} bits=101\n"
        )
    };
    let cases = [
        ("clean", step("[1,2,3]", "[0,2,1]", "[1]", "+-"), 0),
        ("n = 0", "n = 0\n".to_string(), 2),
        ("short sigma", step("[1,2]", "[0,2,1]", "[1]", "+-"), 2),
        ("short arrivals", step("[1,2,3]", "[0,2]", "[1]", "+-"), 2),
        ("candidate 5", step("[1,2,3]", "[0,2,1]", "[5]", "+-"), 2),
        ("no coin pair", step("[1,2,3]", "[0,2,1]", "[1]", ""), 2),
    ];
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, (what, body, code)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("replay_input_{i}.txt"));
        std::fs::write(&path, format!("{head}{body}")).expect("trace must be writable");
        let output = Command::new(env!("CARGO_BIN_EXE_rtmac-verify"))
            .args(["--replay", path.to_str().expect("utf-8 tmp path")])
            .output()
            .expect("the rtmac-verify binary must run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "{what}: {stderr}");
        if code == 2 {
            assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
            assert!(output.stdout.is_empty(), "{what}");
        }
    }
}

#[test]
fn binary_smc_smoke_run_is_clean() {
    let output = Command::new(env!("CARGO_BIN_EXE_rtmac-verify"))
        .args([
            "smc",
            "--links",
            "4",
            "--samples",
            "60",
            "--seed",
            "7",
            "--depth",
            "2",
            "--workers",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(
        out.contains("collision-freedom"),
        "per-property bounds: {out}"
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("smc clean"));
}

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

proptest! {
    /// Multi-candidate traces (sets of up to ⌊N/2⌋ non-adjacent pairs,
    /// with and without a recorded seed) survive encode → decode intact.
    #[test]
    fn prop_multi_candidate_trace_round_trips(
        n in 4usize..=10,
        want in 1usize..=5,
        depth in 1usize..=4,
        seed in 0u64..1000,
        record_seed in 0u8..2,
    ) {
        let record_seed = record_seed == 1;
        let mut rng = SeedStream::new(seed).rng(0);
        let mut steps = Vec::new();
        for _ in 0..depth {
            let sigma = Permutation::from_rank(n, rng.random_range(0..factorial(n)));
            let candidates = draw_nonadjacent_candidates(n, want, &mut rng);
            let coins: Vec<PairCoins> = candidates
                .iter()
                .map(|_| PairCoins {
                    hi_up: rng.random_bool(0.5),
                    lo_up: rng.random_bool(0.5),
                })
                .collect();
            let arrivals = (0..n).map(|_| rng.random_range(0..4u32)).collect();
            let bits = (0..rng.random_range(0..16)).map(|_| rng.random_bool(0.5)).collect();
            steps.push(Step {
                sigma_before: sigma.priorities().to_vec(),
                arrivals,
                candidates,
                coins,
                bits,
            });
        }
        let ce = Counterexample {
            property: Property::SwapDiscipline,
            detail: "proptest round-trip".to_string(),
            n,
            a_max: 3,
            payload_bytes: 100,
            q: 0.7,
            seed: record_seed.then_some(seed),
            steps,
        };
        let decoded = Counterexample::decode(&ce.encode())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(decoded, ce);
    }
}
