//! The staged copy of `Network::step` reproduces `Network::run` exactly,
//! on every kernel the workloads reach.

use rtmac::scenario::{by_name, Scenario};
use rtmac_benchmark::clock::now;
use rtmac_benchmark::mirror::{Mirror, SPANS};
use rtmac_benchmark::sim::staged_chunk;
use rtmac_benchmark::trace::Recorder;
use rtmac_benchmark::workloads::{self, RunResult};

fn workload(name: &str, seed: u64) -> Scenario {
    workloads::scenario(workloads::by_name(name).unwrap(), seed).unwrap()
}

fn mirror_run(sc: &Scenario, intervals: usize) -> Result<(), String> {
    let mut mirror = Mirror::new(sc)?;
    for _ in 0..intervals {
        mirror.step();
    }
    mirror.matches(&sc.network().unwrap().run(intervals))
}

#[test]
fn staged_copy_equals_network_run_on_the_video_workloads() {
    for seed in [2018, 7] {
        mirror_run(&workload("video20", seed), 3_000).unwrap();
        mirror_run(&workload("video10k", seed), 20).unwrap();
    }
}

#[test]
fn staged_copy_equals_network_run_on_the_other_kernels() {
    for seed in [2018, 7] {
        // The degraded engine with churn and sensing noise.
        mirror_run(&workload("poisson-churn", seed), 5_000).unwrap();
        // The timeline engine of the sweep's DB-DP jobs and the emulated
        // node's replica.
        mirror_run(&by_name("control10").unwrap().with_seed(seed), 2_000).unwrap();
        mirror_run(
            &by_name("control10")
                .unwrap()
                .with_seed(seed)
                .with_links(100),
            200,
        )
        .unwrap();
    }
}

#[test]
fn a_diverging_copy_is_caught() {
    let sc = workload("video20", 2018);
    let mut mirror = Mirror::new(&sc).unwrap();
    for _ in 0..200 {
        mirror.step();
    }
    let other = sc.with_seed(2019).network().unwrap().run(200);
    assert!(mirror.matches(&other).is_err());
}

#[test]
fn the_copy_refuses_scenarios_it_cannot_stage() {
    for name in ["bursty", "hidden-terminal", "overload-admission"] {
        assert!(Mirror::new(&by_name(name).unwrap()).is_err(), "{name}");
    }
    let ldf = by_name("control10")
        .unwrap()
        .with_policy(rtmac::PolicySpec::Ldf);
    assert!(Mirror::new(&ldf).is_err());
}

#[test]
fn a_traced_chunk_records_every_stage_and_checks_itself() {
    let sc = workload("video20", 3);
    let mut recorder = Recorder::new(&SPANS, now());
    let mut result = RunResult::default();
    let mut traced = 0;
    staged_chunk(&sc, 500, &mut recorder, &mut traced, &mut result).unwrap();
    assert_eq!(traced, 500);
    assert!(recorder.totals().iter().all(|t| t.count == 500));
    assert_eq!(recorder.spans().len(), 500 * SPANS.len());
    let layers = result.samples.select(&workloads::PER_LAYER);
    let missing: Vec<_> = layers
        .iter()
        .filter(|m| m.summary.is_none() && m.name != "mem.peak_rss_mb")
        .map(|m| m.name)
        .collect();
    assert!(missing.is_empty(), "{missing:?}");
}
