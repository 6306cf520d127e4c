//! Interleaving checks of the real job-queue [`rtmac::Runner`]: the
//! CI-gated exhaustive configurations, a randomized (PCT-style) pass at a
//! size the bounded DFS cannot cover, and the panic-propagation contract
//! under every bounded interleaving.

use rtmac_verify::{
    explore, explore_panic, explore_random, RunnerSubject, SchedConfig, SchedStats,
};

fn assert_explored(stats: &SchedStats, what: &str) {
    assert!(stats.complete, "{what}: the bounded search must complete");
    assert!(
        stats.executions > 1,
        "{what}: a search that never branches checks nothing"
    );
}

#[test]
fn exhaustive_two_workers_six_jobs_is_clean() {
    // The acceptance configuration: 2 workers x 6 jobs, preemption
    // bound 2, explored to completion with all four properties checked
    // on every interleaving (same run as `rtmac-verify sched --quick`).
    let cfg = SchedConfig::new(2, 6, 2);
    let stats = explore(&RunnerSubject, &cfg).unwrap_or_else(|ce| panic!("{ce}"));
    assert_explored(&stats, "2w/6j");
    // Exact pins of the search size: any change to the Runner's
    // synchronisation (a lock taken or dropped, an extra atomic) moves
    // them, and must be reviewed and re-pinned on purpose.
    assert_eq!(
        (stats.executions, stats.decisions),
        (384, 8448),
        "2w/6j search size"
    );
}

#[test]
fn exhaustive_three_workers_is_clean() {
    // Three workers contend three ways for the queue lock, which the
    // 2-worker search cannot (same run as `rtmac-verify sched --full`).
    let cfg = SchedConfig::new(3, 4, 2);
    let stats = explore(&RunnerSubject, &cfg).unwrap_or_else(|ce| panic!("{ce}"));
    assert_explored(&stats, "3w/4j");
    assert_eq!(
        (stats.executions, stats.decisions),
        (2220, 39960),
        "3w/4j search size"
    );
}

#[test]
fn randomized_pct_pass_is_clean_and_deterministic() {
    let cfg = SchedConfig::new(3, 8, 0);
    let a = explore_random(&RunnerSubject, &cfg, 60, 2018).unwrap_or_else(|ce| panic!("{ce}"));
    let b = explore_random(&RunnerSubject, &cfg, 60, 2018).unwrap_or_else(|ce| panic!("{ce}"));
    // Same seed, same exploration: the randomized pass must be
    // reproducible for CI triage.
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.max_depth, b.max_depth);
    assert_eq!(a.executions, 61, "one baseline run plus 60 samples");
}

#[test]
fn panic_contract_holds_under_every_bounded_interleaving() {
    // Runner::map's documented contract, model-checked: a seeded job
    // panic surfaces on the caller under *every* explored interleaving,
    // the pool never deadlocks, every other job still executes, and only
    // the panicking slot stays unwritten.
    let cfg = SchedConfig::new(2, 4, 2);
    let stats = explore_panic(&RunnerSubject, &cfg).unwrap_or_else(|ce| panic!("{ce}"));
    assert_explored(&stats, "panic 2w/4j");
}
