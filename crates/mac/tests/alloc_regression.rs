//! Zero-allocation regression guard for the DP interval engine.
//!
//! The engine's contract is that *stepping* never touches the heap once
//! the first step has sized its buffers (per-pair state, the candidate set,
//! the reusable report, and under a fault layer the group scratch). This
//! test installs a counting global allocator, warms the engine, then
//! asserts that further intervals — through the dense-μ
//! [`DpEngine::step`], the lazy-μ [`DpEngine::step_with_mu`] and the
//! coin-injected [`DpEngine::step_with_coins`] — perform exactly zero heap
//! allocations, without a fault layer and with a full one.
//!
//! Trace mode is exempt from the contract (trace buffers legitimately grow
//! on the first traced intervals), so the engine under test runs untraced —
//! matching the benchmark configuration.
//!
//! [`FcsmaEngine::run_interval`] returns an owned outcome, so its contract
//! is one step weaker: once the first interval has sized its contender list
//! and collision scratch, an interval allocates the returned outcome's
//! three per-link vectors and nothing else. So does
//! [`CentralizedEngine::run_interval`], whose permutation check reuses an
//! engine-owned buffer.

use alloctrack::CountingAllocator;
use rand::Rng;
use rtmac_mac::{
    draw_nonadjacent_candidates_into, CentralizedEngine, ChurnEvent, DpConfig, DpEngine,
    FcsmaEngine, FcsmaQuantizer, MacTiming, PairCoins, RecoveryConfig,
};
use rtmac_model::LinkId;
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::fault::{ChurnProcess, FaultModel, HiddenMatrix};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

/// Each test reads its own thread's count, so tests running in parallel
/// and the harness's threads never land in another test's window.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const N: usize = 256;
const PAIRS: usize = 3;

#[test]
fn dp_step_performs_zero_heap_allocations() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let config = DpConfig::new(timing).with_swap_pairs(PAIRS);
    let mut engine = DpEngine::new(config, N);
    let mut channel = Bernoulli::new(vec![0.8; N]).unwrap();
    let seeds = SeedStream::new(2018);
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);

    let mut arrivals = vec![0u32; N];
    let mu = vec![0.5f64; N];
    // The lazy path's lookup: a per-link value computed on demand.
    let mu_of = |l: usize| 0.25 + 0.5 * (l as f64) / (N as f64);
    // Caller-side buffers for the injected path, sized before counting.
    let mut candidates = Vec::with_capacity(PAIRS);
    let mut coins = [PairCoins {
        hi_up: false,
        lo_up: true,
    }; PAIRS];

    // Warm-up: the first step sizes the engine's buffers.
    for _ in 0..5 {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=3);
        }
        let _ = engine.step(&arrivals, &mu, &mut channel, &mut rng);
    }

    let before = alloctrack::thread_allocations();
    for k in 0..100 {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=3);
        }
        let report = if k % 3 == 0 {
            engine.step(&arrivals, &mu, &mut channel, &mut rng)
        } else if k % 3 == 1 {
            engine.step_with_mu(&arrivals, &mu_of, &mut channel, &mut rng)
        } else {
            draw_nonadjacent_candidates_into(N, PAIRS, &mut rng, &mut candidates);
            for c in coins.iter_mut() {
                *c = PairCoins {
                    hi_up: rng.random_bool(0.5),
                    lo_up: rng.random_bool(0.5),
                };
            }
            engine.step_with_coins(&arrivals, &candidates, &coins, &mut channel, &mut rng)
        };
        // Keep the optimizer honest without allocating.
        assert!(report.outcome.deliveries.len() == N);
    }
    let after = alloctrack::thread_allocations();

    assert_eq!(
        after - before,
        0,
        "DP stepping allocated {} times over 100 intervals; \
         the interval kernel must be allocation-free",
        after - before
    );
}

/// The degraded path: a fault layer with sensing noise, Poisson churn, a
/// hidden pair and adaptive R2, its churn events drained every interval.
#[test]
fn degraded_step_performs_zero_heap_allocations() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let config = DpConfig::new(timing).with_swap_pairs(PAIRS);
    let seeds = SeedStream::new(2018);
    let mut engine = DpEngine::new(config, N)
        .with_fault_model(FaultModel::symmetric(0.05, seeds.rng(3)))
        .with_churn_process(ChurnProcess::new(N).with_poisson(0.01, 4.0, seeds.rng(4)))
        .with_hidden(HiddenMatrix::new(N).with_hidden(1, 0))
        .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(2, 32));
    let mut channel = Bernoulli::new(vec![0.8; N]).unwrap();
    let mut rng = seeds.rng(2);
    let mut arrival_rng = seeds.rng(1);
    let mut arrivals = vec![0u32; N];
    let mu_of = |l: usize| 0.25 + 0.5 * (l as f64) / (N as f64);
    // At most one transition per link and interval.
    let mut events: Vec<ChurnEvent> = Vec::with_capacity(N);

    let mut step = |engine: &mut DpEngine, events: &mut Vec<ChurnEvent>| {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=3);
        }
        let report = engine.step_with_mu(&arrivals, &mu_of, &mut channel, &mut rng);
        assert!(report.outcome.deliveries.len() == N);
        events.clear();
        engine.drain_churn_events(events);
    };
    // Warm-up: the first step sizes the engine's buffers.
    step(&mut engine, &mut events);

    let before = alloctrack::thread_allocations();
    for _ in 0..200 {
        step(&mut engine, &mut events);
    }
    let after = alloctrack::thread_allocations();

    let stats = engine.stats();
    assert!(stats.sensing_flips > 0 && stats.fallbacks > 0, "{stats:?}");
    assert!(engine.churn_process().unwrap().poisson_crashes() > 0);
    assert_eq!(
        after - before,
        0,
        "degraded DP stepping allocated {} times over 200 intervals; \
         the fault layer must be allocation-free",
        after - before
    );
}

/// The saturated control shape of Figs. 9–10 under FCSMA: 10 links, 2 ms,
/// 100 B frames, more arrivals than an interval can carry, and attempt
/// probabilities from the paper's quantizer that change every interval.
#[test]
fn fcsma_interval_allocates_only_its_outcome() {
    const LINKS: usize = 10;
    const INTERVALS: u64 = 100;
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let mut engine = FcsmaEngine::new(timing);
    let quantizer = FcsmaQuantizer::paper_default();
    let mut channel = Bernoulli::new(vec![0.7; LINKS]).unwrap();
    let seeds = SeedStream::new(2018);
    let mut rng = seeds.rng(0);
    let mut debt_rng = seeds.rng(1);
    let arrivals = [3u32; LINKS];
    let mut probs = [0.0f64; LINKS];
    let mut collisions = 0;

    let mut interval = || {
        for p in probs.iter_mut() {
            *p = quantizer.attempt_probability(debt_rng.random_range(0.0..3.0));
        }
        let outcome = engine.run_interval(&arrivals, &probs, &mut channel, &mut rng);
        assert!(outcome.deliveries.len() == LINKS);
        collisions += outcome.collisions;
    };
    // Warm-up: the first interval sizes the engine's buffers.
    interval();

    let before = alloctrack::thread_allocations();
    for _ in 0..INTERVALS {
        interval();
    }
    let after = alloctrack::thread_allocations();

    assert!(collisions > 0, "the shape must collide");
    assert_eq!(
        after - before,
        3 * INTERVALS,
        "FCSMA allocated {} times over {INTERVALS} intervals; \
         an interval may allocate only its outcome's three vectors",
        after - before
    );
}

/// The centralized engine beneath LDF on the same saturated control shape,
/// its priority order rotated every interval as changing debts would.
#[test]
fn centralized_interval_allocates_only_its_outcome() {
    const LINKS: usize = 10;
    const INTERVALS: u64 = 100;
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let mut engine = CentralizedEngine::new(timing);
    let mut channel = Bernoulli::new(vec![0.7; LINKS]).unwrap();
    let mut rng = SeedStream::new(2018).rng(0);
    let arrivals = [3u32; LINKS];
    let mut order: [LinkId; LINKS] = std::array::from_fn(LinkId::new);
    let mut served_first = [0u64; LINKS];

    let mut interval = || {
        order.rotate_left(1);
        let outcome = engine.run_interval(&arrivals, &order, &mut channel, &mut rng);
        served_first[order[0].index()] += outcome.deliveries[order[0].index()];
    };
    // Warm-up: the first interval sizes the engine's permutation check.
    interval();

    let before = alloctrack::thread_allocations();
    for _ in 0..INTERVALS {
        interval();
    }
    let after = alloctrack::thread_allocations();

    assert!(served_first.iter().all(|&d| d > 0), "every link leads");
    assert_eq!(
        after - before,
        3 * INTERVALS,
        "the centralized engine allocated {} times over {INTERVALS} \
         intervals; an interval may allocate only its outcome's three vectors",
        after - before
    );
}
