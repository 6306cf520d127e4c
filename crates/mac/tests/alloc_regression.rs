//! Zero-allocation regression guard for the DP interval engine.
//!
//! The engine's contract is that *stepping* never touches the heap once
//! the first step has sized its buffers (per-pair state, sense board,
//! candidate pools, the reusable report). This test installs a counting
//! global allocator, warms the engine, then asserts that further
//! intervals — through both the μ-driven [`DpEngine::step`] and the
//! coin-injected [`DpEngine::step_with_coins`] — perform exactly zero heap
//! allocations.
//!
//! Trace mode is exempt from the contract (trace buffers legitimately grow
//! on the first traced intervals), so the engine under test runs untraced —
//! matching the benchmark configuration.

use alloctrack::CountingAllocator;
use rand::Rng;
use rtmac_mac::{draw_nonadjacent_candidates_into, DpConfig, DpEngine, MacTiming, PairCoins};
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

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
    // Caller-side buffers for the injected path, sized before counting.
    let mut candidates = Vec::with_capacity(PAIRS);
    let mut pool = Vec::with_capacity(N);
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

    let before = alloctrack::allocations();
    for k in 0..100 {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=3);
        }
        let report = if k % 2 == 0 {
            engine.step(&arrivals, &mu, &mut channel, &mut rng)
        } else {
            draw_nonadjacent_candidates_into(N, PAIRS, &mut rng, &mut candidates, &mut pool);
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
    let after = alloctrack::allocations();

    assert_eq!(
        after - before,
        0,
        "DP stepping allocated {} times over 100 intervals; \
         the interval kernel must be allocation-free",
        after - before
    );
}
