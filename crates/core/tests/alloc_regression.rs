//! Allocation guard for LDF, the [`Eldf`] policy over the centralized
//! engine.
//!
//! [`Eldf::run_interval`](TransmissionPolicy::run_interval) returns an
//! owned outcome, so once the first interval has sized the engine's
//! permutation check, an interval allocates the outcome's three per-link
//! vectors and nothing else: the weights and the priority order reuse the
//! policy's buffers.

use alloctrack::CountingAllocator;
use rtmac::mac::{CentralizedEngine, MacTiming};
use rtmac::model::influence::Linear;
use rtmac::model::{DebtLedger, Requirements};
use rtmac::phy::channel::Bernoulli;
use rtmac::phy::PhyProfile;
use rtmac::sim::{Nanos, SeedStream};
use rtmac::{Eldf, TransmissionPolicy};

/// The test reads its own thread's count, so the harness's threads never
/// land in its window.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The saturated control shape of Figs. 9–10: 10 links, 2 ms, 100 B
/// frames, more arrivals than an interval can carry, and debts settled
/// after every interval so that the priority order keeps changing.
#[test]
fn ldf_interval_allocates_only_its_outcome() {
    const LINKS: usize = 10;
    const INTERVALS: u64 = 100;
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let mut ldf = Eldf::new(
        CentralizedEngine::new(timing),
        Box::new(Linear),
        vec![0.7; LINKS],
    );
    let mut debts = DebtLedger::new(Requirements::new(vec![0.9; LINKS]).unwrap());
    let mut channel = Bernoulli::new(vec![0.7; LINKS]).unwrap();
    let mut rng = SeedStream::new(2018).rng(0);
    let arrivals = [3u32; LINKS];
    let mut first_served = [false; LINKS];

    let mut interval = || {
        let outcome = ldf.run_interval(&arrivals, &debts, &mut channel, &mut rng);
        debts.settle_interval(&outcome.deliveries);
        first_served[ldf.priority_order(&debts)[0].index()] = true;
    };
    // Warm-up: the first interval sizes the engine's buffers.
    interval();

    let before = alloctrack::thread_allocations();
    for _ in 0..INTERVALS {
        interval();
    }
    let after = alloctrack::thread_allocations();

    assert!(
        first_served.iter().filter(|&&f| f).count() > 1,
        "the order must change"
    );
    assert_eq!(
        after - before,
        3 * INTERVALS,
        "LDF allocated {} times over {INTERVALS} intervals; \
         an interval may allocate only its outcome's three vectors",
        after - before
    );
}
