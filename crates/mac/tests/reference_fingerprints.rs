//! Fingerprint pinning for the device-view reference network.
//!
//! [`ReferenceNetwork`] is the independent oracle the fast engine is
//! differential-tested against, and those tests compare only what both
//! implementations count the same way. These constants pin the rest: every
//! field of each interval's [`IntervalOutcome`](rtmac_mac::IntervalOutcome)
//! (`idle_slots`, `busy_time`, `leftover` and `collisions` included) and
//! the priority ordering σ after it, folded into FNV-1a fingerprints.
//!
//! * a seeded grid over N = 1..=6 × five deadlines from 350 µs to 5 ms ×
//!   20 seeds, 30 intervals each, on scripted channels: random arrivals,
//!   candidates (or none) and coins, with payloads cycling through 100,
//!   300, 1500 B and mixed per-link sizes, so frames stop fitting and the
//!   Remark-4 and failed-claim concede paths run;
//! * the control network of Figs. 9–10 on a Bernoulli channel at seed
//!   2018, which also folds the RNG's next `u64` after every interval (read
//!   from a clone), pinning how many channel draws each interval consumed.

use rand::{Rng, RngCore};
use rtmac_mac::reference::ReferenceNetwork;
use rtmac_mac::MacTiming;
use rtmac_model::LinkId;
use rtmac_phy::channel::{Bernoulli, LossModel, Scripted};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream, SimRng};

/// FNV-1a over a byte stream; stable across platforms.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs one seeded interval on `net` and folds its outcome and the
/// resulting σ into `hash`. A candidate is drawn for three intervals in
/// four when the network has a pair to draw.
fn step(
    net: &mut ReferenceNetwork,
    meta: &mut SimRng,
    max_arrivals: u32,
    channel: &mut dyn LossModel,
    rng: &mut SimRng,
    hash: u64,
) -> u64 {
    let n = net.sigma().len();
    let arrivals: Vec<u32> = (0..n)
        .map(|_| meta.random_range(0..=max_arrivals))
        .collect();
    let candidate = (n >= 2 && meta.random_bool(0.75)).then(|| meta.random_range(1..n));
    let xi_up: Vec<bool> = (0..n).map(|_| meta.random_bool(0.5)).collect();
    let outcome = net.run_interval(&arrivals, candidate, &xi_up, channel, rng);
    let mut hash = fnv1a(hash, format!("{outcome:?}").as_bytes());
    for link in 0..n {
        let priority = net.sigma().priority_of(LinkId::new(link)) as u64;
        hash = fnv1a(hash, &priority.to_le_bytes());
    }
    hash
}

/// Asserts a pinned fingerprint with the re-pinning instructions.
fn assert_pinned(what: &str, hash: u64, pinned: u64) {
    assert_eq!(
        hash, pinned,
        "{what}: reference decision trace changed (got {hash:#018X}): if intentional, \
         re-pin this fingerprint"
    );
}

/// N = 1..=6 × deadlines {350, 600, 900, 2000, 5000} µs × seeds 0..20, 30
/// intervals each: 18 000 intervals. Each case's scripted channel gives
/// every link its own seeded script of 1..=16 outcomes (success 0.7),
/// cycling, so losses land at varying attempt indices.
#[test]
fn scripted_grid_fingerprint() {
    let mut hash = FNV_OFFSET;
    let mut intervals = 0usize;
    for n in 1..=6usize {
        for deadline_us in [350u64, 600, 900, 2_000, 5_000] {
            for seed in 0..20u64 {
                let mut timing = MacTiming::new(
                    PhyProfile::ieee80211a(),
                    Nanos::from_micros(deadline_us),
                    [100, 300, 1500, 300][(seed % 4) as usize],
                );
                if seed % 4 == 3 {
                    let per_link: Vec<u32> = (0..n).map(|l| [1500, 100, 500][l % 3]).collect();
                    timing = timing.with_link_payloads(&per_link);
                }
                let seeds = SeedStream::new(seed);
                let mut meta = seeds.rng(0);
                let mut rng = seeds.rng(1);
                let script: Vec<Vec<bool>> = (0..n)
                    .map(|_| {
                        let len: usize = meta.random_range(1..=16);
                        (0..len).map(|_| meta.random_bool(0.7)).collect()
                    })
                    .collect();
                let mut channel = Scripted::new(script).unwrap();
                let mut net = ReferenceNetwork::new(timing, n);
                let max_arrivals = 1 + (seed % 3) as u32;
                for _ in 0..30 {
                    hash = step(
                        &mut net,
                        &mut meta,
                        max_arrivals,
                        &mut channel,
                        &mut rng,
                        hash,
                    );
                    intervals += 1;
                }
            }
        }
    }
    assert_eq!(intervals, 18_000);
    assert_pinned("scripted grid", hash, 0xC0A8_2738_3ABE_8AF2);
}

/// The control network of Figs. 9–10: 10 links, 2 ms, 100 B frames,
/// success 0.7, up to 3 arrivals per link, 300 intervals at seed 2018.
#[test]
fn golden_control_shape_on_bernoulli() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let seeds = SeedStream::new(2018);
    let mut meta = seeds.rng(0);
    let mut rng = seeds.rng(1);
    let mut channel = Bernoulli::new(vec![0.7; 10]).unwrap();
    let mut net = ReferenceNetwork::new(timing, 10);
    let mut hash = FNV_OFFSET;
    for _ in 0..300 {
        hash = step(&mut net, &mut meta, 3, &mut channel, &mut rng, hash);
        hash = fnv1a(hash, &rng.clone().next_u64().to_le_bytes());
    }
    assert_pinned("control shape", hash, 0x1EEA_F50A_3178_C0A7);
}
