//! Fingerprint pinning for the DP interval engine.
//!
//! Every case below drives [`DpEngine`] through seeded arrivals, coin
//! parameters and channel draws and folds each interval's report and σ
//! into an FNV-1a fingerprint pinned as an absolute constant. The
//! constants were taken while the engine still had a second, slot-by-slot
//! implementation that agreed with it byte for byte, so they pin the
//! protocol's decision trace itself: any change to the candidate draw, the
//! coins, the backoff walk, the sense checks, the commit, or RNG
//! consumption breaks loudly.
//!
//! * four golden shapes at the benchmark seed 2018 (video, control,
//!   concede pressure, saturated N = 200);
//! * a mixed per-link payload shape ([`MacTiming::with_link_payloads`]);
//! * a fixed grid over swap pairs × deadlines × payloads × trace mode,
//!   hashed into two constants: the cases that draw at most one swap pair
//!   and the cases that draw more.

use rand::Rng;
use rtmac_mac::{DpConfig, DpEngine, MacTiming};
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

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

/// Drives the engine over `intervals` seeded intervals and returns a
/// fingerprint of every report and σ.
fn drive(
    config: &DpConfig,
    n: usize,
    seed: u64,
    intervals: usize,
    success: f64,
    max_arrivals: u32,
) -> u64 {
    let mut engine = DpEngine::new(config.clone(), n);
    let mut channel = Bernoulli::new(vec![success; n]).unwrap();
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);
    let mut mu_rng = seeds.rng(2);
    let mut arrivals = vec![0u32; n];
    let mut mu = vec![0.5f64; n];
    let mut hash = FNV_OFFSET;
    for _ in 0..intervals {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=max_arrivals);
        }
        for m in mu.iter_mut() {
            *m = mu_rng.random_range(0.05..0.95);
        }
        let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
        hash = fnv1a(hash, format!("{report:?}").as_bytes());
        hash = fnv1a(hash, format!("{}", engine.sigma()).as_bytes());
    }
    hash
}

/// Which half of a split constant a case folds into: 0 when the shared
/// draw picks at most one pair (`min(pairs, ⌊N/2⌋) ≤ 1`, a single
/// `random_range`), 1 when it picks two or more. The halves move
/// independently, so a change to the multi-pair sampler shows in half 1
/// only.
fn draw_half(swap_pairs: usize, n: usize) -> usize {
    usize::from(swap_pairs.min(n / 2) >= 2)
}

/// Asserts a pinned fingerprint with the re-pinning instructions.
fn assert_pinned(what: &str, hash: u64, pinned: u64) {
    assert_eq!(
        hash, pinned,
        "{what}: DP decision trace changed (got {hash:#018X}): if intentional, \
         re-pin this fingerprint and regenerate the bench_results goldens"
    );
}

/// The golden trace: 20 video links (the fig. 3 shape), traced, at the
/// benchmark seed, anchored to the behaviour the committed bench_results
/// figures were produced with.
#[test]
fn golden_trace_fingerprint_at_seed_2018() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let config = DpConfig::new(timing).with_trace(true);
    let hash = drive(&config, 20, 2018, 300, 0.9, 3);
    assert_pinned("video shape", hash, 0x9A17_F84D_1E38_09CB);
}

/// Control-loop shape: short 2 ms deadline, 100 B payloads, two pairs.
#[test]
fn golden_control_shape_matches() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let config = DpConfig::new(timing).with_swap_pairs(2).with_trace(true);
    let hash = drive(&config, 10, 2018, 300, 0.7, 2);
    assert_pinned("control shape", hash, 0x675C_766A_27F3_6F89);
}

/// Deadline so tight that data frames never fit: the Remark-4 concede
/// path and empty-claim frames dominate.
#[test]
fn golden_concede_pressure_matches() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(200), 1500);
    let config = DpConfig::new(timing).with_trace(true);
    let hash = drive(&config, 6, 2018, 400, 0.9, 1);
    assert_pinned("concede pressure", hash, 0x6005_6622_EC82_B1D1);
}

/// Saturated large-ish N: the walk stops at the deadline long before
/// exhausting claimants, exercising the idle-gap stop arithmetic.
#[test]
fn golden_saturated_n200_matches() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let config = DpConfig::new(timing);
    let hash = drive(&config, 200, 2018, 30, 0.8, 4);
    assert_pinned("saturated N = 200", hash, 0xDCB7_F255_CE13_F857);
}

/// Mixed traffic classes on one medium: per-link payloads cycling through
/// 1500/100/500 B, so airtimes differ by link and short control frames
/// squeeze into tail time a video frame cannot use.
#[test]
fn golden_link_payloads_match() {
    let payloads: Vec<u32> = (0..12).map(|l| [1500, 100, 500][l % 3]).collect();
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 1500)
        .with_link_payloads(&payloads);
    let config = DpConfig::new(timing).with_swap_pairs(2).with_trace(true);
    let hash = drive(&config, 12, 2018, 300, 0.8, 3);
    assert_pinned("per-link payloads", hash, 0xE71E_B431_BF11_A102);
}

/// A fixed grid over the configuration space: swap pairs 0..4 × deadlines
/// {200 µs, 500 µs, 2 ms, 20 ms} × payloads {100, 500, 1500} B × trace
/// on/off, 12 intervals each. Link count, seed, channel reliability and
/// arrival bound are derived from the case index so the grid also spans
/// N = 2..=13. Every case's fingerprint folds into one of two constants,
/// split by draw size (see [`draw_half`]).
#[test]
fn grid_fingerprint() {
    let mut hash = [FNV_OFFSET; 2];
    let mut case = 0usize;
    for swap_pairs in 0..4 {
        for deadline_us in [200u64, 500, 2_000, 20_000] {
            for payload in [100u32, 500, 1500] {
                for trace in [false, true] {
                    let timing = MacTiming::new(
                        PhyProfile::ieee80211a(),
                        Nanos::from_micros(deadline_us),
                        payload,
                    );
                    let config = DpConfig::new(timing)
                        .with_swap_pairs(swap_pairs)
                        .with_trace(trace);
                    let n = 2 + (case * 5) % 12;
                    let success = 0.3 + 0.1 * ((case * 3) % 7) as f64;
                    let max_arrivals = ((case * 3) % 4) as u32;
                    let h = drive(&config, n, case as u64, 12, success, max_arrivals);
                    let half = draw_half(swap_pairs, n);
                    hash[half] = fnv1a(hash[half], &h.to_le_bytes());
                    case += 1;
                }
            }
        }
    }
    assert_eq!(case, 96);
    assert_pinned(
        "configuration grid ≤ 1 pair",
        hash[0],
        0xE7E5_EB0B_680D_44A8,
    );
    assert_pinned(
        "configuration grid ≥ 2 pairs",
        hash[1],
        0x50B9_C796_39B8_8BA7,
    );
}
