//! Fingerprint pinning for the FCSMA interval engine.
//!
//! Every case below drives [`FcsmaEngine`] through seeded arrivals,
//! attempt probabilities and channel draws. After each interval it folds
//! the whole [`IntervalOutcome`](rtmac_mac::IntervalOutcome) and the RNG's
//! next `u64` (read from a clone, so the engine's stream is not disturbed)
//! into an FNV-1a fingerprint pinned as an absolute constant. The RNG word
//! pins how many draws the interval consumed and in what order: a slot
//! loop that drew one coin more or less, or drew them out of link order,
//! moves it even when every counter agrees.
//!
//! * three golden shapes at the benchmark seed 2018: the saturated control
//!   network of Figs. 9–10, the video network of Figs. 3–4, and mixed
//!   per-link payloads ([`MacTiming::with_link_payloads`]) on a
//!   Gilbert–Elliott channel, where long frames stop fitting while short
//!   ones still contend;
//! * a fixed grid over N × deadlines × payloads × channel × attempt
//!   probabilities, hashed into one constant.

use rand::{Rng, RngCore};
use rtmac_mac::{FcsmaEngine, MacTiming};
use rtmac_phy::channel::{Bernoulli, GilbertElliott, GilbertElliottParams, LossModel};
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

/// The paper quantizer's levels: mean contention windows of 64, 32 and 16
/// slots.
const QUANTIZED: [f64; 3] = [1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0];

/// From a coin that almost never lands to one that always does; p = 1
/// draws nothing from the stream.
const WIDE: [f64; 7] = [1e-3, 1.0 / 64.0, 1.0 / 16.0, 0.25, 0.5, 0.9, 1.0];

/// Drives the engine over `intervals` seeded intervals. Each interval
/// draws every link's arrivals from `0..=max_arrivals` and its attempt
/// probability from `probs`, and returns a fingerprint of every outcome
/// and of the RNG state after it.
fn drive(
    timing: &MacTiming,
    channel: &mut dyn LossModel,
    seed: u64,
    intervals: usize,
    max_arrivals: u32,
    probs: &[f64],
) -> u64 {
    let n = channel.n_links();
    let mut engine = FcsmaEngine::new(timing.clone());
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);
    let mut prob_rng = seeds.rng(2);
    let mut arrivals = vec![0u32; n];
    let mut attempt_probs = vec![1.0f64; n];
    let mut hash = FNV_OFFSET;
    for _ in 0..intervals {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=max_arrivals);
        }
        for p in attempt_probs.iter_mut() {
            *p = probs[prob_rng.random_range(0..probs.len())];
        }
        let outcome = engine.run_interval(&arrivals, &attempt_probs, channel, &mut rng);
        hash = fnv1a(hash, format!("{outcome:?}").as_bytes());
        hash = fnv1a(hash, &rng.clone().next_u64().to_le_bytes());
    }
    hash
}

/// A bursty channel for `n` links whose parameters vary by link.
fn gilbert_elliott(n: usize) -> GilbertElliott {
    GilbertElliott::new(
        (0..n)
            .map(|l| GilbertElliottParams {
                p_good: 0.95,
                p_bad: [0.0, 0.2, 0.5][l % 3],
                good_to_bad: 0.05 + 0.05 * (l % 4) as f64,
                bad_to_good: 0.3,
            })
            .collect(),
    )
    .unwrap()
}

/// Asserts a pinned fingerprint with the re-pinning instructions.
fn assert_pinned(what: &str, hash: u64, pinned: u64) {
    assert_eq!(
        hash, pinned,
        "{what}: FCSMA decision trace changed (got {hash:#018X}): if intentional, \
         re-pin this fingerprint and regenerate the bench_results goldens"
    );
}

/// The control network of Figs. 9–10: 10 links, 2 ms, 100 B frames, with
/// more arrivals than the 16 transmissions an interval holds, so every
/// interval ends at the deadline with links still backlogged.
#[test]
fn golden_saturated_control_shape() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let mut channel = Bernoulli::new(vec![0.7; 10]).unwrap();
    let hash = drive(&timing, &mut channel, 2018, 300, 3, &QUANTIZED);
    assert_pinned("saturated control shape", hash, 0xBF37_0A53_3CDB_C5EE);
}

/// The video network of Figs. 3–4: 20 links, 20 ms, 1500 B frames.
#[test]
fn golden_video_shape() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let mut channel = Bernoulli::new(vec![0.9; 20]).unwrap();
    let hash = drive(&timing, &mut channel, 2018, 100, 3, &QUANTIZED);
    assert_pinned("video shape", hash, 0x3B3D_4D8F_41C0_97D8);
}

/// Mixed traffic classes on a bursty channel: payloads cycling through
/// 1500/100/500 B in a 2 ms interval, so the 1500 B links drop out of
/// contention while 100 B links can still finish a frame.
#[test]
fn golden_link_payloads_on_gilbert_elliott() {
    let payloads: Vec<u32> = (0..12).map(|l| [1500, 100, 500][l % 3]).collect();
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 1500)
        .with_link_payloads(&payloads);
    let mut channel = gilbert_elliott(12);
    let hash = drive(&timing, &mut channel, 2018, 300, 3, &WIDE);
    assert_pinned("per-link payloads", hash, 0x8D1E_A307_96E3_5894);
}

/// A fixed grid: deadlines {200 µs, 500 µs, 2 ms, 20 ms} × payloads
/// {uniform 100 B, uniform 1500 B, per-link 1500/100/500 B} × channel
/// {Bernoulli, Gilbert–Elliott} × probabilities {quantized, wide, always},
/// 12 intervals each. The link count (1..=24), seed, Bernoulli success
/// probability and arrival bound are derived from the case index. A
/// 200 µs deadline fits a 100 B frame but no 1500 B one.
#[test]
fn grid_fingerprint() {
    let prob_sets: [&[f64]; 3] = [&QUANTIZED, &WIDE, &[1.0]];
    let mut hash = FNV_OFFSET;
    let mut case = 0usize;
    for deadline_us in [200u64, 500, 2_000, 20_000] {
        for payloads in 0..3 {
            for bursty in [false, true] {
                for probs in prob_sets {
                    let n = 1 + (case * 7) % 24;
                    let mut timing = MacTiming::new(
                        PhyProfile::ieee80211a(),
                        Nanos::from_micros(deadline_us),
                        if payloads == 1 { 1500 } else { 100 },
                    );
                    if payloads == 2 {
                        let per_link: Vec<u32> = (0..n).map(|l| [1500, 100, 500][l % 3]).collect();
                        timing = timing.with_link_payloads(&per_link);
                    }
                    let mut channel: Box<dyn LossModel> = if bursty {
                        Box::new(gilbert_elliott(n))
                    } else {
                        let success = 0.3 + 0.1 * ((case * 3) % 7) as f64;
                        Box::new(Bernoulli::new(vec![success; n]).unwrap())
                    };
                    let max_arrivals = 1 + ((case * 5) % 4) as u32;
                    let h = drive(
                        &timing,
                        channel.as_mut(),
                        case as u64,
                        12,
                        max_arrivals,
                        probs,
                    );
                    hash = fnv1a(hash, &h.to_le_bytes());
                    case += 1;
                }
            }
        }
    }
    assert_eq!(case, 72);
    assert_pinned("configuration grid", hash, 0x36CC_79D6_010B_4E70);
}
