//! Fingerprint pinning for the 802.11 DCF interval engine.
//!
//! No figure or workload runs DCF, so these constants are its only golden.
//! Every case drives [`DcfEngine`] through seeded arrivals and channel
//! draws. After each interval it folds the whole
//! [`IntervalOutcome`](rtmac_mac::IntervalOutcome) and the RNG's next
//! `u64` (read from a clone, so the engine's stream is not disturbed) into
//! an FNV-1a fingerprint pinned as an absolute constant. The RNG word pins
//! how many backoff and channel draws the interval consumed and in what
//! order.
//!
//! * three golden shapes at the benchmark seed 2018: the saturated control
//!   network of Figs. 9–10, the video network of Figs. 3–4, and mixed
//!   per-link payloads ([`MacTiming::with_link_payloads`]) on a
//!   Gilbert–Elliott channel with a short retry limit, so packets are
//!   dropped and long frames stop fitting while short ones still contend;
//! * a fixed grid over N × deadlines × payloads × channel × contention
//!   windows, hashed into one constant.

use rand::{Rng, RngCore};
use rtmac_mac::{DcfConfig, DcfEngine, MacTiming};
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

/// Drives the engine over `intervals` seeded intervals, each drawing every
/// link's arrivals from `0..=max_arrivals`, and returns a fingerprint of
/// every outcome and of the RNG state after it.
fn drive(
    config: DcfConfig,
    timing: &MacTiming,
    channel: &mut dyn LossModel,
    seed: u64,
    intervals: usize,
    max_arrivals: u32,
) -> u64 {
    let n = channel.n_links();
    let mut engine = DcfEngine::new(config, timing.clone());
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);
    let mut arrivals = vec![0u32; n];
    let mut hash = FNV_OFFSET;
    for _ in 0..intervals {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=max_arrivals);
        }
        let outcome = engine.run_interval(&arrivals, channel, &mut rng);
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
        "{what}: DCF decision trace changed (got {hash:#018X}): if intentional, \
         re-pin this fingerprint"
    );
}

/// The control network of Figs. 9–10: 10 links, 2 ms, 100 B frames, with
/// more arrivals than an interval holds.
#[test]
fn golden_saturated_control_shape() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let mut channel = Bernoulli::new(vec![0.7; 10]).unwrap();
    let hash = drive(DcfConfig::default(), &timing, &mut channel, 2018, 300, 3);
    assert_pinned("saturated control shape", hash, 0x464C_E9AA_DED8_E9FD);
}

/// The video network of Figs. 3–4: 20 links, 20 ms, 1500 B frames.
#[test]
fn golden_video_shape() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let mut channel = Bernoulli::new(vec![0.9; 20]).unwrap();
    let hash = drive(DcfConfig::default(), &timing, &mut channel, 2018, 100, 3);
    assert_pinned("video shape", hash, 0xB8A3_AE70_982E_BB5C);
}

/// Mixed traffic classes on a bursty channel with a short retry limit:
/// payloads cycling through 1500/100/500 B in a 2 ms interval, so the
/// 1500 B links drop out of contention while 100 B links can still finish
/// a frame, and repeated losses drop packets.
#[test]
fn golden_link_payloads_on_gilbert_elliott() {
    let payloads: Vec<u32> = (0..12).map(|l| [1500, 100, 500][l % 3]).collect();
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 1500)
        .with_link_payloads(&payloads);
    let config = DcfConfig {
        cw_min: 4,
        cw_max: 32,
        retry_limit: 2,
    };
    let mut channel = gilbert_elliott(12);
    let hash = drive(config, &timing, &mut channel, 2018, 300, 3);
    assert_pinned("per-link payloads", hash, 0x128B_8BE6_04C3_21A4);
}

/// A fixed grid: deadlines {200 µs, 500 µs, 2 ms, 20 ms} × payloads
/// {uniform 100 B, uniform 1500 B, per-link 1500/100/500 B} × channel
/// {Bernoulli, Gilbert–Elliott} × windows {802.11a default, CW 2..4 with
/// one retry, CW 1..1024 with three}, 12 intervals each. The link count
/// (1..=24), seed, Bernoulli success probability and arrival bound are
/// derived from the case index. A 200 µs deadline fits a 100 B frame but
/// no 1500 B one, and CW 1 starts every link at once.
#[test]
fn grid_fingerprint() {
    let configs = [
        DcfConfig::default(),
        DcfConfig {
            cw_min: 2,
            cw_max: 4,
            retry_limit: 1,
        },
        DcfConfig {
            cw_min: 1,
            cw_max: 1024,
            retry_limit: 3,
        },
    ];
    let mut hash = FNV_OFFSET;
    let mut case = 0usize;
    for deadline_us in [200u64, 500, 2_000, 20_000] {
        for payloads in 0..3 {
            for bursty in [false, true] {
                for config in configs {
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
                        config,
                        &timing,
                        channel.as_mut(),
                        case as u64,
                        12,
                        max_arrivals,
                    );
                    hash = fnv1a(hash, &h.to_le_bytes());
                    case += 1;
                }
            }
        }
    }
    assert_eq!(case, 72);
    assert_pinned("configuration grid", hash, 0x2B3E_B2D0_F25D_58F7);
}
