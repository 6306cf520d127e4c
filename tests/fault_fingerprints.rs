//! Fingerprint pinning for the degraded (fault-layer) DP engine.
//!
//! Every case drives an engine that carries a fault layer — sensing
//! noise, bursty sensing, hidden terminals, scripted or Poisson churn,
//! blocked links, corrupted beliefs, or just an empty layer — through
//! seeded arrivals, coin parameters and channel draws. Each interval's
//! report (outcome, candidates, swaps, trace), the belief vector and the
//! R2 limits fold into an FNV-1a fingerprint, followed by the final
//! fault counters and the drained churn events. The constants are
//! absolute: any change to the candidate draw, the coin order, the
//! belief walk, the modeled collisions, the sense filter, the commit or
//! the R1/R2 recovery breaks loudly.
//!
//! * a fixed 216-case grid over N × swap pairs × fault setting ×
//!   recovery rule, with timing and trace mode alternating;
//! * 300 seeded random configurations with mid-run blocking, fault-model
//!   withdrawal and churn-event drains;
//! * the saturated zero-fault case in which an empty layer's R2
//!   fallback leaves the fault-free trajectory;
//! * four network-level robustness scenarios, pinned over their
//!   `RunReport`.

use rand::Rng;
use rtmac::scenario;
use rtmac_mac::{
    ChurnEvent, DpConfig, DpEngine, FaultStats, FaultyDpEngine, MacTiming, RecoveryConfig,
};
use rtmac_model::LinkId;
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::fault::{BurstSensing, ChurnProcess, ChurnSchedule, FaultModel, HiddenMatrix};
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

/// Number of fault settings in the grid (see [`build`]).
const FAULT_SETTINGS: usize = 8;

/// Builds the engine for one grid case. Fault setting `fault`:
///
/// 0. an empty layer (perfect sensing, nothing else);
/// 1. i.i.d. sensing errors, ε = 0.05;
/// 2. Gilbert–Elliott bursty sensing over a light base rate;
/// 3. hidden pairs, exact sensing;
/// 4. one scripted crash/revive;
/// 5. Poisson churn with light sensing noise;
/// 6. a flash crowd plus one blocked link (unblocked by [`drive`]);
/// 7. corrupted starting beliefs (duplicates and holes).
fn build(config: DpConfig, n: usize, fault: usize, recovery: usize, seed: u64) -> FaultyDpEngine {
    let seeds = SeedStream::new(seed);
    let model = match fault {
        1 => FaultModel::symmetric(0.05, seeds.rng(3)),
        2 => FaultModel::symmetric(0.01, seeds.rng(3)).with_burst(
            n,
            BurstSensing::new(0.1, 0.3, 0.3, 0.3),
            seeds.rng(5),
        ),
        5 => FaultModel::symmetric(0.01, seeds.rng(3)),
        _ => FaultModel::none(),
    };
    let recovery = match recovery {
        0 => RecoveryConfig::new().with_miss_limit(2),
        1 => RecoveryConfig::new().with_adaptive_miss_limit(1, 8),
        _ => RecoveryConfig::disabled(),
    };
    let mut engine = FaultyDpEngine::new(config, n)
        .with_fault_model(model)
        .with_recovery(recovery);
    match fault {
        3 => {
            engine =
                engine.with_hidden(HiddenMatrix::new(n).with_hidden(1, 0).with_hidden(0, n - 1));
        }
        4 => {
            engine = engine.with_churn_process(
                ChurnProcess::new(n).with_event(ChurnSchedule::new(LinkId::new(n - 1), 3, 5)),
            );
        }
        5 => {
            engine = engine.with_churn_process(ChurnProcess::new(n).with_poisson(
                0.05,
                3.0,
                seeds.rng(4),
            ));
        }
        6 => {
            let first = n / 2;
            engine = engine.with_churn_process(ChurnProcess::new(n).with_flash_crowd(
                first,
                n - first,
                6,
            ));
            engine.set_blocked(0, true);
        }
        7 => engine.set_beliefs((0..n).map(|l| l / 2 + 1).collect()),
        _ => {}
    }
    engine
}

/// Drives `engine` over `intervals` seeded intervals and fingerprints
/// every report, the beliefs and R2 limits after each, then the final
/// fault counters and the drained churn events. With `unblock_at`, link
/// 0 is unblocked before that interval.
fn drive(
    engine: &mut FaultyDpEngine,
    seed: u64,
    intervals: usize,
    max_arrivals: u32,
    unblock_at: Option<usize>,
) -> u64 {
    let n = engine.n_links();
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.rng(2);
    let mut input_rng = seeds.rng(1);
    let mut channel = Bernoulli::new(vec![0.8; n]).unwrap();
    let mut arrivals = vec![0u32; n];
    let mut mu = vec![0.5f64; n];
    let mut events: Vec<ChurnEvent> = Vec::new();
    let mut hash = FNV_OFFSET;
    for k in 0..intervals {
        if unblock_at == Some(k) {
            engine.set_blocked(0, false);
        }
        for a in arrivals.iter_mut() {
            *a = input_rng.random_range(0..=max_arrivals);
        }
        for m in mu.iter_mut() {
            *m = input_rng.random_range(0.05..0.95);
        }
        let report = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
        hash = fnv1a(hash, format!("{report:?}").as_bytes());
        hash = fnv1a(hash, format!("{:?}", engine.beliefs()).as_bytes());
        hash = fnv1a(hash, format!("{:?}", engine.r2_limits()).as_bytes());
    }
    engine.drain_churn_events(&mut events);
    hash = fnv1a(hash, format!("{:?}", engine.stats()).as_bytes());
    fnv1a(hash, format!("{events:?}").as_bytes())
}

/// Asserts a pinned fingerprint with the re-pinning instructions.
fn assert_pinned(what: &str, hash: u64, pinned: u64) {
    assert_eq!(
        hash, pinned,
        "{what}: degraded DP decision trace changed (got {hash:#018X}): if \
         intentional, re-pin this fingerprint and regenerate the fault goldens"
    );
}

/// The fixed grid: N ∈ {2, 5, 12} × swap pairs ∈ {0, 1, 3} × every fault
/// setting × fixed/adaptive/disabled recovery, 40 intervals each. Cases
/// alternate between a 2 ms / 100 B and a 20 ms / 1500 B timing, and
/// trace mode is on in every other pair of cases.
#[test]
fn fault_grid_fingerprint() {
    let mut hash = FNV_OFFSET;
    let mut case = 0usize;
    let mut totals = FaultStats::default();
    for n in [2usize, 5, 12] {
        for swap_pairs in [0usize, 1, 3] {
            for fault in 0..FAULT_SETTINGS {
                for recovery in 0..3 {
                    let (deadline, payload) = if case.is_multiple_of(2) {
                        (Nanos::from_millis(2), 100)
                    } else {
                        (Nanos::from_millis(20), 1500)
                    };
                    let timing = MacTiming::new(PhyProfile::ieee80211a(), deadline, payload);
                    let config = DpConfig::new(timing)
                        .with_swap_pairs(swap_pairs)
                        .with_trace((case / 2).is_multiple_of(2));
                    let seed = 1000 + case as u64;
                    let mut engine = build(config, n, fault, recovery, seed);
                    let unblock = (fault == 6).then_some(12);
                    let max_arrivals = 1 + (case % 3) as u32;
                    let h = drive(&mut engine, seed, 40, max_arrivals, unblock);
                    hash = fnv1a(hash, &h.to_le_bytes());
                    let s = engine.stats();
                    totals.divergences += s.divergences;
                    totals.fallbacks += s.fallbacks;
                    totals.reconvergences += s.reconvergences;
                    totals.sensing_flips += s.sensing_flips;
                    case += 1;
                }
            }
        }
    }
    assert_eq!(case, 216);
    // The grid reaches every recovery path it pins.
    assert!(totals.divergences > 0 && totals.fallbacks > 0);
    assert!(totals.reconvergences > 0 && totals.sensing_flips > 0);
    assert_pinned("fault grid", hash, 0x8707_A838_8E82_2245);
}

/// 300 configurations drawn from a seeded stream: N up to 40, up to 5
/// pairs, six deadlines, per-link payloads, random noise, bursts,
/// hidden pairs, churn, corrupted beliefs and recovery rules, with links
/// blocked and unblocked, the fault model withdrawn and churn events
/// drained mid-run. Every configuration's fingerprint folds into one
/// constant.
#[test]
fn random_configurations_fingerprint() {
    let mut hash = FNV_OFFSET;
    for case in 0..300u64 {
        let seeds = SeedStream::new(77_000 + case);
        let mut pick = seeds.rng(9);
        let n = pick.random_range(2..=40usize);
        let deadline = [200u64, 500, 1_000, 2_000, 5_000, 20_000][pick.random_range(0..6usize)];
        let payload = [100u32, 500, 1500][pick.random_range(0..3usize)];
        let mut timing = MacTiming::new(
            PhyProfile::ieee80211a(),
            Nanos::from_micros(deadline),
            payload,
        );
        if pick.random_bool(0.2) {
            let payloads: Vec<u32> = (0..n).map(|l| [1500, 100, 500][l % 3]).collect();
            timing = timing.with_link_payloads(&payloads);
        }
        let config = DpConfig::new(timing)
            .with_swap_pairs(pick.random_range(0..=5usize))
            .with_trace(pick.random_bool(0.5));
        let eps = [0.0, 0.0, 1e-3, 0.02, 0.1, 0.3][pick.random_range(0..6usize)];
        let mut model = if eps == 0.0 {
            FaultModel::none()
        } else {
            FaultModel::symmetric(eps, seeds.rng(3))
        };
        if pick.random_bool(0.2) {
            model = FaultModel::symmetric(f64::max(eps, 1e-3), seeds.rng(3)).with_burst(
                n,
                BurstSensing::new(0.1, 0.3, 0.3, 0.2),
                seeds.rng(5),
            );
        }
        let recovery = match pick.random_range(0..4u32) {
            0 => RecoveryConfig::new(),
            1 => RecoveryConfig::new().with_miss_limit(1 + pick.random_range(0..4u32)),
            2 => RecoveryConfig::new().with_adaptive_miss_limit(1 + pick.random_range(0..3u32), 16),
            _ => RecoveryConfig::disabled().with_collision_fallback(pick.random_bool(0.5)),
        };
        let mut engine = FaultyDpEngine::new(config, n)
            .with_fault_model(model)
            .with_recovery(recovery);
        if pick.random_bool(0.3) {
            let mut hidden = HiddenMatrix::new(n);
            for _ in 0..pick.random_range(1..=4usize) {
                let (a, b) = (pick.random_range(0..n), pick.random_range(0..n));
                if a != b {
                    hidden.hide(a, b);
                }
            }
            engine = engine.with_hidden(hidden);
        }
        if pick.random_bool(0.4) {
            let mut churn = ChurnProcess::new(n);
            if pick.random_bool(0.5) {
                let link = LinkId::new(pick.random_range(0..n));
                let (at, len) = (pick.random_range(0..20u64), 1 + pick.random_range(0..10u64));
                churn = churn.with_event(ChurnSchedule::new(link, at, len));
            }
            if pick.random_bool(0.3) && n >= 3 {
                let first = pick.random_range(0..n - 1);
                let count = 1 + pick.random_range(0..n - first);
                churn = churn.with_flash_crowd(first, count, 1 + pick.random_range(0..20u64));
            }
            if pick.random_bool(0.5) {
                churn = churn.with_poisson(0.05, 3.0, seeds.rng(4));
            }
            engine = engine.with_churn_process(churn);
        }
        if pick.random_bool(0.3) {
            engine.set_beliefs((0..n).map(|_| pick.random_range(1..=n)).collect());
        }
        let mut channel = Bernoulli::new(vec![0.3 + 0.7 * pick.random::<f64>(); n]).unwrap();
        let mut rng = seeds.rng(2);
        let mut input = seeds.rng(1);
        let max_arrivals = pick.random_range(0..=4u32);
        let mut events: Vec<ChurnEvent> = Vec::new();
        for k in 0..60 {
            if pick.random_bool(0.05) {
                engine.set_blocked(pick.random_range(0..n), pick.random_bool(0.5));
            }
            if k == 30 && pick.random_bool(0.2) {
                engine.set_fault_model(FaultModel::none());
            }
            let arrivals: Vec<u32> = (0..n)
                .map(|_| input.random_range(0..=max_arrivals))
                .collect();
            let mu: Vec<f64> = (0..n).map(|_| input.random_range(0.02..0.98)).collect();
            let report = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
            hash = fnv1a(hash, format!("{report:?}").as_bytes());
            hash = fnv1a(hash, format!("{:?}", engine.beliefs()).as_bytes());
            hash = fnv1a(hash, format!("{:?}", engine.r2_limits()).as_bytes());
            if k % 7 == 0 {
                engine.drain_churn_events(&mut events);
            }
        }
        engine.drain_churn_events(&mut events);
        hash = fnv1a(hash, format!("{:?}{events:?}", engine.stats()).as_bytes());
    }
    assert_pinned("random configurations", hash, 0x325A_D936_0101_3BD4);
}

/// An empty layer is not the fault-free engine: R2 still runs. In a
/// saturated 2 ms / 100 B network of 20 links, a lo candidate whose upper
/// neighbour's claim never fits before the deadline misses it for the
/// miss limit and falls back, and the trajectories part.
#[test]
fn saturated_empty_layer_r2_fingerprint() {
    let n = 20;
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let config = DpConfig::new(timing);
    let mut pristine = DpEngine::new(config.clone(), n);
    let mut layered = FaultyDpEngine::new(config, n).with_fault_model(FaultModel::none());
    let mut rng_a = SeedStream::new(2018).rng(2);
    let mut rng_b = SeedStream::new(2018).rng(2);
    let mut ch_a = Bernoulli::reliable(n);
    let mut ch_b = Bernoulli::reliable(n);
    let arrivals = vec![3u32; n];
    let mu = vec![0.5f64; n];
    let mut parted_at = None;
    let mut hash = FNV_OFFSET;
    for k in 0..40 {
        let a = pristine.run_interval(&arrivals, &mu, &mut ch_a, &mut rng_a);
        let b = layered.run_interval(&arrivals, &mu, &mut ch_b, &mut rng_b);
        if parted_at.is_none() && (a != b || pristine.sigma().priorities() != layered.beliefs()) {
            parted_at = Some(k);
        }
        hash = fnv1a(hash, format!("{b:?}").as_bytes());
        hash = fnv1a(hash, format!("{:?}", layered.beliefs()).as_bytes());
    }
    let stats = layered.stats();
    hash = fnv1a(hash, format!("{stats:?}").as_bytes());
    assert_eq!(parted_at, Some(8), "the empty layer's R2 parts from σ");
    assert_eq!(stats.sensing_flips, 0);
    assert_pinned("saturated empty layer", hash, 0x5E99_0144_EFCF_850E);
}

/// The four named robustness scenarios, end to end through the network
/// (traffic, Eq. 14 μ, the degraded engine, debts, admission), pinned
/// over their whole `RunReport` including `fault` and `admission`.
#[test]
fn robustness_scenarios_fingerprint() {
    for (name, pinned) in [
        ("bursty", 0x0F80_8146_6045_6326),
        ("hidden-terminal", 0x8385_679A_123D_7E6C),
        ("poisson-churn", 0xAA73_7129_2A13_AFC6),
        ("overload-admission", 0xF12D_4DD5_DD5A_6127),
    ] {
        let sc = scenario::by_name(name).unwrap().with_intervals(400);
        let report = sc.run().unwrap();
        assert!(report.fault.is_some(), "{name} runs the degraded engine");
        let hash = fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes());
        assert_pinned(name, hash, pinned);
    }
}
