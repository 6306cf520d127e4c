//! `SimRng` against the vendored `rand::rngs::SmallRng`, the oracle for
//! the streams every golden figure and fingerprint was recorded with: the
//! two generators must agree word for word from every seed, through every
//! sampler the workspace calls, and `SimRng::fill_bursts` must consume
//! what per-slot `random_bool` and `random_range` calls on `SmallRng` do.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rtmac_sim::{bernoulli_threshold, SimRng};

/// `count` seeds spread over the whole `u64` range, 0 and `u64::MAX`
/// included.
fn seeds(count: u64) -> impl Iterator<Item = u64> {
    (0..count)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .chain([1, u64::MAX])
}

/// Asserts that both generators produce the same next `words` words.
fn assert_same_words(sim: &mut SimRng, oracle: &mut SmallRng, words: usize, what: &str) {
    for i in 0..words {
        assert_eq!(sim.next_u64(), oracle.next_u64(), "{what}: word {i}");
    }
}

#[test]
fn seed_from_u64_streams_match() {
    for seed in seeds(1_000) {
        let mut sim = SimRng::seed_from_u64(seed);
        let mut oracle = SmallRng::seed_from_u64(seed);
        assert_same_words(&mut sim, &mut oracle, 10_000, &format!("seed {seed}"));
    }
}

#[test]
fn from_seed_matches_including_the_all_zero_remap() {
    let mut bytes = [0u8; 32];
    let mut sim = SimRng::from_seed(bytes);
    let mut oracle = SmallRng::from_seed(bytes);
    assert_eq!(sim, SimRng::seed_from_u64(0), "all-zero seed remaps");
    assert_same_words(&mut sim, &mut oracle, 100, "all-zero seed");
    // One nonzero byte in each position, then seeds filled from a stream.
    for position in 0..32 {
        bytes = [0; 32];
        bytes[position] = 0x80;
        let mut sim = SimRng::from_seed(bytes);
        let mut oracle = SmallRng::from_seed(bytes);
        assert_same_words(&mut sim, &mut oracle, 100, &format!("byte {position}"));
    }
    let mut filler = SmallRng::seed_from_u64(2018);
    for round in 0..200 {
        filler.fill_bytes(&mut bytes);
        let mut sim = SimRng::from_seed(bytes);
        let mut oracle = SmallRng::from_seed(bytes);
        assert_same_words(&mut sim, &mut oracle, 100, &format!("round {round}"));
    }
}

#[test]
fn next_u32_and_fill_bytes_match() {
    for seed in seeds(50) {
        let mut sim = SimRng::seed_from_u64(seed);
        let mut oracle = SmallRng::seed_from_u64(seed);
        for _ in 0..1_000 {
            assert_eq!(sim.next_u32(), oracle.next_u32(), "seed {seed}");
            assert_eq!(sim.next_u64(), oracle.next_u64(), "seed {seed}");
        }
        let (mut a, mut b) = ([0u8; 13], [0u8; 13]);
        sim.fill_bytes(&mut a);
        oracle.fill_bytes(&mut b);
        assert_eq!(a, b, "seed {seed}");
        assert_same_words(&mut sim, &mut oracle, 4, "after fill_bytes");
    }
}

#[test]
fn samplers_consume_the_same_stream() {
    for seed in seeds(200) {
        let mut sim = SimRng::seed_from_u64(seed);
        let mut oracle = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            assert_eq!(sim.random_range(1..=6u32), oracle.random_range(1..=6u32));
            // Ranges whose Canon's method often needs a second word.
            assert_eq!(
                sim.random_range(1..=3_000_000_000u32),
                oracle.random_range(1..=3_000_000_000u32)
            );
            assert_eq!(
                sim.random_range(0..u64::MAX - 7),
                oracle.random_range(0..u64::MAX - 7)
            );
            assert_eq!(
                sim.random_range(0..17usize),
                oracle.random_range(0..17usize)
            );
            assert_eq!(
                sim.random_range(0.25..0.5f64).to_bits(),
                oracle.random_range(0.25..0.5f64).to_bits()
            );
            for p in [0.0, 1e-300, 0.3, 0.55, 1.0 - 2f64.powi(-53), 1.0] {
                assert_eq!(sim.random_bool(p), oracle.random_bool(p), "p = {p}");
            }
            assert_eq!(
                sim.random::<f64>().to_bits(),
                oracle.random::<f64>().to_bits()
            );
        }
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        a.shuffle(&mut sim);
        b.shuffle(&mut oracle);
        assert_eq!(a, b, "seed {seed}");
        assert_same_words(&mut sim, &mut oracle, 4, "after the samplers");
    }
}

#[test]
fn fill_bursts_consumes_the_per_slot_stream() {
    // Rare, even and near-certain coins, thresholds of 0 and of almost
    // 2^64, and burst sizes where most hits take Canon's second word.
    let ps = [0.0, 1e-300, 0.02, 0.55, 0.98, 1.0 - 2f64.powi(-53)];
    let maxes = [1, 6, 1 << 20, 3_000_000_000, u32::MAX];
    for (case, seed) in seeds(40).enumerate() {
        let p = ps[case % ps.len()];
        let burst_max = maxes[case % maxes.len()];
        let mut sim = SimRng::seed_from_u64(seed);
        let mut oracle = SmallRng::seed_from_u64(seed);
        let mut out = vec![u32::MAX; 2_000];
        sim.fill_bursts(bernoulli_threshold(p), burst_max, &mut out);
        let want: Vec<u32> = (0..out.len())
            .map(|_| {
                if oracle.random_bool(p) {
                    oracle.random_range(1..=burst_max)
                } else {
                    0
                }
            })
            .collect();
        assert_eq!(out, want, "p = {p}, burst_max = {burst_max}");
        assert_same_words(&mut sim, &mut oracle, 4, "after fill_bursts");
    }
}
