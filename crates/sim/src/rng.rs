//! Deterministic random-number streams.

use rand::{Rng, RngCore, SeedableRng};
use std::hint::select_unpredictable;

/// The RNG used throughout the workspace: xoshiro256++ (Blackman & Vigna),
/// the generator behind `rand` 0.9's `SmallRng` on 64-bit targets.
///
/// It reproduces `SmallRng` word for word: the same SplitMix64
/// `seed_from_u64`, the same remap of the all-zero `from_seed` state
/// (a fixed point of xoshiro) through `seed_from_u64(0)`, and `next_u32`
/// as the upper half of `next_u64`. The workspace owns the type because
/// `SmallRng` hides its state, and [`SimRng::fill_bursts`] needs the state
/// in registers to draw a run of burst coins without branching on them.
/// All stochastic components accept a `&mut SimRng` rather than
/// constructing their own randomness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl RngCore for SimRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        // The upper half: xoshiro's low bits are its weakest.
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        if seed == [0; 32] {
            return Self::seed_from_u64(0);
        }
        let mut s = [0u64; 4];
        for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            *word = u64::from_le_bytes(bytes);
        }
        SimRng { s }
    }

    /// SplitMix64 expansion, as Vigna recommends for xoshiro and `rand`
    /// does, rather than the trait's default PCG32 expansion.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(state);
            state = state.wrapping_add(SPLITMIX_GAMMA);
        }
        SimRng { s }
    }
}

impl SimRng {
    /// Fills `out` with burst counts, one per slot in order: a coin word,
    /// and on a hit (`word < threshold`) a count from
    /// `random_range(1..=burst_max)`, else 0. This consumes exactly the
    /// stream of `random_bool(p)` followed on a hit by that `random_range`
    /// call, for `threshold = bernoulli_threshold(p)` and `0 ≤ p < 1`.
    ///
    /// The coin is never branched on: with coins near ½ a branch would
    /// mispredict on every other slot. Each slot computes the coin word,
    /// the burst word, and the states after one and after two draws, then
    /// keeps one state and the count with a select. The burst word follows
    /// Canon's method as `random_range` does: the count is
    /// `1 + hi(word × burst_max)`, unless the low half exceeds
    /// `burst_max.wrapping_neg()` (probability `burst_max / 2³²`), when
    /// `random_range` may draw a second word. Such a slot is drawn by
    /// `random_bool`'s comparison and `random_range` themselves.
    ///
    /// # Panics
    ///
    /// Panics if `burst_max` is 0, as `random_range(1..=0)` does.
    pub fn fill_bursts(&mut self, threshold: u64, burst_max: u32, out: &mut [u32]) {
        assert!(burst_max >= 1, "burst_max must be at least 1");
        let carry_limit = burst_max.wrapping_neg();
        let mut s = self.s;
        for slot in out {
            let mut one = SimRng { s };
            let coin = one.next_u64();
            let mut two = SimRng { s: one.s };
            let burst = u64::from(two.next_u32()) * u64::from(burst_max);
            if burst as u32 > carry_limit {
                self.s = s;
                *slot = if self.next_u64() < threshold {
                    self.random_range(1..=burst_max)
                } else {
                    0
                };
                s = self.s;
                continue;
            }
            let hit = coin < threshold;
            // Whole-array selects on local state: selecting word by word,
            // or advancing the generator conditionally, compiles back to a
            // branch on the coin.
            s = select_unpredictable(hit, two.s, one.s);
            *slot = select_unpredictable(hit, 1 + (burst >> 32) as u32, 0);
        }
        self.s = s;
    }
}

/// A deterministic hierarchy of RNG seeds.
///
/// Simulations have many independent stochastic components — per-link channel
/// outcomes, arrival processes, coin flips, the shared swap-pair draw. Giving
/// each component its own stream keeps them statistically independent *and*
/// keeps results stable when one component draws more or fewer samples than
/// before (adding a retransmission must not perturb arrivals).
///
/// `SeedStream` derives child seeds from a root seed with a SplitMix64-style
/// mix, so `stream(label)` is a pure function of `(root_seed, label)`.
///
/// # Example
///
/// ```
/// use rtmac_sim::SeedStream;
/// use rand::Rng;
///
/// let seeds = SeedStream::new(42);
/// let mut channel_rng = seeds.rng(1);
/// let mut arrival_rng = seeds.rng(2);
/// let a: u64 = channel_rng.random();
/// let b: u64 = arrival_rng.random();
/// assert_ne!(a, b); // independent streams
///
/// // Re-deriving the same stream reproduces it exactly.
/// let mut again = SeedStream::new(42).rng(1);
/// assert_eq!(a, again.random::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Creates a stream hierarchy rooted at `root`.
    #[must_use]
    pub fn new(root: u64) -> Self {
        SeedStream { root }
    }

    /// The root seed.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the 64-bit seed for child stream `label`.
    #[must_use]
    pub fn seed(&self, label: u64) -> u64 {
        splitmix64(self.root ^ splitmix64(label.wrapping_add(SPLITMIX_GAMMA)))
    }

    /// Creates the RNG for child stream `label`.
    #[must_use]
    pub fn rng(&self, label: u64) -> SimRng {
        SimRng::seed_from_u64(self.seed(label))
    }

    /// Derives a child `SeedStream`, for components that themselves own
    /// multiple sub-streams (e.g. one per link).
    #[must_use]
    pub fn substream(&self, label: u64) -> SeedStream {
        SeedStream {
            root: self.seed(label),
        }
    }
}

/// SplitMix64's increment, the golden-ratio constant.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a strong 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed-point threshold behind `random_bool(p)` for `0 ≤ p < 1`:
/// that call draws one `next_u64` and returns whether it lies below this
/// value. A sampler that draws many coins with the same `p` computes the
/// threshold once and compares each draw itself, consuming exactly the
/// stream `random_bool` would. (`random_bool(1.0)` draws nothing, so
/// `p = 1` has no threshold.)
#[must_use]
pub fn bernoulli_threshold(p: f64) -> u64 {
    const SCALE: f64 = 2.0 * (1u64 << 63) as f64;
    (p * SCALE) as u64
}

/// Convenience: a fresh RNG from a bare seed, for tests and examples.
#[must_use]
pub fn rng_from_seed(seed: u64) -> SimRng {
    let mut rng = SimRng::seed_from_u64(seed);
    // Touch the generator once so trivially related seeds decorrelate.
    let _ = rng.next_u64();
    rng
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn same_label_same_stream() {
        let s = SeedStream::new(7);
        let a: Vec<u64> = (0..10).map(|_| s.rng(3).random()).collect();
        let b: Vec<u64> = (0..10).map(|_| s.rng(3).random()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let s = SeedStream::new(7);
        let seeds: HashSet<u64> = (0..1000).map(|l| s.seed(l)).collect();
        assert_eq!(seeds.len(), 1000, "child seeds must not collide");
    }

    #[test]
    fn different_roots_differ() {
        let a = SeedStream::new(1).seed(0);
        let b = SeedStream::new(2).seed(0);
        assert_ne!(a, b);
    }

    #[test]
    fn substream_is_deterministic() {
        let s = SeedStream::new(99);
        assert_eq!(s.substream(4).seed(5), s.substream(4).seed(5));
        assert_ne!(s.substream(4).seed(5), s.substream(5).seed(4));
    }

    #[test]
    fn rng_from_seed_reproducible() {
        let mut a = rng_from_seed(123);
        let mut b = rng_from_seed(123);
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn bernoulli_threshold_matches_random_bool() {
        let ps = [
            0.0,
            1e-300,
            2f64.powi(-64),
            2f64.powi(-12),
            0.3,
            0.55,
            0.5,
            1.0 - 2f64.powi(-53),
        ];
        for (seed, &p) in ps.iter().enumerate() {
            let mut a = SeedStream::new(seed as u64).rng(0);
            let mut b = a.clone();
            let threshold = bernoulli_threshold(p);
            for _ in 0..2000 {
                assert_eq!(a.random_bool(p), b.next_u64() < threshold, "p = {p}");
            }
            assert_eq!(a, b, "p = {p}: one draw per coin");
        }
        assert_eq!(bernoulli_threshold(2f64.powi(-12)), 1 << 52);
        assert_eq!(bernoulli_threshold(1e-300), 0);
    }

    /// The state one draw before `s`: xoshiro256's step is invertible.
    fn unstep(s: [u64; 4]) -> [u64; 4] {
        let s3 = s[3].rotate_right(45);
        let s0 = s[0] ^ s3;
        // s1 solves s1 = s[1] ^ s[2] ^ (s1 << 17).
        let c = s[1] ^ s[2];
        let s1 = c ^ (c << 17) ^ (c << 34) ^ (c << 51);
        let s2 = s[2] ^ (s1 << 17) ^ s0;
        [s0, s1, s2, s3 ^ s1]
    }

    /// The state whose next word is `word`, given three of its words.
    fn state_drawing(word: u64, s0: u64, s1: u64, s2: u64) -> [u64; 4] {
        let s3 = word.wrapping_sub(s0).rotate_right(23).wrapping_sub(s0);
        [s0, s1, s2, s3]
    }

    /// The per-slot draws `fill_bursts` must reproduce.
    fn per_slot(rng: &mut SimRng, p: f64, burst_max: u32, slots: usize) -> Vec<u32> {
        (0..slots)
            .map(|_| {
                if rng.random_bool(p) {
                    rng.random_range(1..=burst_max)
                } else {
                    0
                }
            })
            .collect()
    }

    /// Drives the slot that leaves the branch-free run: a burst word of
    /// `0x5555_5555` with `burst_max = 6` has the low half `2³² − 2`, so
    /// `random_range` may draw a second word. The state is built backwards
    /// from that burst word: the coin before it is a hit, and three misses
    /// come first, so the run stops in the middle of the slice.
    #[test]
    fn fill_bursts_hands_a_carry_slot_to_random_range() {
        const CARRY_WORD: u64 = 0x5555_5555_0123_4567;
        let (p, burst_max) = (0.55, 6);
        let threshold = bernoulli_threshold(p);
        let next_word = |s: [u64; 4]| SimRng { s }.next_u64();
        let start = (1u64..)
            .find_map(|i| {
                let after_coin = state_drawing(CARRY_WORD, splitmix64(i), i, !i);
                let carry_slot = unstep(after_coin);
                if next_word(carry_slot) >= threshold {
                    return None;
                }
                let mut s = carry_slot;
                for _ in 0..3 {
                    s = unstep(s);
                    if next_word(s) < threshold {
                        return None;
                    }
                }
                Some(s)
            })
            .expect("about one candidate in twenty qualifies");

        let mut rng = SimRng { s: start };
        let mut reference = rng.clone();
        let mut out = vec![9; 40];
        rng.fill_bursts(threshold, burst_max, &mut out);
        let want = per_slot(&mut reference, p, burst_max, out.len());
        assert_eq!(out, want);
        assert_eq!(rng, reference, "the same words consumed");
        assert_eq!(&out[..3], [0, 0, 0]);
        // hi(0x5555_5555 × 6) = 1, plus Canon's carry from the second word.
        assert!((2..=3).contains(&out[3]), "{out:?}");

        // The helpers agree with the generator.
        let mut rng = SimRng { s: start };
        let word = rng.next_u64();
        assert_eq!(unstep(rng.s), start);
        assert_eq!(next_word(state_drawing(word, 1, 2, 3)), word);
    }

    #[test]
    #[should_panic(expected = "burst_max must be at least 1")]
    fn fill_bursts_rejects_an_empty_burst_range() {
        SeedStream::new(0)
            .rng(0)
            .fill_bursts(bernoulli_threshold(0.5), 0, &mut [0; 4]);
    }

    #[test]
    fn splitmix_known_nonfixed_point() {
        // Sanity: the mixer must not be the identity on small inputs.
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
    }
}
