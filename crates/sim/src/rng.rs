//! Deterministic random-number streams.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The RNG used throughout the workspace.
///
/// `SmallRng` is fast and, when seeded explicitly, fully deterministic across
/// runs on the same target. All stochastic components accept a `&mut SimRng`
/// rather than constructing their own randomness.
pub type SimRng = SmallRng;

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
        splitmix64(self.root ^ splitmix64(label.wrapping_add(0x9E37_79B9_7F4A_7C15)))
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

/// The SplitMix64 finalizer: a strong 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
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

    #[test]
    fn splitmix_known_nonfixed_point() {
        // Sanity: the mixer must not be the identity on small inputs.
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
    }
}
