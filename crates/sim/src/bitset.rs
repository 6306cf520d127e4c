//! A fixed-capacity bitset over dense `usize` indices.
//!
//! The DP interval kernel resolves carrier-sense questions ("was the
//! medium busy at slot boundary `k`?") against a shared bit-per-boundary
//! claim board instead of replaying a per-link timeline. [`BitSet`] is the
//! storage primitive: capacity is fixed at construction so the hot loop
//! never allocates, and [`BitSet::clear`] is a bounded `memset` that resets
//! the board between intervals.
//!
//! # Example
//!
//! ```
//! use rtmac_sim::BitSet;
//!
//! let mut busy = BitSet::new(128);
//! busy.set(3);
//! assert!(busy.get(3));
//! assert!(!busy.get(4));
//! busy.clear();
//! assert!(!busy.get(3));
//! ```

/// A fixed-capacity set of small integers, one bit per element.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set able to hold indices `0..capacity`.
    ///
    /// All storage is allocated here; no later operation allocates.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BitSet {
            // lint: allow(hot-path-alloc) — construction only; DpEngine builds its claim board once, on the first step
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The fixed capacity (exclusive upper bound on valid indices).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `index` into the set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.capacity,
            "bit index {index} out of capacity {}",
            self.capacity
        );
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Whether `index` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "bit index {index} out of capacity {}",
            self.capacity
        );
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Removes every element. Does not allocate or shrink.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The number of elements currently in the set.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitSet::new(130);
        assert_eq!(b.capacity(), 130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 8);
        // Setting twice is idempotent.
        b.set(63);
        assert_eq!(b.count_ones(), 8);
        b.clear();
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(64));
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut b = BitSet::new(0);
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.count_ones(), 0);
        b.clear();
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn get_past_capacity_panics() {
        let b = BitSet::new(10);
        let _ = b.get(10);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn set_past_capacity_panics() {
        let mut b = BitSet::new(64);
        b.set(64);
    }
}
