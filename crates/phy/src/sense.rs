//! A bitset claim board for carrier-sense resolution after the DP walk.
//!
//! A slot-by-slot replay answers "was the medium busy at slot boundary
//! `k`?" by running every link's backoff counter through every boundary.
//! The DP interval engine instead records one bit per boundary at
//! which a transmission *starts* and resolves every sense question — the
//! Eq. 7/8 busy/idle checks one slot before a candidate acts, and the
//! Remark-4 concede check one slot after a claim that did not fit — as O(1)
//! lookups against this board after the walk finishes.
//!
//! The board's horizon is fixed at construction (no allocation while
//! stepping) and bounded by the interval itself: a DP interval can process
//! at most `deadline / slot + 2` slot boundaries before the deadline
//! stops it, and at most `max backoff counter + 2` before every link is done.
//!
//! # Example
//!
//! ```
//! use rtmac_phy::SenseBoard;
//!
//! let mut board = SenseBoard::new(64);
//! board.record_start(3);
//! assert!(board.busy_at(3));
//! assert!(!board.busy_at(2));
//! board.reset();
//! assert!(!board.busy_at(3));
//! ```

use rtmac_sim::BitSet;

/// Per-slot-boundary transmission-start record for one interval.
/// The [`Default`] board has horizon 0 (placeholder until sized).
#[derive(Debug, Clone, Default)]
pub struct SenseBoard {
    busy: BitSet,
}

impl SenseBoard {
    /// A board covering slot boundaries `0..horizon`.
    #[must_use]
    pub fn new(horizon: usize) -> Self {
        SenseBoard {
            busy: BitSet::new(horizon),
        }
    }

    /// The exclusive upper bound on recordable boundaries.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.busy.capacity()
    }

    /// Marks a transmission starting at slot boundary `boundary`.
    ///
    /// # Panics
    ///
    /// Panics if `boundary >= horizon`.
    pub fn record_start(&mut self, boundary: usize) {
        self.busy.set(boundary);
    }

    /// Whether a transmission started at slot boundary `boundary`.
    ///
    /// In a slot-by-slot replay a carrier-sense check at boundary `k` reads
    /// "transmitters non-empty at `k`", which is exactly "a transmission
    /// started at `k`": back-to-back frames never span a later boundary
    /// because the next boundary is scheduled one slot after the last frame
    /// ends.
    ///
    /// # Panics
    ///
    /// Panics if `boundary >= horizon`. Callers guard with the processed
    /// bound `B` (`boundary < B <= horizon`); a boundary the interval never
    /// processed has no sense answer and must be treated as "check never
    /// ran", not looked up.
    #[must_use]
    pub fn busy_at(&self, boundary: usize) -> bool {
        self.busy.get(boundary)
    }

    /// Clears every record for the next interval. Does not allocate.
    pub fn reset(&mut self) {
        self.busy.clear();
    }

    /// The number of transmission boundaries recorded this interval.
    #[must_use]
    pub fn starts(&self) -> usize {
        self.busy.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut board = SenseBoard::new(100);
        assert_eq!(board.horizon(), 100);
        board.record_start(0);
        board.record_start(99);
        assert!(board.busy_at(0));
        assert!(board.busy_at(99));
        assert!(!board.busy_at(50));
        assert_eq!(board.starts(), 2);
        board.reset();
        assert_eq!(board.starts(), 0);
        assert!(!board.busy_at(0));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn query_past_horizon_panics() {
        let board = SenseBoard::new(8);
        let _ = board.busy_at(8);
    }
}
