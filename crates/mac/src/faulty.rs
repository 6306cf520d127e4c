//! The configuration and counters of the DP engine's fault layer: the
//! self-stabilizing recovery rule, the fault/recovery statistics, and the
//! churn transitions the admission layer drains.
//!
//! The layer itself lives in [`DpEngine`](crate::DpEngine): installing any
//! fault component (a [`FaultModel`](rtmac_phy::fault::FaultModel), churn,
//! a hidden-terminal matrix, a recovery rule, corrupted beliefs or a
//! blocked link) switches the engine to Algorithm 2 over per-link priority
//! beliefs. Recovery is the self-stabilizing re-ranking rule:
//!
//! * **R1 (collision fallback)** — a link that observes a collision in its
//!   own claimed backoff slot falls back to the lowest priority `N`.
//! * **R2 (miss fallback)** — a link that plays the lower side of a drawn
//!   pair for [`RecoveryConfig::miss_limit`] consecutive eligible intervals
//!   without ever hearing a claim at the adjacent upper priority falls back
//!   to `N`. The limit is either a fixed constant or the adaptive
//!   exponential-backoff rule of [`MissLimit::Adaptive`], which scales the
//!   starting limit with `⌈log₂(N + 1)⌉` and doubles a link's personal
//!   limit each time its own R2 fires.
//!
//! A fallen-back link re-enters through the protocol's existing
//! empty-packet claim mechanism (Step 2): the next time it is drawn as a
//! candidate it claims its slot even with an empty queue.

/// The R2 miss-limit policy: how many consecutive eligible intervals a lo
/// believer tolerates without hearing the adjacent upper claim before
/// falling back to priority `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissLimit {
    /// A constant limit, the original rule.
    Fixed(u32),
    /// Exponential-backoff re-ranking: each link starts at
    /// `max(base, ⌈log₂(N + 1)⌉)` (larger networks legitimately wait longer
    /// between adjacent claims), *doubles* its personal limit each time its
    /// own R2 fires (capped at `cap`, so a link on a genuinely broken
    /// neighborhood stops thrashing the priority floor), and *halves* it
    /// back toward the initial value every time the adjacent claim is
    /// heard again.
    Adaptive {
        /// Floor of the per-link limit before the N-scaling is applied.
        base: u32,
        /// Hard ceiling of the per-link limit under backoff.
        cap: u32,
    },
}

/// Configuration of the self-stabilizing recovery rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    collision_fallback: bool,
    miss_fallback: bool,
    miss_limit: MissLimit,
}

impl RecoveryConfig {
    /// The default recovery rule: both fallbacks enabled, fixed miss
    /// limit 3.
    #[must_use]
    pub fn new() -> Self {
        RecoveryConfig {
            collision_fallback: true,
            miss_fallback: true,
            miss_limit: MissLimit::Fixed(3),
        }
    }

    /// Recovery switched off entirely — the ablation used by the
    /// `rtmac-verify` mutation fixture to show that *without* the rule a
    /// corrupted belief multiset never reconverges.
    #[must_use]
    pub fn disabled() -> Self {
        RecoveryConfig {
            collision_fallback: false,
            miss_fallback: false,
            miss_limit: MissLimit::Fixed(u32::MAX),
        }
    }

    /// Enables/disables the R1 collision fallback.
    #[must_use]
    pub fn with_collision_fallback(mut self, on: bool) -> Self {
        self.collision_fallback = on;
        self
    }

    /// Sets a fixed number of consecutive unheard-claim intervals tolerated
    /// before the R2 fallback fires.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    #[must_use]
    pub fn with_miss_limit(mut self, limit: u32) -> Self {
        assert!(limit > 0, "miss limit must be at least one interval");
        self.miss_limit = MissLimit::Fixed(limit);
        self
    }

    /// Switches R2 to the adaptive exponential-backoff rule (see
    /// [`MissLimit::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` or `cap < base`.
    #[must_use]
    pub fn with_adaptive_miss_limit(mut self, base: u32, cap: u32) -> Self {
        assert!(base > 0, "miss limit base must be at least one interval");
        assert!(cap >= base, "miss limit cap {cap} below base {base}");
        self.miss_limit = MissLimit::Adaptive { base, cap };
        self
    }

    /// Whether the R1 collision fallback is enabled.
    #[must_use]
    pub fn collision_fallback(&self) -> bool {
        self.collision_fallback
    }

    /// Whether the R2 miss fallback is enabled.
    #[must_use]
    pub fn miss_fallback(&self) -> bool {
        self.miss_fallback
    }

    /// The R2 miss-limit policy.
    #[must_use]
    pub fn miss_limit(&self) -> MissLimit {
        self.miss_limit
    }

    /// The per-link miss limit a fresh engine over `n_links` links starts
    /// with under this policy.
    #[must_use]
    pub fn initial_miss_limit(&self, n_links: usize) -> u32 {
        match self.miss_limit {
            MissLimit::Fixed(limit) => limit,
            MissLimit::Adaptive { base, cap } => {
                // ⌈log₂(N + 1)⌉ without floats: bit length of N.
                let scale = (usize::BITS - n_links.leading_zeros()).max(1);
                base.max(scale).min(cap)
            }
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative fault/recovery counters of a [`DpEngine`](crate::DpEngine)
/// run under a fault layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Drawn pairs whose two sides committed inconsistent moves
    /// ([`TraceEvent::Divergence`](crate::TraceEvent::Divergence)).
    pub divergences: u64,
    /// Links that fell back to the lowest priority (R1 + R2).
    pub fallbacks: u64,
    /// Intervals that *ended* with a non-bijective belief multiset.
    pub desync_intervals: u64,
    /// Completed desync → bijection recoveries.
    pub reconvergences: u64,
    /// Total intervals spent desynchronized across all completed
    /// recoveries (divide by [`FaultStats::reconvergences`] for the mean).
    pub reconverge_interval_sum: u64,
    /// Carrier-sense observations flipped by the
    /// [`FaultModel`](rtmac_phy::fault::FaultModel).
    pub sensing_flips: u64,
    /// Per-burst time-to-reconverge histogram: bucket `k` counts completed
    /// recoveries whose desync length (in intervals) fell in
    /// `[2^k, 2^(k+1))`; the last bucket absorbs everything longer.
    pub reconverge_hist: [u64; 16],
}

impl FaultStats {
    /// Mean number of intervals from first divergence to restored
    /// bijection, over completed recoveries. `None` if none completed.
    #[must_use]
    pub fn mean_time_to_reconverge(&self) -> Option<f64> {
        if self.reconvergences == 0 {
            None
        } else {
            Some(self.reconverge_interval_sum as f64 / self.reconvergences as f64)
        }
    }

    /// The [`FaultStats::reconverge_hist`] bucket a desync burst of
    /// `intervals` intervals lands in (log₂ bucketing, saturating at the
    /// last bucket).
    #[must_use]
    pub fn reconverge_bucket(intervals: u64) -> usize {
        let len = intervals.max(1);
        ((u64::BITS - 1 - len.leading_zeros()) as usize).min(15)
    }
}

/// One link crash or revival observed by the engine's churn process —
/// drained by the admission layer via
/// [`DpEngine::drain_churn_events`](crate::DpEngine::drain_churn_events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The link that changed state.
    pub link: usize,
    /// `true` when the link came up (joined/revived), `false` when it went
    /// down (crashed).
    pub up: bool,
    /// The interval at which the transition took effect.
    pub interval: u64,
}
