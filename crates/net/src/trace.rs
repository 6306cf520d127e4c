//! The decision trace: a canonical byte stream of everything the protocol
//! decided, folded into one FNV-1a fingerprint.
//!
//! Every backend — the pure simulator, the loopback transport, UDP —
//! produces the same sequence of per-interval activity frames when fed the
//! same scenario and seed. The trace absorbs those frames in canonical
//! order (interval-major, link-minor) by hashing their *encoded wire
//! bytes*, so the fingerprint covers the frame contents **and** the codec:
//! a silent wire-format change shifts every fingerprint and fails the
//! replay contract immediately.
//!
//! The hash is the same FNV-1a fold the DP engine's fingerprint suite pins
//! its goldens with, so one fingerprint vocabulary covers both layers.

use rtmac_model::Permutation;

use crate::frame::Frame;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into a running FNV-1a hash.
///
/// # Example
///
/// ```
/// use rtmac_net::{fnv1a, FNV_OFFSET};
///
/// let h = fnv1a(FNV_OFFSET, b"claim");
/// assert_ne!(h, FNV_OFFSET);
/// assert_eq!(h, fnv1a(FNV_OFFSET, b"claim"));
/// ```
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An order-sensitive fingerprint over a stream of decision frames.
///
/// Callers must absorb frames in canonical order: intervals ascending, and
/// within one interval links ascending. [`crate::LinkNode`] and
/// [`crate::sim_trace`] both do; the replay contract compares the results.
///
/// # Example
///
/// ```
/// use rtmac_net::{Activity, DecisionTrace, Frame};
///
/// let frame = Frame::Idle(Activity {
///     interval: 0, link: 0, rank: 0, backlog: 0,
///     deliveries: 0, attempts: 0, state_digest: 1,
/// });
/// let mut a = DecisionTrace::new();
/// let mut b = DecisionTrace::new();
/// a.absorb(&frame);
/// b.absorb(&frame);
/// assert_eq!(a.fingerprint(), b.fingerprint());
/// assert_eq!(a.frames(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTrace {
    hash: u64,
    frames: u64,
    scratch: Vec<u8>,
}

impl DecisionTrace {
    /// An empty trace (fingerprint = the FNV offset basis).
    #[must_use]
    pub fn new() -> Self {
        DecisionTrace {
            hash: FNV_OFFSET,
            frames: 0,
            scratch: Vec::with_capacity(64),
        }
    }

    /// Folds one frame's encoded bytes into the fingerprint.
    pub fn absorb(&mut self, frame: &Frame) {
        self.scratch.clear();
        frame.encode_into(&mut self.scratch);
        self.hash = fnv1a(self.hash, &self.scratch);
        self.frames = self.frames.saturating_add(1);
    }

    /// The fingerprint over everything absorbed so far.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// How many frames have been absorbed.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

impl Default for DecisionTrace {
    fn default() -> Self {
        Self::new()
    }
}

/// Digests one replica's post-interval protocol state: the interval
/// counter, the priority permutation σ (if the policy maintains one), and
/// the bit patterns of every link's delivery debt.
///
/// Each node stamps this digest into its activity frames; receivers
/// compare it against their own replica, so any lockstep divergence —
/// skewed build, different scenario, corrupted state — surfaces as a
/// [`crate::NetError::Desync`] at the exact interval it happens instead of
/// silently producing different decisions.
///
/// # Example
///
/// ```
/// use rtmac_model::Permutation;
/// use rtmac_net::state_digest;
///
/// let sigma = Permutation::identity(3);
/// let debts = [0.5, 0.0, 1.25];
/// let d = state_digest(7, Some(&sigma), &debts);
/// assert_eq!(d, state_digest(7, Some(&sigma), &debts));
/// assert_ne!(d, state_digest(8, Some(&sigma), &debts));
/// ```
#[must_use]
pub fn state_digest(interval: u64, sigma: Option<&Permutation>, debts: &[f64]) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, &interval.to_le_bytes());
    match sigma {
        Some(sigma) => {
            hash = fnv1a(hash, &[1]);
            for &rank in sigma.priorities() {
                hash = fnv1a(hash, &(rank as u64).to_le_bytes());
            }
        }
        None => hash = fnv1a(hash, &[0]),
    }
    for &debt in debts {
        hash = fnv1a(hash, &debt.to_bits().to_le_bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Activity;

    fn frame(interval: u64, link: u32) -> Frame {
        Frame::Claim(Activity {
            interval,
            link,
            rank: link,
            backlog: 1,
            deliveries: 1,
            attempts: 1,
            state_digest: 0,
        })
    }

    #[test]
    fn trace_is_order_sensitive() {
        let mut ab = DecisionTrace::new();
        ab.absorb(&frame(0, 0));
        ab.absorb(&frame(0, 1));
        let mut ba = DecisionTrace::new();
        ba.absorb(&frame(0, 1));
        ba.absorb(&frame(0, 0));
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn digest_separates_sigma_absence_from_identity() {
        let sigma = Permutation::identity(2);
        assert_ne!(
            state_digest(0, Some(&sigma), &[0.0, 0.0]),
            state_digest(0, None, &[0.0, 0.0])
        );
    }

    #[test]
    fn digest_sees_debt_bit_patterns() {
        assert_ne!(
            state_digest(0, None, &[0.0]),
            state_digest(0, None, &[-0.0]),
            "distinct bit patterns must digest differently"
        );
    }
}
