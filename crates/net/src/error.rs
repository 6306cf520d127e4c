//! The error type shared by every transport backend and harness.

use std::fmt;

use crate::frame::CodecError;

/// Anything that can go wrong between "scenario in hand" and "report out".
///
/// Configuration and parse problems surface before any node starts;
/// [`NetError::Desync`], [`NetError::Timeout`], and [`NetError::Mismatch`]
/// are runtime verdicts — the first two from a live node's cross-checks,
/// the last from the replay contract.
///
/// # Example
///
/// ```
/// use rtmac_net::{Frame, NetError};
///
/// let err = NetError::from(Frame::decode(b"junk").unwrap_err());
/// assert!(err.to_string().contains("frame"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The scenario could not be loaded or built into a network (an
    /// unreadable scenario file, invalid parameters, inconsistent lengths —
    /// whatever `rtmac`'s own validation reports), or a daemon flag is bad.
    Config(String),
    /// A frame failed to decode.
    Codec(CodecError),
    /// A socket operation failed (rendered, so the error stays comparable).
    Io(String),
    /// A peer's per-interval state digest disagrees with the local replica:
    /// the deterministic lockstep has diverged (version skew, differing
    /// scenario, corrupted state).
    Desync {
        /// Interval at which the divergence was detected.
        interval: u64,
        /// The disagreeing peer link.
        link: usize,
        /// What exactly disagreed.
        detail: String,
    },
    /// A node gave up waiting for a peer's frame.
    Timeout {
        /// Interval the node was trying to complete.
        interval: u64,
        /// The first link whose frame never arrived.
        waiting_for: usize,
    },
    /// Two values that must agree do not: a handshake beacon field
    /// disagreeing with the local deployment facts, or — the replay
    /// contract — two backends producing different decision-trace
    /// fingerprints for the same scenario and seed.
    Mismatch {
        /// What was being compared (e.g. `"beacon seed"`,
        /// `"loopback vs sim"`).
        what: String,
        /// The reference fingerprint.
        expected: u64,
        /// The diverging fingerprint.
        got: u64,
    },
    /// The requested operation is outside this layer's scope (e.g.
    /// rendering a fault-injection scenario to a deployment file).
    Unsupported(String),
    /// A deployment scenario file failed to parse.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Config(msg) => write!(f, "invalid scenario: {msg}"),
            NetError::Codec(e) => write!(f, "frame codec: {e}"),
            NetError::Io(msg) => write!(f, "transport i/o: {msg}"),
            NetError::Desync {
                interval,
                link,
                detail,
            } => write!(
                f,
                "replica desync at interval {interval} against link {link}: {detail}"
            ),
            NetError::Timeout {
                interval,
                waiting_for,
            } => write!(
                f,
                "timed out at interval {interval} waiting for link {waiting_for}"
            ),
            NetError::Mismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what} mismatch: expected {expected:#018x}, got {got:#018x}"
            ),
            NetError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            NetError::Parse { line, msg } => write!(f, "scenario file line {line}: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl From<rtmac_model::ConfigError> for NetError {
    fn from(e: rtmac_model::ConfigError) -> Self {
        NetError::Config(e.to_string())
    }
}
