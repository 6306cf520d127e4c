//! Validation errors for model construction.

use std::error::Error;
use std::fmt;

/// An error constructing or validating a network description.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The network must contain at least one link.
    NoLinks,
    /// A per-link success probability was outside `(0, 1]`.
    InvalidSuccessProbability {
        /// Zero-based link index.
        link: usize,
        /// The offending value.
        value: f64,
    },
    /// A timely-throughput requirement was negative or non-finite.
    InvalidRequirement {
        /// Zero-based link index.
        link: usize,
        /// The offending value.
        value: f64,
    },
    /// A delivery ratio was outside `(0, 1]`.
    InvalidDeliveryRatio {
        /// Zero-based link index.
        link: usize,
        /// The offending value.
        value: f64,
    },
    /// An arrival-rate parameter was invalid (negative, non-finite, or
    /// outside the process's admissible range).
    InvalidArrivalRate {
        /// Zero-based link index.
        link: usize,
        /// The offending value.
        value: f64,
    },
    /// Two per-link vectors disagreed in length.
    LengthMismatch {
        /// What the vector describes (e.g. `"success probabilities"`).
        what: &'static str,
        /// Expected number of entries (the link count).
        expected: usize,
        /// Number of entries actually provided.
        actual: usize,
    },
    /// The deadline `T` must be strictly positive.
    ZeroDeadline,
    /// A protocol parameter was out of range (e.g. `μ_n ∉ (0,1)` or `R ≤ 0`).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An integer parameter whose derived time does not fit the
    /// simulator's arithmetic: a deadline whose nanoseconds overflow
    /// `u64`, or a payload whose frame airtime overflows.
    Overflow {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoLinks => write!(f, "network must contain at least one link"),
            ConfigError::InvalidSuccessProbability { link, value } => write!(
                f,
                "success probability of link {link} must lie in (0, 1], got {value}"
            ),
            ConfigError::InvalidRequirement { link, value } => write!(
                f,
                "timely-throughput requirement of link {link} must be finite and nonnegative, got {value}"
            ),
            ConfigError::InvalidDeliveryRatio { link, value } => write!(
                f,
                "delivery ratio of link {link} must lie in (0, 1], got {value}"
            ),
            ConfigError::InvalidArrivalRate { link, value } => write!(
                f,
                "arrival rate parameter of link {link} is invalid: {value}"
            ),
            ConfigError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "{what} has {actual} entries but the network has {expected} links"
            ),
            ConfigError::ZeroDeadline => write!(f, "per-packet deadline must be positive"),
            ConfigError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} is out of range: {value}")
            }
            ConfigError::Overflow { name, value } => {
                write!(f, "parameter {name} = {value} overflows the simulated time arithmetic")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = ConfigError::InvalidSuccessProbability {
            link: 2,
            value: 1.5,
        };
        let msg = e.to_string();
        assert!(msg.contains("link 2"));
        assert!(msg.contains("1.5"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(ConfigError::NoLinks);
    }

    #[test]
    fn length_mismatch_reports_both_sides() {
        let e = ConfigError::LengthMismatch {
            what: "success probabilities",
            expected: 4,
            actual: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains('4') && msg.contains('3'));
    }
}
