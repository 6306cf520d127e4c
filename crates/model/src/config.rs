//! The `(N, A, T, p)` network description.

use rtmac_sim::Nanos;

use crate::{ConfigError, LinkId};

/// Static description of a fully-interfering real-time wireless network:
/// the `(N, A, T, p)` tuple of Section II (the arrival process `A` lives in
/// `rtmac-traffic`; everything else is here).
///
/// * `N` — number of directed links, all mutually interfering (complete
///   conflict graph).
/// * `T` — per-packet relative deadline; time is partitioned into intervals
///   of length `T` and packets arriving at an interval's start expire at its
///   end.
/// * `p_n` — probability that an uncollided transmission on link `n`
///   succeeds.
///
/// # Example
///
/// ```
/// use rtmac_model::NetworkConfig;
/// use rtmac_sim::Nanos;
///
/// // The symmetric video network of Fig. 3: 20 links, p = 0.7, T = 20 ms.
/// let net = NetworkConfig::new(20, Nanos::from_millis(20), vec![0.7; 20])?;
/// assert_eq!(net.n_links(), 20);
/// assert_eq!(net.success_probability(7.into()), 0.7);
/// # Ok::<(), rtmac_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    n_links: usize,
    deadline: Nanos,
    success: Vec<f64>,
}

impl NetworkConfig {
    /// Validates and builds the description of `n_links` links with
    /// deadline `deadline` and per-link success probabilities `success`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::NoLinks`] if `n_links == 0`.
    /// * [`ConfigError::ZeroDeadline`] if `T == 0`.
    /// * [`ConfigError::LengthMismatch`] if the probability vector length
    ///   differs from `n_links`.
    /// * [`ConfigError::InvalidSuccessProbability`] if some `p_n ∉ (0, 1]`
    ///   (the paper requires `p_n > 0`).
    pub fn new(n_links: usize, deadline: Nanos, success: Vec<f64>) -> Result<Self, ConfigError> {
        if n_links == 0 {
            return Err(ConfigError::NoLinks);
        }
        if deadline.is_zero() {
            return Err(ConfigError::ZeroDeadline);
        }
        if success.len() != n_links {
            return Err(ConfigError::LengthMismatch {
                what: "success probabilities",
                expected: n_links,
                actual: success.len(),
            });
        }
        for (link, &p) in success.iter().enumerate() {
            if !p.is_finite() || p <= 0.0 || p > 1.0 {
                return Err(ConfigError::InvalidSuccessProbability { link, value: p });
            }
        }
        Ok(NetworkConfig {
            n_links,
            deadline,
            success,
        })
    }

    /// Number of links `N`.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// The per-packet deadline `T` (also the interval length).
    #[must_use]
    pub fn deadline(&self) -> Nanos {
        self.deadline
    }

    /// Success probability `p_n` of one link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn success_probability(&self, link: LinkId) -> f64 {
        self.success[link.index()]
    }

    /// All success probabilities, indexed by link.
    #[must_use]
    pub fn success_probabilities(&self) -> &[f64] {
        &self.success
    }

    /// Iterates over all link ids of this network.
    pub fn links(&self) -> impl Iterator<Item = LinkId> {
        LinkId::all(self.n_links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Nanos = Nanos::from_millis(20);

    #[test]
    fn accessors_return_the_description() {
        let net = NetworkConfig::new(3, T, vec![1.0; 3]).unwrap();
        assert_eq!(net.n_links(), 3);
        assert_eq!(net.deadline(), T);
        assert_eq!(net.success_probabilities(), [1.0, 1.0, 1.0]);
        assert_eq!(net.links().count(), 3);
    }

    #[test]
    fn per_link_probability_override() {
        let net = NetworkConfig::new(3, T, vec![0.8, 0.5, 0.8]).unwrap();
        assert_eq!(net.success_probability(0.into()), 0.8);
        assert_eq!(net.success_probability(1.into()), 0.5);
    }

    #[test]
    fn rejects_bad_probabilities() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = NetworkConfig::new(2, T, vec![bad; 2]).unwrap_err();
            assert!(matches!(
                err,
                ConfigError::InvalidSuccessProbability { link: 0, .. }
            ));
        }
    }

    #[test]
    fn rejects_structural_errors() {
        assert_eq!(NetworkConfig::new(0, T, vec![]), Err(ConfigError::NoLinks));
        assert_eq!(
            NetworkConfig::new(1, Nanos::ZERO, vec![1.0]),
            Err(ConfigError::ZeroDeadline)
        );
        assert!(matches!(
            NetworkConfig::new(2, T, vec![0.5]),
            Err(ConfigError::LengthMismatch { .. })
        ));
    }
}
