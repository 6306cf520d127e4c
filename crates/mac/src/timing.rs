//! Shared per-interval timing parameters.

use rtmac_model::ConfigError;
use rtmac_phy::PhyProfile;
use rtmac_sim::Nanos;

/// The timing context every MAC engine shares: the PHY profile, the
/// per-packet deadline `T` (= interval length), and the data payload size.
///
/// Precomputes the three airtimes the engines consult on every transmission
/// decision.
///
/// # Example
///
/// ```
/// use rtmac_mac::MacTiming;
/// use rtmac_phy::PhyProfile;
/// use rtmac_sim::Nanos;
///
/// // The paper's video setting.
/// let t = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
/// assert_eq!(t.data_airtime(), Nanos::from_micros(326));
/// assert_eq!(t.max_transmissions(), 61);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacTiming {
    phy: PhyProfile,
    deadline: Nanos,
    payload_bytes: u32,
    data_airtime: Nanos,
    empty_airtime: Nanos,
    /// Per-link airtime overrides for heterogeneous payloads (empty when
    /// every link uses `data_airtime`).
    link_airtimes: Vec<Nanos>,
}

impl MacTiming {
    /// [`MacTiming::new`] for values that come from outside the program:
    /// the checks `new` asserts become typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] for a deadline shorter
    /// than one backoff slot (zero included) and [`ConfigError::Overflow`]
    /// for a payload whose frame airtime overflows the time arithmetic.
    pub fn try_new(
        phy: PhyProfile,
        deadline: Nanos,
        payload_bytes: u32,
    ) -> Result<Self, ConfigError> {
        if deadline < phy.slot() {
            return Err(ConfigError::InvalidParameter {
                name: "deadline (must be at least one backoff slot)",
                value: deadline.as_micros_f64(),
            });
        }
        if phy.checked_packet_exchange_airtime(payload_bytes).is_none() {
            return Err(ConfigError::Overflow {
                name: "payload_bytes (frame airtime)",
                value: u64::from(payload_bytes),
            });
        }
        Ok(Self::new(phy, deadline, payload_bytes))
    }

    /// Bundles a PHY profile with a deadline and payload size.
    ///
    /// # Panics
    ///
    /// Panics if the deadline is zero or shorter than one backoff slot.
    #[must_use]
    pub fn new(phy: PhyProfile, deadline: Nanos, payload_bytes: u32) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        assert!(
            deadline >= phy.slot(),
            "deadline shorter than one backoff slot"
        );
        let data_airtime = phy.packet_exchange_airtime(payload_bytes);
        let empty_airtime = phy.empty_packet_airtime();
        MacTiming {
            phy,
            deadline,
            payload_bytes,
            data_airtime,
            empty_airtime,
            // lint: allow(hot-path-alloc) — capacity-zero until with_payloads; on the hot path only through the trait-call approximation on .timing()
            link_airtimes: Vec::new(),
        }
    }

    /// Gives each link its own payload size — the mixed-traffic setting of
    /// the paper's introduction (e.g. 1500 B video links sharing the
    /// medium with 100 B control links). [`MacTiming::data_airtime_for`]
    /// then returns per-link airtimes; the uniform
    /// [`MacTiming::data_airtime`] keeps returning the base payload's.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` is empty.
    #[must_use]
    pub fn with_link_payloads(mut self, payloads: &[u32]) -> Self {
        assert!(!payloads.is_empty(), "need at least one link payload");
        self.link_airtimes = payloads
            .iter()
            .map(|&b| self.phy.packet_exchange_airtime(b))
            .collect();
        self
    }

    /// The data-exchange airtime of one link (per-link when
    /// [`MacTiming::with_link_payloads`] was used, the uniform airtime
    /// otherwise).
    ///
    /// # Panics
    ///
    /// Panics if per-link payloads are configured and `link` is out of
    /// range.
    #[must_use]
    pub fn data_airtime_for(&self, link: usize) -> Nanos {
        if self.link_airtimes.is_empty() {
            self.data_airtime
        } else {
            self.link_airtimes[link]
        }
    }

    /// The underlying PHY profile.
    #[must_use]
    pub fn phy(&self) -> &PhyProfile {
        &self.phy
    }

    /// The per-packet deadline `T` (interval length).
    #[must_use]
    pub fn deadline(&self) -> Nanos {
        self.deadline
    }

    /// Data payload size in bytes.
    #[must_use]
    pub fn payload_bytes(&self) -> u32 {
        self.payload_bytes
    }

    /// One backoff slot.
    #[must_use]
    pub fn slot(&self) -> Nanos {
        self.phy.slot()
    }

    /// Total medium time of one data packet exchange (data + SIFS + ACK +
    /// DIFS).
    #[must_use]
    pub fn data_airtime(&self) -> Nanos {
        self.data_airtime
    }

    /// Medium time of one empty priority-claim packet.
    #[must_use]
    pub fn empty_airtime(&self) -> Nanos {
        self.empty_airtime
    }

    /// Maximum data transmissions that fit in one interval with zero
    /// contention overhead — the centralized schedulers' budget (the
    /// paper's "up to 60 transmissions" for video, "16" for control).
    #[must_use]
    pub fn max_transmissions(&self) -> u64 {
        self.deadline / self.data_airtime
    }

    /// Returns `true` if a frame of `airtime` starting at `now` finishes by
    /// the deadline (Remark 4: otherwise the link idles out the interval).
    #[must_use]
    pub fn fits(&self, now: Nanos, airtime: Nanos) -> bool {
        match now.checked_add(airtime) {
            Some(end) => end <= self.deadline,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
    }

    #[test]
    fn control_setting_has_16_transmissions() {
        assert_eq!(timing().max_transmissions(), 16);
        assert_eq!(timing().data_airtime(), Nanos::from_micros(118));
    }

    #[test]
    fn fits_respects_deadline_boundary() {
        let t = timing();
        let airtime = t.data_airtime();
        let last_start = t.deadline() - airtime;
        assert!(t.fits(last_start, airtime));
        assert!(!t.fits(last_start + Nanos::from_nanos(1), airtime));
        assert!(!t.fits(Nanos::MAX, airtime)); // overflow-safe
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let _ = MacTiming::new(PhyProfile::ieee80211a(), Nanos::ZERO, 100);
    }

    #[test]
    fn per_link_payloads_override_airtime() {
        let t = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500)
            .with_link_payloads(&[1500, 100]);
        assert_eq!(t.data_airtime_for(0), Nanos::from_micros(326));
        assert_eq!(t.data_airtime_for(1), Nanos::from_micros(118));
        // The uniform accessor still reflects the base payload.
        assert_eq!(t.data_airtime(), Nanos::from_micros(326));
        // Without overrides every link shares the base airtime.
        let u = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 100);
        assert_eq!(u.data_airtime_for(7), Nanos::from_micros(118));
    }

    #[test]
    #[should_panic(expected = "at least one link payload")]
    fn empty_link_payloads_rejected() {
        let _ = timing().with_link_payloads(&[]);
    }
}
