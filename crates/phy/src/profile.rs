//! IEEE 802.11a/g OFDM timing profiles and airtime math.

use rtmac_sim::Nanos;

/// A PHY timing profile: everything needed to compute how long frames and
/// backoff slots occupy the medium.
///
/// The default [`PhyProfile::ieee80211a`] matches the paper's simulation
/// setup: 54 Mbps OFDM data rate, 9 µs backoff slots, 16 µs SIFS, 34 µs
/// DIFS, 20 µs PLCP preamble + header, 4 µs symbols, ACKs at the 24 Mbps
/// control rate.
///
/// Airtime formulas (802.11a, Section 17 of the standard):
///
/// ```text
/// T_frame(bytes) = preamble + symbol · ⌈(16 + 6 + 8·(mac_overhead + bytes)) / bits_per_symbol⌉
/// bits_per_symbol = rate_mbps · symbol_µs
/// ```
///
/// A full *packet exchange* is `T_data + SIFS + T_ack + DIFS` — the paper's
/// "total airtime required for transmitting a single packet (including the
/// airtime of an ACK and the required guard time between transmissions)".
///
/// # Example
///
/// ```
/// use rtmac_phy::PhyProfile;
/// use rtmac_sim::Nanos;
///
/// let phy = PhyProfile::ieee80211a();
/// assert_eq!(phy.slot(), Nanos::from_micros(9));
/// // 100 B control packets: the paper's "roughly 120 µs".
/// assert_eq!(phy.packet_exchange_airtime(100), Nanos::from_micros(118));
/// // 1500 B video packets: the paper's "roughly 330 µs".
/// assert_eq!(phy.packet_exchange_airtime(1500), Nanos::from_micros(326));
/// // Empty priority-claim frame: the paper's "about 70 µs".
/// assert_eq!(phy.empty_packet_airtime(), Nanos::from_micros(62));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhyProfile {
    slot: Nanos,
    sifs: Nanos,
    difs: Nanos,
    preamble: Nanos,
    symbol: Nanos,
    data_rate_mbps: u32,
    control_rate_mbps: u32,
    mac_overhead_bytes: u32,
    ack_bytes: u32,
}

impl PhyProfile {
    /// The paper's PHY: IEEE 802.11a at 54 Mbps with 9 µs slots.
    #[must_use]
    pub fn ieee80211a() -> Self {
        PhyProfile {
            slot: Nanos::from_micros(9),
            sifs: Nanos::from_micros(16),
            difs: Nanos::from_micros(34),
            preamble: Nanos::from_micros(20),
            symbol: Nanos::from_micros(4),
            data_rate_mbps: 54,
            control_rate_mbps: 24,
            mac_overhead_bytes: 28, // 24 B MAC header + 4 B FCS
            ack_bytes: 14,
        }
    }

    /// The WiFi-Nano variant the paper cites (reference \[36\]): identical framing but
    /// 800 ns backoff slots, for quantifying how much of DB-DP's overhead is
    /// slot width.
    #[must_use]
    pub fn wifi_nano() -> Self {
        PhyProfile {
            slot: Nanos::from_nanos(800),
            ..Self::ieee80211a()
        }
    }

    /// Returns this profile with a different backoff slot width (ablation
    /// hook).
    #[must_use]
    pub fn with_slot(mut self, slot: Nanos) -> Self {
        self.slot = slot;
        self
    }

    /// Returns this profile with a different data rate in Mbps.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is zero.
    #[must_use]
    pub fn with_data_rate(mut self, mbps: u32) -> Self {
        assert!(mbps > 0, "data rate must be positive");
        self.data_rate_mbps = mbps;
        self
    }

    /// One backoff slot.
    #[must_use]
    pub fn slot(&self) -> Nanos {
        self.slot
    }

    /// Short interframe space.
    #[must_use]
    pub fn sifs(&self) -> Nanos {
        self.sifs
    }

    /// Distributed interframe space.
    #[must_use]
    pub fn difs(&self) -> Nanos {
        self.difs
    }

    /// Data rate in Mbps.
    #[must_use]
    pub fn data_rate_mbps(&self) -> u32 {
        self.data_rate_mbps
    }

    /// Airtime of a single frame with `payload` data bytes at rate `mbps`:
    /// preamble plus a whole number of OFDM symbols covering SERVICE (16) +
    /// tail (6) bits and the MAC-framed payload. `None` when the framed
    /// length overflows `u32` bytes or the airtime overflows `u64`
    /// nanoseconds.
    fn frame_airtime(&self, payload: u32, mbps: u32) -> Option<Nanos> {
        let framed = self.mac_overhead_bytes.checked_add(payload)?;
        let bits_per_symbol = u64::from(mbps) * self.symbol.as_micros();
        let bits = 16 + 6 + 8 * u64::from(framed);
        let symbols = bits.div_ceil(bits_per_symbol);
        self.preamble.checked_add(self.symbol.checked_mul(symbols)?)
    }

    /// Airtime of one data frame (no ACK, no guard time); [`Nanos::MAX`]
    /// (a frame that never fits) when it is not representable, see
    /// [`PhyProfile::checked_packet_exchange_airtime`].
    #[must_use]
    pub fn data_frame_airtime(&self, payload: u32) -> Nanos {
        self.frame_airtime(payload, self.data_rate_mbps)
            .unwrap_or(Nanos::MAX)
    }

    /// Airtime of an ACK frame at the control rate.
    #[must_use]
    pub fn ack_airtime(&self) -> Nanos {
        let bits_per_symbol = u64::from(self.control_rate_mbps) * self.symbol.as_micros();
        let bits = 16 + 6 + 8 * u64::from(self.ack_bytes);
        let symbols = bits.div_ceil(bits_per_symbol);
        self.preamble + self.symbol * symbols
    }

    /// Total medium time consumed by one data packet exchange:
    /// `data + SIFS + ACK + DIFS`. This is the paper's per-packet airtime
    /// (≈330 µs at 1500 B, ≈120 µs at 100 B). Saturates at [`Nanos::MAX`]
    /// (a frame that never fits) where
    /// [`PhyProfile::checked_packet_exchange_airtime`] is `None`.
    #[must_use]
    pub fn packet_exchange_airtime(&self, payload: u32) -> Nanos {
        self.checked_packet_exchange_airtime(payload)
            .unwrap_or(Nanos::MAX)
    }

    /// [`PhyProfile::packet_exchange_airtime`] with checked arithmetic:
    /// `None` when the MAC-framed payload overflows `u32` bytes or the
    /// airtime overflows `u64` nanoseconds — the form for validating
    /// untrusted payload sizes.
    ///
    /// ```
    /// # use rtmac_phy::PhyProfile;
    /// let phy = PhyProfile::ieee80211a();
    /// assert_eq!(
    ///     phy.checked_packet_exchange_airtime(1500),
    ///     Some(phy.packet_exchange_airtime(1500))
    /// );
    /// assert_eq!(phy.checked_packet_exchange_airtime(u32::MAX), None);
    /// ```
    #[must_use]
    pub fn checked_packet_exchange_airtime(&self, payload: u32) -> Option<Nanos> {
        self.frame_airtime(payload, self.data_rate_mbps)?
            .checked_add(self.sifs)?
            .checked_add(self.ack_airtime())?
            .checked_add(self.difs)
    }

    /// Medium time consumed by an empty priority-claim packet: a zero-payload
    /// data frame plus DIFS. No ACK — the frame only needs to be *sensed*,
    /// not decoded (paper: "about 70 µs").
    #[must_use]
    pub fn empty_packet_airtime(&self) -> Nanos {
        self.data_frame_airtime(0).saturating_add(self.difs)
    }

    /// How many whole packet exchanges fit into `deadline`.
    ///
    /// ```
    /// # use rtmac_phy::PhyProfile;
    /// # use rtmac_sim::Nanos;
    /// let phy = PhyProfile::ieee80211a();
    /// // The paper's video setting: "up to 60 transmissions" per 20 ms.
    /// assert_eq!(phy.transmissions_per_interval(Nanos::from_millis(20), 1500), 61);
    /// // The paper's control setting: "16 available transmissions" per 2 ms.
    /// assert_eq!(phy.transmissions_per_interval(Nanos::from_millis(2), 100), 16);
    /// ```
    #[must_use]
    pub fn transmissions_per_interval(&self, deadline: Nanos, payload: u32) -> u64 {
        deadline / self.packet_exchange_airtime(payload)
    }
}

impl Default for PhyProfile {
    fn default() -> Self {
        Self::ieee80211a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_airtimes_match() {
        let phy = PhyProfile::ieee80211a();
        // 1500 B: 57 symbols at 216 bits/symbol -> 248 µs frame.
        assert_eq!(phy.data_frame_airtime(1500), Nanos::from_micros(248));
        // ACK: 134 bits at 96 bits/symbol -> 2 symbols -> 28 µs.
        assert_eq!(phy.ack_airtime(), Nanos::from_micros(28));
        // Exchange: 248 + 16 + 28 + 34 = 326 µs ("about 330 µs").
        assert_eq!(phy.packet_exchange_airtime(1500), Nanos::from_micros(326));
        // 100 B: 40 + 16 + 28 + 34 = 118 µs ("roughly 120 µs").
        assert_eq!(phy.packet_exchange_airtime(100), Nanos::from_micros(118));
        // Empty: 28 µs frame + 34 µs DIFS = 62 µs ("about 70 µs").
        assert_eq!(phy.empty_packet_airtime(), Nanos::from_micros(62));
    }

    #[test]
    fn airtime_is_monotone_in_payload() {
        let phy = PhyProfile::ieee80211a();
        let mut last = Nanos::ZERO;
        for payload in (0..=3000).step_by(100) {
            let t = phy.packet_exchange_airtime(payload);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn symbol_quantization_rounds_up() {
        let phy = PhyProfile::ieee80211a();
        // 1 extra byte beyond a symbol boundary adds one whole symbol.
        // At 216 bits/symbol, payload p gives bits 22 + 8(28+p).
        // p = 1473: bits = 22 + 12008 = 12030 -> 55.69 -> 56 symbols.
        // p = 1474: bits = 12038 -> 55.73 -> still 56.
        // p = 1478: bits = 12070 -> 55.9 -> 56; p = 1479 -> 12078 -> 55.9 -> 56.
        // Check a known boundary instead: 216·56 = 12096 bits -> payload
        // (12096 − 22 − 224)/8 = 1481.25, so 1481 fits in 56 and 1482 needs 57.
        assert_eq!(phy.data_frame_airtime(1481), phy.preamble + phy.symbol * 56);
        assert_eq!(phy.data_frame_airtime(1482), phy.preamble + phy.symbol * 57);
    }

    #[test]
    fn wifi_nano_only_changes_slot() {
        let a = PhyProfile::ieee80211a();
        let n = PhyProfile::wifi_nano();
        assert_eq!(n.slot(), Nanos::from_nanos(800));
        assert_eq!(
            n.packet_exchange_airtime(1500),
            a.packet_exchange_airtime(1500)
        );
    }

    #[test]
    fn builder_style_overrides() {
        let phy = PhyProfile::ieee80211a()
            .with_slot(Nanos::from_micros(20))
            .with_data_rate(6);
        assert_eq!(phy.slot(), Nanos::from_micros(20));
        assert_eq!(phy.data_rate_mbps(), 6);
        // 6 Mbps -> 24 bits/symbol: much longer frames.
        assert!(phy.data_frame_airtime(1500) > PhyProfile::ieee80211a().data_frame_airtime(1500));
    }

    #[test]
    fn proptest_airtime_structure() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &(0u32..4000, 1u32..=54, 1u32..=54),
                |(payload, rate_a, rate_b)| {
                    let (lo, hi) = if rate_a <= rate_b {
                        (rate_a, rate_b)
                    } else {
                        (rate_b, rate_a)
                    };
                    let slow = PhyProfile::ieee80211a().with_data_rate(lo);
                    let fast = PhyProfile::ieee80211a().with_data_rate(hi);
                    // Higher rate never increases airtime.
                    prop_assert!(
                        fast.data_frame_airtime(payload) <= slow.data_frame_airtime(payload)
                    );
                    // Airtime is preamble + whole symbols.
                    let t = fast.data_frame_airtime(payload) - Nanos::from_micros(20);
                    prop_assert_eq!(t.as_nanos() % 4000, 0);
                    // An exchange always exceeds its bare frame.
                    prop_assert!(
                        fast.packet_exchange_airtime(payload) > fast.data_frame_airtime(payload)
                    );
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn unrepresentable_payload_saturates_instead_of_overflowing() {
        let phy = PhyProfile::ieee80211a();
        // 28 B of MAC framing overflow u32 for the largest payloads.
        assert_eq!(phy.checked_packet_exchange_airtime(u32::MAX), None);
        assert_eq!(phy.packet_exchange_airtime(u32::MAX), Nanos::MAX);
        assert_eq!(phy.data_frame_airtime(u32::MAX), Nanos::MAX);
        assert_eq!(
            phy.transmissions_per_interval(Nanos::from_millis(20), u32::MAX),
            0
        );
        // The largest framable payload is representable (about 640 s).
        let largest = phy
            .checked_packet_exchange_airtime(u32::MAX - 28)
            .expect("framed length fits u32");
        assert!(largest > Nanos::from_secs(600));
    }

    #[test]
    fn transmissions_per_interval_floors() {
        let phy = PhyProfile::ieee80211a();
        assert_eq!(
            phy.transmissions_per_interval(Nanos::from_micros(326), 1500),
            1
        );
        assert_eq!(
            phy.transmissions_per_interval(Nanos::from_micros(325), 1500),
            0
        );
    }
}
