//! Point-to-point automotive Ethernet links and zonal switches.
//!
//! The Fig. 3 backbone: zonal controllers connect to the central
//! computing unit over full-duplex single-pair Ethernet (100BASE-T1 /
//! 1000BASE-T1). Latency is serialization + propagation + store-and-
//! forward switching; no arbitration is needed on point-to-point links.

use autosec_sim::SimDuration;

/// Ethernet frame overhead: preamble+SFD (8) + header (14) + FCS (4) +
/// IPG (12) bytes.
pub const ETH_OVERHEAD_BYTES: usize = 38;

/// Minimum Ethernet payload.
pub const ETH_MIN_PAYLOAD: usize = 46;

/// A full-duplex point-to-point automotive Ethernet link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EthLink {
    /// Link speed in bits per second.
    pub bitrate_bps: u64,
    /// Cable length in metres (propagation at ~2/3 c).
    pub cable_m: f64,
}

impl EthLink {
    /// 1000BASE-T1 link.
    pub fn base_t1_1000(cable_m: f64) -> Self {
        Self {
            bitrate_bps: 1_000_000_000,
            cable_m,
        }
    }

    /// Wire bytes for a payload (padded to the Ethernet minimum).
    pub fn wire_bytes(payload_len: usize) -> usize {
        payload_len.max(ETH_MIN_PAYLOAD) + ETH_OVERHEAD_BYTES
    }

    /// One-way latency for a frame with `payload_len` bytes of payload.
    pub fn latency(&self, payload_len: usize) -> SimDuration {
        let ser_ns = Self::wire_bytes(payload_len) as f64 * 8.0 * 1e9 / self.bitrate_bps as f64;
        let prop_ns = self.cable_m / 2e8 * 1e9;
        SimDuration::from_ns_f64(ser_ns + prop_ns)
    }
}

/// A store-and-forward switch (e.g. inside a zonal controller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Switch {
    /// Fixed processing delay per forwarded frame.
    pub processing: SimDuration,
}

impl Default for Switch {
    fn default() -> Self {
        Self {
            processing: SimDuration::from_us(5),
        }
    }
}

impl Switch {
    /// Forwarding delay for a frame arriving on `ingress` and leaving on
    /// `egress`: full receive (store) + processing + transmit (forward).
    pub fn forward_latency(
        &self,
        ingress: &EthLink,
        egress: &EthLink,
        payload_len: usize,
    ) -> SimDuration {
        ingress.latency(payload_len) + self.processing + egress.latency(payload_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 100BASE-T1 link.
    fn t1_100(cable_m: f64) -> EthLink {
        EthLink {
            bitrate_bps: 100_000_000,
            cable_m,
        }
    }

    #[test]
    fn serialization_dominates_at_100m() {
        let link = t1_100(10.0);
        // 1000 B payload: 1038 wire bytes = 83.04 us + 50 ns prop.
        let lat = link.latency(1000).as_us_f64();
        assert!((83.0..83.3).contains(&lat), "{lat}");
    }

    #[test]
    fn gigabit_is_ten_times_faster() {
        let l100 = t1_100(5.0);
        let l1000 = EthLink::base_t1_1000(5.0);
        let s100 = l100.latency(500).as_ns_f64();
        let s1000 = l1000.latency(500).as_ns_f64();
        assert!((s100 / s1000 - 10.0).abs() < 0.5, "{}", s100 / s1000);
    }

    #[test]
    fn min_payload_padding() {
        assert_eq!(EthLink::wire_bytes(1), EthLink::wire_bytes(46));
        assert_eq!(EthLink::wire_bytes(46), 84);
    }

    #[test]
    fn switch_adds_store_and_forward() {
        let link = t1_100(1.0);
        let sw = Switch::default();
        let through = sw.forward_latency(&link, &link, 200);
        assert!(through > link.latency(200) * 2);
        assert_eq!(
            through,
            link.latency(200) + SimDuration::from_us(5) + link.latency(200)
        );
    }
}
