//! AUTOSAR Secure Onboard Communication (SECOC, paper ref \[18\]).
//!
//! SECOC appends a **truncated freshness value** and a **truncated
//! CMAC** to each protected PDU. The receiver reconstructs the full
//! freshness value from its own synchronized counter plus the truncated
//! bits — the trick that keeps bus overhead tiny (4 bytes in the default
//! profile) at the cost of a resynchronization window.
//!
//! The paper's S1 critique ("authentication-only security capabilities")
//! is visible in the API: [`SecOcAuthenticator::protect`] authenticates
//! but does **not** encrypt.

use autosec_crypto::Cmac;

use crate::ProtoError;

/// SECOC profile parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecOcConfig {
    /// Truncated freshness bits carried in the PDU (profile 1: 8).
    pub freshness_tx_bits: u8,
    /// Truncated MAC bits carried in the PDU (profile 1: 24).
    pub mac_tx_bits: u8,
    /// Receiver resynchronization window (attempts with incremented
    /// high-order freshness parts).
    pub resync_attempts: u8,
}

impl Default for SecOcConfig {
    fn default() -> Self {
        Self {
            freshness_tx_bits: 8,
            mac_tx_bits: 24,
            resync_attempts: 2,
        }
    }
}

impl SecOcConfig {
    /// Bytes of overhead appended to each PDU.
    pub fn overhead_bytes(&self) -> usize {
        (usize::from(self.freshness_tx_bits) + usize::from(self.mac_tx_bits)).div_ceil(8)
    }
}

/// A protected PDU on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecOcPdu {
    /// Data identifier (like the CAN id binding).
    pub data_id: u16,
    /// Authentic payload (cleartext — SECOC does not encrypt).
    pub payload: Vec<u8>,
    /// Truncated freshness value (low-order bits).
    pub truncated_freshness: u64,
    /// Truncated MAC bits (stored right-aligned).
    pub truncated_mac: Vec<u8>,
}

impl SecOcPdu {
    /// Total wire size.
    pub fn wire_len(&self, cfg: &SecOcConfig) -> usize {
        self.payload.len() + cfg.overhead_bytes()
    }
}

/// Sender or receiver side of a SECOC association for one data id.
#[derive(Debug, Clone)]
pub struct SecOcAuthenticator {
    cfg: SecOcConfig,
    cmac: Cmac,
    data_id: u16,
    /// Sender: next freshness value. Receiver: highest accepted.
    freshness: u64,
    is_sender: bool,
}

impl SecOcAuthenticator {
    /// Creates the sending side.
    pub fn new_sender(cfg: SecOcConfig, key: [u8; 16], data_id: u16) -> Self {
        Self {
            cfg,
            cmac: Cmac::new(&key),
            data_id,
            freshness: 1,
            is_sender: true,
        }
    }

    /// Creates the receiving side.
    pub fn new_receiver(cfg: SecOcConfig, key: [u8; 16], data_id: u16) -> Self {
        Self {
            cfg,
            cmac: Cmac::new(&key),
            data_id,
            freshness: 0,
            is_sender: false,
        }
    }

    fn mac_input(data_id: u16, payload: &[u8], freshness: u64) -> Vec<u8> {
        let mut m = Vec::with_capacity(2 + payload.len() + 8);
        m.extend_from_slice(&data_id.to_be_bytes());
        m.extend_from_slice(payload);
        m.extend_from_slice(&freshness.to_be_bytes());
        m
    }

    fn truncated_mac(&self, payload: &[u8], freshness: u64) -> Vec<u8> {
        let full = self
            .cmac
            .mac(&Self::mac_input(self.data_id, payload, freshness));
        let bytes = usize::from(self.cfg.mac_tx_bits).div_ceil(8);
        full[..bytes].to_vec()
    }

    /// Protects a payload, consuming one freshness value.
    ///
    /// # Errors
    ///
    /// [`ProtoError::RekeyRequired`] when the 64-bit freshness space is
    /// exhausted (practically unreachable, but enforced).
    ///
    /// # Panics
    ///
    /// Panics if called on a receiver-side authenticator.
    pub fn protect(&mut self, payload: &[u8]) -> Result<SecOcPdu, ProtoError> {
        assert!(self.is_sender, "protect() requires a sender authenticator");
        if self.freshness == u64::MAX {
            return Err(ProtoError::RekeyRequired);
        }
        let fv = self.freshness;
        self.freshness += 1;
        let mask = if self.cfg.freshness_tx_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.cfg.freshness_tx_bits) - 1
        };
        Ok(SecOcPdu {
            data_id: self.data_id,
            payload: payload.to_vec(),
            truncated_freshness: fv & mask,
            truncated_mac: self.truncated_mac(payload, fv),
        })
    }

    /// Reconstructs the most plausible full freshness value from the
    /// truncated bits, given the receiver's last accepted value. `None`
    /// when the candidate would pass `u64::MAX`, a value no sender can
    /// have used (a hostile PDU can carry any truncated value).
    fn reconstruct_freshness(&self, truncated: u64, attempt: u8) -> Option<u64> {
        let bits = u32::from(self.cfg.freshness_tx_bits.min(63));
        let window = 1u64 << bits;
        let base = (self.freshness >> bits) << bits;
        let mut candidate = base | truncated;
        if candidate <= self.freshness {
            candidate = candidate.checked_add(window)?;
        }
        u64::from(attempt)
            .checked_mul(window)
            .and_then(|step| candidate.checked_add(step))
    }

    /// Verifies a PDU, returning the authentic payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for a wrong data id,
    /// [`ProtoError::AuthFailed`] if no freshness candidate authenticates
    /// within the resynchronization window.
    ///
    /// # Panics
    ///
    /// Panics if called on a sender-side authenticator.
    pub fn verify(&mut self, pdu: &SecOcPdu) -> Result<Vec<u8>, ProtoError> {
        assert!(
            !self.is_sender,
            "verify() requires a receiver authenticator"
        );
        if pdu.data_id != self.data_id {
            return Err(ProtoError::Malformed);
        }
        for attempt in 0..self.cfg.resync_attempts {
            // Later attempts only grow, so the first overflow ends the search.
            let Some(candidate) = self.reconstruct_freshness(pdu.truncated_freshness, attempt)
            else {
                break;
            };
            let expect = self.truncated_mac(&pdu.payload, candidate);
            if autosec_crypto::util::ct_eq(&expect, &pdu.truncated_mac) {
                self.freshness = candidate;
                return Ok(pdu.payload.clone());
            }
        }
        Err(ProtoError::AuthFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SecOcAuthenticator, SecOcAuthenticator) {
        let cfg = SecOcConfig::default();
        (
            SecOcAuthenticator::new_sender(cfg, [1u8; 16], 0x100),
            SecOcAuthenticator::new_receiver(cfg, [1u8; 16], 0x100),
        )
    }

    #[test]
    fn protect_verify_round_trip() {
        let (mut tx, mut rx) = pair();
        for i in 0..20u8 {
            let payload = [i; 6];
            let pdu = tx.protect(&payload).unwrap();
            assert_eq!(rx.verify(&pdu).unwrap(), payload);
        }
    }

    #[test]
    fn default_overhead_is_4_bytes() {
        let cfg = SecOcConfig::default();
        assert_eq!(cfg.overhead_bytes(), 4);
        let (mut tx, _) = pair();
        let pdu = tx.protect(&[0u8; 4]).unwrap();
        assert_eq!(pdu.wire_len(&cfg), 8);
    }

    #[test]
    fn replayed_pdu_rejected() {
        let (mut tx, mut rx) = pair();
        let pdu = tx.protect(b"cmd").unwrap();
        assert!(rx.verify(&pdu).is_ok());
        // Same PDU again: its freshness is now in the past; every
        // reconstruction candidate is in the future, so the MAC fails.
        assert_eq!(rx.verify(&pdu).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn forged_payload_rejected() {
        let (mut tx, mut rx) = pair();
        let mut pdu = tx.protect(b"brake=0").unwrap();
        pdu.payload = b"brake=1".to_vec();
        assert_eq!(rx.verify(&pdu).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn freshness_at_the_top_of_the_range_is_rejected_not_overflowed() {
        let (mut tx, mut rx) = pair();
        let mut pdu = tx.protect(b"cmd").unwrap();
        pdu.truncated_freshness = u64::MAX;
        assert_eq!(rx.verify(&pdu).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn wrong_key_rejected() {
        let cfg = SecOcConfig::default();
        let mut tx = SecOcAuthenticator::new_sender(cfg, [1u8; 16], 0x100);
        let mut rx = SecOcAuthenticator::new_receiver(cfg, [2u8; 16], 0x100);
        let pdu = tx.protect(b"x").unwrap();
        assert_eq!(rx.verify(&pdu).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn wrong_data_id_rejected() {
        let cfg = SecOcConfig::default();
        let mut tx = SecOcAuthenticator::new_sender(cfg, [1u8; 16], 0x200);
        let mut rx = SecOcAuthenticator::new_receiver(cfg, [1u8; 16], 0x100);
        let pdu = tx.protect(b"x").unwrap();
        assert_eq!(rx.verify(&pdu).unwrap_err(), ProtoError::Malformed);
    }

    #[test]
    fn receiver_resynchronizes_after_loss() {
        let (mut tx, mut rx) = pair();
        // Lose 300 PDUs: the 8-bit truncated counter wraps once.
        for _ in 0..300 {
            let _ = tx.protect(b"lost").unwrap();
        }
        let pdu = tx.protect(b"arrives").unwrap();
        assert_eq!(rx.verify(&pdu).unwrap(), b"arrives");
        assert_eq!(rx.freshness, 301);
    }

    #[test]
    fn loss_beyond_window_fails() {
        let cfg = SecOcConfig {
            resync_attempts: 1,
            ..SecOcConfig::default()
        };
        let mut tx = SecOcAuthenticator::new_sender(cfg, [1u8; 16], 1);
        let mut rx = SecOcAuthenticator::new_receiver(cfg, [1u8; 16], 1);
        for _ in 0..600 {
            let _ = tx.protect(b"lost").unwrap();
        }
        let pdu = tx.protect(b"late").unwrap();
        assert_eq!(rx.verify(&pdu).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn out_of_order_delivery_rejected() {
        let (mut tx, mut rx) = pair();
        let first = tx.protect(b"a").unwrap();
        let second = tx.protect(b"b").unwrap();
        assert!(rx.verify(&second).is_ok());
        assert_eq!(rx.verify(&first).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn payload_is_not_encrypted() {
        // The paper's point about S1: SECOC is authentication-only.
        let (mut tx, _) = pair();
        let pdu = tx.protect(b"plaintext visible").unwrap();
        assert_eq!(pdu.payload, b"plaintext visible");
    }

    #[test]
    #[should_panic(expected = "sender")]
    fn protect_on_receiver_panics() {
        let (_, mut rx) = pair();
        let _ = rx.protect(b"x");
    }
}
