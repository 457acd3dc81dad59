//! IEEE 802.1AE MACsec (paper ref \[20\]).
//!
//! Hop-by-hop (or, in scenario S2/S3, end-to-end) layer-2 security:
//! AES-128-GCM over the frame with a SecTAG carrying the packet number
//! (PN) and secure channel identifier (SCI). The GCM nonce is the real
//! MACsec construction: `SCI (8 bytes) || PN (4 bytes)`.
//!
//! Confidentiality is optional in MACsec ([`MacsecMode`]); both
//! integrity-only and confidential modes are implemented because the
//! S1-vs-S2 comparison cares about the difference.

use autosec_crypto::AesGcm;

use crate::ProtoError;

/// SecTAG bytes on the wire: TCI/AN (1) + SL (1) + PN (4) + SCI (8).
pub const SECTAG_BYTES: usize = 14;
/// ICV bytes (full GCM tag).
pub const ICV_BYTES: usize = 16;

/// Whether MACsec encrypts or only authenticates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacsecMode {
    /// Integrity + confidentiality (TCI E=1, C=1).
    AuthenticatedEncryption,
    /// Integrity only (payload in clear, still GCM-authenticated).
    IntegrityOnly,
}

/// A MACsec-protected frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacsecFrame {
    /// Secure channel identifier of the transmitter.
    pub sci: u64,
    /// Packet number (replay protection).
    pub pn: u32,
    /// Protection mode.
    pub mode: MacsecMode,
    /// Protected payload: ciphertext||tag, or cleartext with detached tag.
    pub secure_data: Vec<u8>,
}

impl MacsecFrame {
    /// Total wire overhead added by MACsec.
    pub fn overhead_bytes() -> usize {
        SECTAG_BYTES + ICV_BYTES
    }

    /// Wire length of the protected frame body.
    pub fn wire_len(&self) -> usize {
        SECTAG_BYTES
            + match self.mode {
                MacsecMode::AuthenticatedEncryption => self.secure_data.len(),
                MacsecMode::IntegrityOnly => self.secure_data.len(),
            }
    }
}

/// Transmit side of a secure channel (one SC, one SA).
#[derive(Debug, Clone)]
pub struct MacsecTx {
    aead: AesGcm,
    sci: u64,
    next_pn: u32,
    mode: MacsecMode,
}

/// Receive side of a secure channel with strict anti-replay ordering.
#[derive(Debug, Clone)]
pub struct MacsecRx {
    aead: AesGcm,
    sci: u64,
    highest_pn: u32,
}

fn nonce(sci: u64, pn: u32) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..8].copy_from_slice(&sci.to_be_bytes());
    n[8..].copy_from_slice(&pn.to_be_bytes());
    n
}

fn aad(sci: u64, pn: u32, mode: MacsecMode) -> Vec<u8> {
    let mut a = Vec::with_capacity(13);
    a.extend_from_slice(&sci.to_be_bytes());
    a.extend_from_slice(&pn.to_be_bytes());
    a.push(match mode {
        MacsecMode::AuthenticatedEncryption => 0x0C,
        MacsecMode::IntegrityOnly => 0x08,
    });
    a
}

impl MacsecTx {
    /// Creates a transmit SA from a secure association key (SAK).
    pub fn new(sak: [u8; 16], sci: u64, mode: MacsecMode) -> Self {
        Self {
            aead: AesGcm::new(&sak),
            sci,
            next_pn: 1,
            mode,
        }
    }

    /// Protects a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::RekeyRequired`] when the 32-bit PN space is
    /// exhausted (MACsec mandates rekey before wrap).
    pub fn protect(&mut self, payload: &[u8]) -> Result<MacsecFrame, ProtoError> {
        if self.next_pn == u32::MAX {
            return Err(ProtoError::RekeyRequired);
        }
        let pn = self.next_pn;
        self.next_pn += 1;
        let n = nonce(self.sci, pn);
        let a = aad(self.sci, pn, self.mode);
        let secure_data = match self.mode {
            MacsecMode::AuthenticatedEncryption => self.aead.seal(&n, &a, payload),
            MacsecMode::IntegrityOnly => {
                // GCM with empty plaintext: tag over AAD||payload.
                let mut full_aad = a;
                full_aad.extend_from_slice(payload);
                let tag = self.aead.seal(&n, &full_aad, b"");
                let mut out = payload.to_vec();
                out.extend_from_slice(&tag);
                out
            }
        };
        Ok(MacsecFrame {
            sci: self.sci,
            pn,
            mode: self.mode,
            secure_data,
        })
    }
}

impl MacsecRx {
    /// Creates a receive SA bound to the peer's SCI.
    pub fn new(sak: [u8; 16], peer_sci: u64) -> Self {
        Self {
            aead: AesGcm::new(&sak),
            sci: peer_sci,
            highest_pn: 0,
        }
    }

    /// Verifies (and decrypts) a frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for an unknown SCI or short frame,
    /// [`ProtoError::Replayed`] for PN reuse / stale PN,
    /// [`ProtoError::AuthFailed`] on ICV mismatch.
    pub fn verify(&mut self, frame: &MacsecFrame) -> Result<Vec<u8>, ProtoError> {
        if frame.sci != self.sci {
            return Err(ProtoError::Malformed);
        }
        self.check_replay(frame.pn)?;
        let n = nonce(frame.sci, frame.pn);
        let a = aad(frame.sci, frame.pn, frame.mode);
        let payload = match frame.mode {
            MacsecMode::AuthenticatedEncryption => self
                .aead
                .open(&n, &a, &frame.secure_data)
                .map_err(|_| ProtoError::AuthFailed)?,
            MacsecMode::IntegrityOnly => {
                if frame.secure_data.len() < ICV_BYTES {
                    return Err(ProtoError::Malformed);
                }
                let (payload, tag) = frame
                    .secure_data
                    .split_at(frame.secure_data.len() - ICV_BYTES);
                let mut full_aad = a;
                full_aad.extend_from_slice(payload);
                let mut sealed = Vec::with_capacity(ICV_BYTES);
                sealed.extend_from_slice(tag);
                self.aead
                    .open(&n, &full_aad, &sealed)
                    .map_err(|_| ProtoError::AuthFailed)?;
                payload.to_vec()
            }
        };
        self.highest_pn = frame.pn;
        Ok(payload)
    }

    fn check_replay(&self, pn: u32) -> Result<(), ProtoError> {
        if pn == 0 {
            return Err(ProtoError::Malformed);
        }
        if pn <= self.highest_pn {
            return Err(ProtoError::Replayed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(mode: MacsecMode) -> (MacsecTx, MacsecRx) {
        let sak = [9u8; 16];
        (
            MacsecTx::new(sak, 0xAABB_CCDD_0000_0001, mode),
            MacsecRx::new(sak, 0xAABB_CCDD_0000_0001),
        )
    }

    #[test]
    fn encrypt_round_trip() {
        let (mut tx, mut rx) = pair(MacsecMode::AuthenticatedEncryption);
        let f = tx.protect(b"zonal telemetry").unwrap();
        assert_ne!(f.secure_data[..15], b"zonal telemetry"[..]);
        assert_eq!(rx.verify(&f).unwrap(), b"zonal telemetry");
    }

    #[test]
    fn integrity_only_leaves_cleartext() {
        let (mut tx, mut rx) = pair(MacsecMode::IntegrityOnly);
        let f = tx.protect(b"visible but authentic").unwrap();
        assert_eq!(&f.secure_data[..21], b"visible but authentic");
        assert_eq!(rx.verify(&f).unwrap(), b"visible but authentic");
    }

    #[test]
    fn tamper_detected_both_modes() {
        for mode in [
            MacsecMode::AuthenticatedEncryption,
            MacsecMode::IntegrityOnly,
        ] {
            let (mut tx, mut rx) = pair(mode);
            let mut f = tx.protect(b"payload").unwrap();
            f.secure_data[0] ^= 1;
            assert_eq!(
                rx.verify(&f).unwrap_err(),
                ProtoError::AuthFailed,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn strict_replay_rejected() {
        let (mut tx, mut rx) = pair(MacsecMode::AuthenticatedEncryption);
        let f = tx.protect(b"once").unwrap();
        assert!(rx.verify(&f).is_ok());
        assert_eq!(rx.verify(&f).unwrap_err(), ProtoError::Replayed);
    }

    #[test]
    fn stale_pn_rejected() {
        let (mut tx, mut rx) = pair(MacsecMode::AuthenticatedEncryption);
        let old = tx.protect(b"old").unwrap();
        for _ in 0..10 {
            let f = tx.protect(b"new").unwrap();
            rx.verify(&f).unwrap();
        }
        assert_eq!(rx.verify(&old).unwrap_err(), ProtoError::Replayed);
    }

    #[test]
    fn wrong_sci_rejected() {
        let sak = [9u8; 16];
        let mut tx = MacsecTx::new(sak, 111, MacsecMode::AuthenticatedEncryption);
        let mut rx = MacsecRx::new(sak, 222);
        let f = tx.protect(b"x").unwrap();
        assert_eq!(rx.verify(&f).unwrap_err(), ProtoError::Malformed);
    }

    #[test]
    fn wrong_sak_rejected() {
        let mut tx = MacsecTx::new([1u8; 16], 5, MacsecMode::AuthenticatedEncryption);
        let mut rx = MacsecRx::new([2u8; 16], 5);
        let f = tx.protect(b"x").unwrap();
        assert_eq!(rx.verify(&f).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn overhead_is_30_bytes() {
        assert_eq!(MacsecFrame::overhead_bytes(), 30);
    }

    #[test]
    fn pn_increments_per_frame() {
        let (mut tx, _) = pair(MacsecMode::AuthenticatedEncryption);
        let a = tx.protect(b"a").unwrap();
        let b = tx.protect(b"b").unwrap();
        assert_eq!(a.pn + 1, b.pn);
    }
}
