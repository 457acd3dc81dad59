//! A compact (D)TLS 1.3-style record protocol — Table I's transport-layer
//! row.
//!
//! Models what the scenario comparison needs: a handshake that derives
//! directional keys from a pre-shared key (PSK mode, the realistic choice
//! for ECU-to-ECU links), and an AEAD record layer with explicit sequence
//! numbers and replay rejection. Not wire-compatible with RFC 9147 —
//! this is a behavioural model with real cryptography.

use autosec_crypto::{AesGcm, Hkdf};

use crate::ProtoError;

/// Record header bytes: content type (1) + epoch (2) + sequence (6) +
/// length (2).
pub const RECORD_HEADER_BYTES: usize = 11;
/// AEAD tag bytes.
pub const RECORD_TAG_BYTES: usize = 16;

/// A (D)TLS session endpoint after a completed PSK handshake.
#[derive(Debug, Clone)]
pub struct DtlsSession {
    write: AesGcm,
    read: AesGcm,
    write_seq: u64,
    read_highest: u64,
    epoch: u16,
}

impl DtlsSession {
    /// Completes a PSK handshake, returning the two endpoints.
    ///
    /// `psk` is the pre-shared key; `session_nonce` models the
    /// client+server randoms (must be unique per session).
    pub fn establish(psk: &[u8], session_nonce: &[u8]) -> (DtlsSession, DtlsSession) {
        let hk = Hkdf::extract(session_nonce, psk);
        let client_key = {
            let v = hk.expand(b"dtls client write", 16).expect("valid length");
            let mut k = [0u8; 16];
            k.copy_from_slice(&v);
            k
        };
        let server_key = {
            let v = hk.expand(b"dtls server write", 16).expect("valid length");
            let mut k = [0u8; 16];
            k.copy_from_slice(&v);
            k
        };
        let client = DtlsSession {
            write: AesGcm::new(&client_key),
            read: AesGcm::new(&server_key),
            write_seq: 0,
            read_highest: 0,
            epoch: 1,
        };
        let server = DtlsSession {
            write: AesGcm::new(&server_key),
            read: AesGcm::new(&client_key),
            write_seq: 0,
            read_highest: 0,
            epoch: 1,
        };
        (client, server)
    }

    /// Per-record wire overhead.
    pub fn overhead_bytes() -> usize {
        RECORD_HEADER_BYTES + RECORD_TAG_BYTES
    }

    fn nonce(epoch: u16, seq: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[2..4].copy_from_slice(&epoch.to_be_bytes());
        n[4..].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// Seals an application-data record.
    ///
    /// # Errors
    ///
    /// [`ProtoError::RekeyRequired`] on sequence exhaustion.
    pub fn seal(&mut self, payload: &[u8]) -> Result<DtlsRecord, ProtoError> {
        if self.write_seq == u64::MAX {
            return Err(ProtoError::RekeyRequired);
        }
        let seq = self.write_seq;
        self.write_seq += 1;
        let n = Self::nonce(self.epoch, seq);
        let mut aad = vec![23u8]; // application data
        aad.extend_from_slice(&self.epoch.to_be_bytes());
        aad.extend_from_slice(&seq.to_be_bytes());
        Ok(DtlsRecord {
            epoch: self.epoch,
            seq,
            body: self.write.seal(&n, &aad, payload),
        })
    }

    /// Opens a record from the peer.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Replayed`] for stale sequence numbers,
    /// [`ProtoError::AuthFailed`] on tag mismatch.
    pub fn open(&mut self, record: &DtlsRecord) -> Result<Vec<u8>, ProtoError> {
        // `read_highest` stores the *next expected* sequence number
        // (strictly monotonic acceptance).
        if record.seq < self.read_highest {
            return Err(ProtoError::Replayed);
        }
        let n = Self::nonce(record.epoch, record.seq);
        let mut aad = vec![23u8];
        aad.extend_from_slice(&record.epoch.to_be_bytes());
        aad.extend_from_slice(&record.seq.to_be_bytes());
        let payload = self
            .read
            .open(&n, &aad, &record.body)
            .map_err(|_| ProtoError::AuthFailed)?;
        self.read_highest = record.seq + 1;
        Ok(payload)
    }
}

/// A sealed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtlsRecord {
    /// Key epoch.
    pub epoch: u16,
    /// Record sequence number.
    pub seq: u64,
    /// Ciphertext plus tag.
    pub body: Vec<u8>,
}

impl DtlsRecord {
    /// Total wire length.
    pub fn wire_len(&self) -> usize {
        RECORD_HEADER_BYTES + self.body.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_round_trip() {
        let (mut c, mut s) = DtlsSession::establish(b"psk", b"nonce-1");
        let r = c.seal(b"hello server").unwrap();
        assert_eq!(s.open(&r).unwrap(), b"hello server");
        let r2 = s.seal(b"hello client").unwrap();
        assert_eq!(c.open(&r2).unwrap(), b"hello client");
    }

    #[test]
    fn directional_keys_differ() {
        let (mut c, _) = DtlsSession::establish(b"psk", b"nonce-1");
        let (mut c2, _) = DtlsSession::establish(b"psk", b"nonce-2");
        let a = c.seal(b"same").unwrap();
        let b = c2.seal(b"same").unwrap();
        assert_ne!(a.body, b.body, "session nonce must separate keys");
    }

    #[test]
    fn replay_rejected() {
        let (mut c, mut s) = DtlsSession::establish(b"psk", b"n");
        let r0 = c.seal(b"zero").unwrap();
        let r1 = c.seal(b"one").unwrap();
        assert!(s.open(&r0).is_ok());
        assert!(s.open(&r1).is_ok());
        assert_eq!(s.open(&r1).unwrap_err(), ProtoError::Replayed);
        assert_eq!(s.open(&r0).unwrap_err(), ProtoError::Replayed);
    }

    #[test]
    fn tamper_rejected() {
        let (mut c, mut s) = DtlsSession::establish(b"psk", b"n");
        let mut r = c.seal(b"x").unwrap();
        r.body[0] ^= 1;
        assert_eq!(s.open(&r).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn cross_session_rejected() {
        let (mut c1, _) = DtlsSession::establish(b"psk", b"n1");
        let (_, mut s2) = DtlsSession::establish(b"psk", b"n2");
        let r = c1.seal(b"x").unwrap();
        assert_eq!(s2.open(&r).unwrap_err(), ProtoError::AuthFailed);
    }

    #[test]
    fn overhead_is_27_bytes() {
        assert_eq!(DtlsSession::overhead_bytes(), 27);
        let (mut c, _) = DtlsSession::establish(b"psk", b"n");
        let r = c.seal(&[0u8; 100]).unwrap();
        assert_eq!(r.wire_len(), 100 + 27);
    }
}
