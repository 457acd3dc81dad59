//! Shared helpers: constant-time comparison, hex codecs, XOR.

/// Compares two byte slices in time independent of where they differ.
///
/// Returns `false` immediately (and safely) if lengths differ — length is
/// not secret in any of our protocols.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Encodes bytes as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes a hex string (case-insensitive, no separators).
///
/// Returns `None` on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn hex_round_trip() {
        let data = [0x00, 0x01, 0xfe, 0xff, 0xa5];
        let hex = to_hex(&data);
        assert_eq!(hex, "0001feffa5");
        assert_eq!(from_hex(&hex).unwrap(), data);
        assert_eq!(from_hex("ABCD").unwrap(), vec![0xab, 0xcd]);
    }

    #[test]
    fn hex_rejects_garbage() {
        assert!(from_hex("abc").is_none()); // odd length
        assert!(from_hex("zz").is_none()); // non-hex
    }
}
