//! Hash-based one-time signatures: Winternitz (WOTS).
//!
//! They replace elliptic-curve signatures in the SSI substitution (see
//! `DESIGN.md`): correct-by-construction from SHA-256, genuinely
//! unforgeable, and simple enough to implement from scratch with
//! confidence. Each key pair must sign **at most one** message — the
//! stateful wrapper in [`crate::mss`] lifts them to many-time keys.
//!
//! Every hash in a chain is of a message that fits one SHA-256 block, so
//! the chains run on the fixed-layout one-block path of
//! [`crate::sha256`], and [`WotsKeyPair::from_seed`] walks its chains
//! two at a time, one per lane.

use crate::sha256::{
    digest_blocks, digest_state, one_block, state_digest, Digest, Sha256, State, WordBlock,
};
use crate::CryptoError;

/// Winternitz parameter: digits are base-16 (4 bits per chain step).
pub const WOTS_W: usize = 16;
/// Number of message digits (256 bits / 4 bits per digit).
pub const WOTS_MSG_CHAINS: usize = 64;
/// Number of checksum digits: max checksum = 64 * 15 = 960 < 16^3.
pub const WOTS_CSUM_CHAINS: usize = 3;
/// Total chains per key.
pub const WOTS_CHAINS: usize = WOTS_MSG_CHAINS + WOTS_CSUM_CHAINS;

/// Splits a digest into 64 base-16 digits plus 3 checksum digits.
fn wots_digits(digest: &Digest) -> [u8; WOTS_CHAINS] {
    let mut out = [0u8; WOTS_CHAINS];
    for (pair, byte) in out.chunks_mut(2).zip(digest.iter()) {
        pair[0] = byte >> 4;
        pair[1] = byte & 0x0f;
    }
    // Checksum: sum of (w-1 - digit); prevents forgery by advancing chains.
    let csum: u32 = out[..WOTS_MSG_CHAINS]
        .iter()
        .map(|&d| (WOTS_W as u32 - 1) - d as u32)
        .sum();
    out[WOTS_MSG_CHAINS] = ((csum >> 8) & 0x0f) as u8;
    out[WOTS_MSG_CHAINS + 1] = ((csum >> 4) & 0x0f) as u8;
    out[WOTS_MSG_CHAINS + 2] = (csum & 0x0f) as u8;
    out
}

/// The chain message `0x02 ‖ chain_idx:u16 ‖ step ‖ acc` (36 bytes) as
/// its padded block. `acc` fills words 1–8, so the padding and the
/// 288-bit length field are constants.
fn chain_block(chain_idx: usize, step: u8, acc: &State) -> WordBlock {
    let [idx_hi, idx_lo] = (chain_idx as u16).to_be_bytes();
    let mut block = [0u32; 16];
    block[0] = u32::from_be_bytes([0x02, idx_hi, idx_lo, step]);
    block[1..9].copy_from_slice(acc);
    block[9] = 0x8000_0000;
    block[15] = 36 * 8;
    block
}

/// The secret derivation message `0x03 ‖ seed ‖ i:u16` (35 bytes) as
/// its padded block.
fn secret_block(seed: &Digest, i: usize) -> WordBlock {
    let mut msg = [0u8; 35];
    msg[0] = 0x03;
    msg[1..33].copy_from_slice(seed);
    msg[33..].copy_from_slice(&(i as u16).to_be_bytes());
    one_block(&msg)
}

/// Applies the WOTS chain function `steps` times:
/// `H(0x02 || chain_idx || step || x)` with positional domain
/// separation so chains cannot be spliced.
fn chain(start: &Digest, chain_idx: usize, from_step: u8, steps: u8) -> Digest {
    let mut acc = digest_state(start);
    for step in from_step..from_step + steps {
        [acc] = digest_blocks(&[chain_block(chain_idx, step, &acc)]);
    }
    state_digest(&acc)
}

/// The secrets and chain heads of the `N` chains from `first`: derives
/// each secret from `seed` and walks the chains to their heads
/// together, one lane each.
fn secrets_and_heads<const N: usize>(seed: &Digest, first: usize) -> [(Digest, Digest); N] {
    let secrets = digest_blocks::<N>(&std::array::from_fn(|l| secret_block(seed, first + l)));
    let mut acc = secrets;
    for step in 0..(WOTS_W - 1) as u8 {
        acc = digest_blocks(&std::array::from_fn(|l| {
            chain_block(first + l, step, &acc[l])
        }));
    }
    std::array::from_fn(|l| (state_digest(&secrets[l]), state_digest(&acc[l])))
}

/// A WOTS public key: the 67 chain heads, plus a compact digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsPublicKey {
    heads: Vec<Digest>, // WOTS_CHAINS entries
}

impl WotsPublicKey {
    /// Compact commitment to the whole public key.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        for head in &self.heads {
            h.update(head);
        }
        h.finalize()
    }

    /// Verifies a WOTS signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &WotsSignature) -> bool {
        if sig.chains.len() != WOTS_CHAINS || self.heads.len() != WOTS_CHAINS {
            return false;
        }
        let digits = wots_digits(&Sha256::digest(message));
        for (i, (&digit, (sig_chain, head))) in digits
            .iter()
            .zip(sig.chains.iter().zip(self.heads.iter()))
            .enumerate()
        {
            let remaining = (WOTS_W - 1) as u8 - digit;
            if chain(sig_chain, i, digit, remaining) != *head {
                return false;
            }
        }
        true
    }
}

/// A WOTS signature: one intermediate chain value per digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsSignature {
    chains: Vec<Digest>, // WOTS_CHAINS entries
}

impl WotsSignature {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.chains.len() * 32
    }
}

/// A WOTS one-time key pair.
///
/// # Example
///
/// ```
/// use autosec_crypto::WotsKeyPair;
/// let mut kp = WotsKeyPair::from_seed(&[1u8; 32]);
/// let pk = kp.public_key().clone();
/// let sig = kp.sign(b"hello").unwrap();
/// assert!(pk.verify(b"hello", &sig));
/// assert!(!pk.verify(b"tampered", &sig));
/// assert!(kp.sign(b"again").is_err()); // one-time!
/// ```
#[derive(Clone)]
pub struct WotsKeyPair {
    sk: Vec<Digest>,
    pk: WotsPublicKey,
    used: bool,
}

impl std::fmt::Debug for WotsKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WotsKeyPair")
            .field("used", &self.used)
            .finish_non_exhaustive()
    }
}

impl WotsKeyPair {
    /// Deterministic generation from a 32-byte seed (used by [`crate::mss`]
    /// so leaves can be regenerated instead of stored).
    pub fn from_seed(seed: &Digest) -> Self {
        let mut chains = Vec::with_capacity(WOTS_CHAINS);
        for first in (0..WOTS_CHAINS - 1).step_by(2) {
            chains.extend(secrets_and_heads::<2>(seed, first));
        }
        if WOTS_CHAINS % 2 == 1 {
            chains.extend(secrets_and_heads::<1>(seed, WOTS_CHAINS - 1));
        }
        let (sk, heads) = chains.into_iter().unzip();
        Self {
            sk,
            pk: WotsPublicKey { heads },
            used: false,
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &WotsPublicKey {
        &self.pk
    }

    /// Signs `message` (hashed internally). One-time: second call fails.
    ///
    /// # Errors
    ///
    /// [`CryptoError::KeyExhausted`] if this key already signed.
    pub fn sign(&mut self, message: &[u8]) -> Result<WotsSignature, CryptoError> {
        if self.used {
            return Err(CryptoError::KeyExhausted);
        }
        self.used = true;
        let digits = wots_digits(&Sha256::digest(message));
        let chains = (0..WOTS_CHAINS)
            .map(|i| chain(&self.sk[i], i, 0, digits[i]))
            .collect();
        Ok(WotsSignature { chains })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn wots_round_trip() {
        let mut kp = WotsKeyPair::from_seed(&[7u8; 32]);
        let pk = kp.public_key().clone();
        let sig = kp.sign(b"v2x message").unwrap();
        assert!(pk.verify(b"v2x message", &sig));
        assert!(!pk.verify(b"v2x messagf", &sig));
    }

    #[test]
    fn wots_is_one_time() {
        let mut kp = WotsKeyPair::from_seed(&[7u8; 32]);
        kp.sign(b"a").unwrap();
        assert_eq!(kp.sign(b"b").unwrap_err(), CryptoError::KeyExhausted);
    }

    #[test]
    fn wots_seed_is_deterministic() {
        let seed = [9u8; 32];
        let a = WotsKeyPair::from_seed(&seed);
        let b = WotsKeyPair::from_seed(&seed);
        assert_eq!(a.public_key(), b.public_key());
        let c = WotsKeyPair::from_seed(&[10u8; 32]);
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn wots_signature_tamper_rejected() {
        let mut kp = WotsKeyPair::from_seed(&[7u8; 32]);
        let pk = kp.public_key().clone();
        let mut sig = kp.sign(b"m").unwrap();
        sig.chains[10][5] ^= 0x40;
        assert!(!pk.verify(b"m", &sig));
    }

    #[test]
    fn wots_digits_checksum_bounds() {
        // All-zero digest: checksum = 64*15 = 960 = 0x3C0.
        let digits = wots_digits(&[0u8; 32]);
        assert_eq!(&digits[WOTS_MSG_CHAINS..], &[0x3, 0xC, 0x0]);
        // All-0xF digest: checksum 0.
        let digits = wots_digits(&[0xff; 32]);
        assert_eq!(&digits[WOTS_MSG_CHAINS..], &[0, 0, 0]);
    }

    #[test]
    fn wots_signature_size_is_compact() {
        let mut kp = WotsKeyPair::from_seed(&[7u8; 32]);
        let sig = kp.sign(b"m").unwrap();
        assert_eq!(sig.byte_len(), WOTS_CHAINS * 32); // 2144 bytes
    }

    #[test]
    fn wots_cross_key_verification_fails() {
        let mut kp1 = WotsKeyPair::from_seed(&[1u8; 32]);
        let kp2 = WotsKeyPair::from_seed(&[2u8; 32]);
        let sig = kp1.sign(b"m").unwrap();
        assert!(!kp2.public_key().verify(b"m", &sig));
    }

    /// One chain step as the specification writes it, through the
    /// streaming hasher: `H(0x02 ‖ chain_idx ‖ step ‖ acc)`.
    fn reference_step(chain_idx: usize, step: u8, acc: &Digest) -> Digest {
        Sha256::digest_parts(&[&[0x02], &(chain_idx as u16).to_be_bytes(), &[step], acc])
    }

    /// The secret of chain `i`: `H(0x03 ‖ seed ‖ i)`.
    fn reference_secret(seed: &Digest, i: usize) -> Digest {
        Sha256::digest_parts(&[&[0x03], seed, &(i as u16).to_be_bytes()])
    }

    /// The secrets and heads of the WOTS key for `seed`, built only from
    /// `digest_parts`.
    fn reference_from_seed(seed: &Digest) -> (Vec<Digest>, Vec<Digest>) {
        (0..WOTS_CHAINS)
            .map(|i| {
                let secret = reference_secret(seed, i);
                let head =
                    (0..(WOTS_W - 1) as u8).fold(secret, |acc, step| reference_step(i, step, &acc));
                (secret, head)
            })
            .unzip()
    }

    /// The MSS root for `master` at `height`, built only from
    /// `digest_parts`: leaf seed, WOTS key, public-key digest, leaf hash,
    /// then interior nodes up a complete tree.
    fn reference_mss_root(master: &Digest, height: u8) -> Digest {
        let mut level: Vec<Digest> = (0..1u64 << height)
            .map(|index| {
                let leaf_seed = Sha256::digest_parts(&[&[0x04], master, &index.to_be_bytes()]);
                let (_, heads) = reference_from_seed(&leaf_seed);
                let heads: Vec<&[u8]> = heads.iter().map(|h| h.as_slice()).collect();
                Sha256::digest_parts(&[&[0x00], &Sha256::digest_parts(&heads)])
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| Sha256::digest_parts(&[&[0x01], &pair[0], &pair[1]]))
                .collect();
        }
        level[0]
    }

    #[test]
    fn chain_step_matches_the_streaming_hasher() {
        let mut rng = StdRng::seed_from_u64(67);
        for chain_idx in 0..WOTS_CHAINS {
            for step in 0..WOTS_W as u8 {
                let mut acc = [0u8; 32];
                rng.fill_bytes(&mut acc);
                let want = reference_step(chain_idx, step, &acc);
                let [state] = digest_blocks(&[chain_block(chain_idx, step, &digest_state(&acc))]);
                assert_eq!(state_digest(&state), want, "chain {chain_idx} step {step}");
                assert_eq!(chain(&acc, chain_idx, step, 1), want);
            }
        }
    }

    #[test]
    fn secret_step_matches_the_streaming_hasher() {
        let mut rng = StdRng::seed_from_u64(35);
        for i in 0..WOTS_CHAINS {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            let [state] = digest_blocks(&[secret_block(&seed, i)]);
            assert_eq!(
                state_digest(&state),
                reference_secret(&seed, i),
                "chain {i}"
            );
        }
    }

    #[test]
    fn from_seed_matches_the_digest_parts_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            let (secrets, heads) = reference_from_seed(&seed);
            let kp = WotsKeyPair::from_seed(&seed);
            assert_eq!(kp.sk, secrets);
            assert_eq!(kp.pk.heads, heads);
        }
    }

    #[test]
    fn mss_roots_match_the_digest_parts_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        for height in 0..=6 {
            for _ in 0..3 {
                let mut master = [0u8; 32];
                rng.fill_bytes(&mut master);
                let kp = crate::mss::MssKeyPair::from_seed(master, height);
                assert_eq!(
                    *kp.public_key().as_bytes(),
                    reference_mss_root(&master, height),
                    "height {height}"
                );
            }
        }
    }

    #[test]
    fn public_key_digest_is_stable() {
        let kp = WotsKeyPair::from_seed(&[1u8; 32]);
        assert_eq!(kp.public_key().digest(), kp.public_key().digest());
    }
}
