//! Randomized invariant tests for the cryptographic substrate.
//!
//! Formerly proptest-based; now driven by seeded [`StdRng`] streams
//! (the hermetic build has no proptest), one substream per case so
//! failures reproduce exactly.

use autosec_crypto::shamir::{combine, split};
use autosec_crypto::util::{from_hex, to_hex};
use autosec_crypto::{AesCtr, Cmac, Hkdf, WotsKeyPair};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: u64 = 48;

fn case_rng(root: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(root ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn arr<const N: usize>(rng: &mut StdRng) -> [u8; N] {
    let mut a = [0u8; N];
    rng.fill_bytes(&mut a);
    a
}

/// CTR is an involution for any data length.
#[test]
fn ctr_involution() {
    for case in 0..CASES {
        let mut rng = case_rng(0xC74, case);
        let key: [u8; 16] = arr(&mut rng);
        let iv: [u8; 16] = arr(&mut rng);
        let data = {
            let len = rng.gen_range(0usize..300);
            bytes(&mut rng, len)
        };
        let ctr = AesCtr::new(&key);
        assert_eq!(ctr.process(&iv, &ctr.process(&iv, &data)), data);
    }
}

/// HKDF expansions are prefix-consistent for any lengths.
#[test]
fn hkdf_prefix() {
    for case in 0..CASES {
        let mut rng = case_rng(0x48_DF, case);
        let salt = {
            let len = rng.gen_range(0usize..32);
            bytes(&mut rng, len)
        };
        let ikm = {
            let len = rng.gen_range(1usize..64);
            bytes(&mut rng, len)
        };
        let a = rng.gen_range(1usize..100);
        let b = rng.gen_range(1usize..100);
        let hk = Hkdf::extract(&salt, &ikm);
        let (short, long) = if a <= b { (a, b) } else { (b, a) };
        let s = hk.expand(b"info", short).expect("valid length");
        let l = hk.expand(b"info", long).expect("valid length");
        assert_eq!(&l[..short], &s[..]);
    }
}

/// CMAC accepts any true tag prefix and rejects a flipped bit in it.
#[test]
fn cmac_truncation() {
    for case in 0..CASES {
        let mut rng = case_rng(0xC3AC, case);
        let key: [u8; 16] = arr(&mut rng);
        let msg = {
            let len = rng.gen_range(0usize..200);
            bytes(&mut rng, len)
        };
        let tag_len = rng.gen_range(1usize..=16);
        let flip = rng.gen_range(0u8..8);
        let cmac = Cmac::new(&key);
        let tag = cmac.mac(&msg);
        assert!(cmac.verify_truncated(&msg, &tag[..tag_len]));
        let mut bad = tag[..tag_len].to_vec();
        bad[tag_len - 1] ^= 1 << flip;
        assert!(!cmac.verify_truncated(&msg, &bad));
    }
}

/// Hex encode/decode round-trips.
#[test]
fn hex_round_trip() {
    for case in 0..CASES {
        let mut rng = case_rng(0x4E_C5, case);
        let data = {
            let len = rng.gen_range(0usize..128);
            bytes(&mut rng, len)
        };
        assert_eq!(from_hex(&to_hex(&data)).expect("valid hex"), data);
    }
}

/// Shamir: any k of n shares reconstruct; k-1 do not (8+-byte secrets
/// make coincidence astronomically unlikely).
#[test]
fn shamir_threshold() {
    for case in 0..CASES {
        let mut rng = case_rng(0x54A_312, case);
        let secret = {
            let len = rng.gen_range(8usize..64);
            bytes(&mut rng, len)
        };
        let k = rng.gen_range(2usize..5);
        let n = k + rng.gen_range(0usize..3);
        let shares = split(&secret, k, n, &mut rng).expect("valid k/n");
        // The *last* k shares (any subset works).
        let subset = &shares[n - k..];
        assert_eq!(combine(subset).expect("k shares"), secret);
        let below = &shares[..k - 1];
        if !below.is_empty() {
            assert_ne!(combine(below).expect("structurally valid"), secret);
        }
    }
}

/// WOTS rejects any mutated message.
#[test]
fn wots_message_binding() {
    for case in 0..16 {
        let mut rng = case_rng(0x3075, case);
        let seed: [u8; 32] = arr(&mut rng);
        let msg = {
            let len = rng.gen_range(1usize..64);
            bytes(&mut rng, len)
        };
        let mut kp = WotsKeyPair::from_seed(&seed);
        let pk = kp.public_key().clone();
        let sig = kp.sign(&msg).expect("fresh key");
        assert!(pk.verify(&msg, &sig));
        let mut other = msg.clone();
        let idx = rng.gen_range(0usize..other.len());
        other[idx] ^= 1 << rng.gen_range(0u8..8);
        assert!(!pk.verify(&other, &sig));
    }
}
