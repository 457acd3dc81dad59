//! Tier-1 contracts: properties every change must keep, checked in
//! seconds at the root so `cargo test` sees them without the full
//! workspace run.
//!
//! The golden digest below pins the canonical fleet artifact of one
//! small default run, and the golden roots pin the MSS keys the SSI
//! layer signs with. They may change only together with a CHANGES.md
//! note explaining why the simulation's output moved.

use autosec::crypto::{util::to_hex, MssKeyPair, Sha256};
use autosec_fleet::{FleetConfig, FleetEngine};

/// SHA-256 of `FleetReport::canonical_json` for [`golden_cfg`].
const GOLDEN_FLEET_DIGEST: &str =
    "9f77c1c01f7c30758d441a1e6d5762ed543cb2fb1b96ae31a998721b00d266fb";

/// MSS roots of `MssKeyPair::from_seed([seed; 32], height)` and the
/// wire size of a signature under each, as `(seed, height, root,
/// byte_len)`: a slip in the one-block hash layout of the WOTS chains
/// fails here in well under a second.
const GOLDEN_MSS_ROOTS: [(u8, u8, &str, usize); 2] = [
    (
        3,
        6,
        "78e4c3fe121c694f39bfc2b83e332f88aa29358f5ebd5b5f47b61606f173769f",
        4494,
    ),
    (
        7,
        2,
        "27e298070024eb55e542c5fdee39896700fb3336e76d0d3a5fe858485a0241ca",
        4362,
    ),
];

/// A 2k-vehicle × 50-tick default fleet at seed 42 with a cheap
/// calibration pass.
fn golden_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        vehicles: 2_000,
        ticks: 50,
        seed: 42,
        shards,
        calibration_trials: 2,
        ..FleetConfig::default()
    }
}

fn canonical_digest(shards: usize) -> String {
    let report = FleetEngine::new(golden_cfg(shards)).run();
    to_hex(&Sha256::digest(
        report.canonical_json().to_string().as_bytes(),
    ))
}

#[test]
fn default_fleet_canonical_digest_is_golden_at_any_shard_count() {
    for shards in [1, 3] {
        assert_eq!(
            canonical_digest(shards),
            GOLDEN_FLEET_DIGEST,
            "canonical fleet artifact moved at {shards} shard(s)"
        );
    }
}

#[test]
fn mss_roots_are_golden_and_leaf_zero_signs() {
    for (seed, height, root, byte_len) in GOLDEN_MSS_ROOTS {
        let mut kp = MssKeyPair::from_seed([seed; 32], height);
        let pk = kp.public_key();
        assert_eq!(
            to_hex(pk.as_bytes()),
            root,
            "MSS root moved at height {height}"
        );
        let sig = kp.sign(b"golden").expect("a fresh key has leaf 0");
        assert_eq!(sig.leaf_index, 0);
        assert!(pk.verify(b"golden", &sig));
        assert!(!pk.verify(b"golden?", &sig));
        assert_eq!(sig.byte_len(), byte_len);
    }
}
