//! Tier-1 contracts: properties every change must keep, checked in
//! seconds at the root so `cargo test` sees them without the full
//! workspace run.
//!
//! The golden digest below pins the canonical fleet artifact of one
//! small default run. It may change only together with a CHANGES.md
//! note explaining why the simulation's output moved.

use autosec::crypto::{util::to_hex, Sha256};
use autosec_fleet::{FleetConfig, FleetEngine};

/// SHA-256 of `FleetReport::canonical_json` for [`golden_cfg`].
const GOLDEN_FLEET_DIGEST: &str =
    "9f77c1c01f7c30758d441a1e6d5762ed543cb2fb1b96ae31a998721b00d266fb";

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
