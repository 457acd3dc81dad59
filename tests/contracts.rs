//! Tier-1 contracts: properties every change must keep, checked in
//! seconds at the root so `cargo test` sees them without the full
//! workspace run.
//!
//! The golden digest below pins the canonical fleet artifact of one
//! small default run, and the golden roots pin the MSS keys the SSI
//! layer signs with. They may change only together with a CHANGES.md
//! note explaining why the simulation's output moved. Every other
//! fleet mode is held to shard invariance at tiny scale.

use autosec::crypto::{util::to_hex, MssKeyPair, Sha256};
use autosec_core::campaign::DefensePosture;
use autosec_fleet::{CampaignMode, DefenderMode, Fidelity, FleetConfig, FleetEngine, FleetReport};
use autosec_runner::silence_panics;

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

/// A tiny fleet of six and a quarter 64-vehicle health blocks: at 3 shards it
/// runs as three windows (192, 192 and 16 vehicles), so the shard merge
/// is really exercised and a window that split a block would show.
fn tiny_cfg() -> FleetConfig {
    FleetConfig {
        vehicles: 6 * 64 + 16,
        ticks: 30,
        seed: 42,
        snapshot_every: 5,
        calibration_trials: 2,
        ..FleetConfig::default()
    }
}

/// The epidemic configuration: undefended, under heavy attack — the
/// run full of escalations.
fn epidemic_cfg() -> FleetConfig {
    FleetConfig {
        posture: DefensePosture::none(),
        attack_rate: 0.008,
        ..tiny_cfg()
    }
}

/// Runs `cfg` at 1 and 3 shards, asserts the canonical artifacts are
/// byte-identical, and returns the 1-shard report.
fn shard_invariant(name: &str, cfg: FleetConfig) -> FleetReport {
    let run = |shards: usize| {
        FleetEngine::new(FleetConfig {
            shards,
            ..cfg.clone()
        })
        .run()
    };
    let one = run(1);
    assert_eq!(
        one.canonical_json().to_string(),
        run(3).canonical_json().to_string(),
        "{name}: canonical fleet artifact differs between 1 and 3 shards"
    );
    one
}

#[test]
fn every_fleet_mode_is_bit_identical_at_one_and_three_shards() {
    let live = shard_invariant(
        "live",
        FleetConfig {
            fidelity: Fidelity::Live,
            attack_rate: 2e-3,
            ..tiny_cfg()
        },
    );
    assert!(
        live.totals().attacks_attempted > 0,
        "live: attacks replayed"
    );

    let mixed = shard_invariant(
        "mixed:4",
        FleetConfig {
            fidelity: Fidelity::Mixed { every: 4 },
            attack_rate: 0.01,
            ..tiny_cfg()
        },
    );
    assert!(mixed.drift.probes > 0, "mixed: drift probes ran");

    let generated = shard_invariant(
        "generated:6",
        FleetConfig {
            campaign: CampaignMode::Generated { count: 6 },
            attack_rate: 0.02,
            ..tiny_cfg()
        },
    );
    assert!(
        generated.totals().attacks_attempted > 0,
        "generated: walks ran"
    );

    let closed_loop = shard_invariant(
        "closed-loop",
        FleetConfig {
            defender: DefenderMode::ClosedLoop,
            defender_budget: 6.0,
            ..epidemic_cfg()
        },
    );
    let defender = closed_loop.defender.as_ref().expect("an active defender");
    assert!(
        defender.to_json()["actions"].as_u64() > Some(0),
        "closed-loop: the defender acted"
    );

    let epidemic = shard_invariant("epidemic", epidemic_cfg());
    let t = epidemic.totals();
    assert!(t.infections > 0, "epidemic: V2X infection spread");
    assert!(
        t.responses_isolate + t.responses_limp_home > 0,
        "epidemic: alerts escalated"
    );

    let _quiet = silence_panics();
    let chaos = shard_invariant(
        "chaos",
        FleetConfig {
            chaos_lost_rate: 2e-3,
            ..tiny_cfg()
        },
    );
    assert!(chaos.totals().lost > 0, "chaos: vehicles were quarantined");
}
