//! Tier-1 contracts: properties every change must keep, checked in
//! seconds at the root so `cargo test` sees them without the full
//! workspace run.
//!
//! The golden digests below pin the canonical artifact of every
//! registered experiment at a small trial scale and of one small
//! default fleet run, and the golden roots pin the MSS keys the SSI
//! layer signs with. They may change only together with a CHANGES.md
//! note naming what moved and why the simulation's output moved. Every
//! other fleet mode is held to shard invariance at tiny scale.

use std::collections::BTreeSet;
use std::time::Duration;

use autosec::crypto::{util::to_hex, MssKeyPair, Sha256};
use autosec_bench::{registry, ExperimentRecord, RunCtx};
use autosec_core::campaign::DefensePosture;
use autosec_fleet::{CampaignMode, DefenderMode, Fidelity, FleetConfig, FleetEngine, FleetReport};
use autosec_runner::{artifact::strip_volatile, silence_panics};

/// Seed and trial scale of [`GOLDEN_EXPERIMENTS`].
const GOLDEN_SEED: u64 = 42;
const GOLDEN_TRIALS_SCALE: f64 = 0.02;

/// SHA-256 of every registry experiment's canonical artifact at
/// [`GOLDEN_SEED`] and [`GOLDEN_TRIALS_SCALE`], as `(slug, hex)` in
/// registration order. The hashed string is byte for byte the file the
/// CLI writes, so the table regenerates with
/// `experiments --trials-scale 0.02 --json --canonical --out DIR`
/// followed by `sha256sum DIR/*.json`.
const GOLDEN_EXPERIMENTS: [(&str, &str); 39] = [
    (
        "e1-depth-sweep",
        "2c5f8d0fc40e74e77abe1332dfdb696d6fc656a75b12a848cb66a5398ea488fc",
    ),
    (
        "e2-hrp-attacks",
        "4f6f1517ed3b16fddbf2e5909fb794d56cf3a73db894f5b2e060ac0775e0cd10",
    ),
    (
        "e2-lrp-rounds",
        "bb9edda52422a132b8f7de76e08b2297facccaf09535da36ceaf5e183c1663b7",
    ),
    (
        "e2b-enlargement",
        "f70224c32c0940c21794b61e568360000cf1f763883a6fe0677ada4431f19604",
    ),
    (
        "e3-technologies",
        "cb66563e53aabffa8c679e4a21fbe0f873993d25624b9668244dc0d3ffb39282",
    ),
    (
        "e3-zonal-latency",
        "f7553ef2a56b1403169dfc141ca78b8e33992b363a44e26d7f140b7ce1e05e64",
    ),
    (
        "e3-masquerade",
        "50bdcb4f7eb03ffd2e06dc2787dbbd0709ab8bd05738b00b611247a27e1a8093",
    ),
    (
        "e4-protocol-matrix",
        "c457e36f1a90b83e57f2960e41686c3d690c623165eebb38c51748b13f88a2e8",
    ),
    (
        "e4-overhead",
        "ebb83eb3142165f01dff96c4fdb38d9c9560d164abccb060b4a0669b20c9137e",
    ),
    (
        "e567-scenarios",
        "dd1fc37f000df1f7a030cce470eaa684aa69382c7fb5e33dfd7c5e7616d0e133",
    ),
    (
        "e8-reconfiguration",
        "14b438347f67ed2d3dc43818ffd743c5f1cb3959e697d9cf3a121a6555535aec",
    ),
    (
        "e8b-charging",
        "5e34f843f0a681fde54a5b4fc9cc10e97b6e1462ee434e813176d3899d079c53",
    ),
    (
        "e9-killchain",
        "2644a32d270db404e7bd3a378fb8aaca53fa337d844850cfcfa20eec3f74613e",
    ),
    (
        "e9-surface",
        "85c7be2649bc46b6ceb437139a9f9b80cdf48da7ea2b7e7bf91322a6443bbf78",
    ),
    (
        "e10-structure",
        "49f3c82bbb95472db363116cec90c07fb511b00425fc9a3b25b26b1e9c7495ef",
    ),
    (
        "e10-cascade",
        "102be0573ffa02cc1151742f4bfd0f5a16f65c2b17a1cec019820743034fa6a0",
    ),
    (
        "e10-realtime",
        "10ec16a4d906b5786b9b1c673bd03f9af510abee0b80736795936783adc6bc68",
    ),
    (
        "e11-competition",
        "2dcfa8958edb590e3c58f081ee15332d23516b6991b9f4665b725feb1beac2f0",
    ),
    (
        "e12-misbehavior",
        "066783e076d3d0dc45b5733a301a8812efbae2fef8239259f69d8f991c01dcd7",
    ),
    (
        "e12-removal",
        "e45283855fa1ab81356261c7dc361438694bdf91fe7b5874c8c9f54265d73b87",
    ),
    (
        "e13-synergy",
        "7b17bbd8bb3bbd55505f9ac27382a341862e972ef6575c845988f1bd60b70211",
    ),
    (
        "e14-fault-sweep",
        "f7a2b415e6dab757cd328fd7182285b566f9a80f6e03cb63f524433a7496475e",
    ),
    (
        "e15-recovery",
        "ab3d00b7ba84d4c9d57e1b3f3b2fa519aca5c2b93f779febe6abbcfa005931f9",
    ),
    (
        "e16-planner",
        "d03bd4d684be7259706a959f98f3cbddfd7b203d1aaa0510587997ec688b5e54",
    ),
    (
        "e17-defense-frontier",
        "55c2fb19cb59fba9db51baf7f5f8045b46b712aa9606234c315c8ae5905bd832",
    ),
    (
        "e18-harness-resilience",
        "7e575c4fd057ce15115b5b9a74713301506acdff529c9f10ef9fc78d7a5a9928",
    ),
    (
        "e19-fleet-epidemic",
        "acc4381fa568c714beb4cdfc9d945460b2cf895bca92136424b49c5d720c02d0",
    ),
    (
        "e20-fleet-availability",
        "4899ada7179f0b80f29a57e54c78916460ac856700f0a23375b41f39090ecfe6",
    ),
    (
        "e21-fidelity-drift",
        "fae51faa651f12f1543706573a16f25b9683a26f745e0f6f8a849663ad12d05d",
    ),
    (
        "e22-selfplay-tournament",
        "0b76e96350d026bac186761c4787c3d1d1cdd521506b3b389b64351ffe0e0980",
    ),
    (
        "e23-closed-vs-static",
        "f5767e8ec5a8f1cc5ea4beba7f152ce80a908c9afcdef188d130bfd399487df5",
    ),
    (
        "e24-scengen-sweep",
        "c1b2c6f90e29e4e19d8c6dfc64b4d0ec2cf58ce594148e361c340964a275ebdd",
    ),
    (
        "e25-coverage-matrix",
        "3e1ce724268be47ca9a6cad9bf50a53f5939478872fc6b6ad7c80fe2517b09b9",
    ),
    (
        "e26-isolation",
        "275435cd3cdc4bfc34f909abf543308a1ef9a3a6e831f2bd509a3999d3b68baf",
    ),
    (
        "a1-hrp-threshold",
        "7877443a6a336ad706af111e69d6b8870f5a4aaad20970f45b511b71f5979664",
    ),
    (
        "a2-secoc-truncation",
        "bcc0766c5dbf328318bbb198eac353f07ae3d9c147ca9f7e926580b1ccacf3d8",
    ),
    (
        "a3-canal-mtu",
        "6e4c674be33232db9b3774182d01909cf14480fdea580c142fc4915d3f206d1c",
    ),
    (
        "a4-seemqtt",
        "2db169f5c5ec99c98f7f02066a59d59a687e153f6f81b01c74994c2189dd67e5",
    ),
    (
        "a5-vrange",
        "450a93c6a45827f573d48661481d27cdbdf1c9436d542e5e838d63ebe5db1155",
    ),
];

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
fn every_experiment_canonical_artifact_is_golden() {
    let ctx = RunCtx::new(GOLDEN_SEED, 2).with_trials_scale(GOLDEN_TRIALS_SCALE);
    let registry = registry();
    let registered: BTreeSet<&str> = registry.iter().map(|e| e.slug).collect();
    let pinned: BTreeSet<&str> = GOLDEN_EXPERIMENTS.iter().map(|(slug, _)| *slug).collect();
    assert_eq!(
        registered, pinned,
        "every registered experiment needs exactly one golden digest"
    );
    let moved: Vec<String> = GOLDEN_EXPERIMENTS
        .iter()
        .filter_map(|&(slug, golden)| {
            let exp = registry
                .select(slug)
                .pop()
                .expect("pinned slug is registered");
            let record = ExperimentRecord::ok(exp.slug, exp.id, Duration::ZERO, exp.run(&ctx));
            let artifact = strip_volatile(&record.to_json(ctx.seed, ctx.jobs, ctx.trials_scale));
            let text = serde_json::to_string_pretty(&artifact).expect("serializable");
            let digest = to_hex(&Sha256::digest(text.as_bytes()));
            (digest != golden).then(|| format!("{slug}: {digest}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "canonical artifacts moved:\n{}",
        moved.join("\n")
    );
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
