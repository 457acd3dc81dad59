//! The two contracts the fleet service ships with:
//!
//! 1. **Shard invariance** — canonical snapshots are bit-identical at
//!    any `--shards` count for a fixed seed (the scaled-down version
//!    of the 100k-vehicle acceptance run CI repeats).
//! 2. **Panic quarantine** — a vehicle whose state machine panics is
//!    lost, not its shard: the run completes, the other vehicles'
//!    trajectories are untouched, and the loss shows up in the census.

use autosec_fleet::{FleetConfig, FleetEngine, VehicleStatus};
use autosec_runner::silence_panics;

fn base_cfg() -> FleetConfig {
    FleetConfig {
        vehicles: 600,
        ticks: 40,
        seed: 42,
        snapshot_every: 10,
        attack_rate: 5e-3,
        calibration_trials: 4,
        ..FleetConfig::default()
    }
}

#[test]
fn canonical_snapshots_are_bit_identical_across_shard_counts() {
    let mut one = base_cfg();
    one.shards = 1;
    let mut four = base_cfg();
    four.shards = 4;

    let a = FleetEngine::new(one).run();
    let b = FleetEngine::new(four).run();

    // The canonical artifact body agrees byte for byte...
    assert_eq!(
        a.canonical_json().to_string(),
        b.canonical_json().to_string(),
        "shards must never change results"
    );
    // ...and so does every individual snapshot along the way.
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(
            sa.to_json().to_string(),
            sb.to_json().to_string(),
            "snapshot at tick {} diverged",
            sa.tick
        );
    }
    // The run did real work: attacks landed and the pipeline responded.
    let t = a.totals();
    assert!(t.attacks_attempted > 0, "attack pressure was live");
    assert!(t.alerts > 0, "the IDS pipeline saw events");
}

#[test]
fn odd_shard_counts_agree_too() {
    // Block-rounded chunking leaves a short tail window at shards=7
    // (600 vehicles: four windows of 128 and one of 88); the merge
    // discipline must still reconstruct exact vehicle order.
    let mut three = base_cfg();
    three.shards = 3;
    let mut seven = base_cfg();
    seven.shards = 7;
    let a = FleetEngine::new(three).run();
    let b = FleetEngine::new(seven).run();
    assert_eq!(
        a.canonical_json().to_string(),
        b.canonical_json().to_string()
    );
}

#[test]
fn panicking_vehicles_are_quarantined_without_poisoning_their_shard() {
    let _quiet = silence_panics();
    let mut cfg = base_cfg();
    cfg.shards = 4;
    cfg.chaos_lost_rate = 2e-3;
    let report = FleetEngine::new(cfg.clone()).run();

    let t = report.totals();
    assert!(t.lost > 0, "chaos rate should have claimed vehicles");
    assert!(
        (t.lost as usize) < cfg.vehicles,
        "quarantine is per vehicle, not per shard"
    );
    assert_eq!(report.final_snapshot().census.lost, t.lost);
    // The survivors kept emitting: more frames than a single tick's
    // worth, fewer than a loss-free run.
    assert!(t.telemetry_frames > cfg.vehicles as u64);
    assert!(t.telemetry_frames < cfg.vehicles as u64 * cfg.ticks);

    // Chaos is deterministic too: same seed, same casualties — even
    // at a different shard count.
    let mut again = cfg.clone();
    again.shards = 2;
    let replay = FleetEngine::new(again).run();
    assert_eq!(
        report.canonical_json().to_string(),
        replay.canonical_json().to_string(),
        "quarantine must not break shard invariance"
    );
}

#[test]
fn quarantined_vehicle_streams_stay_retired() {
    // Direct check at the shard layer: after a panic the vehicle is
    // Lost and subsequent ticks skip it entirely.
    use autosec_fleet::{run_tick_sharded, FleetState};
    use autosec_sim::SimRng;

    let _quiet = silence_panics();
    // Three whole health blocks, so three shards get a window each.
    let mut fleet = FleetState::new(3 * 64, &SimRng::seed(9).fork("fleet/vehicles"));
    let outs = run_tick_sharded(&mut fleet, 3, 1, |cols, i, _| {
        if cols.id(i) % 65 == 0 {
            panic!("corrupted");
        }
    });
    assert_eq!(outs.len(), 3);
    let lost: Vec<u32> = fleet
        .status
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == VehicleStatus::Lost)
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(lost, vec![0, 65, 130]);
    let outs = run_tick_sharded(&mut fleet, 3, 2, |_, _, out| {
        out.counters.telemetry_frames += 1;
    });
    let frames: u64 = outs.iter().map(|o| o.counters.telemetry_frames).sum();
    assert_eq!(frames, 189, "the three lost vehicles never step again");
}
