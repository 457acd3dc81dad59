//! The fidelity-knob contracts of the two-tier scenario engine:
//!
//! 1. **Mixed-probe invariance** — `mixed:K` only *shadows* attack
//!    resolutions; vehicle state is table-driven, so snapshots are
//!    bit-identical to pure calibrated mode for every probe period.
//! 2. **Shard invariance per mode** — live, calibrated and mixed runs
//!    are each bit-identical at any `--shards` count (drift statistics
//!    included: probes trigger on `(id + tick)` arithmetic and draw
//!    from a dedicated forked substream).

use autosec_adversary::{calibrated_graph, AttackGraph, CalibrationConfig};
use autosec_fleet::{Fidelity, FleetConfig, FleetEngine};
use autosec_sim::SimRng;

fn base_cfg() -> FleetConfig {
    FleetConfig {
        vehicles: 400,
        ticks: 30,
        seed: 42,
        snapshot_every: 10,
        attack_rate: 8e-3,
        calibration_trials: 4,
        ..FleetConfig::default()
    }
}

/// One shared graph so the tests don't recalibrate 19 edges per run.
fn shared_graph(cfg: &FleetConfig) -> AttackGraph {
    let calib = CalibrationConfig::new(cfg.calibration_trials, 2);
    calibrated_graph(&calib, &SimRng::seed(cfg.seed).fork("fleet/calibration"))
}

#[test]
fn mixed_probe_period_never_changes_snapshots() {
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    let run = |fidelity: Fidelity| {
        let mut c = cfg.clone();
        c.fidelity = fidelity;
        FleetEngine::with_parts(c, graph.clone(), None).run()
    };

    let calibrated = run(Fidelity::Calibrated);
    let mixed_3 = run(Fidelity::Mixed { every: 3 });
    let mixed_7 = run(Fidelity::Mixed { every: 7 });

    // State trajectories are identical for every probe period...
    for report in [&mixed_3, &mixed_7] {
        assert_eq!(report.snapshots.len(), calibrated.snapshots.len());
        for (a, b) in report.snapshots.iter().zip(&calibrated.snapshots) {
            assert_eq!(
                a.to_json().to_string(),
                b.to_json().to_string(),
                "snapshot at tick {} diverged from calibrated mode",
                a.tick
            );
        }
        assert_eq!(report.availability, calibrated.availability);
    }
    // ...while the drift channel actually measured something, denser
    // at the shorter period.
    assert_eq!(calibrated.drift.probes, 0);
    assert!(mixed_3.drift.probes > 0, "period 3 shadows ~1/3 of attacks");
    assert!(mixed_3.drift.probes >= mixed_7.drift.probes);
}

#[test]
fn every_fidelity_mode_is_shard_invariant() {
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    for fidelity in [
        Fidelity::Live,
        Fidelity::Calibrated,
        Fidelity::Mixed { every: 3 },
    ] {
        let run = |shards: usize| {
            let mut c = cfg.clone();
            c.fidelity = fidelity;
            c.shards = shards;
            FleetEngine::with_parts(c, graph.clone(), None).run()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(
            a.canonical_json().to_string(),
            b.canonical_json().to_string(),
            "{} diverged across shard counts",
            fidelity.label()
        );
        // Drift rides inside the canonical body, so the line above
        // already pins it; make the mixed-mode expectation explicit.
        assert_eq!(a.drift, b.drift, "{}", fidelity.label());
        if let Fidelity::Mixed { .. } = fidelity {
            assert!(a.drift.probes > 0, "mixed runs must probe");
        }
    }
}

#[test]
fn calibrated_and_live_tell_the_same_story() {
    // The table is calibrated *from* the live models, so the two tiers
    // must agree on the qualitative picture: attacks land, some
    // succeed, the response pipeline fires.
    let cfg = base_cfg();
    let graph = shared_graph(&cfg);
    let run = |fidelity: Fidelity| {
        let mut c = cfg.clone();
        c.fidelity = fidelity;
        FleetEngine::with_parts(c, graph.clone(), None).run()
    };
    let live = run(Fidelity::Live);
    let calibrated = run(Fidelity::Calibrated);
    for report in [&live, &calibrated] {
        let t = report.totals();
        assert!(t.attacks_attempted > 0);
        assert!(t.alerts > 0);
        assert!(report.availability > 0.0 && report.availability <= 1.0);
    }
}
