//! The two fleet workloads: `FleetEngine::new` + `run` as a user runs
//! it, the traced decomposition of the same construction, and the
//! output checks every repetition must pass.

use std::time::Instant;

use autosec_adversary::{calibrated_graph, CalibrationConfig};
use autosec_core::campaign::DefensePosture;
use autosec_core::engine::StepOutcomeTable;
use autosec_crypto::Sha256;
use autosec_fleet::{FleetConfig, FleetEngine, FleetReport};
use autosec_sim::SimRng;

use crate::trace::Tracer;

/// Fleet size of both fleet workloads.
pub const VEHICLES: usize = 100_000;
/// Ticks of `fleet-default`: enough for the tick loop to run for over
/// a second, so `run_vtps` is not dominated by timer and thread noise.
pub const DEFAULT_TICKS: u64 = 800;
/// Ticks of `fleet-epidemic`, whose loop is already the larger share.
pub const EPIDEMIC_TICKS: u64 = 200;

/// The CLI's default fleet (calibrated fidelity, full posture, fixed
/// campaign, faults on, defender off) at the given size.
pub fn default_config(vehicles: usize, ticks: u64, seed: u64, shards: usize) -> FleetConfig {
    FleetConfig {
        vehicles,
        ticks,
        shards,
        seed,
        ..FleetConfig::default()
    }
}

/// The write-heavy variant: no defenses and a 16× direct attack rate,
/// so infections and alerts flood the serial response phase.
pub fn epidemic_config(vehicles: usize, ticks: u64, seed: u64, shards: usize) -> FleetConfig {
    FleetConfig {
        posture: DefensePosture::none(),
        attack_rate: 0.008,
        ..default_config(vehicles, ticks, seed, shards)
    }
}

/// One timed repetition.
pub struct FleetRep {
    /// Seconds in construction.
    pub setup_s: f64,
    /// Seconds in `FleetEngine::run`.
    pub run_s: f64,
    /// The run's report.
    pub report: FleetReport,
}

impl FleetRep {
    /// Construction plus tick loop.
    pub fn e2e_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// Runs the fleet through the stable entry points only.
pub fn run_plain(cfg: &FleetConfig) -> FleetRep {
    let t0 = Instant::now();
    let engine = FleetEngine::new(cfg.clone());
    let t1 = Instant::now();
    let report = engine.run();
    let t2 = Instant::now();
    FleetRep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        report,
    }
}

/// Runs the fleet with construction split into its public parts, each
/// inside a span: `calibrated_graph` → `StepOutcomeTable::calibrate` →
/// `FleetEngine::with_parts`, then `run`. The parts reproduce exactly
/// what `FleetEngine::new` does for a defenderless calibrated run, so
/// the report must be byte-identical to [`run_plain`]'s.
///
/// Returns the repetition and the seconds of each construction part.
pub fn run_traced(cfg: &FleetConfig, tracer: &mut Tracer) -> (FleetRep, [f64; 3]) {
    let root = SimRng::seed(cfg.seed);
    let new_span = tracer.enter("fleet.new", "fleet");
    let id = tracer.enter("adversary.calibrated_graph", "adversary");
    let graph = calibrated_graph(
        &CalibrationConfig::new(cfg.calibration_trials, cfg.shards),
        &root.fork("fleet/calibration"),
    );
    let graph_s = tracer.exit(id);
    let id = tracer.enter("core.table_calibrate", "core");
    let table = StepOutcomeTable::calibrate(
        &[cfg.posture],
        cfg.calibration_trials,
        cfg.shards,
        &root.fork("fleet/table"),
    );
    let table_s = tracer.exit(id);
    let id = tracer.enter("fleet.with_parts", "fleet");
    let engine = FleetEngine::with_parts(cfg.clone(), graph, Some(table));
    let parts_s = tracer.exit(id);
    let setup_s = tracer.exit(new_span);
    let id = tracer.enter("fleet.run", "fleet");
    let report = engine.run();
    let run_s = tracer.exit(id);
    (
        FleetRep {
            setup_s,
            run_s,
            report,
        },
        [graph_s, table_s, parts_s],
    )
}

/// SHA-256 of the report's canonical JSON, hex-encoded.
pub fn digest(report: &FleetReport) -> String {
    Sha256::digest(report.canonical_json().to_string().as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// The per-report output checks: the final census accounts for every
/// vehicle, none is `Lost`, and availability is a fraction. Returns
/// the failed check's description.
pub fn check_report(report: &FleetReport) -> Result<(), String> {
    let census = report.final_snapshot().census;
    if census.total() != report.config.vehicles as u64 {
        return Err(format!(
            "census counts {} vehicles, fleet has {}",
            census.total(),
            report.config.vehicles
        ));
    }
    if census.lost != 0 {
        return Err(format!("{} vehicle(s) ended Lost", census.lost));
    }
    if !(0.0..=1.0).contains(&report.availability) {
        return Err(format!(
            "availability {} outside [0, 1]",
            report.availability
        ));
    }
    Ok(())
}

/// A small fleet run at one shard and at `shards` shards, whose
/// canonical digests must agree.
pub fn shard_pair(base: &FleetConfig, shards: usize) -> [FleetReport; 2] {
    let small = |s: usize| FleetConfig {
        vehicles: 2_000,
        ticks: 20,
        calibration_trials: 2,
        shards: s,
        ..base.clone()
    };
    [
        FleetEngine::new(small(1)).run(),
        FleetEngine::new(small(shards)).run(),
    ]
}
