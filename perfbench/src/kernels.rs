//! Per-layer kernel rows: each paper layer's hot public function timed
//! on its own, outside any workload, with its sample count.

use std::hint::black_box;
use std::time::Instant;

use autosec_adversary::calibrate::{cascade_point, killchain_points};
use autosec_adversary::CalibrationConfig;
use autosec_core::campaign::DefensePosture;
use autosec_core::engine::measure_step;
use autosec_core::scenario::scenario_registry;
use autosec_crypto::{MssKeyPair, Sha256};
use autosec_data::service::DefenseConfig;
use autosec_faults::{detector_for, target_for, FaultPlan};
use autosec_fleet::{Census, FleetConfig, FleetReport, FleetState, VehicleStatus};
use autosec_ids::response::ResponseEngine;
use autosec_ids::Alert;
use autosec_runner::par_trials;
use autosec_sim::{ArchLayer, SimDuration, SimRng, SimTime};
use autosec_sos::reference::maas_reference;
use autosec_ssi::registry::Registry;
use autosec_ssi::wallet::Wallet;
use rand::RngCore as _;

use crate::stats::median;

/// The fleet's response-history cap (`HISTORY_CAP` in the fleet
/// engine), so `ResponseEngine::handle` pays the same trimming cost.
const FLEET_HISTORY_CAP: usize = 4_096;

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

fn row(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Row {
    Row {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Median over `reps` timings of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

/// Short, metric-safe name of a paper layer.
fn layer_slug(layer: ArchLayer) -> &'static str {
    match layer {
        ArchLayer::Physical => "phy",
        ArchLayer::Network => "ivn",
        ArchLayer::SoftwarePlatform => "sdv",
        ArchLayer::Data => "data",
        ArchLayer::SystemOfSystems => "sos",
        ArchLayer::Collaboration => "collab",
    }
}

/// How much work each kernel measurement does.
#[derive(Debug, Clone, Copy)]
pub struct KernelSize {
    /// Timed repetitions per kernel (the median is reported).
    reps: usize,
    /// Bytes hashed per SHA-256 throughput sample.
    sha_bytes: usize,
    /// Chained 32-byte digests per short-digest sample.
    sha_chain: usize,
    /// Empty trials per `par_trials` sample.
    empty_trials: usize,
    /// Alerts handled per `ResponseEngine` sample (after the history
    /// is filled to its cap).
    alerts: usize,
}

impl KernelSize {
    /// The benchmark's sizes.
    pub const FULL: KernelSize = KernelSize {
        reps: 5,
        sha_bytes: 1 << 22,
        sha_chain: 100_000,
        empty_trials: 50_000,
        alerts: 50_000,
    };
    /// The self-check's sizes.
    pub const TINY: KernelSize = KernelSize {
        reps: 1,
        sha_bytes: 1 << 12,
        sha_chain: 100,
        empty_trials: 100,
        alerts: 100,
    };
}

/// Every kernel row, measured at `cfg`'s calibration trials and shard
/// count; fleet-shaped kernels use `cfg`'s posture and `report`'s
/// final census.
pub fn measure(cfg: &FleetConfig, report: &FleetReport, size: KernelSize) -> Vec<Row> {
    let mut rows = Vec::new();
    let base = SimRng::seed(cfg.seed).fork("perfbench/kernels");
    let trials = cfg.calibration_trials;
    let jobs = cfg.shards;

    // Core: the shared calibration primitive, per registry step and
    // posture side (the same cells the attack graph calibrates).
    for step in scenario_registry() {
        for (side, posture) in [
            ("none", DefensePosture::none()),
            ("full", DefensePosture::full()),
        ] {
            let b = base.fork(&format!("measure/{}/{side}", step.name()));
            let secs = median_secs(1, || {
                black_box(measure_step(step.as_ref(), &posture, &b, trials, jobs));
            });
            rows.push(row(
                format!("core.measure_step.{}.{side}_ms_per_trial", step.name()),
                secs * 1e3 / trials as f64,
                "ms",
                trials,
            ));
        }
    }

    // Adversary: the kill-chain and cascade calibration points.
    let calib = CalibrationConfig::new(trials, jobs);
    for (side, defenses) in [
        ("none", DefenseConfig::none()),
        ("hardened", DefenseConfig::hardened()),
    ] {
        let b = base.fork(&format!("killchain/{side}"));
        let secs = median_secs(size.reps, || {
            black_box(killchain_points(defenses, &b, &calib));
        });
        rows.push(row(
            format!("adversary.killchain_points.{side}_ms"),
            secs * 1e3,
            "ms",
            size.reps,
        ));
    }
    let sos = maas_reference();
    let b = base.fork("cascade");
    let secs = median_secs(size.reps, || {
        black_box(cascade_point(&sos, "cloud-backend", &b, &calib));
    });
    rows.push(row(
        "adversary.cascade_point_ms",
        secs * 1e3,
        "ms",
        size.reps,
    ));

    // Faults: the reference injection of each spec of the fleet's
    // fault plan, as `FleetEngine` construction runs it, per layer.
    let plan = FaultPlan::standard_over(
        &SimRng::seed(cfg.seed).fork("fleet/faults"),
        SimDuration::from_ms(cfg.ticks * cfg.tick_ms),
    );
    for layer in ArchLayer::ALL {
        let specs: Vec<_> = plan
            .specs
            .iter()
            .filter(|s| !s.effect.is_noop() && s.effect.layer() == layer)
            .collect();
        let secs = median_secs(size.reps, || {
            for (i, s) in specs.iter().enumerate() {
                let mut rng = base.fork("faults").fork_idx(i as u64);
                black_box(target_for(layer).apply(
                    &[s.effect],
                    cfg.posture.enabled(layer),
                    &mut rng,
                ));
            }
        });
        rows.push(row(
            format!("faults.apply.{}_ms", layer_slug(layer)),
            secs * 1e3 / specs.len().max(1) as f64,
            "ms",
            size.reps * specs.len(),
        ));
    }

    // Crypto and SSI: bulk and chained SHA-256, MSS key generation and
    // the wallet that wraps it.
    let buf: Vec<u8> = (0..size.sha_bytes).map(|i| (i * 31 % 251) as u8).collect();
    let secs = median_secs(size.reps, || {
        black_box(Sha256::digest(black_box(&buf)));
    });
    rows.push(row(
        "crypto.sha256_mbps",
        size.sha_bytes as f64 / secs / 1e6,
        "MB/s",
        size.reps,
    ));
    let secs = median_secs(size.reps, || {
        let mut d = [7u8; 32];
        for _ in 0..size.sha_chain {
            d = Sha256::digest(&d);
        }
        black_box(d);
    });
    rows.push(row(
        "crypto.sha256_short_ns",
        secs * 1e9 / size.sha_chain as f64,
        "ns",
        size.reps,
    ));
    let secs = median_secs(size.reps, || {
        black_box(MssKeyPair::from_seed([3u8; 32], 6));
    });
    rows.push(row("crypto.mss_keygen_h6_ms", secs * 1e3, "ms", size.reps));
    let mut rng = base.fork("wallet");
    let secs = median_secs(size.reps, || {
        black_box(Wallet::create(&mut rng, "perfbench", &Registry::new()));
    });
    rows.push(row("ssi.wallet_create_ms", secs * 1e3, "ms", size.reps));

    // Runner: the per-trial cost of the parallel trial engine.
    let b = base.fork("par");
    let secs = median_secs(size.reps, || {
        black_box(par_trials(jobs, size.empty_trials, &b, |_, _| ()));
    });
    rows.push(row(
        "runner.par_trials_ns_per_trial",
        secs * 1e9 / size.empty_trials as f64,
        "ns",
        size.reps,
    ));

    // Fleet tick kernels over a fleet shaped like the report's.
    let state = census_shaped(report, &base.fork("census"));
    let census_reps = size.reps * 20;
    let secs = median_secs(census_reps, || {
        black_box(Census::take(black_box(&state)));
    });
    rows.push(row("fleet.census_take_ms", secs * 1e3, "ms", census_reps));
    let alerts = alert_stream(
        cfg.vehicles,
        FLEET_HISTORY_CAP + size.alerts,
        &base.fork("alerts"),
    );
    let per_rep: Vec<f64> = (0..size.reps)
        .map(|_| {
            let mut engine = ResponseEngine::with_history_cap(FLEET_HISTORY_CAP);
            let (warm, timed) = alerts.split_at(FLEET_HISTORY_CAP);
            for a in warm {
                engine.handle(a);
            }
            let t = Instant::now();
            for a in timed {
                black_box(engine.handle(a));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    rows.push(row(
        "ids.response_handle_ns",
        median(&per_rep) * 1e9 / size.alerts as f64,
        "ns",
        size.reps,
    ));
    rows
}

/// A fleet with the report's final census composition, statuses
/// shuffled across vehicles so the scan sees a realistic mix.
fn census_shaped(report: &FleetReport, rng: &SimRng) -> FleetState {
    let c = report.final_snapshot().census;
    let mut state = FleetState::new(report.config.vehicles, rng);
    let mut i = 0;
    for (status, n, health) in [
        (VehicleStatus::Degraded, c.degraded, 0.6),
        (VehicleStatus::Compromised, c.compromised, 0.3),
        (VehicleStatus::Isolated, c.isolated, 0.2),
        (VehicleStatus::Lost, c.lost, 0.0),
    ] {
        for _ in 0..n {
            state.status[i] = status;
            state.health[i] = health;
            i += 1;
        }
    }
    let mut r = rng.fork("shuffle");
    for j in (1..state.len()).rev() {
        let k = (r.next_u64() % (j as u64 + 1)) as usize;
        state.status.swap(j, k);
        state.health.swap(j, k);
    }
    state
}

/// `n` alerts over `vehicles` subjects, with the fleet's detectors and
/// a clock that advances one tick per thousand alerts.
fn alert_stream(vehicles: usize, n: usize, rng: &SimRng) -> Vec<Alert> {
    let mut r = rng.clone();
    (0..n)
        .map(|i| {
            let layer = ArchLayer::ALL[(r.next_u64() % 6) as usize];
            Alert {
                detector: detector_for(layer),
                subject: (r.next_u64() % vehicles as u64) as u32,
                at: SimTime::from_ms(100 * (i as u64 / 1_000)),
                detail: String::new(),
            }
        })
        .collect()
}
