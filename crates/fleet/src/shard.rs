//! Sharded tick execution: the whole per-vehicle tick in one parallel
//! phase.
//!
//! The fleet columns are split into contiguous windows of whole
//! 64-vehicle health blocks (`HEALTH_BLOCK`), one per shard
//! ([`FleetState::shard_views`]). A shard walks its vehicles in order;
//! a vehicle's step, answers to its own alerts included, touches only
//! its own column entries plus the shard's private [`ShardOutput`], so
//! shards never contend. The shard then takes its window's census
//! ([`CensusPart`]). Outputs merge in shard order, which *is* vehicle
//! order: counters add and health block sums fold in block order. That
//! merge discipline, together with per-vehicle RNG substreams, is the
//! whole shard-invariance contract: `--shards N` changes wall-clock
//! time and nothing else.

use std::panic::{catch_unwind, AssertUnwindSafe};

use autosec_sim::ArchLayer;

use crate::engine::DriftStats;
use crate::snapshot::{CensusPart, FleetTotals, HEALTH_BLOCK};
use crate::state::{FleetColumns, FleetState};

/// Everything a shard hands back to the O(shards) merge.
#[derive(Debug, Clone, Default)]
pub struct ShardOutput {
    /// The shard's counter deltas (additive).
    pub counters: FleetTotals,
    /// Mixed-fidelity drift probe deltas (additive).
    pub drift: DriftStats,
    /// Alerts raised this tick per layer ([`ArchLayer`] as index) —
    /// the closed-loop defender's observation (additive).
    pub layer_alerts: [u32; 6],
    /// The window's census after every vehicle stepped.
    pub census: CensusPart,
    /// The stepping vehicle's alert layers, in the order raised; its
    /// caller answers and drains them after the step (a panic drops them).
    pub(crate) raised: Vec<ArchLayer>,
}

/// Runs one tick over the fleet with `shards` worker threads.
///
/// `per_vehicle` is handed the shard's columnar window and the window
/// index of the vehicle to step; it must only read/write that
/// vehicle's column entries plus the shard output — the engine upholds
/// that by construction. Returns one [`ShardOutput`] per window, in
/// window (= vehicle) order. Windows are rounded up to whole
/// 64-vehicle health blocks, so a fleet smaller than `shards` blocks
/// runs in fewer windows.
///
/// Panics inside `per_vehicle` are caught per vehicle: the vehicle is
/// quarantined ([`FleetColumns::quarantine`]: status `Lost`, RNG
/// retired) and `counters.lost` is incremented — one bad state machine
/// costs the fleet one vehicle, not a shard of them.
pub fn run_tick_sharded<F>(
    state: &mut FleetState,
    shards: usize,
    tick: u64,
    per_vehicle: F,
) -> Vec<ShardOutput>
where
    F: Fn(&mut FleetColumns<'_>, usize, &mut ShardOutput) + Sync,
{
    let n = state.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(shards.max(1)).next_multiple_of(HEALTH_BLOCK);

    let process = |cols: &mut FleetColumns<'_>| -> ShardOutput {
        let mut out = ShardOutput::default();
        for i in 0..cols.len() {
            if !cols.alive(i) {
                continue;
            }
            let stepped = catch_unwind(AssertUnwindSafe(|| per_vehicle(cols, i, &mut out)));
            if stepped.is_err() {
                cols.quarantine(i, tick);
                out.counters.lost += 1;
                out.raised.clear();
            }
        }
        out.census = CensusPart::scan(cols.status, cols.health);
        out
    };

    let mut views = state.shard_views(chunk);
    if views.len() == 1 {
        return vec![process(&mut views[0])];
    }
    std::thread::scope(|scope| {
        let process = &process;
        let handles: Vec<_> = views
            .iter_mut()
            .map(|cols| scope.spawn(move || process(cols)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker itself never panics"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Census;
    use crate::vehicle::VehicleStatus;
    use autosec_runner::silence_panics;
    use autosec_sim::SimRng;
    use rand::Rng;

    fn fleet(n: usize) -> FleetState {
        FleetState::new(n, &SimRng::seed(5).fork("fleet/vehicles"))
    }

    #[test]
    fn outputs_come_back_in_vehicle_order() {
        // 400 vehicles at 3 shards: windows of 192, 192 and 16.
        let mut f = fleet(400);
        let outs = run_tick_sharded(&mut f, 3, 1, |cols, i, out| {
            out.counters.telemetry_frames += 1;
            out.counters.mttr_ticks += u64::from(cols.id(i));
        });
        let windows: Vec<(u64, u64)> = outs
            .iter()
            .map(|o| (o.counters.telemetry_frames, o.counters.mttr_ticks))
            .collect();
        let ids = |r: std::ops::Range<u64>| (r.end - r.start, r.sum());
        assert_eq!(windows, [ids(0..192), ids(192..384), ids(384..400)]);
    }

    #[test]
    fn shard_count_caps_at_fleet_size() {
        let mut f = fleet(2);
        let outs = run_tick_sharded(&mut f, 64, 1, |_, _, out| {
            out.counters.telemetry_frames += 1;
        });
        assert!(outs.len() <= 2);
        let total: u64 = outs.iter().map(|o| o.counters.telemetry_frames).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn a_panicking_vehicle_does_not_poison_its_shard() {
        let _quiet = silence_panics();
        let mut f = fleet(2 * HEALTH_BLOCK);
        let outs = run_tick_sharded(&mut f, 2, 3, |cols, i, out| {
            // No step sees alerts a panicking neighbour left behind.
            assert!(out.raised.is_empty());
            out.raised.push(ArchLayer::Data);
            if cols.id(i) == 70 {
                panic!("vehicle 70 state machine corrupted");
            }
            out.counters.telemetry_frames += 1;
            out.raised.clear();
        });
        assert_eq!(outs.len(), 2);
        let frames: Vec<u64> = outs.iter().map(|o| o.counters.telemetry_frames).collect();
        let lost: Vec<u64> = outs.iter().map(|o| o.counters.lost).collect();
        assert_eq!(frames, vec![64, 63], "all the other vehicles stepped");
        assert_eq!(lost, vec![0, 1]);
        assert_eq!(f.status[70], VehicleStatus::Lost);
        assert_eq!(f.since[70], 3);
        let census = Census::merge(outs.iter().map(|o| &o.census));
        assert_eq!((census.lost, census.total()), (1, 128));
        // Lost vehicles are skipped on subsequent ticks.
        let outs = run_tick_sharded(&mut f, 2, 4, |_, _, out| {
            out.counters.telemetry_frames += 1;
        });
        let merged: u64 = outs.iter().map(|o| o.counters.telemetry_frames).sum();
        assert_eq!(merged, 127);
    }

    #[test]
    fn merged_shard_census_equals_the_serial_census() {
        let _quiet = silence_panics();
        let statuses = [
            VehicleStatus::Healthy,
            VehicleStatus::Degraded,
            VehicleStatus::Compromised,
            VehicleStatus::Isolated,
        ];
        for n in [1, 5, 63, 64, 65, 200, 1_000, 1_337] {
            for shards in [1, 2, 3, 7] {
                let mut f = fleet(n);
                // Each vehicle draws a status and a non-dyadic health
                // from its own stream; a few panic into `Lost`.
                let outs = run_tick_sharded(&mut f, shards, 1, |cols, i, _| {
                    let r = &mut cols.rng[i];
                    if r.gen_bool(0.03) {
                        panic!("chaos");
                    }
                    cols.status[i] = statuses[r.gen_range(0..statuses.len())];
                    cols.health[i] = r.gen_range(0.0..1.0);
                });
                let expected_windows =
                    n.div_ceil(n.div_ceil(shards).next_multiple_of(HEALTH_BLOCK));
                assert_eq!(outs.len(), expected_windows, "n {n} shards {shards}");
                let merged = Census::merge(outs.iter().map(|o| &o.census));
                assert_eq!(merged, Census::take(&f), "n {n} shards {shards}");
                assert_eq!(merged.total(), n as u64);
            }
        }
    }

    #[test]
    fn empty_fleet_is_a_noop() {
        let mut f = fleet(0);
        assert!(run_tick_sharded(&mut f, 4, 1, |_, _, _| {}).is_empty());
    }
}
