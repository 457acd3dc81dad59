//! Canonical fleet snapshots.
//!
//! A snapshot is everything the determinism contract promises: a pure
//! function of `(seed, config)`, independent of `--shards` and of
//! wall-clock time. The JSON codec rides on the vendored `serde_json`
//! whose object map is a `BTreeMap`, so equal snapshots always render
//! to identical bytes — the property the CI artifact diff checks.

use serde_json::{json, Value};

use crate::state::FleetState;
use crate::vehicle::VehicleStatus;

/// Vehicles per health block. The mean health is the census's one
/// float: the fleet's health column is summed block by block (each
/// block in vehicle order, from `0.0`), and the block sums are folded
/// in block order. Shard windows are whole blocks, so every shard sums
/// exactly the blocks the serial census would and the total never
/// depends on `--shards`.
pub(crate) const HEALTH_BLOCK: usize = 64;

/// The census of one block-aligned window of the fleet: exact status
/// counts plus the window's health block sums. Partials over
/// consecutive windows merge into one [`Census`], in window order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CensusPart {
    /// Vehicles per status, indexed by `VehicleStatus as usize`.
    counts: [u64; 5],
    /// Health sum of each `HEALTH_BLOCK` of the window, in order.
    health_blocks: Vec<f64>,
}

impl CensusPart {
    /// Counts one window: a branch-free status scan, then the block
    /// sums of its health column. The window must start on a block
    /// boundary of the fleet.
    pub(crate) fn scan(status: &[VehicleStatus], health: &[f64]) -> Self {
        // Byte counters per block: no store-to-load chain through
        // `counts`, and the compare-and-add vectorizes.
        const _: () = assert!(HEALTH_BLOCK <= u8::MAX as usize);
        let mut counts = [0u64; 5];
        for block in status.chunks(HEALTH_BLOCK) {
            let mut in_block = [0u8; 5];
            for &s in block {
                for (k, n) in in_block.iter_mut().enumerate() {
                    *n += u8::from(s as usize == k);
                }
            }
            for (c, n) in counts.iter_mut().zip(in_block) {
                *c += u64::from(n);
            }
        }
        let health_blocks = health
            .chunks(HEALTH_BLOCK)
            .map(|block| block.iter().fold(0.0, |sum, h| sum + h))
            .collect();
        Self {
            counts,
            health_blocks,
        }
    }
}

/// Point-in-time fleet census: how many vehicles sit in each status,
/// plus the mean residual health (the availability integrand).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Census {
    /// Vehicles at full service.
    pub healthy: u64,
    /// Fault-degraded vehicles.
    pub degraded: u64,
    /// Attacker-controlled vehicles.
    pub compromised: u64,
    /// Contained vehicles awaiting verified repair.
    pub isolated: u64,
    /// Quarantined (panicked) vehicles.
    pub lost: u64,
    /// Mean residual health over the whole fleet.
    pub mean_health: f64,
}

impl Census {
    /// Counts the whole fleet as one window — the same blocked health
    /// sum the sharded tick merges, so both agree bit for bit.
    pub fn take(state: &FleetState) -> Self {
        Self::merge([&CensusPart::scan(&state.status, &state.health)])
    }

    /// Merges the partials of consecutive windows, given in window
    /// (= vehicle) order: counts add, block sums fold in block order.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a CensusPart>) -> Self {
        let mut counts = [0u64; 5];
        let mut health_sum = 0.0;
        for part in parts {
            for (c, n) in counts.iter_mut().zip(part.counts) {
                *c += n;
            }
            health_sum = part.health_blocks.iter().fold(health_sum, |sum, b| sum + b);
        }
        let [healthy, degraded, compromised, isolated, lost] = counts;
        let total: u64 = counts.iter().sum();
        Census {
            healthy,
            degraded,
            compromised,
            isolated,
            lost,
            mean_health: if total == 0 {
                1.0
            } else {
                health_sum / total as f64
            },
        }
    }

    /// Total vehicles counted.
    pub fn total(&self) -> u64 {
        self.healthy + self.degraded + self.compromised + self.isolated + self.lost
    }

    /// Canonical JSON body.
    pub fn to_json(&self) -> Value {
        json!({
            "healthy": self.healthy,
            "degraded": self.degraded,
            "compromised": self.compromised,
            "isolated": self.isolated,
            "lost": self.lost,
            "mean_health": self.mean_health,
        })
    }
}

/// Cumulative run counters — monotone, shard-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetTotals {
    /// Telemetry frames ingested (one per alive vehicle per tick).
    pub telemetry_frames: u64,
    /// Direct scenario-step attacks launched.
    pub attacks_attempted: u64,
    /// Direct attacks that took their vehicle.
    pub attacks_succeeded: u64,
    /// Epidemic (V2X) infections.
    pub infections: u64,
    /// Fault injections applied to exposed vehicles.
    pub fault_injections: u64,
    /// Alerts fed to the response engine.
    pub alerts: u64,
    /// Responses by action.
    pub responses_filter: u64,
    /// `Rekey` responses.
    pub responses_rekey: u64,
    /// `IsolateNode` responses.
    pub responses_isolate: u64,
    /// `LimpHome` responses.
    pub responses_limp_home: u64,
    /// `Notify` responses.
    pub responses_notify: u64,
    /// Verified repairs (vehicle returned to full service).
    pub recoveries: u64,
    /// Sum of incident-to-repair times in ticks (MTTR numerator).
    pub mttr_ticks: u64,
    /// Backend kill-chain breaches.
    pub backend_breaches: u64,
    /// Backend breaches patched out.
    pub backend_patches: u64,
    /// Vehicles quarantined after a state-machine panic.
    pub lost: u64,
}

impl FleetTotals {
    /// Folds another counter block in (shard merge — addition only, so
    /// the merge is order-independent).
    pub fn absorb(&mut self, other: &FleetTotals) {
        self.telemetry_frames += other.telemetry_frames;
        self.attacks_attempted += other.attacks_attempted;
        self.attacks_succeeded += other.attacks_succeeded;
        self.infections += other.infections;
        self.fault_injections += other.fault_injections;
        self.alerts += other.alerts;
        self.responses_filter += other.responses_filter;
        self.responses_rekey += other.responses_rekey;
        self.responses_isolate += other.responses_isolate;
        self.responses_limp_home += other.responses_limp_home;
        self.responses_notify += other.responses_notify;
        self.recoveries += other.recoveries;
        self.mttr_ticks += other.mttr_ticks;
        self.backend_breaches += other.backend_breaches;
        self.backend_patches += other.backend_patches;
        self.lost += other.lost;
    }

    /// Mean time to recovery in milliseconds (0 when nothing
    /// recovered).
    pub fn mttr_ms(&self, tick_ms: u64) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            (self.mttr_ticks * tick_ms) as f64 / self.recoveries as f64
        }
    }

    /// Canonical JSON body.
    pub fn to_json(&self) -> Value {
        json!({
            "telemetry_frames": self.telemetry_frames,
            "attacks_attempted": self.attacks_attempted,
            "attacks_succeeded": self.attacks_succeeded,
            "infections": self.infections,
            "fault_injections": self.fault_injections,
            "alerts": self.alerts,
            "responses_filter": self.responses_filter,
            "responses_rekey": self.responses_rekey,
            "responses_isolate": self.responses_isolate,
            "responses_limp_home": self.responses_limp_home,
            "responses_notify": self.responses_notify,
            "recoveries": self.recoveries,
            "mttr_ticks": self.mttr_ticks,
            "backend_breaches": self.backend_breaches,
            "backend_patches": self.backend_patches,
            "lost": self.lost,
        })
    }
}

/// One periodic snapshot of the running fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Tick the snapshot was taken at (after that tick completed).
    pub tick: u64,
    /// Whether the backend was breached at snapshot time.
    pub backend_breached: bool,
    /// The fleet census.
    pub census: Census,
    /// Cumulative counters up to and including `tick`.
    pub totals: FleetTotals,
}

impl FleetSnapshot {
    /// Canonical JSON body (sorted keys, shard-invariant fields only).
    pub fn to_json(&self) -> Value {
        json!({
            "tick": self.tick,
            "backend_breached": self.backend_breached,
            "census": self.census.to_json(),
            "totals": self.totals.to_json(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosec_sim::SimRng;

    #[test]
    fn census_counts_and_averages() {
        let base = SimRng::seed(1).fork("fleet/vehicles");
        let mut fleet = FleetState::new(4, &base);
        let mut views = fleet.shard_views(4);
        views[0].quarantine(1, 1);
        views[0].compromise(2, 1, autosec_sim::ArchLayer::Network);
        let c = Census::take(&fleet);
        assert_eq!(c.healthy, 2);
        assert_eq!(c.lost, 1);
        assert_eq!(c.compromised, 1);
        assert_eq!(c.total(), 4);
        let expected = (1.0 + 0.0 + crate::vehicle::COMPROMISED_HEALTH + 1.0) / 4.0;
        assert!((c.mean_health - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_census_is_healthy() {
        let c = Census::take(&FleetState::new(0, &SimRng::seed(1)));
        assert_eq!(c.total(), 0);
        assert_eq!(c.mean_health, 1.0);
    }

    #[test]
    fn totals_absorb_is_additive() {
        let mut a = FleetTotals {
            alerts: 2,
            recoveries: 1,
            mttr_ticks: 10,
            ..Default::default()
        };
        let b = FleetTotals {
            alerts: 3,
            recoveries: 1,
            mttr_ticks: 30,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.alerts, 5);
        assert_eq!(a.mttr_ms(100), 2_000.0, "(10+30)*100ms / 2");
    }

    #[test]
    fn snapshot_json_is_canonical_and_sorted() {
        let snap = FleetSnapshot {
            tick: 50,
            backend_breached: true,
            census: Census::default(),
            totals: FleetTotals::default(),
        };
        let a = snap.to_json().to_string();
        let b = snap.to_json().to_string();
        assert_eq!(a, b);
        // BTreeMap keys: backend_breached < census < tick < totals.
        let bb = a.find("backend_breached").unwrap();
        let ce = a.find("census").unwrap();
        let ti = a.find("\"tick\"").unwrap();
        assert!(bb < ce && ce < ti);
    }
}
