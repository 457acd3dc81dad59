//! Per-vehicle vocabulary: lifecycle states and service levels.
//!
//! The per-vehicle state itself lives columnar in
//! [`FleetState`](crate::state::FleetState). A vehicle's tick is a pure
//! function of its own columns, its own RNG stream and the
//! shard-invariant [`TickInputs`](crate::engine::TickInputs) — the
//! property that makes a fleet run bit-identical at any shard count.

/// Where a vehicle is in its compromise/recovery lifecycle. The
/// declaration order is the census index (`status as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VehicleStatus {
    /// Full service.
    Healthy,
    /// Fault-degraded: residual health below 1, service continues.
    Degraded,
    /// Attacker-controlled (directly attacked or infected over V2X).
    Compromised,
    /// Contained by an isolation response; awaiting verified repair.
    Isolated,
    /// Permanently gone (state machine panicked — quarantined).
    Lost,
}

/// Service level a compromised vehicle still delivers (the attacker
/// degrades but rarely bricks — bricking would reveal the foothold).
pub const COMPROMISED_HEALTH: f64 = 0.25;
/// Service level while isolated by
/// [`ResponseAction::IsolateNode`](autosec_ids::response::ResponseAction)
/// (limited functions behind the quarantine boundary).
pub const ISOLATED_HEALTH: f64 = 0.45;
/// Service level in limp-home mode.
pub const LIMP_HOME_HEALTH: f64 = 0.3;
