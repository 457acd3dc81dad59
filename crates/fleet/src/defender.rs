//! The optional fleet-wide defense policy (`--defender`): static
//! pre-hardening or a closed-loop rule policy acting on the SoA census
//! between ticks.
//!
//! Three modes:
//!
//! * [`DefenderMode::Off`] — today's behaviour, bit-identical to
//!   before the defender existed.
//! * [`DefenderMode::Static`] — the whole budget is spent at
//!   construction hardening [`FLEET_PRIORITY`] layers (the fleet
//!   analogue of picking a posture up front); nothing happens at
//!   runtime.
//! * [`DefenderMode::ClosedLoop`] — the budget is held in reserve and
//!   spent between ticks by a deterministic rule table reading the
//!   tick's alert tallies, the census, and the backend breach flag.
//!
//! The closed-loop policy consumes **no RNG draws** and runs after the
//! shard merge, on the merged census, so a defender-enabled run
//! is exactly as shard-invariant as a plain one. A defender with zero
//! budget can never act and is treated as [`DefenderMode::Off`]
//! everywhere (config echo included), making `--defender closed-loop
//! --defender-budget 0` bit-identical to `--defender off` — a pinned
//! property test.

use autosec_autodefense::{DefenseBudget, HARDEN_COST, MONITOR_COST};
use autosec_core::campaign::DefensePosture;
use autosec_sim::ArchLayer;
use serde_json::{json, Value};

/// Layer hardening priority for fleet budgets, most valuable first:
/// the epidemic spreads over Collaboration, the kill chain exfiltrates
/// over Data, then the remaining layers bottom-up.
pub const FLEET_PRIORITY: [ArchLayer; 6] = [
    ArchLayer::Collaboration,
    ArchLayer::Data,
    ArchLayer::Physical,
    ArchLayer::Network,
    ArchLayer::SoftwarePlatform,
    ArchLayer::SystemOfSystems,
];

/// Alerts a layer must accumulate in one tick before the
/// harden-the-loudest-layer rule pays for it.
pub const ALERT_RULE_MIN: u32 = 2;
/// Compromised fraction above which the epidemic rule hardens
/// Collaboration pre-emptively.
pub const EPI_HARDEN_FRAC: f64 = 0.02;
/// Compromised fraction above which monitoring spend starts.
pub const MONITOR_FRAC: f64 = 0.001;
/// Late-detect probability added per monitoring purchase.
pub const FLEET_MONITOR_STEP: f64 = 0.05;
/// Monitoring purchases allowed per run.
pub const FLEET_MONITOR_MAX: usize = 3;

/// Which fleet-wide defense policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefenderMode {
    /// No defender (the pre-defender fleet, bit for bit).
    #[default]
    Off,
    /// Budget spent up front on [`FLEET_PRIORITY`] hardening.
    Static,
    /// Budget held for runtime rule-table actions between ticks.
    ClosedLoop,
}

impl DefenderMode {
    /// Stable CLI/artifact label.
    pub fn label(&self) -> &'static str {
        match self {
            DefenderMode::Off => "off",
            DefenderMode::Static => "static",
            DefenderMode::ClosedLoop => "closed-loop",
        }
    }

    /// Parses a CLI label (inverse of [`DefenderMode::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(DefenderMode::Off),
            "static" => Some(DefenderMode::Static),
            "closed-loop" => Some(DefenderMode::ClosedLoop),
            _ => None,
        }
    }
}

/// What the closed-loop policy reads each tick — pure functions of
/// this tick's merged outputs, identical at any shard count.
#[derive(Debug, Clone, Copy)]
pub struct TickObservation {
    /// Alerts this tick per layer ([`ArchLayer::ALL`] order).
    pub layer_alerts: [u32; 6],
    /// Compromised fraction of the fleet after this tick.
    pub compromised_frac: f64,
    /// Whether the backend is breached after this tick.
    pub backend_breached: bool,
}

/// The fleet-wide defender instance carried by the engine.
#[derive(Debug, Clone)]
pub struct FleetDefender {
    mode: DefenderMode,
    budget: DefenseBudget,
    monitor_purchases: usize,
    monitor_boost: f64,
    hardened: Vec<ArchLayer>,
    actions: usize,
}

impl FleetDefender {
    /// Builds the defender; one action per tick at runtime.
    pub fn new(mode: DefenderMode, budget: f64) -> Self {
        Self {
            mode,
            budget: DefenseBudget::new(budget, 1),
            monitor_purchases: 0,
            monitor_boost: 0.0,
            hardened: Vec::new(),
            actions: 0,
        }
    }

    /// Whether this defender can ever act. A zero budget — whatever
    /// the mode — is the null defender and behaves as
    /// [`DefenderMode::Off`] everywhere.
    pub fn is_active(&self) -> bool {
        self.mode != DefenderMode::Off && self.budget.total() > 0.0
    }

    /// Whether runtime rule turns should run.
    pub fn is_closed_loop(&self) -> bool {
        self.is_active() && self.mode == DefenderMode::ClosedLoop
    }

    /// Extra late-detect probability bought so far.
    pub fn monitor_boost(&self) -> f64 {
        self.monitor_boost
    }

    /// Static-mode deployment: hardens [`FLEET_PRIORITY`] layers that
    /// are still off, one [`HARDEN_COST`] each, while budget lasts.
    /// Called at engine construction, before calibration, so the whole
    /// run (tables, fault references, epidemic edge) sees the hardened
    /// posture.
    pub fn prespend_static(&mut self, posture: &mut DefensePosture) {
        if !self.is_active() || self.mode != DefenderMode::Static {
            return;
        }
        for layer in FLEET_PRIORITY {
            if posture.enabled(layer) {
                continue;
            }
            if !self.budget.try_prespend(HARDEN_COST) {
                break;
            }
            posture.set(layer, true);
            self.hardened.push(layer);
            self.actions += 1;
        }
    }

    /// One closed-loop turn, run between ticks. Returns whether the
    /// posture changed (the engine then recomputes posture-derived
    /// rates).
    pub fn tick(&mut self, posture: &mut DefensePosture, obs: &TickObservation) -> bool {
        if !self.is_closed_loop() {
            return false;
        }
        self.budget.begin_turn();
        // Rule 1 — the backend is breached: harden Data (the kill
        // chain's exfiltration layer) if it is still open.
        if obs.backend_breached && !posture.enabled(ArchLayer::Data) {
            return self.try_harden(posture, ArchLayer::Data);
        }
        // Rule 2 — harden the loudest still-open layer of this tick.
        let mut best: Option<(ArchLayer, u32)> = None;
        for layer in ArchLayer::ALL {
            let count = obs.layer_alerts[layer as usize];
            if count >= ALERT_RULE_MIN
                && !posture.enabled(layer)
                && best.is_none_or(|(_, c)| count > c)
            {
                best = Some((layer, count));
            }
        }
        if let Some((layer, _)) = best {
            return self.try_harden(posture, layer);
        }
        // Rule 3 — the epidemic is taking off: harden Collaboration.
        if obs.compromised_frac > EPI_HARDEN_FRAC && !posture.enabled(ArchLayer::Collaboration) {
            return self.try_harden(posture, ArchLayer::Collaboration);
        }
        // Rule 4 — compromise exists somewhere: buy monitoring (faster
        // late-detect sweeps) up to the cap.
        if obs.compromised_frac > MONITOR_FRAC
            && self.monitor_purchases < FLEET_MONITOR_MAX
            && self.budget.try_spend(MONITOR_COST)
        {
            self.monitor_purchases += 1;
            self.monitor_boost += FLEET_MONITOR_STEP;
            self.actions += 1;
        }
        false
    }

    fn try_harden(&mut self, posture: &mut DefensePosture, layer: ArchLayer) -> bool {
        if !self.budget.try_spend(HARDEN_COST) {
            return false;
        }
        posture.set(layer, true);
        self.hardened.push(layer);
        self.actions += 1;
        true
    }

    /// Canonical JSON body (only emitted for active defenders).
    pub fn to_json(&self) -> Value {
        json!({
            "mode": self.mode.label(),
            "budget": self.budget.total(),
            "spent": self.budget.spent(),
            "actions": self.actions as u64,
            "hardened": self.hardened.iter().map(ToString::to_string).collect::<Vec<_>>(),
            "monitor_boost": self.monitor_boost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_round_trip() {
        for m in [
            DefenderMode::Off,
            DefenderMode::Static,
            DefenderMode::ClosedLoop,
        ] {
            assert_eq!(DefenderMode::parse(m.label()), Some(m));
        }
        assert_eq!(DefenderMode::parse("adaptive"), None);
    }

    #[test]
    fn zero_budget_defender_is_inert() {
        let mut d = FleetDefender::new(DefenderMode::ClosedLoop, 0.0);
        assert!(!d.is_active());
        let mut posture = DefensePosture::none();
        let obs = TickObservation {
            layer_alerts: [9; 6],
            compromised_frac: 0.5,
            backend_breached: true,
        };
        assert!(!d.tick(&mut posture, &obs));
        assert_eq!(posture, DefensePosture::none());
    }

    #[test]
    fn static_prespend_follows_priority_within_budget() {
        let mut d = FleetDefender::new(DefenderMode::Static, 2.0);
        let mut posture = DefensePosture::none();
        d.prespend_static(&mut posture);
        assert!(posture.enabled(ArchLayer::Collaboration));
        assert!(posture.enabled(ArchLayer::Data));
        assert!(!posture.enabled(ArchLayer::Physical), "budget exhausted");
        assert_eq!(d.budget.spent(), d.budget.total());
    }

    #[test]
    fn breach_rule_outranks_alert_rule() {
        let mut d = FleetDefender::new(DefenderMode::ClosedLoop, 6.0);
        let mut posture = DefensePosture::none();
        let mut obs = TickObservation {
            layer_alerts: [0; 6],
            compromised_frac: 0.0,
            backend_breached: true,
        };
        obs.layer_alerts[ArchLayer::Network as usize] = 50;
        assert!(d.tick(&mut posture, &obs));
        assert!(posture.enabled(ArchLayer::Data), "breach rule fires first");
        assert!(!posture.enabled(ArchLayer::Network), "one action per tick");
        assert!(d.tick(&mut posture, &obs));
        assert!(posture.enabled(ArchLayer::Network), "alert rule next tick");
    }

    #[test]
    fn monitoring_caps_out() {
        let mut d = FleetDefender::new(DefenderMode::ClosedLoop, 10.0);
        let mut posture = DefensePosture::full();
        let obs = TickObservation {
            layer_alerts: [0; 6],
            compromised_frac: 0.01,
            backend_breached: false,
        };
        for _ in 0..10 {
            d.tick(&mut posture, &obs);
        }
        assert_eq!(d.monitor_purchases, FLEET_MONITOR_MAX);
        assert!((d.monitor_boost() - 0.15).abs() < 1e-12);
        assert_eq!(d.budget.spent(), FLEET_MONITOR_MAX as f64 * MONITOR_COST);
    }
}
