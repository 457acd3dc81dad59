//! Collision-avoidance ranging under adversarial interference (§II-B).
//!
//! A vehicle ranges against the vehicle ahead. If an attacker enlarges
//! the measured distance beyond the braking threshold, the victim brakes
//! too late. The defense is enlargement detection
//! ([`crate::enlargement`]): a flagged measurement is treated as "sensor
//! under attack" and the vehicle falls back to its safe behaviour
//! (brake), converting a safety violation into an availability cost.

use autosec_sim::SimRng;

use crate::attacks::OvershadowAttack;
use crate::enlargement::{EnlargementConfig, EnlargementDetector};

/// Scenario parameters for the collision-avoidance experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionScenario {
    /// True gap to the leading vehicle, in metres.
    pub gap_m: f64,
    /// Distance below which the victim must brake, in metres.
    pub braking_threshold_m: f64,
    /// Whether enlargement detection is enabled.
    pub detection_enabled: bool,
}

impl Default for CollisionScenario {
    fn default() -> Self {
        Self {
            gap_m: 18.0,
            braking_threshold_m: 25.0,
            detection_enabled: true,
        }
    }
}

/// What the victim vehicle ends up doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VehicleAction {
    /// Measured gap below threshold: brake normally. Safe.
    Brake,
    /// Measurement flagged as attacked: defensive brake. Safe but costs
    /// availability.
    DefensiveBrake,
    /// Measured gap above threshold: keep speed. **Unsafe if the true gap
    /// is below threshold.**
    KeepSpeed,
}

/// Result of one collision-avoidance decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionOutcome {
    /// The action taken.
    pub action: VehicleAction,
    /// Whether the decision was unsafe (kept speed inside the braking
    /// zone).
    pub unsafe_decision: bool,
    /// The measured gap (m).
    pub measured_gap_m: f64,
}

/// Collision-avoidance unit built on secure ranging + UWB-ED.
#[derive(Debug, Clone)]
pub struct CollisionAvoidance {
    detector: EnlargementDetector,
    scenario: CollisionScenario,
}

impl CollisionAvoidance {
    /// Creates the unit for a scenario.
    pub fn new(scenario: CollisionScenario) -> Self {
        Self {
            detector: EnlargementDetector::new(EnlargementConfig::default()),
            scenario,
        }
    }

    /// Executes one ranging + decision cycle.
    pub fn decide(&self, attack: Option<&OvershadowAttack>, rng: &mut SimRng) -> CollisionOutcome {
        let m = self.detector.measure(self.scenario.gap_m, attack, rng);
        let must_brake_truth = self.scenario.gap_m < self.scenario.braking_threshold_m;

        if self.scenario.detection_enabled && m.detected {
            return CollisionOutcome {
                action: VehicleAction::DefensiveBrake,
                unsafe_decision: false,
                measured_gap_m: m.estimated_m,
            };
        }
        if m.estimated_m < self.scenario.braking_threshold_m {
            CollisionOutcome {
                action: VehicleAction::Brake,
                unsafe_decision: false,
                measured_gap_m: m.estimated_m,
            }
        } else {
            CollisionOutcome {
                action: VehicleAction::KeepSpeed,
                unsafe_decision: must_brake_truth,
                measured_gap_m: m.estimated_m,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enlarging_attack() -> OvershadowAttack {
        OvershadowAttack {
            delay_m: 20.0,
            power: 3.0,
            residual: 0.25,
        }
    }

    #[test]
    fn honest_traffic_brakes_correctly() {
        let ca = CollisionAvoidance::new(CollisionScenario::default());
        let mut rng = SimRng::seed(31);
        let mut unsafe_count = 0;
        for _ in 0..40 {
            let out = ca.decide(None, &mut rng);
            if out.unsafe_decision {
                unsafe_count += 1;
            }
        }
        assert_eq!(unsafe_count, 0);
    }

    #[test]
    fn enlargement_without_detection_causes_unsafe_decisions() {
        let ca = CollisionAvoidance::new(CollisionScenario {
            detection_enabled: false,
            ..CollisionScenario::default()
        });
        let atk = enlarging_attack();
        let mut rng = SimRng::seed(32);
        let mut unsafe_count = 0;
        for _ in 0..40 {
            if ca.decide(Some(&atk), &mut rng).unsafe_decision {
                unsafe_count += 1;
            }
        }
        assert!(
            unsafe_count > 30,
            "undetected enlargement should be dangerous ({unsafe_count}/40)"
        );
    }

    #[test]
    fn detection_restores_safety() {
        let ca = CollisionAvoidance::new(CollisionScenario::default());
        let atk = enlarging_attack();
        let mut rng = SimRng::seed(33);
        let mut unsafe_count = 0;
        let mut defensive = 0;
        for _ in 0..40 {
            let out = ca.decide(Some(&atk), &mut rng);
            if out.unsafe_decision {
                unsafe_count += 1;
            }
            if out.action == VehicleAction::DefensiveBrake {
                defensive += 1;
            }
        }
        assert!(
            unsafe_count <= 2,
            "detection should prevent unsafe ({unsafe_count}/40)"
        );
        assert!(
            defensive > 30,
            "attacks should trigger defensive braking ({defensive}/40)"
        );
    }
}
