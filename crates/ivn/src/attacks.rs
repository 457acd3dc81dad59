//! Network-layer attacks (§III): masquerade, injection flooding, bus-off.
//!
//! The paper: *"A key vulnerability of the CAN bus is the lack of
//! authentication, which allows attackers to impersonate safety-critical
//! ECUs ... by using legitimate ECU identifiers."* These helpers stage
//! that attack (and its louder cousins) on a [`CanBus`] so that the
//! secure-protocol layer (`autosec-secproto`) and the IDS layer
//! (`autosec-ids`) can demonstrate their countermeasures.

use autosec_sim::{SimDuration, SimTime};

use crate::bus::{CanBus, NodeId};
use crate::can::{CanFrame, CanId};
use crate::IvnError;

/// A masquerade attacker: a compromised node that emits frames carrying a
/// *victim's* CAN identifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasqueradeAttack {
    /// The attacker's physical node on the bus.
    pub attacker: NodeId,
    /// The CAN id of the impersonated (safety-critical) ECU.
    pub spoofed_id: u16,
    /// Injection period.
    pub period: SimDuration,
    /// Forged payload.
    pub payload: [u8; 8],
}

impl MasqueradeAttack {
    /// Enqueues the forged frames over `[start, end]`.
    ///
    /// # Errors
    ///
    /// Propagates bus errors (unknown node, bus-off).
    pub fn inject(
        &self,
        bus: &mut CanBus,
        start: SimTime,
        end: SimTime,
    ) -> Result<usize, IvnError> {
        let id = CanId::standard(self.spoofed_id)?;
        let mut t = start;
        let mut n = 0;
        while t <= end {
            bus.enqueue(self.attacker, t, CanFrame::new(id, &self.payload)?)?;
            t += self.period;
            n += 1;
        }
        Ok(n)
    }
}

/// A denial-of-service flooder: saturates the bus with highest-priority
/// (id 0) frames so legitimate traffic starves in arbitration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodAttack {
    /// The attacker's node.
    pub attacker: NodeId,
    /// Number of frames to pre-queue.
    pub burst: usize,
}

impl FloodAttack {
    /// Enqueues the flood at `start`.
    ///
    /// # Errors
    ///
    /// Propagates bus errors.
    pub fn inject(&self, bus: &mut CanBus, start: SimTime) -> Result<(), IvnError> {
        let id = CanId::standard(0)?;
        for _ in 0..self.burst {
            bus.enqueue(self.attacker, start, CanFrame::new(id, &[0u8; 8])?)?;
        }
        Ok(())
    }
}

/// A bus-off attack: the attacker synchronizes collisions with the
/// victim's transmissions, driving the victim's transmit error counter
/// past 255 so the controller disconnects itself (fault confinement
/// turned into a weapon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusOffAttack {
    /// The targeted victim node.
    pub victim: NodeId,
    /// Collisions the attacker manages to force.
    pub forced_errors: u32,
}

impl BusOffAttack {
    /// Applies the forced error count to the victim's controller.
    ///
    /// # Errors
    ///
    /// [`IvnError::UnknownNode`] for a bad victim id.
    pub fn execute(&self, bus: &mut CanBus) -> Result<(), IvnError> {
        // Each forced bit error costs the transmitter +8 TEC.
        bus.bump_tec(self.victim, self.forced_errors.saturating_mul(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::ErrorState;

    #[test]
    fn masquerade_frames_carry_victim_id() {
        let mut bus = CanBus::new(500_000);
        let _victim = bus.add_node(1.0);
        let attacker = bus.add_node(9.0);
        let atk = MasqueradeAttack {
            attacker,
            spoofed_id: 0x0A0, // "engine control"
            period: SimDuration::from_ms(10),
            payload: [0xFF; 8],
        };
        let n = atk
            .inject(&mut bus, SimTime::ZERO, SimTime::from_ms(95))
            .unwrap();
        assert_eq!(n, 10);
        let log = bus.run(SimTime::from_secs(1));
        assert_eq!(log.len(), 10);
        for ev in &log {
            // The wire shows the victim's id but the attacker's physical
            // fingerprint — exactly the discrepancy EASI-style IDS uses.
            assert_eq!(ev.frame.id().raw(), 0x0A0);
            assert_eq!(ev.sender, attacker);
            assert!((ev.analog_fingerprint - 9.0).abs() < 0.5);
        }
    }

    #[test]
    fn flood_starves_legitimate_traffic() {
        let mut bus = CanBus::new(500_000);
        let legit = bus.add_node(1.0);
        let attacker = bus.add_node(2.0);
        bus.enqueue(
            legit,
            SimTime::ZERO,
            CanFrame::new(CanId::standard(0x100).unwrap(), &[1; 8]).unwrap(),
        )
        .unwrap();
        FloodAttack {
            attacker,
            burst: 100,
        }
        .inject(&mut bus, SimTime::ZERO)
        .unwrap();
        let log = bus.run(SimTime::from_secs(5));
        assert_eq!(log.last().unwrap().sender, legit, "victim goes last");
        assert!(log.last().unwrap().latency().as_ms_f64() > 20.0);
    }

    #[test]
    fn bus_off_attack_silences_victim() {
        let mut bus = CanBus::new(500_000);
        let victim = bus.add_node(1.0);
        BusOffAttack {
            victim,
            forced_errors: 32, // 32 * 8 = 256 TEC: bus-off
        }
        .execute(&mut bus)
        .unwrap();
        assert_eq!(bus.error_state(victim).unwrap(), ErrorState::BusOff);
        assert_eq!(
            bus.enqueue(
                victim,
                SimTime::ZERO,
                CanFrame::new(CanId::standard(1).unwrap(), &[]).unwrap()
            )
            .unwrap_err(),
            IvnError::BusOff
        );
    }

    #[test]
    fn partial_bus_off_leaves_error_passive() {
        let mut bus = CanBus::new(500_000);
        let victim = bus.add_node(1.0);
        BusOffAttack {
            victim,
            forced_errors: 20, // 160 TEC
        }
        .execute(&mut bus)
        .unwrap();
        assert_eq!(bus.error_state(victim).unwrap(), ErrorState::ErrorPassive);
    }
}
