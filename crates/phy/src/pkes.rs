//! Passive Keyless Entry and Start (PKES) — the paper's running §II-A
//! example.
//!
//! A PKES unlocks the car when the key fob proves it is within a small
//! radius. The proximity proof is the whole game:
//!
//! - [`ProximityBackend::LegacyRssi`] infers distance from received
//!   signal strength — defeated by an amplifying relay (ref \[1\], the
//!   decade-old attack the paper cites).
//! - [`ProximityBackend::UwbToF`] measures time of flight with secure
//!   HRP/LRP ranging — a relay can only *add* delay, so the fob appears
//!   farther, never closer.

use autosec_sim::SimRng;

use crate::attacks::RelayAttack;
use crate::lrp::{LrpConfig, LrpSession};

/// How the vehicle estimates fob proximity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProximityBackend {
    /// Signal-strength-based legacy system.
    LegacyRssi,
    /// Secure UWB time-of-flight ranging (LRP distance bounding).
    UwbToF,
}

/// PKES state machine states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PkesState {
    /// Doors locked, listening for fob advertisements.
    Locked,
    /// Challenge sent, waiting for the proximity proof.
    Challenging,
    /// Proximity verified; doors unlocked.
    Unlocked,
    /// Proximity check failed or attack detected; stays locked.
    Denied,
}

/// Outcome of one unlock attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnlockAttempt {
    /// Final state.
    pub state: PkesState,
    /// Distance the vehicle believed the fob to be at (m).
    pub perceived_distance_m: f64,
    /// Ground-truth fob distance (m).
    pub actual_distance_m: f64,
}

/// A PKES-equipped vehicle.
///
/// # Example
///
/// ```
/// use autosec_phy::pkes::{Pkes, ProximityBackend};
/// use autosec_sim::SimRng;
/// let pkes = Pkes::new(ProximityBackend::UwbToF, 2.0);
/// let out = pkes.try_unlock(1.0, None, &mut SimRng::seed(1));
/// assert_eq!(out.state, autosec_phy::pkes::PkesState::Unlocked);
/// ```
#[derive(Debug, Clone)]
pub struct Pkes {
    backend: ProximityBackend,
    unlock_radius_m: f64,
    lrp: LrpSession,
}

impl Pkes {
    /// Creates a PKES with the given backend and unlock radius.
    pub fn new(backend: ProximityBackend, unlock_radius_m: f64) -> Self {
        Self {
            backend,
            unlock_radius_m,
            lrp: LrpSession::new(LrpConfig::default()),
        }
    }

    /// Attempts an unlock with the fob at `fob_distance_m`, optionally
    /// through a relay.
    pub fn try_unlock(
        &self,
        fob_distance_m: f64,
        relay: Option<&RelayAttack>,
        rng: &mut SimRng,
    ) -> UnlockAttempt {
        // State machine: Locked -> Challenging -> Unlocked | Denied.
        let perceived = match (self.backend, relay) {
            (ProximityBackend::LegacyRssi, None) => fob_distance_m,
            // The relay amplifies: the fob *looks* as close as the relay
            // endpoint regardless of where it really is.
            (ProximityBackend::LegacyRssi, Some(r)) => r.rssi_apparent_distance_m(),
            (ProximityBackend::UwbToF, None) => {
                let out = self.lrp.measure(fob_distance_m, None, rng);
                if out.aborted {
                    return UnlockAttempt {
                        state: PkesState::Denied,
                        perceived_distance_m: f64::NAN,
                        actual_distance_m: fob_distance_m,
                    };
                }
                out.estimated_m
            }
            (ProximityBackend::UwbToF, Some(r)) => {
                // Time of flight through the relayed path: always longer.
                let out = self.lrp.measure(
                    r.tof_apparent_distance_m(),
                    Some(crate::lrp::LrpAttack::Relay {
                        extra_delay_ns: 2.0 * r.processing_ns,
                    }),
                    rng,
                );
                if out.aborted {
                    return UnlockAttempt {
                        state: PkesState::Denied,
                        perceived_distance_m: f64::NAN,
                        actual_distance_m: fob_distance_m,
                    };
                }
                out.estimated_m
            }
        };

        let state = if perceived <= self.unlock_radius_m {
            PkesState::Unlocked
        } else {
            PkesState::Denied
        };
        UnlockAttempt {
            state,
            perceived_distance_m: perceived,
            actual_distance_m: fob_distance_m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_next_to_car_unlocks_both_backends() {
        let mut rng = SimRng::seed(20);
        for backend in [ProximityBackend::LegacyRssi, ProximityBackend::UwbToF] {
            let pkes = Pkes::new(backend, 2.0);
            let out = pkes.try_unlock(1.0, None, &mut rng);
            assert_eq!(out.state, PkesState::Unlocked, "{backend:?}");
        }
    }

    #[test]
    fn distant_fob_denied_both_backends() {
        let mut rng = SimRng::seed(21);
        for backend in [ProximityBackend::LegacyRssi, ProximityBackend::UwbToF] {
            let pkes = Pkes::new(backend, 2.0);
            let out = pkes.try_unlock(40.0, None, &mut rng);
            assert_eq!(out.state, PkesState::Denied, "{backend:?}");
        }
    }

    #[test]
    fn relay_defeats_rssi_pkes() {
        let pkes = Pkes::new(ProximityBackend::LegacyRssi, 2.0);
        let relay = RelayAttack::typical();
        let out = pkes.try_unlock(43.0, Some(&relay), &mut SimRng::seed(22));
        assert_eq!(out.state, PkesState::Unlocked, "the classic car theft");
        assert!(out.perceived_distance_m < 2.0);
        assert!(out.actual_distance_m > 40.0);
    }

    #[test]
    fn relay_fails_against_uwb_tof() {
        let pkes = Pkes::new(ProximityBackend::UwbToF, 2.0);
        let relay = RelayAttack::typical();
        let mut rng = SimRng::seed(23);
        for _ in 0..20 {
            let out = pkes.try_unlock(43.0, Some(&relay), &mut rng);
            assert_eq!(out.state, PkesState::Denied);
            if !out.perceived_distance_m.is_nan() {
                assert!(
                    out.perceived_distance_m > 40.0,
                    "ToF can only enlarge: {}",
                    out.perceived_distance_m
                );
            }
        }
    }

    #[test]
    fn uwb_unlock_radius_is_respected_near_boundary() {
        let pkes = Pkes::new(ProximityBackend::UwbToF, 2.0);
        let mut rng = SimRng::seed(24);
        let near = pkes.try_unlock(1.8, None, &mut rng);
        assert_eq!(near.state, PkesState::Unlocked);
        let far = pkes.try_unlock(2.5, None, &mut rng);
        assert_eq!(far.state, PkesState::Denied);
    }
}
