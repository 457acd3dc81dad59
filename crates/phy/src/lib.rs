//! # autosec-phy
//!
//! Physical-layer security workbench (§II of the paper, Fig. 2).
//!
//! Models secure distance measurement with Ultra-Wideband (UWB) signals —
//! the technology the paper highlights for Passive Keyless Entry and Start
//! (PKES) and collision avoidance — at the level where the attacks and
//! defenses actually live: pulse trains on a noisy channel and the
//! receiver algorithms that turn them into time-of-arrival estimates.
//!
//! ## What is modelled
//!
//! - [`signal`] — discrete-time baseband waveforms (250 ps resolution)
//! - [`channel`] — propagation delay and AWGN
//! - [`hrp`] — IEEE 802.15.4z High-Rate-Pulse mode: pseudorandom Secure
//!   Training Sequences (STS), naive leading-edge correlation receivers
//!   versus integrity-checked receivers (refs \[4\], \[8\])
//! - [`lrp`] — Low-Rate-Pulse mode: logical-layer distance bounding plus
//!   physical-layer distance commitment (refs \[5]–[7\])
//! - [`attacks`] — relay, Cicada-style early-pulse injection, ghost-peak,
//!   early-detect/late-commit, and distance-enlargement (jam/overshadow)
//!   adversaries
//! - [`enlargement`] — UWB-ED style enlargement detection (ref \[13\])
//! - [`pkes`] — the PKES state machine of §II-A with legacy RSSI and
//!   secure UWB ranging back-ends
//! - [`collision`] — §II-B collision-avoidance ranging under adversarial
//!   interference
//! - [`vrange`] — V-Range-style secure 5G PRS ranging (ref \[12\])
//!
//! ## Example
//!
//! ```
//! use autosec_phy::hrp::{HrpConfig, HrpRanging, ReceiverKind};
//! use autosec_sim::SimRng;
//!
//! let mut rng = SimRng::seed(1);
//! let cfg = HrpConfig::default();
//! let session = HrpRanging::new(cfg, ReceiverKind::IntegrityChecked);
//! let outcome = session.measure(30.0, None, &mut rng);
//! // Clean channel: estimate within a metre of the true 30 m distance.
//! assert!((outcome.estimated_m - 30.0).abs() < 1.0);
//! ```

pub mod attacks;
pub mod channel;
pub mod collision;
pub mod enlargement;
pub mod faults;
pub mod hrp;
pub mod lrp;
pub mod pkes;
pub mod signal;
pub mod vrange;

pub use channel::Channel;
pub use signal::{Waveform, SAMPLES_PER_METER, SAMPLE_PS};

/// Speed of light in metres per second.
pub const C_M_PER_S: f64 = 299_792_458.0;

/// One-way flight time per metre, in picoseconds.
pub const PS_PER_METER: f64 = 1e12 / C_M_PER_S;

/// Converts a one-way flight time in picoseconds to metres.
pub fn ps_to_meters(ps: f64) -> f64 {
    ps / PS_PER_METER
}

/// Converts a distance in metres to one-way flight time in picoseconds.
pub fn meters_to_ps(m: f64) -> f64 {
    m * PS_PER_METER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_takes_3336ps_per_meter() {
        assert!((meters_to_ps(1.0) - 3335.64).abs() < 0.1);
        assert!((ps_to_meters(meters_to_ps(42.0)) - 42.0).abs() < 1e-9);
    }
}
