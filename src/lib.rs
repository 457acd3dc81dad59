//! # autosec — layered cybersecurity workbench for autonomous systems
//!
//! Facade crate re-exporting every layer of the workbench. See the
//! individual crates for the substance:
//!
//! - [`sim`] — time, RNG, stats, layer/STRIDE vocabulary, fault-effect types
//! - [`crypto`] — from-scratch primitives (hash, MAC, AEAD, signatures)
//! - [`phy`] — §II physical layer: UWB ranging, PKES, collision avoidance
//! - [`ivn`] — §III in-vehicle networks: CAN/CAN FD/CAN XL, 10BASE-T1S, AE
//! - [`secproto`] — §III-A SECOC, MACsec, CANsec, CANAL, scenarios S1–S3
//! - [`ssi`] — §IV self-sovereign identity substrate
//! - [`sdv`] — §IV software-defined vehicle platform
//! - [`data`] — §V telemetry data layer and the Fig. 8 kill chain
//! - [`sos`] — §VI system-of-systems model (Fig. 9)
//! - [`collab`] — §VII collaborative perception and competition
//! - [`ids`] — §VIII intrusion detection and response
//! - [`core`] — the paper's layered framework (Fig. 1), cross-layer scenarios
//! - [`fleet`] — sharded live-fleet service mode (continuous attack/defense)

pub use autosec_collab as collab;
pub use autosec_core as core;
pub use autosec_crypto as crypto;
pub use autosec_data as data;
pub use autosec_fleet as fleet;
pub use autosec_ids as ids;
pub use autosec_ivn as ivn;
pub use autosec_phy as phy;
pub use autosec_sdv as sdv;
pub use autosec_secproto as secproto;
pub use autosec_sim as sim;
pub use autosec_sos as sos;
pub use autosec_ssi as ssi;
