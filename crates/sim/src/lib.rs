//! # autosec-sim
//!
//! Base vocabulary shared by every layer of the `autosec` workbench: a
//! virtual clock with picosecond resolution, deterministic RNG plumbing,
//! summary statistics, the Fig. 1 layer and STRIDE threat-class enums,
//! and the fault-effect types the injection layer speaks.
//!
//! The paper's experiments (E2–E13, see `DESIGN.md`) all draw their
//! randomness and time from this crate so that results are reproducible
//! from a seed and independent of wall-clock time.
//!
//! ## Example
//!
//! ```
//! use autosec_sim::{SimDuration, SimRng, SimTime};
//!
//! // Forked streams are a pure function of (seed, label): fork order
//! // never matters, so every trial replays exactly.
//! let root = SimRng::seed(42);
//! assert_eq!(root.fork("trial").master_seed(), root.fork("trial").master_seed());
//! assert_ne!(root.fork_idx(0).master_seed(), root.fork_idx(1).master_seed());
//!
//! let t = SimTime::from_us(1) + SimDuration::from_ns(500);
//! assert_eq!(t.since(SimTime::from_us(1)), SimDuration::from_ns(500));
//! ```

pub mod inject;
pub mod layer;
pub mod rng;
pub mod stats;
pub mod stride;
pub mod time;

pub use inject::{ChannelFault, FaultEffect, FaultTarget, FrameAction, InjectionRecord};
pub use layer::ArchLayer;
pub use rng::SimRng;
pub use stats::{ci95_halfwidth, mean, percentile, stddev, RunningStats, Summary};
pub use stride::Stride;
pub use time::{SimDuration, SimTime};
