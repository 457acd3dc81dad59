//! # autosec-collab
//!
//! Collaboration layer — §VII of the paper.
//!
//! - [`world`] — a 2-D traffic world with ground-truth objects and
//!   noisy per-vehicle sensors (the collaborative-perception substrate,
//!   ref \[47\])
//! - [`perception`] — V2X detection sharing with authenticated messages,
//!   plus fusion into a common object list
//! - [`attacks`] — §VII-B adversaries: the **external** attacker
//!   injecting forged messages (stopped by authentication) and the
//!   **internal** attacker fabricating data *with* valid credentials
//!   (ref \[48\]) — ghost objects and object removal
//! - [`misbehavior`] — redundancy-based misbehaviour detection with
//!   per-vehicle trust scores: "intrusion detection methods which rely
//!   on redundant sources of information to validate received data"
//! - [`intersection`] — §VII-A's competing collaborative systems: a
//!   four-way intersection where self-interest buys individual time at
//!   the cost of conflicts and deadlocks
//!
//! ## Example
//!
//! ```
//! use autosec_collab::world::{Point, SensorModel, World};
//! use autosec_sim::SimRng;
//!
//! let mut rng = SimRng::seed(11);
//! let world = World::new(
//!     vec![Point { x: 0.0, y: 0.0 }],
//!     vec![Point { x: 20.0, y: 0.0 }, Point { x: 0.0, y: 35.0 }],
//! );
//! let v = world.vehicles()[0];
//! let dets = world.sense(v, &SensorModel::default(), &mut rng);
//! assert!(!dets.is_empty());
//! ```

pub mod attacks;
pub mod faults;
pub mod intersection;
pub mod misbehavior;
pub mod perception;
pub mod world;
