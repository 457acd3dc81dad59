//! # autosec-adversary
//!
//! Executable threat modeling for the layered workbench: a cross-layer
//! **attack graph** whose edges are calibrated from the repo's own
//! models, an **adaptive attacker** that plans and re-plans best paths
//! through it, and a **defender optimizer** that allocates a bounded
//! defense budget against that attacker.
//!
//! The paper's §VIII campaign replays a fixed attack sequence; this
//! crate asks the two questions the replay cannot: *what is the best
//! path an adaptive attacker would take?* ([`planner`], [`attacker`])
//! and *where should the next defense dollar go?* ([`defender`]).
//!
//! Pipeline:
//!
//! 1. [`calibrate::calibrated_graph`] runs the
//!    [`ScenarioStep`](autosec_core::scenario::ScenarioStep) registry,
//!    the Fig. 8 kill-chain stages, and the Fig. 9 cascade model under
//!    `DefensePosture::none()`/`full()` to measure every edge's
//!    success/detection probabilities — the graph is derived from code,
//!    never hand-typed.
//! 2. [`planner::best_path`] finds the budgeted `success × stealth`
//!    optimum; [`attacker::adaptive_trial`] executes it Monte-Carlo
//!    style with re-planning, against [`attacker::replay_trial`] as the
//!    static baseline.
//! 3. [`defender::greedy_frontier`] allocates K of 8 defense knobs
//!    (six layers + active response + alert correlation) to minimize
//!    adaptive-attacker success, compared against the fixed bottom-up
//!    ordering of E1.
//!
//! Everything runs on [`SimRng`](autosec_sim::SimRng) substreams via
//! [`par_trials`](autosec_runner::par_trials): results are
//! bit-identical for every `--jobs` value at a fixed seed.

pub mod attacker;
pub mod calibrate;
pub mod defender;
pub mod graph;
pub mod planner;

pub use attacker::{
    adaptive_trial, detector_for, replay_trial, AttackConfig, AttackRun, AttackerState, StepReport,
};
pub use calibrate::{calibrated_graph, CalibrationConfig};
pub use defender::{
    bottom_up_curve, evaluate, evaluate_with, greedy_frontier, resolve_knobs, Allocation,
    DefenseKnob, EvalPoint,
};
pub use graph::{AttackEdge, AttackGraph, Capability, CapabilitySet, EdgeSet, EdgeSource};
pub use planner::{best_path, best_path_weighted, PlannedPath};
