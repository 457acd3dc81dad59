//! # autosec-autodefense
//!
//! The closed-loop runtime defender and the attacker-vs-defender
//! self-play tournament driver.
//!
//! Everything before this crate chooses the defense **once**: a
//! [`DefensePosture`](autosec_core::campaign::DefensePosture) is fixed
//! before the run and the attacker adapts against a static target. The
//! paper's core argument — attacks on autonomous systems adapt at
//! machine speed, so defenses must too — needs the other half: a
//! defender that watches the alert stream *during* the incident and
//! spends a bounded budget on runtime actions:
//!
//! * **Harden** a layer (flip a posture bit the attacker's next plan
//!   must route around) — [`action::HARDEN_COST`].
//! * **Isolate** a subject the response playbook escalated on
//!   (ban the attack-graph edge) — [`action::ISOLATE_COST`].
//! * **Rotate credentials** behind a repeat-alerting edge (burn the
//!   attacker's tool) — [`action::ROTATE_COST`].
//! * **Buy monitoring** (raise detect probability everywhere — the
//!   counter-stealth move) — [`action::MONITOR_COST`].
//!
//! Actions are chosen by a deterministic weighted **rule table**
//! ([`policy`]) under a per-turn **rate limit** and total budget
//! ([`action::DefenseBudget`]); a feedback-learning pass
//! ([`policy::learn_weights`]) reweights the rules from observed duel
//! outcomes. The defender draws **no randomness**: a duel's RNG
//! consumption is exactly the adaptive attacker's two draws per step
//! ([`duel`]), which makes every tournament artifact bit-identical
//! across `--jobs` ([`tournament`]) and lets a fully pre-spent or
//! zero-budget defender replay the static-posture run bit-for-bit —
//! the equal-cost anchor of experiment E23 and the `--defender off`
//! equivalence property in the fleet.

pub mod action;
pub mod duel;
pub mod policy;
pub mod tournament;

pub use action::{
    DefenseBudget, HARDEN_COST, ISOLATE_COST, MONITOR_CAP, MONITOR_COST, MONITOR_STEP, ROTATE_COST,
};
pub use duel::{duel_trial, DuelConfig, DuelRun, MONITOR_MAX_PURCHASES, ROTATE_THRESHOLD};
pub use policy::{learn_weights, DefenderConfig, RuleId, RuleWeights, N_RULES};
pub use tournament::{run_cell, summarize, CellSummary};
