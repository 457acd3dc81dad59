//! The defender's decision policy: a deterministic rule table with
//! per-rule weights, plus a feedback-learning pass that reweights the
//! rules from observed incident outcomes.
//!
//! The policy is intentionally a *table*, not a search: every firing
//! condition is a pure function of the defender's observation state
//! (alert counts, playbook recommendations, monitoring level), so the
//! whole closed loop consumes **zero** RNG draws — a duel's randomness
//! is exactly the attacker's two draws per step, which is what keeps
//! self-play artifacts bit-identical across `--jobs` and `--shards`.
//!
//! Learning is two-pass rather than online: a training batch of duels
//! runs under the default weights via
//! [`par_trials`](autosec_runner::par_trials), per-rule outcome credit
//! is folded **in trial order**, and the reweighted table is then
//! evaluated on fresh substreams. Online per-trial mutation would make
//! trial `i` depend on which worker ran trial `i − 1`; the two-pass
//! design keeps the learned table a pure function of `(seed, trials)`.

use autosec_adversary::{AttackGraph, DefenseKnob};
use autosec_runner::par_trials;
use autosec_sim::SimRng;

use crate::duel::{duel_trial, DuelConfig, DuelRun};

/// Number of policy rules.
pub const N_RULES: usize = 5;

/// The rule table, in default priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// Deployment-time hardening of the configured priority knobs
    /// (fires once, before the incident clock starts).
    DeployPriority,
    /// Execute a response-playbook isolation recommendation.
    IsolatePlaybook,
    /// Rotate credentials behind an edge that keeps alerting.
    RotateRepeat,
    /// Harden the layer generating the most alerts.
    HardenAlerting,
    /// Buy monitoring (counter-stealth sensor spend).
    BoostMonitoring,
}

impl RuleId {
    /// Every rule, index order.
    pub const ALL: [RuleId; N_RULES] = [
        RuleId::DeployPriority,
        RuleId::IsolatePlaybook,
        RuleId::RotateRepeat,
        RuleId::HardenAlerting,
        RuleId::BoostMonitoring,
    ];

    /// Stable index into weight/credit arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-rule priority weights. Runtime rules are evaluated highest
/// weight first (ties break toward [`RuleId::ALL`] order), so
/// reweighting reorders which move the defender reaches for when the
/// rate limit only allows a few.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleWeights(pub [f64; N_RULES]);

impl Default for RuleWeights {
    fn default() -> Self {
        Self([1.0; N_RULES])
    }
}

impl RuleWeights {
    /// Runtime rule evaluation order: weight-descending, stable.
    pub fn runtime_order(&self) -> Vec<RuleId> {
        let mut order: Vec<RuleId> = RuleId::ALL
            .into_iter()
            .filter(|r| *r != RuleId::DeployPriority)
            .collect();
        // Stable sort: equal weights keep the table's default order.
        order.sort_by(|a, b| {
            self.0[b.index()]
                .partial_cmp(&self.0[a.index()])
                .expect("weights are finite")
        });
        order
    }
}

/// How the closed-loop defender is parameterized.
#[derive(Debug, Clone)]
pub struct DefenderConfig {
    /// Total defense dollars (shared by deployment and runtime moves).
    pub budget: f64,
    /// Runtime actions allowed per defender turn.
    pub rate_limit: usize,
    /// Knobs to harden at deployment time, in priority order, one
    /// [`crate::action::HARDEN_COST`] each while budget lasts.
    pub pre_spend: Vec<DefenseKnob>,
    /// Rule priorities (default or learned).
    pub weights: RuleWeights,
}

impl DefenderConfig {
    /// A pure-reactive defender: no pre-deployment, default weights,
    /// two actions per turn.
    pub fn reactive(budget: f64) -> Self {
        Self {
            budget,
            rate_limit: 2,
            pre_spend: Vec::new(),
            weights: RuleWeights::default(),
        }
    }
}

/// Learning-rate of the reweighting pass.
pub const LEARN_ETA: f64 = 2.0;
/// Weight clamp after learning.
pub const LEARN_MIN_WEIGHT: f64 = 0.25;
/// Weight clamp after learning.
pub const LEARN_MAX_WEIGHT: f64 = 4.0;

/// Reweights the rule table from a training batch of duels.
///
/// Each training duel credits every rule that fired with `+1` if the
/// run ended unbreached and `−1` if the attacker got through; weights
/// move by [`LEARN_ETA`] × mean credit and are clamped. Jobs-invariant:
/// the batch runs on `base.fork_idx(i)` substreams and the fold walks
/// trials in index order.
pub fn learn_weights(
    graph: &AttackGraph,
    cfg: &DuelConfig,
    trials: usize,
    jobs: usize,
    base: &SimRng,
) -> RuleWeights {
    let runs: Vec<DuelRun> = par_trials(jobs, trials, base, move |_, mut rng| {
        duel_trial(graph, cfg, &mut rng)
    });
    let mut credit = [0i64; N_RULES];
    for run in &runs {
        for (i, fired) in run.rules_fired.iter().enumerate() {
            if *fired > 0 {
                credit[i] += if run.breached { -1 } else { 1 };
            }
        }
    }
    let n = trials.max(1) as f64;
    let mut weights = cfg.defense.weights;
    for (w, c) in weights.0.iter_mut().zip(credit) {
        *w = (*w + LEARN_ETA * c as f64 / n).clamp(LEARN_MIN_WEIGHT, LEARN_MAX_WEIGHT);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runtime_order_follows_the_table() {
        let order = RuleWeights::default().runtime_order();
        assert_eq!(
            order,
            vec![
                RuleId::IsolatePlaybook,
                RuleId::RotateRepeat,
                RuleId::HardenAlerting,
                RuleId::BoostMonitoring,
            ]
        );
    }

    #[test]
    fn reweighting_reorders_runtime_rules() {
        let mut w = RuleWeights::default();
        w.0[RuleId::BoostMonitoring.index()] = 3.0;
        assert_eq!(w.runtime_order()[0], RuleId::BoostMonitoring);
    }

    #[test]
    fn rule_indices_are_stable() {
        for (i, r) in RuleId::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
