//! Defense-budget optimization: greedy best-K allocation of defense
//! knobs against the adaptive attacker.
//!
//! The defender has eight toggles — the six per-layer
//! [`DefensePosture`] switches plus the two runtime knobs of
//! [`AttackConfig`] (active response, alert correlation). The greedy
//! optimizer adds one knob at a time, always picking the knob that
//! minimizes the adaptive attacker's Monte-Carlo success rate. All
//! candidate evaluations within one frontier share the same trial
//! streams (common random numbers), so comparisons are between runs of
//! identical randomness and never between different luck.

use autosec_core::campaign::DefensePosture;
use autosec_runner::par_trials;
use autosec_sim::{ArchLayer, SimRng};

use crate::attacker::{adaptive_trial, AttackConfig, AttackRun};
use crate::graph::AttackGraph;

/// One defender toggle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseKnob {
    /// Turn one layer's defenses on.
    Layer(ArchLayer),
    /// Feed alerts to the response engine (edge burning).
    ActiveResponse,
    /// Correlate alerts across layers (success penalty).
    AlertCorrelation,
}

impl DefenseKnob {
    /// Every knob, layers bottom-up first.
    pub const ALL: [DefenseKnob; 8] = [
        DefenseKnob::Layer(ArchLayer::Physical),
        DefenseKnob::Layer(ArchLayer::Network),
        DefenseKnob::Layer(ArchLayer::SoftwarePlatform),
        DefenseKnob::Layer(ArchLayer::Data),
        DefenseKnob::Layer(ArchLayer::SystemOfSystems),
        DefenseKnob::Layer(ArchLayer::Collaboration),
        DefenseKnob::ActiveResponse,
        DefenseKnob::AlertCorrelation,
    ];

    /// Stable display label (artifact column value).
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKnob::Layer(ArchLayer::Physical) => "layer:physical",
            DefenseKnob::Layer(ArchLayer::Network) => "layer:network",
            DefenseKnob::Layer(ArchLayer::SoftwarePlatform) => "layer:platform",
            DefenseKnob::Layer(ArchLayer::Data) => "layer:data",
            DefenseKnob::Layer(ArchLayer::SystemOfSystems) => "layer:sos",
            DefenseKnob::Layer(ArchLayer::Collaboration) => "layer:collaboration",
            DefenseKnob::ActiveResponse => "active-response",
            DefenseKnob::AlertCorrelation => "alert-correlation",
        }
    }
}

/// A knob set applied on top of a base attacker configuration.
///
/// Public so the self-play driver (`autosec-autodefense`) can replay
/// the exact posture/runtime split the optimizer evaluated.
pub fn resolve_knobs(knobs: &[DefenseKnob], base: &AttackConfig) -> (DefensePosture, AttackConfig) {
    let mut posture = DefensePosture::none();
    let mut cfg = *base;
    for k in knobs {
        match k {
            DefenseKnob::Layer(l) => posture.set(*l, true),
            DefenseKnob::ActiveResponse => cfg.active_response = true,
            DefenseKnob::AlertCorrelation => cfg.alert_correlation = true,
        }
    }
    (posture, cfg)
}

/// Aggregate attacker performance against one defense allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Fraction of trials reaching the goal.
    pub success: f64,
    /// Mean alerts per trial.
    pub mean_alerts: f64,
}

/// Runs the adaptive attacker `trials` times against `knobs`.
///
/// Trial `i` always runs on `base.fork_idx(i)` regardless of the knob
/// set under evaluation — the common-random-numbers contract.
pub fn evaluate(
    graph: &AttackGraph,
    knobs: &[DefenseKnob],
    budget: usize,
    trials: usize,
    jobs: usize,
    base: &SimRng,
) -> EvalPoint {
    evaluate_with(graph, knobs, &AttackConfig::new(budget), trials, jobs, base)
}

/// [`evaluate`] against an arbitrary base attacker — e.g. one with a
/// non-default [`AttackConfig::stealth_weight`]. The knobs are applied
/// on top of `attack`; the trial streams follow the same
/// common-random-numbers contract.
pub fn evaluate_with(
    graph: &AttackGraph,
    knobs: &[DefenseKnob],
    attack: &AttackConfig,
    trials: usize,
    jobs: usize,
    base: &SimRng,
) -> EvalPoint {
    let (posture, cfg) = resolve_knobs(knobs, attack);
    let runs: Vec<AttackRun> = par_trials(jobs, trials, base, move |_, mut rng| {
        adaptive_trial(graph, &posture, &cfg, &mut rng)
    });
    let n = trials as f64;
    EvalPoint {
        success: runs.iter().filter(|r| r.reached_goal).count() as f64 / n,
        mean_alerts: runs.iter().map(|r| r.alerts as f64).sum::<f64>() / n,
    }
}

/// One step of the greedy frontier.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Knobs on after this step (the newest is last).
    pub knobs: Vec<DefenseKnob>,
    /// Attacker performance against this allocation.
    pub eval: EvalPoint,
}

/// Greedily allocates all eight knobs, best-first.
///
/// Returns one [`Allocation`] per budget K = 1..=8; ties break toward
/// lower mean alerts (a quieter defense is doing its job earlier) and
/// then toward [`DefenseKnob::ALL`] order, keeping the result fully
/// deterministic.
pub fn greedy_frontier(
    graph: &AttackGraph,
    budget: usize,
    trials: usize,
    jobs: usize,
    base: &SimRng,
) -> Vec<Allocation> {
    let mut chosen: Vec<DefenseKnob> = Vec::new();
    let mut frontier = Vec::with_capacity(DefenseKnob::ALL.len());
    while chosen.len() < DefenseKnob::ALL.len() {
        let mut best: Option<(DefenseKnob, EvalPoint)> = None;
        for knob in DefenseKnob::ALL {
            if chosen.contains(&knob) {
                continue;
            }
            let mut candidate = chosen.clone();
            candidate.push(knob);
            let eval = evaluate(graph, &candidate, budget, trials, jobs, base);
            let better = match &best {
                None => true,
                Some((_, b)) => {
                    eval.success < b.success
                        || (eval.success == b.success && eval.mean_alerts < b.mean_alerts)
                }
            };
            if better {
                best = Some((knob, eval));
            }
        }
        let (knob, eval) = best.expect("knobs remain");
        chosen.push(knob);
        frontier.push(Allocation {
            knobs: chosen.clone(),
            eval,
        });
    }
    frontier
}

/// The fixed bottom-up curve E1 uses: the first K layers of
/// [`ArchLayer::ALL`], no runtime knobs. Index K holds the K-layer
/// posture's evaluation, K = 0..=6.
pub fn bottom_up_curve(
    graph: &AttackGraph,
    budget: usize,
    trials: usize,
    jobs: usize,
    base: &SimRng,
) -> Vec<EvalPoint> {
    (0..=ArchLayer::ALL.len())
        .map(|k| {
            let knobs: Vec<DefenseKnob> = ArchLayer::ALL[..k]
                .iter()
                .map(|&l| DefenseKnob::Layer(l))
                .collect();
            evaluate(graph, &knobs, budget, trials, jobs, base)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AttackEdge, Capability, EdgeSource};
    use autosec_core::engine::OutcomeStats;

    /// Goal reachable only through the Data layer; defending Data is
    /// the single decisive knob.
    fn data_only_graph() -> AttackGraph {
        let mut g = AttackGraph::new();
        g.add_edge(AttackEdge {
            name: "backdoor",
            from: Capability::External,
            to: Capability::SafetyImpact,
            layer: ArchLayer::Data,
            stride: autosec_sim::Stride::Tampering,
            source: EdgeSource::Scenario("backdoor"),
            undefended: OutcomeStats {
                success: 0.9,
                detect: 0.1,
            },
            defended: OutcomeStats {
                success: 0.0,
                detect: 1.0,
            },
        });
        g
    }

    #[test]
    fn resolve_splits_layer_and_runtime_knobs() {
        let (posture, cfg) = resolve_knobs(
            &[
                DefenseKnob::Layer(ArchLayer::Network),
                DefenseKnob::ActiveResponse,
            ],
            &AttackConfig::new(7),
        );
        assert!(posture.enabled(ArchLayer::Network));
        assert!(!posture.enabled(ArchLayer::Data));
        assert!(cfg.active_response);
        assert!(!cfg.alert_correlation);
        assert_eq!(cfg.budget, 7);
    }

    #[test]
    fn greedy_picks_the_decisive_knob_first() {
        let g = data_only_graph();
        let frontier = greedy_frontier(&g, 6, 200, 1, &SimRng::seed(5).fork("eval"));
        assert_eq!(frontier.len(), DefenseKnob::ALL.len());
        assert_eq!(
            *frontier[0].knobs.last().expect("one knob"),
            DefenseKnob::Layer(ArchLayer::Data)
        );
        assert_eq!(frontier[0].eval.success, 0.0);
    }

    #[test]
    fn greedy_success_is_monotone_nonincreasing() {
        let g = data_only_graph();
        let frontier = greedy_frontier(&g, 6, 200, 1, &SimRng::seed(6).fork("eval"));
        for w in frontier.windows(2) {
            assert!(w[1].eval.success <= w[0].eval.success + 1e-12);
        }
    }

    #[test]
    fn evaluate_is_jobs_invariant() {
        let g = data_only_graph();
        let base = SimRng::seed(8).fork("eval");
        let a = evaluate(&g, &[], 6, 100, 1, &base);
        let b = evaluate(&g, &[], 6, 100, 4, &base);
        assert_eq!(a, b);
    }

    #[test]
    fn bottom_up_curve_has_seven_points() {
        let g = data_only_graph();
        let curve = bottom_up_curve(&g, 6, 100, 1, &SimRng::seed(9).fork("eval"));
        assert_eq!(curve.len(), 7);
        // Data is layer index 3 bottom-up: once K ≥ 4 the backdoor is
        // closed.
        assert!(curve[0].success > 0.5);
        assert_eq!(curve[4].success, 0.0);
        assert_eq!(curve[6].success, 0.0);
    }
}
