//! Budgeted best-path planning over the attack graph.
//!
//! The planner answers: given the capabilities already held, which
//! chain of at most `budget` attack steps maximizes `success × stealth`
//! to the goal? `success` is the product of per-edge success
//! probabilities under the posture in play; `stealth` is the product of
//! `1 − detect`. The capability order is topological
//! ([`Capability::ALL`]), so a single ascending dynamic-programming
//! pass over `(capability, steps-used)` states is exact.

use autosec_core::campaign::DefensePosture;

use crate::graph::{AttackGraph, Capability, CapabilitySet, EdgeSet};

/// A planned edge chain toward the goal.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedPath {
    /// Edge indices into [`AttackGraph::edges`], in execution order.
    pub edges: Vec<usize>,
    /// Product of edge success probabilities.
    pub success: f64,
    /// Product of edge `1 − detect` probabilities.
    pub stealth: f64,
}

/// Best path from any capability in `owned` to [`AttackGraph::GOAL`]
/// using at most `budget` edges, skipping `banned` edges and edges
/// with zero success under `posture`.
///
/// Returns `None` when the goal is unreachable within the budget.
pub fn best_path(
    graph: &AttackGraph,
    posture: &DefensePosture,
    budget: usize,
    owned: &CapabilitySet,
    banned: &EdgeSet,
) -> Option<PlannedPath> {
    best_path_weighted(graph, posture, budget, owned, banned, 1.0)
}

/// [`best_path`] with a stealth-vs-speed tradeoff: the objective is
/// `success × stealth^stealth_weight`.
///
/// Weight `1.0` is the classic silent-compromise objective (and is
/// computed on the exact same arithmetic as [`best_path`], so results
/// are bit-identical). Weights below `1.0` discount detection pressure
/// — a speed-focused attacker accepts louder routes when they are
/// shorter or surer — down to `0.0`, which ignores detection entirely.
/// Weights above `1.0` exaggerate stealth aversion.
pub fn best_path_weighted(
    graph: &AttackGraph,
    posture: &DefensePosture,
    budget: usize,
    owned: &CapabilitySet,
    banned: &EdgeSet,
    stealth_weight: f64,
) -> Option<PlannedPath> {
    // Branching on the default keeps the weight-1 objective on the
    // exact multiplication `best_path` always used.
    let score = |succ: f64, stealth: f64| {
        if stealth_weight == 1.0 {
            succ * stealth
        } else {
            succ * stealth.powf(stealth_weight)
        }
    };
    if owned.contains(AttackGraph::GOAL) {
        return Some(PlannedPath {
            edges: Vec::new(),
            success: 1.0,
            stealth: 1.0,
        });
    }
    if budget == 0 || owned.is_empty() {
        return None;
    }

    let n = Capability::ALL.len();
    // dp[node][steps] = (success, stealth, incoming edge, prev steps).
    let mut dp = vec![vec![None::<(f64, f64, usize)>; budget + 1]; n];
    for c in Capability::ALL {
        if owned.contains(c) {
            dp[c.index()][0] = Some((1.0, 1.0, usize::MAX));
        }
    }

    // Topological relaxation: edges only ascend, so walking
    // capabilities in order visits every `from` after it is final.
    for from in Capability::ALL {
        for (idx, edge) in graph.edges_from(from) {
            if banned.contains(idx) {
                continue;
            }
            let p = edge.prob(posture);
            if p.success <= 0.0 {
                continue;
            }
            let to = edge.to.index();
            for steps in 0..budget {
                let Some((succ, stealth, _)) = dp[from.index()][steps] else {
                    continue;
                };
                let cand = (succ * p.success, stealth * (1.0 - p.detect), idx);
                let better = match dp[to][steps + 1] {
                    None => true,
                    Some((s2, t2, _)) => score(cand.0, cand.1) > score(s2, t2),
                };
                if better {
                    dp[to][steps + 1] = Some(cand);
                }
            }
        }
    }

    // Best goal state over all step counts; fewest steps wins ties so
    // re-planning never pads a path with useless hops.
    let goal = AttackGraph::GOAL.index();
    let (mut steps, mut best) = (0, None::<(f64, f64, usize)>);
    for (s, state) in dp[goal].iter().enumerate() {
        let Some((succ, stealth, e)) = *state else {
            continue;
        };
        if best.is_none_or(|(bs, bt, _)| score(succ, stealth) > score(bs, bt)) {
            best = Some((succ, stealth, e));
            steps = s;
        }
    }
    let (success, stealth, _) = best?;

    // Reconstruct the chain by walking incoming edges backwards.
    let mut edges = Vec::with_capacity(steps);
    let mut node = goal;
    let mut s = steps;
    while s > 0 {
        let (_, _, e) = dp[node][s].expect("reconstruction follows filled states");
        edges.push(e);
        node = graph.edges()[e].from.index();
        s -= 1;
    }
    edges.reverse();
    Some(PlannedPath {
        edges,
        success,
        stealth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AttackEdge, EdgeSource};
    use autosec_core::engine::OutcomeStats;
    use autosec_sim::ArchLayer;

    fn edge(
        name: &'static str,
        from: Capability,
        to: Capability,
        layer: ArchLayer,
        success: f64,
        detect: f64,
    ) -> AttackEdge {
        AttackEdge {
            name,
            from,
            to,
            layer,
            stride: autosec_sim::Stride::Tampering,
            source: EdgeSource::Scenario(name),
            undefended: OutcomeStats { success, detect },
            defended: OutcomeStats {
                success: 0.0,
                detect: 1.0,
            },
        }
    }

    /// Two routes to the goal: a long quiet one and a short loud one.
    fn two_route_graph() -> AttackGraph {
        let mut g = AttackGraph::new();
        g.add_edge(edge(
            "quiet-1",
            Capability::External,
            Capability::VehicleAccess,
            ArchLayer::Physical,
            0.9,
            0.0,
        ));
        g.add_edge(edge(
            "quiet-2",
            Capability::VehicleAccess,
            Capability::BusAccess,
            ArchLayer::Network,
            0.9,
            0.0,
        ));
        g.add_edge(edge(
            "quiet-3",
            Capability::BusAccess,
            Capability::SafetyImpact,
            ArchLayer::Network,
            0.9,
            0.0,
        ));
        g.add_edge(edge(
            "loud-1",
            Capability::External,
            Capability::FusedViewWrite,
            ArchLayer::Collaboration,
            1.0,
            0.8,
        ));
        g.add_edge(edge(
            "loud-2",
            Capability::FusedViewWrite,
            Capability::SafetyImpact,
            ArchLayer::SystemOfSystems,
            1.0,
            0.0,
        ));
        g
    }

    #[test]
    fn prefers_the_stealthier_route_when_budget_allows() {
        let g = two_route_graph();
        let p = best_path(
            &g,
            &DefensePosture::none(),
            5,
            &CapabilitySet::start(),
            &EdgeSet::empty(),
        )
        .expect("reachable");
        // 0.9³ = 0.729 silent beats 1.0 × 0.2 stealth.
        let names: Vec<_> = p.edges.iter().map(|&i| g.edges()[i].name).collect();
        assert_eq!(names, vec!["quiet-1", "quiet-2", "quiet-3"]);
        assert!((p.success * p.stealth - 0.729).abs() < 1e-12);
    }

    #[test]
    fn tight_budget_forces_the_short_route() {
        let g = two_route_graph();
        let p = best_path(
            &g,
            &DefensePosture::none(),
            2,
            &CapabilitySet::start(),
            &EdgeSet::empty(),
        )
        .expect("reachable");
        let names: Vec<_> = p.edges.iter().map(|&i| g.edges()[i].name).collect();
        assert_eq!(names, vec!["loud-1", "loud-2"]);
    }

    #[test]
    fn banned_edges_reroute_the_plan() {
        let g = two_route_graph();
        let mut banned = EdgeSet::empty();
        banned.insert(0); // quiet-1
        let p = best_path(
            &g,
            &DefensePosture::none(),
            5,
            &CapabilitySet::start(),
            &banned,
        )
        .expect("loud route remains");
        assert_eq!(g.edges()[p.edges[0]].name, "loud-1");
    }

    #[test]
    fn owned_capabilities_shorten_the_plan() {
        let g = two_route_graph();
        let mut owned = CapabilitySet::start();
        owned.insert(Capability::BusAccess);
        let p = best_path(&g, &DefensePosture::none(), 5, &owned, &EdgeSet::empty())
            .expect("reachable");
        assert_eq!(p.edges.len(), 1, "plans from the deepest foothold");
        assert_eq!(g.edges()[p.edges[0]].name, "quiet-3");
    }

    #[test]
    fn defended_zero_success_edges_block_the_route() {
        let g = two_route_graph();
        // Full posture zeroes every edge in this toy graph.
        assert!(best_path(
            &g,
            &DefensePosture::full(),
            5,
            &CapabilitySet::start(),
            &EdgeSet::empty(),
        )
        .is_none());
    }

    #[test]
    fn goal_already_owned_is_the_empty_plan() {
        let g = two_route_graph();
        let mut owned = CapabilitySet::start();
        owned.insert(Capability::SafetyImpact);
        let p = best_path(&g, &DefensePosture::none(), 1, &owned, &EdgeSet::empty())
            .expect("trivially done");
        assert!(p.edges.is_empty());
        assert_eq!((p.success, p.stealth), (1.0, 1.0));
    }

    #[test]
    fn zero_stealth_weight_ignores_detection_pressure() {
        let g = two_route_graph();
        // With detection discounted entirely the sure loud route
        // (success 1.0) beats the quiet one (0.9³), even at a budget
        // that allows either.
        let p = best_path_weighted(
            &g,
            &DefensePosture::none(),
            5,
            &CapabilitySet::start(),
            &EdgeSet::empty(),
            0.0,
        )
        .expect("reachable");
        let names: Vec<_> = p.edges.iter().map(|&i| g.edges()[i].name).collect();
        assert_eq!(names, vec!["loud-1", "loud-2"]);
    }

    #[test]
    fn weight_one_is_bit_identical_to_best_path() {
        let g = two_route_graph();
        let a = best_path(
            &g,
            &DefensePosture::none(),
            5,
            &CapabilitySet::start(),
            &EdgeSet::empty(),
        );
        let b = best_path_weighted(
            &g,
            &DefensePosture::none(),
            5,
            &CapabilitySet::start(),
            &EdgeSet::empty(),
            1.0,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_budget_plans_nothing() {
        let g = two_route_graph();
        assert!(best_path(
            &g,
            &DefensePosture::none(),
            0,
            &CapabilitySet::start(),
            &EdgeSet::empty(),
        )
        .is_none());
    }
}
