//! The cross-layer attack graph: capabilities as nodes, calibrated
//! attack steps as edges.
//!
//! Nodes are attacker *capabilities* (§VIII: a foothold at one layer is
//! the entry ticket to the next), each tagged with the [`ArchLayer`]
//! where it lives. Edges are attack steps whose success/detection
//! probabilities come from [`crate::calibrate`] — every edge is backed
//! by one of the executable models already in the workbench
//! ([`ScenarioStep`](autosec_core::scenario::ScenarioStep)s, the Fig. 8
//! kill-chain stages, or the Fig. 9 cascade model), never a hand-typed
//! constant.
//!
//! The enum order of [`Capability`] is a topological order of the
//! graph: every edge goes from a lower index to a strictly higher one,
//! which the planner's single-pass DP relies on.

use autosec_core::campaign::DefensePosture;
use autosec_core::engine::OutcomeStats;
use autosec_data::killchain::KillChainStage;
use autosec_sim::{ArchLayer, Stride};

/// An attacker capability — one node of the attack graph.
///
/// Declaration order is topological (edges only go "downward"), and
/// `ALL` enumerates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Capability {
    /// The starting point: network reach, no foothold anywhere.
    External,
    /// Fleet API host identified (kill-chain stage 1).
    ApiRecon,
    /// Backend directory structure mapped (stage 2).
    RouteMap,
    /// Backend framework fingerprinted (stage 3).
    FrameworkKnown,
    /// Backend heap dump in hand (stage 4).
    HeapDump,
    /// Cloud credentials extracted (stage 5).
    KeyMaterial,
    /// Full fleet-backend compromise: bulk telemetry access (stage 6).
    FleetBackend,
    /// Physical access to one vehicle (doors open, OBD reachable).
    VehicleAccess,
    /// Control over what the vehicle's ranging sensors perceive.
    SensorControl,
    /// Write access to the in-vehicle bus.
    BusAccess,
    /// The bus is disrupted (DoS) — degraded, not controlled.
    BusDisruption,
    /// Forged actuation commands accepted by ECUs.
    ActuationControl,
    /// Code execution on the SDV compute platform.
    PlatformFoothold,
    /// Ghost objects accepted into the fused V2X world view.
    FusedViewWrite,
    /// The goal: a safety function (braking/steering/act) compromised.
    SafetyImpact,
}

impl Capability {
    /// Every capability in topological order.
    pub const ALL: [Capability; 15] = [
        Capability::External,
        Capability::ApiRecon,
        Capability::RouteMap,
        Capability::FrameworkKnown,
        Capability::HeapDump,
        Capability::KeyMaterial,
        Capability::FleetBackend,
        Capability::VehicleAccess,
        Capability::SensorControl,
        Capability::BusAccess,
        Capability::BusDisruption,
        Capability::ActuationControl,
        Capability::PlatformFoothold,
        Capability::FusedViewWrite,
        Capability::SafetyImpact,
    ];

    /// Dense index (position in [`Capability::ALL`]).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).expect("in ALL")
    }
}

impl std::fmt::Display for Capability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Capability::External => "external",
            Capability::ApiRecon => "api-recon",
            Capability::RouteMap => "route-map",
            Capability::FrameworkKnown => "framework-known",
            Capability::HeapDump => "heap-dump",
            Capability::KeyMaterial => "key-material",
            Capability::FleetBackend => "fleet-backend",
            Capability::VehicleAccess => "vehicle-access",
            Capability::SensorControl => "sensor-control",
            Capability::BusAccess => "bus-access",
            Capability::BusDisruption => "bus-disruption",
            Capability::ActuationControl => "actuation-control",
            Capability::PlatformFoothold => "platform-foothold",
            Capability::FusedViewWrite => "fused-view-write",
            Capability::SafetyImpact => "safety-impact",
        };
        f.write_str(s)
    }
}

/// A small capability set (bitmask over [`Capability::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CapabilitySet(u16);

impl CapabilitySet {
    /// The empty set.
    pub fn empty() -> Self {
        Self(0)
    }

    /// Just the attacker's starting capability.
    pub fn start() -> Self {
        let mut s = Self::empty();
        s.insert(Capability::External);
        s
    }

    /// Adds a capability.
    pub fn insert(&mut self, c: Capability) {
        self.0 |= 1 << c.index();
    }

    /// Membership test.
    pub fn contains(&self, c: Capability) -> bool {
        self.0 & (1 << c.index()) != 0
    }

    /// Number of capabilities held.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no capability is held.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// A small edge-index set (bitmask over `AttackGraph::edges()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeSet(u32);

impl EdgeSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self(0)
    }

    /// Adds an edge index.
    pub fn insert(&mut self, idx: usize) {
        assert!(idx < 32, "edge index out of range");
        self.0 |= 1 << idx;
    }

    /// Membership test.
    pub fn contains(&self, idx: usize) -> bool {
        idx < 32 && self.0 & (1 << idx) != 0
    }
}

/// Which executable model an edge's probabilities were calibrated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSource {
    /// A [`ScenarioStep`](autosec_core::scenario::ScenarioStep) from
    /// the campaign registry, by step name.
    Scenario(&'static str),
    /// One Fig. 8 kill-chain stage (conditional on its predecessor).
    KillChain(KillChainStage),
    /// A Fig. 9 cascade from the named entry node to a safety function.
    Cascade(&'static str),
}

/// One attack step: an edge of the graph.
#[derive(Debug, Clone)]
pub struct AttackEdge {
    /// Unique edge name (artifact/debug identifier).
    pub name: &'static str,
    /// Required capability.
    pub from: Capability,
    /// Granted capability.
    pub to: Capability,
    /// The layer whose defense toggle governs this edge.
    pub layer: ArchLayer,
    /// The STRIDE threat class this edge realises (drives the
    /// STRIDE×layer coverage matrix in `autosec-scengen`).
    pub stride: Stride,
    /// The model the probabilities were measured from.
    pub source: EdgeSource,
    /// Probabilities with `layer`'s defenses off.
    pub undefended: OutcomeStats,
    /// Probabilities with `layer`'s defenses on (success clamped to
    /// never exceed the undefended one, so adding defenses is always
    /// weakly helpful).
    pub defended: OutcomeStats,
}

impl AttackEdge {
    /// The probability pair in effect under `posture`.
    pub fn prob(&self, posture: &DefensePosture) -> OutcomeStats {
        if posture.enabled(self.layer) {
            self.defended
        } else {
            self.undefended
        }
    }
}

/// The calibrated attack graph.
#[derive(Debug, Clone, Default)]
pub struct AttackGraph {
    edges: Vec<AttackEdge>,
}

impl AttackGraph {
    /// The attacker's goal node.
    pub const GOAL: Capability = Capability::SafetyImpact;

    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an edge, enforcing topological direction and name
    /// uniqueness.
    ///
    /// # Panics
    ///
    /// Panics on a non-ascending edge (breaks the planner's DP) or a
    /// duplicate name.
    pub fn add_edge(&mut self, edge: AttackEdge) {
        assert!(
            edge.from.index() < edge.to.index(),
            "edge {} is not topologically ascending",
            edge.name
        );
        assert!(
            self.edges.iter().all(|e| e.name != edge.name),
            "duplicate edge name {:?}",
            edge.name
        );
        self.edges.push(edge);
    }

    /// All edges, in insertion (replay) order.
    pub fn edges(&self) -> &[AttackEdge] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Edges requiring capability `from`, with their indices.
    pub fn edges_from(&self, from: Capability) -> impl Iterator<Item = (usize, &AttackEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.from == from)
    }

    /// The single edge calibrated from `source`, if present.
    pub fn edge_for(&self, source: &EdgeSource) -> Option<&AttackEdge> {
        self.edges.iter().find(|e| e.source == *source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_order_is_self_consistent() {
        for (i, c) in Capability::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn capability_sets_work() {
        let mut s = CapabilitySet::start();
        assert!(s.contains(Capability::External));
        assert!(!s.contains(Capability::SafetyImpact));
        s.insert(Capability::BusAccess);
        assert_eq!(s.len(), 2);
        assert!(!CapabilitySet::empty().contains(Capability::External));
        assert!(CapabilitySet::empty().is_empty());
    }

    #[test]
    fn edge_sets_work() {
        let mut s = EdgeSet::empty();
        s.insert(3);
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    fn edge(name: &'static str, from: Capability, to: Capability) -> AttackEdge {
        AttackEdge {
            name,
            from,
            to,
            layer: ArchLayer::Physical,
            stride: Stride::Tampering,
            source: EdgeSource::Scenario(name),
            undefended: OutcomeStats {
                success: 1.0,
                detect: 0.0,
            },
            defended: OutcomeStats {
                success: 0.0,
                detect: 1.0,
            },
        }
    }

    #[test]
    fn posture_picks_the_probability_side() {
        let e = edge("x", Capability::External, Capability::VehicleAccess);
        let none = DefensePosture::none();
        let full = DefensePosture::full();
        assert_eq!(e.prob(&none).success, 1.0);
        assert_eq!(e.prob(&full).success, 0.0);
        assert_eq!(e.prob(&full).detect, 1.0);
    }

    #[test]
    #[should_panic(expected = "not topologically ascending")]
    fn descending_edge_rejected() {
        let mut g = AttackGraph::new();
        g.add_edge(edge("bad", Capability::SafetyImpact, Capability::External));
    }

    #[test]
    #[should_panic(expected = "duplicate edge name")]
    fn duplicate_edge_name_rejected() {
        let mut g = AttackGraph::new();
        g.add_edge(edge("x", Capability::External, Capability::VehicleAccess));
        g.add_edge(edge("x", Capability::External, Capability::SensorControl));
    }

    #[test]
    fn edges_from_filters_by_source_capability() {
        let mut g = AttackGraph::new();
        g.add_edge(edge("a", Capability::External, Capability::VehicleAccess));
        g.add_edge(edge("b", Capability::VehicleAccess, Capability::BusAccess));
        let from_ext: Vec<_> = g.edges_from(Capability::External).collect();
        assert_eq!(from_ext.len(), 1);
        assert_eq!(from_ext[0].1.name, "a");
    }
}
