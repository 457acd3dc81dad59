//! Attack-surface accounting (§V-B3 and the §V-C design-philosophy
//! argument: "the answer is to reduce attack surfaces").
//!
//! A deliberately simple, auditable metric: every externally reachable
//! interface contributes risk weighted by exposure and authentication;
//! the score is the sum. The E9/E10 experiments use it to show how surface
//! grows with connected services — and how feature removal shrinks it.

/// How reachable an interface is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exposure {
    /// Reachable from the public Internet.
    Internet,
    /// Reachable from a paired device / local radio range.
    Proximity,
    /// Requires physical access.
    Physical,
}

impl Exposure {
    /// Risk weight of this exposure class.
    pub fn weight(self) -> f64 {
        match self {
            Exposure::Internet => 10.0,
            Exposure::Proximity => 4.0,
            Exposure::Physical => 1.0,
        }
    }
}

/// One externally reachable interface.
#[derive(Debug, Clone, PartialEq)]
pub struct Interface {
    /// Name, e.g. `"telematics-api"`.
    pub name: String,
    /// Exposure class.
    pub exposure: Exposure,
    /// Whether access requires authentication.
    pub authenticated: bool,
    /// Whether the interface is strictly needed for the product
    /// function (the §V-C question: can we just remove it?).
    pub essential: bool,
}

impl Interface {
    /// Risk contribution: exposure weight, halved when authenticated.
    pub fn risk(&self) -> f64 {
        let base = self.exposure.weight();
        if self.authenticated {
            base / 2.0
        } else {
            base
        }
    }
}

/// An inventory of interfaces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurfaceInventory {
    interfaces: Vec<Interface>,
}

impl SurfaceInventory {
    /// Empty inventory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an interface (builder-style).
    pub fn with(mut self, iface: Interface) -> Self {
        self.interfaces.push(iface);
        self
    }

    /// Adds an interface.
    pub fn add(&mut self, iface: Interface) {
        self.interfaces.push(iface);
    }

    /// Number of interfaces.
    pub fn len(&self) -> usize {
        self.interfaces.len()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.interfaces.is_empty()
    }

    /// Total attack-surface score.
    pub fn score(&self) -> f64 {
        self.interfaces.iter().map(Interface::risk).sum()
    }

    /// The §V-C simplification: drop every non-essential interface.
    /// Returns the reduced inventory.
    pub fn minimized(&self) -> SurfaceInventory {
        SurfaceInventory {
            interfaces: self
                .interfaces
                .iter()
                .filter(|i| i.essential)
                .cloned()
                .collect(),
        }
    }

    /// A representative connected-vehicle inventory with
    /// `n_cloud_services` Internet-facing services (used by E9/E10).
    pub fn connected_vehicle(n_cloud_services: usize) -> Self {
        let mut inv = SurfaceInventory::new()
            .with(Interface {
                name: "obd-port".into(),
                exposure: Exposure::Physical,
                authenticated: false,
                essential: true,
            })
            .with(Interface {
                name: "bluetooth-pairing".into(),
                exposure: Exposure::Proximity,
                authenticated: true,
                essential: false,
            })
            .with(Interface {
                name: "uwb-pkes".into(),
                exposure: Exposure::Proximity,
                authenticated: true,
                essential: true,
            })
            .with(Interface {
                name: "ota-update".into(),
                exposure: Exposure::Internet,
                authenticated: true,
                essential: true,
            });
        for i in 0..n_cloud_services {
            inv.add(Interface {
                name: format!("cloud-service-{i}"),
                exposure: Exposure::Internet,
                authenticated: i % 3 != 0, // every third one misconfigured
                essential: false,
            });
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposure_ordering() {
        assert!(Exposure::Internet.weight() > Exposure::Proximity.weight());
        assert!(Exposure::Proximity.weight() > Exposure::Physical.weight());
    }

    #[test]
    fn authentication_halves_risk() {
        let open = Interface {
            name: "x".into(),
            exposure: Exposure::Internet,
            authenticated: false,
            essential: true,
        };
        let auth = Interface {
            authenticated: true,
            ..open.clone()
        };
        assert_eq!(open.risk(), 2.0 * auth.risk());
    }

    #[test]
    fn score_is_additive() {
        let inv = SurfaceInventory::connected_vehicle(0);
        let bigger = SurfaceInventory::connected_vehicle(5);
        assert!(bigger.score() > inv.score());
        assert_eq!(bigger.len(), inv.len() + 5);
    }

    #[test]
    fn surface_grows_with_cloud_services() {
        let scores: Vec<f64> = (0..20)
            .step_by(5)
            .map(|n| SurfaceInventory::connected_vehicle(n).score())
            .collect();
        for w in scores.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn minimization_reduces_score() {
        let inv = SurfaceInventory::connected_vehicle(10);
        let min = inv.minimized();
        assert!(min.score() < inv.score());
        assert!(min.len() < inv.len());
        // Essential interfaces survive.
        assert!(min.len() >= 3);
    }

    #[test]
    fn empty_inventory_scores_zero() {
        assert_eq!(SurfaceInventory::new().score(), 0.0);
        assert!(SurfaceInventory::new().is_empty());
    }
}
