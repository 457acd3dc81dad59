//! The 2-D traffic world and sensor models.

use autosec_sim::SimRng;

/// A point in the plane (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Euclidean distance.
    pub fn dist(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Index of a vehicle in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub usize);

/// Index of a ground-truth object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId(pub usize);

/// A single sensed detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Estimated position.
    pub position: Point,
    /// Which real object it corresponds to (`None` for a fabricated
    /// ghost; ground truth, never visible to the algorithms).
    pub truth: Option<ObjectId>,
}

/// Per-vehicle sensor characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorModel {
    /// Maximum detection range in metres.
    pub range_m: f64,
    /// One-sigma position noise in metres.
    pub noise_m: f64,
    /// Probability of missing an in-range object.
    pub miss_rate: f64,
}

impl Default for SensorModel {
    fn default() -> Self {
        Self {
            range_m: 60.0,
            noise_m: 0.5,
            miss_rate: 0.05,
        }
    }
}

/// The world: vehicle positions and ground-truth objects (pedestrians,
/// debris, other road users).
#[derive(Debug, Clone)]
pub struct World {
    vehicles: Vec<Point>,
    objects: Vec<Point>,
}

impl World {
    /// Builds a world from explicit positions.
    pub fn new(vehicles: Vec<Point>, objects: Vec<Point>) -> Self {
        Self { vehicles, objects }
    }

    /// Vehicle ids.
    pub fn vehicles(&self) -> Vec<VehicleId> {
        (0..self.vehicles.len()).map(VehicleId).collect()
    }

    /// A vehicle's position.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn vehicle_pos(&self, v: VehicleId) -> Point {
        self.vehicles[v.0]
    }

    /// Whether `v`'s sensor could plausibly see position `p`.
    pub fn in_range(&self, v: VehicleId, p: Point, sensor: &SensorModel) -> bool {
        self.vehicle_pos(v).dist(&p) <= sensor.range_m
    }

    /// Simulates one sensing cycle for vehicle `v`.
    pub fn sense(&self, v: VehicleId, sensor: &SensorModel, rng: &mut SimRng) -> Vec<Detection> {
        let pos = self.vehicle_pos(v);
        let mut out = Vec::new();
        for (i, obj) in self.objects.iter().enumerate() {
            if pos.dist(obj) > sensor.range_m {
                continue;
            }
            if rng.chance(sensor.miss_rate) {
                continue;
            }
            out.push(Detection {
                position: Point {
                    x: obj.x + rng.normal_with(0.0, sensor.noise_m),
                    y: obj.y + rng.normal_with(0.0, sensor.noise_m),
                },
                truth: Some(ObjectId(i)),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 3.0, y: 4.0 };
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sensing_respects_range() {
        let world = World::new(
            vec![Point { x: 0.0, y: 0.0 }],
            vec![Point { x: 10.0, y: 0.0 }, Point { x: 500.0, y: 0.0 }],
        );
        let mut rng = SimRng::seed(1);
        let sensor = SensorModel {
            miss_rate: 0.0,
            ..SensorModel::default()
        };
        let dets = world.sense(VehicleId(0), &sensor, &mut rng);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].truth, Some(ObjectId(0)));
    }

    #[test]
    fn noise_is_bounded() {
        let world = World::new(
            vec![Point { x: 0.0, y: 0.0 }],
            vec![Point { x: 20.0, y: 20.0 }],
        );
        let sensor = SensorModel {
            miss_rate: 0.0,
            noise_m: 0.5,
            ..SensorModel::default()
        };
        let mut rng = SimRng::seed(2);
        for _ in 0..100 {
            let dets = world.sense(VehicleId(0), &sensor, &mut rng);
            let d = dets[0].position.dist(&Point { x: 20.0, y: 20.0 });
            assert!(d < 4.0, "{d}");
        }
    }

    #[test]
    fn misses_happen_at_configured_rate() {
        let world = World::new(
            vec![Point { x: 0.0, y: 0.0 }],
            vec![Point { x: 5.0, y: 5.0 }],
        );
        let sensor = SensorModel {
            miss_rate: 0.3,
            ..SensorModel::default()
        };
        let mut rng = SimRng::seed(3);
        let n = 2000;
        let seen: usize = (0..n)
            .map(|_| world.sense(VehicleId(0), &sensor, &mut rng).len())
            .sum();
        let rate = 1.0 - seen as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "{rate}");
    }
}
