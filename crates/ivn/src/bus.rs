//! CAN bus simulation: CSMA/CR arbitration, error counters, bus-off.
//!
//! The simulator is queue-based: callers enqueue frames at given times on
//! behalf of nodes; [`CanBus::run`] replays the bus schedule — whenever
//! the bus goes idle, the pending frame with the lowest arbitration key
//! wins — and produces a [`BusEvent`] log with per-frame latencies that
//! the IDS layer (`autosec-ids`) and the scenario experiments consume.

use std::collections::VecDeque;

use autosec_sim::{SimDuration, SimTime};

use crate::can::CanFrame;
use crate::IvnError;

/// Index of a node attached to a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One delivered frame, as observed on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct BusEvent {
    /// Transmitting node (ground truth — receivers only see the frame!).
    pub sender: NodeId,
    /// The frame.
    pub frame: CanFrame,
    /// When the frame was enqueued at the sender.
    pub enqueued: SimTime,
    /// When transmission started (won arbitration).
    pub started: SimTime,
    /// When the last bit left the wire.
    pub completed: SimTime,
    /// Analog sender fingerprint observed with the frame (models the
    /// voltage-domain features EASI-style sender identification uses).
    pub analog_fingerprint: f64,
}

impl BusEvent {
    /// Queueing + transmission latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.since(self.enqueued)
    }
}

/// Error-state of a CAN node (simplified fault confinement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorState {
    /// Normal operation (TEC < 128).
    ErrorActive,
    /// Degraded (128 <= TEC < 256).
    ErrorPassive,
    /// Disconnected from the bus (TEC >= 256).
    BusOff,
}

#[derive(Debug, Clone)]
struct Node {
    queue: VecDeque<(SimTime, CanFrame)>,
    tec: u32,
    /// Analog fingerprint mean for this physical transceiver.
    fingerprint: f64,
}

/// A simulated classic CAN bus.
///
/// # Example
///
/// ```
/// use autosec_ivn::bus::CanBus;
/// use autosec_ivn::can::{CanFrame, CanId};
/// use autosec_sim::SimTime;
///
/// let mut bus = CanBus::new(500_000);
/// let a = bus.add_node(2.5);
/// let frame = CanFrame::new(CanId::standard(0x10).unwrap(), &[1]).unwrap();
/// bus.enqueue(a, SimTime::ZERO, frame).unwrap();
/// let log = bus.run(SimTime::from_ms(10));
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CanBus {
    bitrate_bps: u64,
    nodes: Vec<Node>,
    /// Fraction of frames hit by a (random) bus error, forcing
    /// retransmission and bumping the sender's TEC.
    error_rate: f64,
    /// Analog fingerprint noise sigma.
    fingerprint_sigma: f64,
}

impl CanBus {
    /// Creates a bus at the given nominal bitrate.
    pub fn new(bitrate_bps: u64) -> Self {
        Self {
            bitrate_bps,
            nodes: Vec::new(),
            error_rate: 0.0,
            fingerprint_sigma: 0.05,
        }
    }

    /// Sets a per-frame random error rate (retransmission model).
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Attaches a node; `fingerprint` is its analog signature mean
    /// (distinct per physical transceiver in reality).
    pub fn add_node(&mut self, fingerprint: f64) -> NodeId {
        self.nodes.push(Node {
            queue: VecDeque::new(),
            tec: 0,
            fingerprint,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Current error state of `node`.
    pub fn error_state(&self, node: NodeId) -> Result<ErrorState, IvnError> {
        let n = self.nodes.get(node.0).ok_or(IvnError::UnknownNode)?;
        Ok(match n.tec {
            0..=127 => ErrorState::ErrorActive,
            128..=255 => ErrorState::ErrorPassive,
            _ => ErrorState::BusOff,
        })
    }

    /// Transmit error counter of `node`.
    pub fn tec(&self, node: NodeId) -> Result<u32, IvnError> {
        Ok(self.nodes.get(node.0).ok_or(IvnError::UnknownNode)?.tec)
    }

    /// Directly raises a node's TEC (used by the bus-off attack model).
    pub fn bump_tec(&mut self, node: NodeId, amount: u32) -> Result<(), IvnError> {
        let n = self.nodes.get_mut(node.0).ok_or(IvnError::UnknownNode)?;
        n.tec = n.tec.saturating_add(amount);
        Ok(())
    }

    /// Enqueues a frame for transmission by `node` at time `at`.
    ///
    /// # Errors
    ///
    /// [`IvnError::UnknownNode`] for a bad node id;
    /// [`IvnError::BusOff`] if the node is bus-off.
    pub fn enqueue(&mut self, node: NodeId, at: SimTime, frame: CanFrame) -> Result<(), IvnError> {
        if self.error_state(node)? == ErrorState::BusOff {
            return Err(IvnError::BusOff);
        }
        self.nodes[node.0].queue.push_back((at, frame));
        Ok(())
    }

    /// Runs the bus until `deadline` (or all queues drain), returning the
    /// delivery log. Uses a deterministic internal RNG derived from the
    /// schedule for error injection and fingerprint noise.
    pub fn run(&mut self, deadline: SimTime) -> Vec<BusEvent> {
        let mut rng = autosec_sim::SimRng::seed(0x0B05);
        self.run_with_rng(deadline, &mut rng)
    }

    /// [`CanBus::run`] with an explicit RNG stream.
    pub fn run_with_rng(
        &mut self,
        deadline: SimTime,
        rng: &mut autosec_sim::SimRng,
    ) -> Vec<BusEvent> {
        let mut log = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            // Earliest enqueue time across heads (bus contention point).
            let mut best: Option<(u64, usize, SimTime)> = None; // (arb, node, ready)
            let mut earliest_ready: Option<SimTime> = None;
            for (i, n) in self.nodes.iter().enumerate() {
                if n.tec >= 256 {
                    continue;
                }
                if let Some(&(ready, ref frame)) = n.queue.front() {
                    earliest_ready = Some(earliest_ready.map_or(ready, |e: SimTime| e.min(ready)));
                    // A frame competes in arbitration if ready by `now`.
                    if ready <= now {
                        let key = frame.id().arbitration_key();
                        if best.is_none_or(|(bk, _, _)| key < bk) {
                            best = Some((key, i, ready));
                        }
                    }
                }
            }
            let (node_idx, ready) = match best {
                Some((_, i, r)) => (i, r),
                None => match earliest_ready {
                    // Idle: jump to the next arrival.
                    Some(e) if e <= deadline => {
                        now = now.max(e);
                        continue;
                    }
                    _ => break,
                },
            };
            if now > deadline {
                break;
            }
            let (enq, frame) = self.nodes[node_idx]
                .queue
                .pop_front()
                .expect("head checked above");
            debug_assert!(enq == ready);
            let mut start = now;
            let mut dur = SimDuration::from_ns_f64(frame.duration_ns(self.bitrate_bps));
            // Random bus error: error frame (~20 bits) + retransmission.
            while rng.chance(self.error_rate) {
                self.nodes[node_idx].tec += 8;
                let error_frame = SimDuration::from_ns_f64(20.0 * 1e9 / self.bitrate_bps as f64);
                // Error hits halfway through the frame on average, then an
                // error frame is signalled before retransmission.
                start = start + dur / 2 + error_frame;
                dur = SimDuration::from_ns_f64(frame.duration_ns(self.bitrate_bps));
                if self.nodes[node_idx].tec >= 256 {
                    break;
                }
            }
            if self.nodes[node_idx].tec >= 256 {
                continue; // frame lost; node went bus-off
            }
            // Successful transmission decrements TEC.
            self.nodes[node_idx].tec = self.nodes[node_idx].tec.saturating_sub(1);
            let completed = start + dur;
            let fingerprint =
                rng.normal_with(self.nodes[node_idx].fingerprint, self.fingerprint_sigma);
            log.push(BusEvent {
                sender: NodeId(node_idx),
                frame,
                enqueued: enq,
                started: start,
                completed,
                analog_fingerprint: fingerprint,
            });
            now = completed;
        }
        log
    }

    /// Bus utilisation over `[0, horizon]` given a delivery log: fraction
    /// of time the bus was busy.
    pub fn utilisation(log: &[BusEvent], horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let busy: u64 = log
            .iter()
            .map(|e| e.completed.since(e.started).as_ps())
            .sum();
        busy as f64 / horizon.as_ps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::can::CanId;

    fn frame(id: u16, len: usize) -> CanFrame {
        CanFrame::new(CanId::standard(id).unwrap(), &vec![0x55; len]).unwrap()
    }

    #[test]
    fn single_frame_delivered_with_correct_timing() {
        let mut bus = CanBus::new(500_000);
        let a = bus.add_node(2.5);
        bus.enqueue(a, SimTime::from_us(100), frame(0x100, 8))
            .unwrap();
        let log = bus.run(SimTime::from_ms(100));
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].sender, a);
        assert_eq!(log[0].started, SimTime::from_us(100));
        let lat_us = log[0].latency().as_us_f64();
        assert!((200.0..300.0).contains(&lat_us), "{lat_us}");
    }

    #[test]
    fn arbitration_lowest_id_wins() {
        let mut bus = CanBus::new(500_000);
        let a = bus.add_node(1.0);
        let b = bus.add_node(2.0);
        // Both ready at t=0; the lower ID must transmit first.
        bus.enqueue(a, SimTime::ZERO, frame(0x300, 1)).unwrap();
        bus.enqueue(b, SimTime::ZERO, frame(0x050, 1)).unwrap();
        let log = bus.run(SimTime::from_ms(100));
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].sender, b);
        assert_eq!(log[1].sender, a);
        assert!(log[1].started >= log[0].completed);
    }

    #[test]
    fn high_priority_flood_starves_low_priority() {
        let mut bus = CanBus::new(500_000);
        let victim = bus.add_node(1.0);
        let flooder = bus.add_node(2.0);
        bus.enqueue(victim, SimTime::ZERO, frame(0x400, 8)).unwrap();
        for _ in 0..50 {
            bus.enqueue(flooder, SimTime::ZERO, frame(0x000, 8))
                .unwrap();
        }
        let log = bus.run(SimTime::from_secs(1));
        // Victim's frame must be the last one delivered.
        assert_eq!(log.last().unwrap().sender, victim);
        let victim_latency = log.last().unwrap().latency().as_ms_f64();
        assert!(victim_latency > 10.0, "{victim_latency} ms");
    }

    #[test]
    fn queue_drains_in_fifo_per_node() {
        let mut bus = CanBus::new(500_000);
        let a = bus.add_node(0.0);
        for i in 0..5u8 {
            bus.enqueue(a, SimTime::ZERO, frame(0x100, 1).clone())
                .unwrap();
            let _ = i;
        }
        let log = bus.run(SimTime::from_secs(1));
        assert_eq!(log.len(), 5);
        for w in log.windows(2) {
            assert!(w[1].started >= w[0].completed);
        }
    }

    #[test]
    fn errors_raise_tec_and_eventually_bus_off() {
        let mut bus = CanBus::new(500_000).with_error_rate(0.9);
        let a = bus.add_node(0.0);
        for _ in 0..100 {
            let _ = bus.enqueue(a, SimTime::ZERO, frame(0x10, 1));
        }
        let _ = bus.run(SimTime::from_secs(10));
        // With 90% error rate the node's TEC climbs +8 per error, −1 per
        // success; bus-off is practically certain within 100 frames.
        assert_eq!(bus.error_state(a).unwrap(), ErrorState::BusOff);
        assert_eq!(
            bus.enqueue(a, SimTime::ZERO, frame(0x10, 1)).unwrap_err(),
            IvnError::BusOff
        );
    }

    #[test]
    fn error_free_bus_keeps_error_active() {
        let mut bus = CanBus::new(500_000);
        let a = bus.add_node(0.0);
        for _ in 0..20 {
            bus.enqueue(a, SimTime::ZERO, frame(0x10, 2)).unwrap();
        }
        let _ = bus.run(SimTime::from_secs(1));
        assert_eq!(bus.error_state(a).unwrap(), ErrorState::ErrorActive);
        assert_eq!(bus.tec(a).unwrap(), 0);
    }

    #[test]
    fn utilisation_reflects_load() {
        let mut bus = CanBus::new(500_000);
        let a = bus.add_node(0.0);
        for i in 0..10 {
            bus.enqueue(a, SimTime::from_ms(i * 10), frame(0x10, 8))
                .unwrap();
        }
        let log = bus.run(SimTime::from_ms(100));
        let u = CanBus::utilisation(&log, SimTime::from_ms(100));
        // 10 frames of ~250us in 100 ms ≈ 2.5%.
        assert!((0.01..0.05).contains(&u), "{u}");
    }

    #[test]
    fn fingerprints_cluster_per_node() {
        let mut bus = CanBus::new(500_000);
        let a = bus.add_node(2.0);
        let b = bus.add_node(3.0);
        for _ in 0..20 {
            bus.enqueue(a, SimTime::ZERO, frame(0x100, 1)).unwrap();
            bus.enqueue(b, SimTime::ZERO, frame(0x200, 1)).unwrap();
        }
        let log = bus.run(SimTime::from_secs(1));
        for e in &log {
            let expect = if e.sender == a { 2.0 } else { 3.0 };
            assert!((e.analog_fingerprint - expect).abs() < 0.3);
        }
    }

    #[test]
    fn unknown_node_errors() {
        let mut bus = CanBus::new(500_000);
        assert_eq!(
            bus.enqueue(NodeId(9), SimTime::ZERO, frame(1, 1))
                .unwrap_err(),
            IvnError::UnknownNode
        );
        assert_eq!(
            bus.error_state(NodeId(9)).unwrap_err(),
            IvnError::UnknownNode
        );
    }
}
