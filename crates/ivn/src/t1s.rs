//! 10BASE-T1S multidrop automotive Ethernet with PLCA (IEEE 802.3cg,
//! paper ref \[15\]).
//!
//! PLCA (Physical Layer Collision Avoidance) replaces CSMA/CD with a
//! round-robin of *transmit opportunities*: a beacon starts each cycle,
//! then every node gets a short window to either start a frame or yield.
//! The paper highlights T1S because multidrop operation *"decreases
//! cabling weight"* versus point-to-point links.

use std::collections::VecDeque;

use autosec_sim::{SimDuration, SimTime};

use crate::IvnError;

/// 10BASE-T1S nominal bitrate.
pub const T1S_BITRATE_BPS: u64 = 10_000_000;

/// Duration of an unused transmit opportunity (20 bit times).
const TO_BITS: u64 = 20;
/// Beacon duration in bits.
const BEACON_BITS: u64 = 20;
/// Ethernet overhead per frame: preamble+SFD (8) + header (14) + FCS (4)
/// + IPG (12) bytes.
const FRAME_OVERHEAD_BYTES: usize = 38;

/// One frame delivery on the T1S segment.
#[derive(Debug, Clone, PartialEq)]
pub struct T1sDelivery {
    /// Transmitting node index.
    pub sender: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Enqueue time.
    pub enqueued: SimTime,
    /// Completion time.
    pub completed: SimTime,
}

impl T1sDelivery {
    /// Queueing + transmission latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.since(self.enqueued)
    }
}

/// A PLCA-managed 10BASE-T1S segment.
///
/// # Example
///
/// ```
/// use autosec_ivn::t1s::T1sSegment;
/// use autosec_sim::SimTime;
/// let mut seg = T1sSegment::new(4);
/// seg.enqueue(1, SimTime::ZERO, 100).unwrap();
/// let log = seg.run(SimTime::from_ms(5));
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct T1sSegment {
    node_queues: Vec<VecDeque<(SimTime, usize)>>,
}

impl T1sSegment {
    /// Creates a segment with `node_count` attached nodes (PLCA IDs
    /// `0..node_count`; node 0 is the PLCA coordinator).
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn new(node_count: usize) -> Self {
        assert!(node_count > 0, "T1S segment needs at least one node");
        Self {
            node_queues: vec![VecDeque::new(); node_count],
        }
    }

    /// Enqueues a frame of `payload_len` bytes at `node`.
    ///
    /// # Errors
    ///
    /// [`IvnError::UnknownNode`] for an out-of-range node;
    /// [`IvnError::PayloadTooLong`] above 1500 bytes.
    pub fn enqueue(
        &mut self,
        node: usize,
        at: SimTime,
        payload_len: usize,
    ) -> Result<(), IvnError> {
        if node >= self.node_queues.len() {
            return Err(IvnError::UnknownNode);
        }
        if payload_len > 1500 {
            return Err(IvnError::PayloadTooLong);
        }
        self.node_queues[node].push_back((at, payload_len));
        Ok(())
    }

    fn bit_time() -> SimDuration {
        SimDuration::from_ns_f64(1e9 / T1S_BITRATE_BPS as f64)
    }

    /// Runs PLCA cycles until `deadline` or all queues drain.
    pub fn run(&mut self, deadline: SimTime) -> Vec<T1sDelivery> {
        let mut log = Vec::new();
        let mut now = SimTime::ZERO;
        let bit = Self::bit_time();
        loop {
            let pending: usize = self.node_queues.iter().map(|q| q.len()).sum();
            if pending == 0 || now > deadline {
                break;
            }
            // Beacon.
            now += bit * BEACON_BITS;
            let mut sent_this_cycle = 0;
            for node in 0..self.node_queues.len() {
                let ready = self.node_queues[node]
                    .front()
                    .map(|&(at, _)| at <= now)
                    .unwrap_or(false);
                if ready {
                    let (at, len) = self.node_queues[node].pop_front().expect("checked");
                    let wire_bytes = len.max(46) + FRAME_OVERHEAD_BYTES;
                    now += bit * (wire_bytes as u64 * 8);
                    log.push(T1sDelivery {
                        sender: node,
                        payload_len: len,
                        enqueued: at,
                        completed: now,
                    });
                    sent_this_cycle += 1;
                } else {
                    // Yielded transmit opportunity.
                    now += bit * TO_BITS;
                }
            }
            if sent_this_cycle == 0 {
                // Nothing ready yet: fast-forward to the next arrival.
                let next = self
                    .node_queues
                    .iter()
                    .filter_map(|q| q.front().map(|&(at, _)| at))
                    .min();
                match next {
                    Some(t) if t > now => now = t,
                    _ => {}
                }
            }
        }
        log
    }

    /// Serialization time of a single frame on T1S, ignoring PLCA waits.
    pub fn frame_time(payload_len: usize) -> SimDuration {
        let wire_bytes = payload_len.max(46) + FRAME_OVERHEAD_BYTES;
        Self::bit_time() * (wire_bytes as u64 * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_latency_close_to_serialization() {
        let mut seg = T1sSegment::new(2);
        seg.enqueue(0, SimTime::ZERO, 200).unwrap();
        let log = seg.run(SimTime::from_ms(10));
        assert_eq!(log.len(), 1);
        // 238 bytes * 8 bits at 10 Mbps = 190.4 us + beacon.
        let lat = log[0].latency().as_us_f64();
        assert!((190.0..200.0).contains(&lat), "{lat}");
    }

    #[test]
    fn round_robin_is_fair() {
        let mut seg = T1sSegment::new(4);
        for node in 0..4 {
            for _ in 0..5 {
                seg.enqueue(node, SimTime::ZERO, 100).unwrap();
            }
        }
        let log = seg.run(SimTime::from_secs(1));
        assert_eq!(log.len(), 20);
        // First four deliveries come from four distinct nodes.
        let firsts: Vec<usize> = log[..4].iter().map(|d| d.sender).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_opportunities_cost_little() {
        // One busy node among 8 silent ones: per-cycle overhead is
        // 7 * 20 bit-times + beacon = ~16 us, small next to the frame.
        let mut seg = T1sSegment::new(8);
        for _ in 0..10 {
            seg.enqueue(3, SimTime::ZERO, 500).unwrap();
        }
        let log = seg.run(SimTime::from_secs(1));
        assert_eq!(log.len(), 10);
        let total = log.last().unwrap().completed.as_ms_f64();
        // 10 frames of 538 B ≈ 4.3 ms serialization + ~0.2 ms PLCA.
        assert!((4.0..5.0).contains(&total), "{total}");
    }

    #[test]
    fn min_frame_padding_applies() {
        let short = T1sSegment::frame_time(1);
        let padded = T1sSegment::frame_time(46);
        assert_eq!(short, padded);
        assert!(T1sSegment::frame_time(100) > padded);
    }

    #[test]
    fn rejects_bad_input() {
        let mut seg = T1sSegment::new(2);
        assert_eq!(
            seg.enqueue(5, SimTime::ZERO, 10).unwrap_err(),
            IvnError::UnknownNode
        );
        assert_eq!(
            seg.enqueue(0, SimTime::ZERO, 2000).unwrap_err(),
            IvnError::PayloadTooLong
        );
    }

    #[test]
    fn future_arrivals_handled() {
        let mut seg = T1sSegment::new(2);
        seg.enqueue(1, SimTime::from_ms(3), 64).unwrap();
        let log = seg.run(SimTime::from_ms(10));
        assert_eq!(log.len(), 1);
        assert!(log[0].completed >= SimTime::from_ms(3));
    }
}
