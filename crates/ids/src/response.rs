//! Autonomous intrusion response (REACT-style, paper ref \[56\]).
//!
//! Alerts map to playbooks; each playbook has a containment action, a
//! cost class (availability impact), and a containment latency. The
//! engine picks the cheapest playbook that covers the alert, escalating
//! on repeated alerts for the same subject.
//!
//! The response history is a bounded ring when a cap is set: once
//! full, each new response evicts the oldest in O(1), so a long-running
//! service pays the same per alert at any history length.

use std::collections::{HashMap, VecDeque};

use autosec_sim::{SimDuration, SimTime};

use crate::Alert;

/// A response action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseAction {
    /// Drop matching frames at the gateway.
    FilterId,
    /// Force a session rekey (SECOC/MACsec).
    Rekey,
    /// Isolate the suspected node (bus-off command / port shut).
    IsolateNode,
    /// Degrade to limp-home mode (minimal functionality, maximal
    /// safety).
    LimpHome,
    /// Notify the backend SOC only.
    Notify,
}

impl ResponseAction {
    /// Availability cost class (0 = free, 3 = severe).
    pub fn cost(self) -> u8 {
        match self {
            ResponseAction::Notify => 0,
            ResponseAction::FilterId => 1,
            ResponseAction::Rekey => 1,
            ResponseAction::IsolateNode => 2,
            ResponseAction::LimpHome => 3,
        }
    }

    /// Typical containment latency.
    pub fn latency(self) -> SimDuration {
        match self {
            ResponseAction::Notify => SimDuration::from_ms(500),
            ResponseAction::FilterId => SimDuration::from_ms(5),
            ResponseAction::Rekey => SimDuration::from_ms(50),
            ResponseAction::IsolateNode => SimDuration::from_ms(20),
            ResponseAction::LimpHome => SimDuration::from_ms(100),
        }
    }
}

/// The playbook: the action for an alert from `detector` that is the
/// `strikes`-th (1-based) against its subject since the subject's last
/// verified repair. Cheapest covering action first, escalating on
/// repeat offenders. [`ResponseEngine::handle`] is this function over a
/// per-subject strike map; a caller that keeps its own strike counts
/// (the fleet keeps one per vehicle) issues exactly the same actions.
pub fn playbook(detector: &str, strikes: u32) -> ResponseAction {
    let base = match detector {
        "specification" => ResponseAction::FilterId,
        "frequency" => ResponseAction::FilterId,
        "interval" => ResponseAction::Rekey,
        "fingerprint" => ResponseAction::IsolateNode,
        _ => ResponseAction::Notify,
    };
    // Escalate after repeated strikes on the same subject.
    match (base, strikes) {
        (_, s) if s >= 5 => ResponseAction::LimpHome,
        (ResponseAction::FilterId, s) if s >= 3 => ResponseAction::IsolateNode,
        (b, _) => b,
    }
}

/// A chosen response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The triggering alert subject.
    pub subject: u32,
    /// Chosen action.
    pub action: ResponseAction,
    /// When containment completes.
    pub contained_at: SimTime,
}

/// The response engine with escalation state.
#[derive(Debug, Clone, Default)]
pub struct ResponseEngine {
    /// Alerts seen per subject.
    strikes: HashMap<u32, u32>,
    /// History of responses issued, oldest first.
    history: VecDeque<Response>,
    /// Maximum retained history entries (`None` = unbounded, the
    /// batch-experiment default).
    history_cap: Option<usize>,
}

impl ResponseEngine {
    /// New engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// New engine retaining at most `cap` history entries — required
    /// for long-running service mode, where an unbounded response log
    /// would grow with wall-of-ticks. Oldest entries are dropped first;
    /// escalation state (per-subject strikes) is unaffected by the cap.
    pub fn with_history_cap(cap: usize) -> Self {
        Self {
            history_cap: Some(cap),
            ..Self::default()
        }
    }

    /// Clears escalation state for one subject — called when a
    /// subject's repair has been verified, so a later unrelated alert
    /// starts from the cheapest playbook again.
    pub fn clear_subject(&mut self, subject: u32) {
        self.strikes.remove(&subject);
    }

    /// Alerts recorded against `subject` so far.
    pub fn strikes(&self, subject: u32) -> u32 {
        self.strikes.get(&subject).copied().unwrap_or(0)
    }

    /// Handles one alert, issuing a response.
    pub fn handle(&mut self, alert: &Alert) -> Response {
        let strikes = self.strikes.entry(alert.subject).or_insert(0);
        *strikes += 1;
        let action = playbook(alert.detector, *strikes);
        let response = Response {
            subject: alert.subject,
            action,
            contained_at: alert.at + action.latency(),
        };
        match self.history_cap {
            Some(0) => {}
            Some(cap) if self.history.len() >= cap => {
                self.history.pop_front();
                self.history.push_back(response.clone());
            }
            _ => self.history.push_back(response.clone()),
        }
        response
    }

    /// The retained responses, oldest first.
    pub fn history(&self) -> &VecDeque<Response> {
        &self.history
    }

    /// Mean containment latency (alert → contained) in milliseconds.
    ///
    /// `alerts` are the alerts handled, in order. The retained history
    /// is the newest responses, so it pairs with the tail of `alerts`;
    /// the mean is over the pairs actually formed.
    pub fn mean_containment_ms(&self, alerts: &[Alert]) -> f64 {
        let pairs = self.history.len().min(alerts.len());
        if pairs == 0 {
            return 0.0;
        }
        let total: f64 = self
            .history
            .iter()
            .skip(self.history.len() - pairs)
            .zip(&alerts[alerts.len() - pairs..])
            .map(|(r, a)| r.contained_at.saturating_since(a.at).as_ms_f64())
            .sum();
        total / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosec_sim::SimRng;
    use rand::Rng;

    fn alert(detector: &'static str, subject: u32, ms: u64) -> Alert {
        Alert {
            detector,
            subject,
            at: SimTime::from_ms(ms),
            detail: String::new(),
        }
    }

    #[test]
    fn playbooks_match_detectors() {
        let mut e = ResponseEngine::new();
        assert_eq!(
            e.handle(&alert("specification", 1, 0)).action,
            ResponseAction::FilterId
        );
        assert_eq!(
            e.handle(&alert("fingerprint", 2, 0)).action,
            ResponseAction::IsolateNode
        );
        assert_eq!(
            e.handle(&alert("interval", 3, 0)).action,
            ResponseAction::Rekey
        );
        assert_eq!(
            e.handle(&alert("unknown-detector", 4, 0)).action,
            ResponseAction::Notify
        );
    }

    #[test]
    fn escalation_on_repeat_offenders() {
        let mut e = ResponseEngine::new();
        let mut last = ResponseAction::Notify;
        for i in 0..6 {
            last = e.handle(&alert("frequency", 0x0A0, i * 10)).action;
        }
        assert_eq!(last, ResponseAction::LimpHome);
        // Third strike escalated filter -> isolate.
        assert_eq!(e.history()[2].action, ResponseAction::IsolateNode);
    }

    #[test]
    fn containment_latency_accumulates() {
        let mut e = ResponseEngine::new();
        let alerts = vec![alert("specification", 1, 10), alert("fingerprint", 2, 20)];
        for a in &alerts {
            e.handle(a);
        }
        let mean = e.mean_containment_ms(&alerts);
        // (5 + 20) / 2 = 12.5 ms.
        assert!((mean - 12.5).abs() < 0.01, "{mean}");
    }

    #[test]
    fn costs_are_ordered() {
        assert!(ResponseAction::Notify.cost() < ResponseAction::FilterId.cost());
        assert!(ResponseAction::IsolateNode.cost() < ResponseAction::LimpHome.cost());
    }

    #[test]
    fn history_cap_bounds_memory_without_touching_strikes() {
        let mut e = ResponseEngine::with_history_cap(3);
        for i in 0..10 {
            e.handle(&alert("frequency", 0x0A0, i * 10));
        }
        assert_eq!(e.history().len(), 3, "oldest entries dropped");
        // Strikes kept accumulating past the cap: still escalated.
        assert_eq!(
            e.handle(&alert("frequency", 0x0A0, 200)).action,
            ResponseAction::LimpHome
        );
    }

    #[test]
    fn clear_subject_resets_escalation() {
        let mut e = ResponseEngine::new();
        for i in 0..5 {
            e.handle(&alert("frequency", 7, i));
        }
        assert_eq!(
            e.handle(&alert("frequency", 7, 50)).action,
            ResponseAction::LimpHome
        );
        e.clear_subject(7);
        assert_eq!(
            e.handle(&alert("frequency", 7, 60)).action,
            ResponseAction::FilterId,
            "verified recovery starts the playbook ladder over"
        );
    }

    #[test]
    fn per_subject_strike_isolation() {
        let mut e = ResponseEngine::new();
        for i in 0..4 {
            e.handle(&alert("frequency", 0x100, i));
        }
        // A different subject starts fresh.
        let r = e.handle(&alert("frequency", 0x200, 100));
        assert_eq!(r.action, ResponseAction::FilterId);
    }

    /// A seeded mix of detectors and subjects, with repeat offenders.
    fn alert_stream(seed: u64, n: usize) -> Vec<Alert> {
        const DETECTORS: [&str; 5] = [
            "specification",
            "frequency",
            "interval",
            "fingerprint",
            "unknown-detector",
        ];
        let mut rng = SimRng::seed(seed);
        (0..n as u64)
            .map(|i| {
                let detector = DETECTORS[rng.gen_range(0..DETECTORS.len())];
                alert(detector, rng.gen_range(0..16), i * 7)
            })
            .collect()
    }

    #[test]
    fn strike_column_fold_issues_what_handle_issues() {
        // The fleet answers alerts with one strike counter per subject
        // plus `playbook`, not with a `ResponseEngine`; both must issue
        // the same action for every alert, repairs included.
        const SUBJECTS: usize = 50;
        let mut rng = SimRng::seed(17);
        let mut engine = ResponseEngine::new();
        let mut strikes = [0u32; SUBJECTS];
        let mut top_of_ladder = 0;
        for i in 0..20_000u64 {
            let subject = rng.gen_range(0..SUBJECTS);
            if rng.gen_bool(0.05) {
                engine.clear_subject(subject as u32);
                strikes[subject] = 0;
                continue;
            }
            let a = alert(
                [
                    "specification",
                    "frequency",
                    "interval",
                    "fingerprint",
                    "misbehavior",
                ][rng.gen_range(0..5usize)],
                subject as u32,
                i,
            );
            strikes[subject] += 1;
            let folded = playbook(a.detector, strikes[subject]);
            assert_eq!(engine.handle(&a).action, folded, "alert {i}");
            assert_eq!(engine.strikes(subject as u32), strikes[subject]);
            top_of_ladder += usize::from(folded == ResponseAction::LimpHome);
        }
        assert!(
            top_of_ladder > 0,
            "the stream must reach the top of the ladder"
        );
    }

    #[test]
    fn ring_history_matches_push_then_drain_model() {
        let alerts = alert_stream(42, 6_000);
        for cap in [Some(0), Some(1), Some(3), Some(4_096), None] {
            let mut e = cap.map_or_else(ResponseEngine::new, ResponseEngine::with_history_cap);
            // The retention rule of the original `Vec` history: push,
            // then drop the oldest excess.
            let mut model: Vec<Response> = Vec::new();
            for (i, a) in alerts.iter().enumerate() {
                // Every tenth alert verifies one subject's repair.
                if i % 10 == 9 {
                    e.clear_subject(a.subject);
                }
                model.push(e.handle(a));
                if let Some(cap) = cap {
                    if model.len() > cap {
                        let excess = model.len() - cap;
                        model.drain(..excess);
                    }
                }
                assert!(e.history().iter().eq(model.iter()), "cap {cap:?} alert {i}");
            }
            let retained = cap.map_or(alerts.len(), |c| c.min(alerts.len()));
            assert_eq!(e.history().len(), retained, "cap {cap:?}");
        }
    }

    #[test]
    fn history_cap_never_changes_responses_or_strikes() {
        let alerts = alert_stream(7, 2_000);
        let mut reference = ResponseEngine::new();
        let mut capped: Vec<ResponseEngine> = [0, 1, 3, 4_096]
            .into_iter()
            .map(ResponseEngine::with_history_cap)
            .collect();
        let mut escalated = false;
        for a in &alerts {
            let want = reference.handle(a);
            escalated |= want.action == ResponseAction::LimpHome;
            for e in &mut capped {
                assert_eq!(e.handle(a), want);
            }
        }
        assert!(escalated, "the stream must reach the top of the ladder");
        for subject in 0..16 {
            for e in &capped {
                assert_eq!(e.strikes(subject), reference.strikes(subject));
            }
        }
        assert!(capped[0].history().is_empty(), "cap 0 retains nothing");
        assert_eq!(capped[0].mean_containment_ms(&alerts), 0.0);
    }

    #[test]
    fn capped_mean_pairs_retained_responses_with_the_alert_tail() {
        let alerts = vec![
            alert("specification", 1, 10), // FilterId: 5 ms
            alert("fingerprint", 2, 20),   // IsolateNode: 20 ms
            alert("interval", 3, 30),      // Rekey: 50 ms
        ];
        let mut e = ResponseEngine::with_history_cap(2);
        for a in &alerts {
            e.handle(a);
        }
        // Only the last two responses are retained: (20 + 50) / 2.
        let mean = e.mean_containment_ms(&alerts);
        assert!((mean - 35.0).abs() < 1e-9, "{mean}");

        // Fewer alerts than retained responses: average the pairs that
        // exist (the newest response with the newest alert).
        let mut uncapped = ResponseEngine::new();
        for a in &alerts {
            uncapped.handle(a);
        }
        let mean = uncapped.mean_containment_ms(&alerts[2..]);
        assert!((mean - 50.0).abs() < 1e-9, "{mean}");
        assert_eq!(uncapped.mean_containment_ms(&[]), 0.0);
    }
}
