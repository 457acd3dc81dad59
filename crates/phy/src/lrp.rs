//! IEEE 802.15.4z Low-Rate-Pulse (LRP) mode: distance bounding at the
//! logical layer combined with distance commitment at the physical layer
//! (paper §II-A, refs \[5]–[7\]).
//!
//! The security argument is information-theoretic rather than
//! signal-processing: each rapid-bit-exchange round sends a fresh
//! challenge bit; the prover's response bit depends on the challenge and
//! a shared secret. An attacker who wants to answer *earlier* than the
//! real prover must commit to response bits before knowing them, so each
//! round is an independent coin flip — `n` rounds push the distance-
//! reduction success probability to `2^-n`.

use autosec_crypto::HmacSha256;
use autosec_sim::SimRng;

/// Configuration of an LRP distance-bounding session.
#[derive(Debug, Clone, PartialEq)]
pub struct LrpConfig {
    /// Number of rapid bit-exchange rounds (32 is typical).
    pub n_rounds: usize,
    /// Shared secret between verifier and prover.
    pub shared_key: Vec<u8>,
    /// Prover turnaround time (processing between challenge receipt and
    /// response), in nanoseconds. Subtracted by the verifier.
    pub turnaround_ns: f64,
    /// One-sigma timing jitter of the round-trip measurement, in
    /// picoseconds.
    pub timing_jitter_ps: f64,
}

impl Default for LrpConfig {
    fn default() -> Self {
        Self {
            n_rounds: 32,
            shared_key: b"lrp demo key".to_vec(),
            turnaround_ns: 10.0,
            timing_jitter_ps: 150.0,
        }
    }
}

/// Adversary against LRP distance bounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrpAttack {
    /// Mafia fraud / early-send: commit response bits `advance_m` of
    /// flight time early, guessing each response bit.
    EarlyCommit {
        /// Metres of distance reduction attempted.
        advance_m: f64,
    },
    /// Pure relay (adds `extra_delay_ns`); answers honestly but later.
    Relay {
        /// Added round-trip processing delay in nanoseconds.
        extra_delay_ns: f64,
    },
}

/// Result of one LRP distance-bounding session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrpOutcome {
    /// Ground truth distance.
    pub true_m: f64,
    /// Estimated distance (`NaN` if the exchange was aborted).
    pub estimated_m: f64,
    /// Whether the verifier aborted (response-bit mismatch).
    pub aborted: bool,
    /// Number of rounds that had correct responses.
    pub correct_rounds: usize,
}

/// An LRP distance-bounding session.
///
/// # Example
///
/// ```
/// use autosec_phy::lrp::{LrpConfig, LrpSession};
/// use autosec_sim::SimRng;
/// let s = LrpSession::new(LrpConfig::default());
/// let out = s.measure(8.0, None, &mut SimRng::seed(2));
/// assert!(!out.aborted);
/// assert!((out.estimated_m - 8.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct LrpSession {
    cfg: LrpConfig,
}

impl LrpSession {
    /// Creates a session.
    pub fn new(cfg: LrpConfig) -> Self {
        Self { cfg }
    }

    /// Response bit for round `i` given challenge bit `c`: the prover's
    /// registered function `f(c, i) = HMAC(key, i)[bit c]`, modelling the
    /// two pre-committed response registers of classic distance bounding.
    fn response_bit(&self, round: usize, challenge: bool) -> bool {
        let tag = HmacSha256::mac(&self.cfg.shared_key, &(round as u64).to_be_bytes());
        let byte = tag[if challenge { 1 } else { 0 }];
        byte & 1 == 1
    }

    /// Runs the session across `distance_m` with an optional attacker.
    pub fn measure(
        &self,
        distance_m: f64,
        attack: Option<LrpAttack>,
        rng: &mut SimRng,
    ) -> LrpOutcome {
        let mut rtts_ps = Vec::with_capacity(self.cfg.n_rounds);
        let mut correct = 0usize;
        for round in 0..self.cfg.n_rounds {
            let challenge = rng.chance(0.5);
            let expected = self.response_bit(round, challenge);

            // What bit arrives, and with what round-trip time?
            let (bit_ok, rtt_ps) = match attack {
                None => {
                    let rtt = 2.0 * crate::meters_to_ps(distance_m)
                        + self.cfg.turnaround_ns * 1000.0
                        + rng.normal_with(0.0, self.cfg.timing_jitter_ps);
                    (true, rtt)
                }
                Some(LrpAttack::EarlyCommit { advance_m }) => {
                    // The attacker answers before seeing the prover's
                    // response: pure guess.
                    let guess_ok = rng.chance(0.5);
                    let rtt = 2.0 * crate::meters_to_ps((distance_m - advance_m).max(0.0))
                        + self.cfg.turnaround_ns * 1000.0
                        + rng.normal_with(0.0, self.cfg.timing_jitter_ps);
                    (guess_ok, rtt)
                }
                Some(LrpAttack::Relay { extra_delay_ns }) => {
                    let rtt = 2.0 * crate::meters_to_ps(distance_m)
                        + (self.cfg.turnaround_ns + extra_delay_ns) * 1000.0
                        + rng.normal_with(0.0, self.cfg.timing_jitter_ps);
                    (true, rtt)
                }
            };
            let _ = expected; // expected bit is what `bit_ok` is measured against
            if !bit_ok {
                return LrpOutcome {
                    true_m: distance_m,
                    estimated_m: f64::NAN,
                    aborted: true,
                    correct_rounds: correct,
                };
            }
            correct += 1;
            rtts_ps.push(rtt_ps);
        }

        // Median RTT -> distance.
        rtts_ps.sort_by(|a, b| a.partial_cmp(b).expect("no NaN rtt"));
        let median = rtts_ps[rtts_ps.len() / 2];
        let flight_ps = (median - self.cfg.turnaround_ns * 1000.0) / 2.0;
        LrpOutcome {
            true_m: distance_m,
            estimated_m: crate::ps_to_meters(flight_ps.max(0.0)),
            aborted: false,
            correct_rounds: correct,
        }
    }

    /// Theoretical probability that an early-commit attacker survives all
    /// rounds: `2^-n_rounds`.
    pub fn early_commit_success_probability(&self) -> f64 {
        0.5f64.powi(self.cfg.n_rounds as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_measurement_is_accurate() {
        let s = LrpSession::new(LrpConfig::default());
        let mut rng = SimRng::seed(5);
        for d in [1.0, 3.0, 10.0, 100.0] {
            let out = s.measure(d, None, &mut rng);
            assert!(!out.aborted);
            assert_eq!(out.correct_rounds, 32);
            assert!(
                (out.estimated_m - d).abs() < 0.2,
                "at {d}: {}",
                out.estimated_m
            );
        }
    }

    #[test]
    fn early_commit_virtually_never_succeeds() {
        let s = LrpSession::new(LrpConfig::default());
        let mut rng = SimRng::seed(6);
        let mut successes = 0;
        for _ in 0..500 {
            let out = s.measure(
                20.0,
                Some(LrpAttack::EarlyCommit { advance_m: 10.0 }),
                &mut rng,
            );
            if !out.aborted && out.true_m - out.estimated_m > 1.0 {
                successes += 1;
            }
        }
        assert_eq!(successes, 0, "2^-32 cannot fire in 500 trials");
        assert!(s.early_commit_success_probability() < 1e-9);
    }

    #[test]
    fn fewer_rounds_weaker_bound() {
        let weak = LrpSession::new(LrpConfig {
            n_rounds: 2,
            ..LrpConfig::default()
        });
        let mut rng = SimRng::seed(7);
        let mut successes = 0;
        let trials = 400;
        for _ in 0..trials {
            let out = weak.measure(
                20.0,
                Some(LrpAttack::EarlyCommit { advance_m: 10.0 }),
                &mut rng,
            );
            if !out.aborted {
                successes += 1;
            }
        }
        // Expect ~25% survive two rounds.
        let rate = successes as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.08, "rate {rate}");
    }

    #[test]
    fn relay_enlarges_distance() {
        let s = LrpSession::new(LrpConfig::default());
        let mut rng = SimRng::seed(8);
        let out = s.measure(
            3.0,
            Some(LrpAttack::Relay {
                extra_delay_ns: 100.0,
            }),
            &mut rng,
        );
        assert!(!out.aborted, "relay answers honestly");
        // 100 ns RTT extra = 50 ns one way ≈ 15 m added.
        assert!(out.estimated_m > 15.0, "estimated {}", out.estimated_m);
    }

    #[test]
    fn abort_reports_progress() {
        let s = LrpSession::new(LrpConfig::default());
        let mut rng = SimRng::seed(9);
        let out = s.measure(
            20.0,
            Some(LrpAttack::EarlyCommit { advance_m: 5.0 }),
            &mut rng,
        );
        if out.aborted {
            assert!(out.correct_rounds < 32);
            assert!(out.estimated_m.is_nan());
        }
    }

    #[test]
    fn response_bits_are_key_dependent() {
        let a = LrpSession::new(LrpConfig::default());
        let b = LrpSession::new(LrpConfig {
            shared_key: b"other key".to_vec(),
            ..LrpConfig::default()
        });
        let mut diff = 0;
        for round in 0..64 {
            for c in [false, true] {
                if a.response_bit(round, c) != b.response_bit(round, c) {
                    diff += 1;
                }
            }
        }
        assert!(diff > 30, "keys should decorrelate responses ({diff}/128)");
    }
}
