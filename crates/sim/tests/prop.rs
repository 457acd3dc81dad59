//! Randomized invariant tests for the simulation kernel.
//!
//! Formerly proptest-based; now driven by deterministic [`SimRng`]
//! streams (the hermetic build has no proptest), with one forked
//! substream per case so failures reproduce exactly.

use autosec_sim::{percentile, SimDuration, SimRng, SimTime, Summary};
use rand::{Rng, RngCore};

const CASES: u64 = 64;

/// Time arithmetic round-trips.
#[test]
fn time_add_sub_roundtrip() {
    let root = SimRng::seed(0x71_3E);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let t = rng.gen_range(0u64..u64::MAX / 4);
        let d = rng.gen_range(0u64..u64::MAX / 4);
        let time = SimTime::from_ps(t);
        let dur = SimDuration::from_ps(d);
        assert_eq!((time + dur) - dur, time);
        assert_eq!((time + dur).since(time), dur);
    }
}

fn sample(rng: &mut SimRng, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range(min_len..max_len);
    (0..n).map(|_| rng.gen_range(-1e6f64..1e6)).collect()
}

/// Percentiles are bounded by the sample extremes and monotone in p.
#[test]
fn percentile_bounds() {
    let root = SimRng::seed(0x9C_71E);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let xs = sample(&mut rng, 1, 100);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            let v = percentile(&xs, p);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            assert!(v >= prev - 1e-9, "percentile must be monotone in p");
            prev = v;
        }
        assert_eq!(percentile(&xs, 0.0), lo);
        assert_eq!(percentile(&xs, 100.0), hi);
    }
}

/// Summary invariants: min <= p50 <= p95 <= p99 <= max, mean within
/// [min, max].
#[test]
fn summary_invariants() {
    let root = SimRng::seed(0x5_3A47);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let xs = sample(&mut rng, 2, 200);
        let s = Summary::of(&xs);
        assert!(s.min <= s.p50 + 1e-9);
        assert!(s.p50 <= s.p95 + 1e-9);
        assert!(s.p95 <= s.p99 + 1e-9);
        assert!(s.p99 <= s.max + 1e-9);
        assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        assert!(s.stddev >= 0.0);
    }
}

/// Forks are pure functions of (seed, label).
#[test]
fn rng_fork_label_stability() {
    let root = SimRng::seed(0xF0_4C);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let seed = rng.next_u64();
        let label: String = (0..rng.gen_range(1usize..12))
            .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
            .collect();
        let a = SimRng::seed(seed).fork(&label).next_u64();
        let b = SimRng::seed(seed).fork(&label).next_u64();
        assert_eq!(a, b);
    }
}

/// Chance(0) is never true; chance(1) always is.
#[test]
fn chance_extremes() {
    let root = SimRng::seed(0xC4A_4CE);
    for case in 0..CASES {
        let mut rng = root.fork_idx(case);
        let mut subject = SimRng::seed(rng.next_u64());
        for _ in 0..32 {
            assert!(!subject.chance(0.0));
            assert!(subject.chance(1.0));
        }
    }
}
