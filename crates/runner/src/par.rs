//! Deterministic parallel Monte-Carlo helpers.
//!
//! Trial `i` always computes on the stream `base.fork_idx(i)` and its
//! result lands in slot `i`; the merge happens in slot order. The
//! worker count therefore changes wall-clock time and nothing else.
//!
//! ## Fault tolerance
//!
//! Every helper runs each trial under [`std::panic::catch_unwind`], so
//! a panicking trial can never poison another trial's slot or leak a
//! generic "a scoped thread panicked" message:
//!
//! - [`par_trials`] **propagates** the original panic payload of the
//!   lowest-index panicking trial (all trials are still attempted
//!   first, so the choice is identical for every `jobs` value).
//! - [`try_par_trials`] **quarantines**: each slot becomes a
//!   [`TrialOutcome`] (`Ok` or `Panicked`), in trial order,
//!   bit-identical for every `jobs` value.
//!
//! Both return the whole trial-ordered `Vec`; callers that accumulate
//! fold over it with a plain loop, which sees the outputs in ascending
//! trial order.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use autosec_sim::SimRng;

/// The quarantined result of one Monte-Carlo trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialOutcome<T> {
    /// The trial completed and produced a value.
    Ok(T),
    /// The trial panicked; `message` is the rendered panic payload.
    Panicked {
        /// The panic payload, rendered to a string (`&str`/`String`
        /// payloads verbatim, anything else a fixed placeholder).
        message: String,
    },
}

impl<T> TrialOutcome<T> {
    /// The value, if the trial completed.
    pub fn ok(self) -> Option<T> {
        match self {
            TrialOutcome::Ok(v) => Some(v),
            TrialOutcome::Panicked { .. } => None,
        }
    }

    /// Whether the trial completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, TrialOutcome::Ok(_))
    }

    /// The panic message, if the trial was quarantined.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            TrialOutcome::Ok(_) => None,
            TrialOutcome::Panicked { message } => Some(message),
        }
    }
}

/// Renders a caught panic payload the way the default hook would:
/// `&str` and `String` payloads verbatim, anything else a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Number of active panic-silencing guards (see [`silence_panics`]).
static SILENCE_DEPTH: AtomicUsize = AtomicUsize::new(0);
static SILENCE_HOOK: Once = Once::new();

/// Suppresses the default panic-hook output while the returned guard is
/// alive. Used around *quarantining* runs, where every panic is caught,
/// rendered into its [`TrialOutcome`] or manifest entry, and reported
/// there — printing each one to stderr would only drown the output.
///
/// The suppression is process-global (the hook is shared state), so an
/// unrelated panic on another thread is also silenced while a guard is
/// alive; it still unwinds normally, only the printing is skipped.
/// Propagating paths ([`par_trials`]) take no guard, so their panics
/// print at the original site as usual.
pub fn silence_panics() -> SilenceGuard {
    SILENCE_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SILENCE_DEPTH.load(Ordering::SeqCst) == 0 {
                prev(info);
            }
        }));
    });
    SILENCE_DEPTH.fetch_add(1, Ordering::SeqCst);
    SilenceGuard(())
}

/// RAII guard from [`silence_panics`]; panic printing resumes when the
/// last live guard drops.
#[derive(Debug)]
pub struct SilenceGuard(());

impl Drop for SilenceGuard {
    fn drop(&mut self) {
        SILENCE_DEPTH.fetch_sub(1, Ordering::SeqCst);
    }
}

type Caught<T> = Result<T, Box<dyn Any + Send>>;

/// Runs every trial under `catch_unwind` and returns the raw results in
/// trial order. Both the serial and the parallel path attempt **all**
/// `n` trials — a panic never prevents later trials from running — so
/// quarantine and propagation decisions are identical for every `jobs`
/// value.
///
/// With `jobs > 1`, scoped workers claim trial indices from one shared
/// counter and keep their own `(i, result)` pairs, which are merged by
/// index afterwards: scheduling decides only *which thread* runs a
/// trial, never what it computes or where its result lands.
fn run_caught<T, F>(jobs: usize, n: usize, base: &SimRng, trial: F) -> Vec<Caught<T>>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    let caught = |i: usize| catch_unwind(AssertUnwindSafe(|| trial(i, base.fork_idx(i as u64))));
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(caught).collect();
    }

    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, Caught<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, caught(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("trial panics are caught in the worker"))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, result)| result).collect()
}

/// Runs `n` independent trials, trial `i` on `base.fork_idx(i)`, and
/// returns the results **in trial order**.
///
/// Bit-identical output for every `jobs` value, including 1.
///
/// # Panics
///
/// If any trial panics, all trials are still attempted and then the
/// **original payload of the lowest-index panicking trial** is
/// re-thrown via [`resume_unwind`] — the same payload for every `jobs`
/// value, never a synthetic "slot poisoned" or "a scoped thread
/// panicked" message.
pub fn par_trials<T, F>(jobs: usize, n: usize, base: &SimRng, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    for result in run_caught(jobs, n, base, trial) {
        match result {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// The quarantining variant of [`par_trials`]: each trial's panic is
/// caught and recorded as [`TrialOutcome::Panicked`] in its slot, and
/// every other trial runs to completion.
///
/// The outcome sequence — including which slots are quarantined and
/// their messages — is a pure function of `(seed, n)`, identical for
/// every `jobs` value. Panic-hook output is suppressed for the
/// duration (see [`silence_panics`]); the messages are in the slots.
pub fn try_par_trials<T, F>(jobs: usize, n: usize, base: &SimRng, trial: F) -> Vec<TrialOutcome<T>>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    let _quiet = silence_panics();
    run_caught(jobs, n, base, trial)
        .into_iter()
        .map(|r| match r {
            Ok(v) => TrialOutcome::Ok(v),
            Err(payload) => TrialOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn results_arrive_in_trial_order() {
        let base = SimRng::seed(9);
        let out = par_trials(4, 100, &base, |i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_jobs_invariant() {
        let base = SimRng::seed(1234);
        let serial = par_trials(1, 257, &base, |_, mut rng| rng.next_u64());
        for jobs in [2, 3, 4, 8] {
            let par = par_trials(jobs, 257, &base, |_, mut rng| rng.next_u64());
            assert_eq!(serial, par, "jobs={jobs}");
        }
        // More workers than trials.
        let few = par_trials(16, 3, &base, |_, mut rng| rng.next_u64());
        assert_eq!(few, serial[..3]);
    }

    #[test]
    fn trial_streams_match_fork_idx() {
        let base = SimRng::seed(5);
        let out = par_trials(4, 32, &base, |_, mut rng| rng.next_u64());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, base.fork_idx(i as u64).next_u64());
        }
    }

    #[test]
    fn empty_trial_set() {
        let base = SimRng::seed(5);
        let out: Vec<u64> = par_trials(4, 0, &base, |_, mut rng| rng.next_u64());
        assert!(out.is_empty());
    }

    #[test]
    fn quarantine_is_jobs_invariant() {
        // A fixed pseudo-random subset of trials panics; the outcome
        // sequence (slots and messages) must not depend on jobs.
        let base = SimRng::seed(77);
        let run = |jobs| {
            try_par_trials(jobs, 97, &base, |i, mut rng| {
                if rng.chance(0.3) {
                    panic!("trial {i} failed");
                }
                rng.next_u64()
            })
        };
        let serial = run(1);
        assert!(serial.iter().any(|o| !o.is_ok()), "no panic injected");
        assert!(serial.iter().any(|o| o.is_ok()), "every trial panicked");
        for jobs in [2, 4, 8] {
            assert_eq!(serial, run(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn quarantined_messages_carry_the_payload() {
        let base = SimRng::seed(1);
        let out = try_par_trials(4, 8, &base, |i, _| {
            if i == 3 {
                panic!("boom at {i}");
            }
            i
        });
        assert_eq!(out[3].panic_message(), Some("boom at 3"));
        assert_eq!(out[2], TrialOutcome::Ok(2));
        assert_eq!(out.iter().filter(|o| o.is_ok()).count(), 7);
    }

    #[test]
    fn propagation_rethrows_the_original_payload() {
        // Both serial and parallel paths must surface the payload of
        // the lowest-index panicking trial, not a synthetic message.
        for jobs in [1, 4] {
            let base = SimRng::seed(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_trials(jobs, 16, &base, |i, _| {
                    if i == 5 || i == 11 {
                        panic!("original payload {i}");
                    }
                    i
                })
            }))
            .expect_err("must panic");
            assert_eq!(
                panic_message(caught.as_ref()),
                "original payload 5",
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(owned.as_ref()), "owned");
        let odd: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(odd.as_ref()), "<non-string panic payload>");
    }
}
