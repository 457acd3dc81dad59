//! Process-level supervision: real kills and resource budgets.
//!
//! Every suite entry runs in a spawned child process (the
//! `experiments` binary re-invoked with a hidden `--worker-one <slug>`
//! mode), because a child, unlike a thread, can be reclaimed:
//!
//! - a deadline breach SIGKILLs the child for real;
//! - a **peak-RSS budget** is enforced by parent-side polling of
//!   `/proc/<pid>/status` (`VmHWM`), with an `RLIMIT_AS` backstop
//!   applied inside the child;
//! - a **CPU-seconds budget** is enforced by polling
//!   `/proc/<pid>/stat` (`utime + stime`), with an `RLIMIT_CPU`
//!   backstop.
//!
//! The parent-side poll is the primary classifier (it knows *which*
//! budget tripped); the rlimits only matter if the supervising parent
//! itself dies. Off Linux the probes read nothing, so only deadlines
//! bite. Results come back through the ordinary
//! [`ArtifactStore`](crate::ArtifactStore) JSON handoff, so healthy
//! artifacts are bit-identical to an in-process
//! [`Experiment::run`](crate::Experiment::run) by construction.
//!
//! [`retry_delay`] computes the `--retries` backoff schedule from the
//! run's own seeded substream: a pure function of
//! `(seed, slug, attempt)`, so the schedule is deterministic and
//! jobs-invariant — the property E26 pins in CI.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use autosec_sim::SimRng;
use rand::RngCore;

/// Per-experiment resource ceilings for a supervised child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudgets {
    /// Peak resident-set ceiling in MiB (`--rss-limit-mb`); `None`
    /// leaves memory unbudgeted.
    pub rss_limit_mb: Option<u64>,
    /// CPU-seconds ceiling (`--cpu-limit-secs`); `None` lets the suite
    /// derive one from the deadline in force.
    pub cpu_limit_secs: Option<u64>,
}

/// How to re-invoke the experiments binary as a single-experiment
/// worker.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The binary (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Context flags every worker needs (`--seed`, `--jobs`,
    /// `--trials-scale`).
    pub base_args: Vec<String>,
}

impl WorkerSpec {
    /// The command line for one worker: base args plus
    /// `--worker-one <slug> --out <handoff>` and the budget flags the
    /// child should turn into rlimit backstops.
    pub fn command(&self, slug: &str, handoff_dir: &Path, budgets: ResourceBudgets) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.args(&self.base_args);
        cmd.arg("--worker-one").arg(slug);
        cmd.arg("--out").arg(handoff_dir);
        if let Some(mb) = budgets.rss_limit_mb {
            cmd.arg("--rss-limit-mb").arg(mb.to_string());
        }
        if let Some(secs) = budgets.cpu_limit_secs {
            cmd.arg("--cpu-limit-secs").arg(secs.to_string());
        }
        cmd.stdin(Stdio::null());
        cmd
    }
}

/// Why the supervisor killed a child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KillReason {
    /// The deadline elapsed.
    Deadline,
    /// Peak RSS crossed the budget.
    Rss {
        /// Peak resident set observed (MiB).
        peak_mb: u64,
        /// The budget in force (MiB).
        limit_mb: u64,
    },
    /// Accumulated CPU time crossed the budget.
    Cpu {
        /// CPU seconds observed (utime + stime).
        used_secs: f64,
        /// The budget in force (seconds).
        limit_secs: u64,
    },
}

/// What [`supervise`] observed about one child.
#[derive(Debug)]
pub struct ProcOutcome {
    /// Wall-clock time from spawn to exit or kill.
    pub elapsed: Duration,
    /// Peak resident set observed via `/proc` polling (MiB; 0 when the
    /// child exited before the first poll or off Linux).
    pub peak_rss_mb: u64,
    /// CPU seconds observed via `/proc` polling.
    pub cpu_secs: f64,
    /// `Some` when the supervisor killed the child (and why).
    pub killed: Option<KillReason>,
    /// The child's own exit status; `None` when the supervisor killed
    /// it.
    pub exit: Option<ExitStatus>,
}

/// The supervisor's first wait between polls of `try_wait` and
/// `/proc`; each later wait doubles, up to [`POLL_MAX`]. A child that
/// exits after t < 15 ms is seen within about 2t, and a long one costs
/// one poll per [`POLL_MAX`].
const POLL_FIRST: Duration = Duration::from_millis(1);
/// The longest wait between two polls.
const POLL_MAX: Duration = Duration::from_millis(15);

/// Spawns `cmd` and supervises it until natural exit or a budget kill.
///
/// The kill is a real SIGKILL (`Child::kill`), so a hung or leaking
/// child is actually reclaimed.
pub fn supervise(
    cmd: &mut Command,
    deadline: Duration,
    budgets: ResourceBudgets,
) -> io::Result<ProcOutcome> {
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let mut peak_rss_mb = 0u64;
    let mut cpu_secs = 0f64;
    let mut poll = POLL_FIRST;
    let killed = loop {
        if let Some(status) = child.try_wait()? {
            return Ok(ProcOutcome {
                elapsed: start.elapsed(),
                peak_rss_mb,
                cpu_secs,
                killed: None,
                exit: Some(status),
            });
        }
        if let Some(mb) = probe_peak_rss_mb(pid) {
            peak_rss_mb = peak_rss_mb.max(mb);
        }
        if let Some(secs) = probe_cpu_secs(pid) {
            cpu_secs = cpu_secs.max(secs);
        }
        if let Some(limit) = budgets.rss_limit_mb {
            if peak_rss_mb >= limit {
                break KillReason::Rss {
                    peak_mb: peak_rss_mb,
                    limit_mb: limit,
                };
            }
        }
        if let Some(limit) = budgets.cpu_limit_secs {
            if cpu_secs >= limit as f64 {
                break KillReason::Cpu {
                    used_secs: cpu_secs,
                    limit_secs: limit,
                };
            }
        }
        if start.elapsed() >= deadline {
            break KillReason::Deadline;
        }
        std::thread::sleep(poll);
        poll = (poll * 2).min(POLL_MAX);
    };
    // SIGKILL cannot be caught or ignored; wait() reaps the zombie.
    let _ = child.kill();
    let _ = child.wait();
    Ok(ProcOutcome {
        elapsed: start.elapsed(),
        peak_rss_mb,
        cpu_secs,
        killed: Some(killed),
        exit: None,
    })
}

/// Peak resident set of a live process in MiB (`VmHWM`, falling back
/// to `VmRSS`), rounded up. `None` off Linux or once the process is
/// gone.
#[cfg(target_os = "linux")]
pub fn probe_peak_rss_mb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    for key in ["VmHWM:", "VmRSS:"] {
        if let Some(line) = status.lines().find(|l| l.starts_with(key)) {
            let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            return Some(kb.div_ceil(1024));
        }
    }
    None
}

/// See the Linux implementation; always `None` elsewhere.
#[cfg(not(target_os = "linux"))]
pub fn probe_peak_rss_mb(_pid: u32) -> Option<u64> {
    None
}

/// Accumulated CPU seconds (`utime + stime` from `/proc/<pid>/stat`).
/// `None` off Linux or once the process is gone.
#[cfg(target_os = "linux")]
pub fn probe_cpu_secs(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The comm field may contain spaces and parentheses; everything
    // after the *last* ')' is whitespace-delimited. Fields 14/15
    // (1-indexed) are utime/stime, i.e. indices 11/12 after the split.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / clock_ticks_per_sec())
}

/// See the Linux implementation; always `None` elsewhere.
#[cfg(not(target_os = "linux"))]
pub fn probe_cpu_secs(_pid: u32) -> Option<f64> {
    None
}

#[cfg(target_os = "linux")]
fn clock_ticks_per_sec() -> f64 {
    // std already links libc on Linux; no libc crate is vendored, so
    // declare the one symbol we need directly.
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Installs rlimit backstops inside a worker child. The parent's
/// `/proc` polling is the primary enforcement (it classifies *which*
/// budget tripped); these only bite if the parent dies.
#[cfg(target_os = "linux")]
pub fn apply_worker_rlimits(budgets: ResourceBudgets) {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    const RLIMIT_CPU: i32 = 0;
    const RLIMIT_AS: i32 = 9;
    if let Some(secs) = budgets.cpu_limit_secs {
        // A little above the parent's ceiling so the parent classifies
        // the breach first (SIGXCPU at cur, SIGKILL at max).
        let lim = RLimit {
            cur: secs.saturating_add(2),
            max: secs.saturating_add(5),
        };
        unsafe { setrlimit(RLIMIT_CPU, &lim) };
    }
    if let Some(mb) = budgets.rss_limit_mb {
        // Address space overshoots resident size by a wide margin
        // (mappings, guard pages, arenas), so the backstop is generous.
        let bytes = mb
            .saturating_mul(4)
            .saturating_add(512)
            .saturating_mul(1024 * 1024);
        let lim = RLimit {
            cur: bytes,
            max: bytes,
        };
        unsafe { setrlimit(RLIMIT_AS, &lim) };
    }
}

/// No-op off Linux: budgets degrade to parent-side polling only (and
/// off Linux the probes return `None`, so only deadlines bite).
#[cfg(not(target_os = "linux"))]
pub fn apply_worker_rlimits(_budgets: ResourceBudgets) {}

/// Where a worker child records a panic message for the parent
/// (`<handoff>/<slug>.panic.txt`). The parent folds it into the
/// ordinary `failed` manifest entry, carrying the original panic
/// message.
pub fn worker_failure_path(handoff_dir: &Path, slug: &str) -> PathBuf {
    handoff_dir.join(format!("{slug}.panic.txt"))
}

/// Smallest backoff step (attempt 0 averages one base).
pub const RETRY_BASE: Duration = Duration::from_millis(100);
/// Backoff ceiling regardless of attempt count.
pub const RETRY_CAP: Duration = Duration::from_secs(5);

/// The backoff before re-running `slug` after failed attempt
/// `attempt` (0-based): `RETRY_BASE · 2^attempt · (0.5 + u)` with
/// `u ∈ [0, 1)` drawn from the run's own seeded substream, capped at
/// [`RETRY_CAP`].
///
/// A pure function of `(seed, slug, attempt)` — never of wall clock,
/// thread timing, or `--jobs` — so a retry schedule is reproducible
/// across machines and parallelism levels.
pub fn retry_delay(seed: u64, slug: &str, attempt: u32) -> Duration {
    let base_ms = RETRY_BASE.as_millis() as u64 * (1u64 << attempt.min(16));
    let mut rng = SimRng::seed(seed)
        .fork("suite/retry")
        .fork(slug)
        .fork_idx(u64::from(attempt));
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let jittered = (base_ms as f64 * (0.5 + unit)).round() as u64;
    Duration::from_millis(jittered).min(RETRY_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("/bin/sh");
        cmd.arg("-c").arg(script).stdin(Stdio::null());
        cmd
    }

    #[test]
    fn worker_command_carries_handoff_and_budgets() {
        let spec = WorkerSpec {
            exe: PathBuf::from("/bin/echo"),
            base_args: vec!["--seed".into(), "7".into()],
        };
        let budgets = ResourceBudgets {
            rss_limit_mb: Some(64),
            cpu_limit_secs: Some(9),
        };
        let cmd = spec.command("e1-depth", Path::new("/tmp/handoff"), budgets);
        let args: Vec<String> = cmd
            .get_args()
            .map(|a| a.to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            args,
            vec![
                "--seed",
                "7",
                "--worker-one",
                "e1-depth",
                "--out",
                "/tmp/handoff",
                "--rss-limit-mb",
                "64",
                "--cpu-limit-secs",
                "9",
            ]
        );
        let lean = spec.command(
            "e1-depth",
            Path::new("/tmp/handoff"),
            ResourceBudgets::default(),
        );
        assert_eq!(
            lean.get_args().count(),
            6,
            "no budget flags when unbudgeted"
        );
    }

    #[cfg(unix)]
    #[test]
    fn supervise_reports_natural_exit() {
        let out = supervise(
            &mut sh("exit 0"),
            Duration::from_secs(10),
            ResourceBudgets::default(),
        )
        .expect("spawn");
        assert!(out.killed.is_none());
        assert!(out.exit.expect("exited").success());

        let out = supervise(
            &mut sh("exit 3"),
            Duration::from_secs(10),
            ResourceBudgets::default(),
        )
        .expect("spawn");
        assert!(out.killed.is_none());
        assert_eq!(out.exit.expect("exited").code(), Some(3));
    }

    #[cfg(unix)]
    #[test]
    fn supervise_kills_on_deadline_for_real() {
        let start = Instant::now();
        let out = supervise(
            &mut sh("sleep 30"),
            Duration::from_millis(200),
            ResourceBudgets::default(),
        )
        .expect("spawn");
        assert_eq!(out.killed, Some(KillReason::Deadline));
        assert!(out.exit.is_none());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "kill must be prompt, not a 30s wait"
        );
        assert!(out.elapsed >= Duration::from_millis(200));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn supervise_kills_on_cpu_budget() {
        let start = Instant::now();
        let out = supervise(
            &mut sh("while :; do :; done"),
            Duration::from_secs(60),
            ResourceBudgets {
                rss_limit_mb: None,
                cpu_limit_secs: Some(1),
            },
        )
        .expect("spawn");
        match out.killed {
            Some(KillReason::Cpu {
                used_secs,
                limit_secs,
            }) => {
                assert_eq!(limit_secs, 1);
                assert!(used_secs >= 1.0);
            }
            other => panic!("expected cpu kill, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn supervise_kills_on_rss_budget() {
        // Shell string doubling leaks memory exponentially fast.
        let out = supervise(
            &mut sh("x=xxxxxxxxxxxxxxxx; while :; do x=\"$x$x\"; done"),
            Duration::from_secs(60),
            ResourceBudgets {
                rss_limit_mb: Some(48),
                cpu_limit_secs: None,
            },
        )
        .expect("spawn");
        match out.killed {
            Some(KillReason::Rss { peak_mb, limit_mb }) => {
                assert_eq!(limit_mb, 48);
                assert!(peak_mb >= 48);
            }
            other => panic!("expected rss kill, got {other:?}"),
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn probes_read_our_own_process() {
        let pid = std::process::id();
        let rss = probe_peak_rss_mb(pid).expect("own status readable");
        assert!(rss >= 1, "a live Rust test process uses at least 1 MiB");
        let cpu = probe_cpu_secs(pid).expect("own stat readable");
        assert!(cpu >= 0.0);
        assert!(probe_peak_rss_mb(u32::MAX - 1).is_none(), "dead pid");
    }

    #[test]
    fn retry_delay_is_deterministic_and_jittered() {
        let a = retry_delay(42, "e1-depth", 0);
        assert_eq!(a, retry_delay(42, "e1-depth", 0), "pure function");
        // Jitter keeps attempt 0 within [0.5, 1.5) bases.
        assert!(a >= RETRY_BASE / 2 && a < RETRY_BASE * 3 / 2, "{a:?}");
        // Different slugs and seeds decorrelate.
        assert_ne!(retry_delay(42, "e1-depth", 0), retry_delay(42, "e2-lrp", 0));
        assert_ne!(
            retry_delay(42, "e1-depth", 0),
            retry_delay(43, "e1-depth", 0)
        );
    }

    #[test]
    fn retry_delay_backs_off_exponentially_and_caps() {
        for attempt in 0..10 {
            let d = retry_delay(7, "x", attempt);
            let base = RETRY_BASE * 2u32.pow(attempt.min(16));
            assert!(d >= (base / 2).min(RETRY_CAP), "attempt {attempt}: {d:?}");
            assert!(
                d <= RETRY_CAP.max(base * 3 / 2).min(RETRY_CAP),
                "attempt {attempt}: {d:?}"
            );
        }
        // By attempt 7 the un-jittered base (12.8 s) is past the cap.
        assert_eq!(retry_delay(7, "x", 7), RETRY_CAP);
        assert_eq!(retry_delay(7, "x", 30), RETRY_CAP, "shift never overflows");
    }
}
