//! The fault-tolerant suite runner: experiment-level degradation.
//!
//! [`run_suite`] executes a selection of experiments the way the
//! layered-defense story says a system should fail — partially, not
//! whole:
//!
//! - every experiment runs in a supervised **child process** (see
//!   [`crate::proc`]) under a deadline derived from its
//!   [`Cost`](crate::Cost) class (or a fixed override); a deadline or
//!   resource budget SIGKILLs the child for real, so an overtime
//!   entry leaves nothing running behind it;
//! - budget violations are first-class outcomes: a child killed over
//!   its peak-RSS budget records `oom_killed`, one over its
//!   CPU-seconds budget records `cpu_exceeded`, and both are
//!   retryable;
//! - with `keep_going`, failures degrade the run instead of ending it:
//!   untouched experiments produce bit-identical artifacts to a clean
//!   run, because trial RNG streams never depend on what other
//!   experiments did — and a worker child's artifact is identical to
//!   an in-process run by construction (same pure function of seed);
//! - [`SuiteOptions::retries`] re-runs failed entries with
//!   exponential backoff whose jitter comes from the run's own seeded
//!   substream ([`retry_delay`]) — the schedule is a pure function of
//!   `(seed, slug, attempt)`, deterministic and jobs-invariant;
//! - a `skip` set (computed by the caller from a prior manifest via
//!   [`ResumeState`](crate::ResumeState)) turns already-completed
//!   experiments into `skipped` records, which is how `--resume`
//!   restarts a 30-experiment run in seconds.
//!
//! The runner reports each record through a callback as it is
//! produced, so the caller can print tables and persist artifacts
//! incrementally — an interrupted process leaves a resumable manifest
//! behind rather than nothing.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use serde_json::Value;

use crate::artifact::ExperimentRecord;
use crate::ctx::RunCtx;
use crate::proc::{
    retry_delay, supervise, worker_failure_path, KillReason, ResourceBudgets, WorkerSpec,
};
use crate::registry::Experiment;
use crate::table::Table;

/// How a suite run spawns and budgets its worker children.
#[derive(Debug, Clone)]
pub struct Isolation {
    /// How to re-invoke the experiments binary as a worker.
    pub spec: WorkerSpec,
    /// Requested budgets. An unset CPU ceiling is derived per
    /// experiment as the deadline in force times the worker count; an
    /// unset RSS ceiling leaves memory unbudgeted.
    pub budgets: ResourceBudgets,
    /// Directory for per-experiment handoff subdirectories
    /// (`<root>/<slug>/`), recreated per attempt.
    pub handoff_root: PathBuf,
}

/// Degradation policy for one suite run.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Record failures and keep running (`--keep-going`). Without it
    /// the suite stops at the first failure — but still returns the
    /// failure record, so the caller can persist a resumable manifest.
    pub keep_going: bool,
    /// Fixed per-experiment deadline replacing the cost-derived one
    /// (`--deadline-secs`).
    pub deadline_override: Option<Duration>,
    /// Slugs to skip because a prior run's artifact already covers
    /// them (`--resume`).
    pub skip: BTreeSet<String>,
    /// Extra attempts for failed entries (`--retries N`); each re-run
    /// waits [`retry_delay`] first. 0 = at most one attempt.
    pub retries: u32,
    /// How each entry's worker child is spawned and budgeted.
    pub isolation: Isolation,
}

impl SuiteOptions {
    /// The deadline in force for `exp`.
    pub fn deadline_for(&self, exp: &Experiment) -> Duration {
        self.deadline_override
            .unwrap_or_else(|| exp.cost.deadline())
    }
}

/// What [`run_suite`] produced.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// One record per selected experiment, in run order (all
    /// statuses). When `aborted`, the trailing experiments were never
    /// attempted and have no record.
    pub records: Vec<ExperimentRecord>,
    /// Whether the suite stopped early (first failure without
    /// `keep_going`).
    pub aborted: bool,
}

impl SuiteReport {
    /// Records of experiments that failed, timed out, or were killed
    /// over a budget, in run order.
    pub fn failures(&self) -> Vec<&ExperimentRecord> {
        self.records
            .iter()
            .filter(|r| r.status.is_failure())
            .collect()
    }
}

/// How one supervised experiment ended (internal).
enum WorkerVerdict {
    Done(Table),
    Panicked(String),
    Overtime,
    OomKilled { peak_mb: u64, limit_mb: u64 },
    CpuExceeded { used_secs: f64, limit_secs: u64 },
}

/// Runs one experiment in a supervised child process with a deadline
/// and resource budgets (see [`crate::proc`]). The child writes its
/// artifact into a private handoff directory; the parent parses the
/// table back out, so the caller's artifact pipeline sees exactly the
/// table an in-process run would produce.
fn run_isolated(
    exp: &Experiment,
    ctx: &RunCtx,
    deadline: Duration,
    iso: &Isolation,
) -> (Duration, WorkerVerdict) {
    let handoff = iso.handoff_root.join(exp.slug);
    let _ = std::fs::remove_dir_all(&handoff);
    if let Err(e) = std::fs::create_dir_all(&handoff) {
        return (
            Duration::ZERO,
            WorkerVerdict::Panicked(format!("worker handoff dir failed: {e}")),
        );
    }
    // A child saturating `jobs` threads legitimately burns up to `jobs`
    // CPU-seconds per wall second of its deadline.
    let budgets = ResourceBudgets {
        rss_limit_mb: iso.budgets.rss_limit_mb,
        cpu_limit_secs: Some(iso.budgets.cpu_limit_secs.unwrap_or_else(|| {
            (deadline.as_secs_f64().ceil() as u64).saturating_mul(ctx.jobs.max(1) as u64)
        })),
    };
    let mut cmd = iso.spec.command(exp.slug, &handoff, budgets);
    let outcome = match supervise(&mut cmd, deadline, budgets) {
        Ok(o) => o,
        Err(e) => {
            return (
                Duration::ZERO,
                WorkerVerdict::Panicked(format!("worker spawn failed: {e}")),
            )
        }
    };
    let elapsed = outcome.elapsed;
    let verdict = classify_outcome(exp, &handoff, outcome, budgets);
    // Everything the verdict needs has been read back; a stale handoff
    // tree must not leak into artifact-dir diffs.
    let _ = std::fs::remove_dir_all(&handoff);
    (elapsed, verdict)
}

/// Maps a supervised child's exit (or kill) to a verdict, folding in
/// the handoff artifact / failure file it left behind.
fn classify_outcome(
    exp: &Experiment,
    handoff: &std::path::Path,
    outcome: crate::proc::ProcOutcome,
    budgets: ResourceBudgets,
) -> WorkerVerdict {
    if let Some(reason) = outcome.killed {
        return match reason {
            KillReason::Deadline => WorkerVerdict::Overtime,
            KillReason::Rss { peak_mb, limit_mb } => WorkerVerdict::OomKilled { peak_mb, limit_mb },
            KillReason::Cpu {
                used_secs,
                limit_secs,
            } => WorkerVerdict::CpuExceeded {
                used_secs,
                limit_secs,
            },
        };
    }

    let exit = outcome.exit.expect("no kill means the child exited");
    if exit.success() {
        let path = handoff.join(format!("{}.json", exp.slug));
        let table = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .and_then(|v: Value| v.get("table").and_then(Table::from_json));
        return match table {
            Some(table) => WorkerVerdict::Done(table),
            None => WorkerVerdict::Panicked(format!(
                "worker exited cleanly but left no readable artifact at {}",
                path.display()
            )),
        };
    }
    if let Ok(message) = std::fs::read_to_string(worker_failure_path(handoff, exp.slug)) {
        return WorkerVerdict::Panicked(message);
    }
    // The rlimit backstop fires as a signal with no failure file; if
    // the observed peaks explain the death, classify it as the budget
    // breach it is rather than an anonymous crash.
    if let Some(sig) = exit_signal(&exit) {
        if let Some(limit_mb) = budgets.rss_limit_mb {
            if outcome.peak_rss_mb >= limit_mb {
                return WorkerVerdict::OomKilled {
                    peak_mb: outcome.peak_rss_mb,
                    limit_mb,
                };
            }
        }
        if let Some(limit_secs) = budgets.cpu_limit_secs {
            if outcome.cpu_secs >= limit_secs as f64 {
                return WorkerVerdict::CpuExceeded {
                    used_secs: outcome.cpu_secs,
                    limit_secs,
                };
            }
        }
        return WorkerVerdict::Panicked(format!("worker killed by signal {sig}"));
    }
    WorkerVerdict::Panicked(format!(
        "worker exited with code {}",
        exit.code().unwrap_or(-1)
    ))
}

#[cfg(unix)]
fn exit_signal(status: &std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn exit_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

/// Maps one attempt's verdict to its record.
fn verdict_record(
    exp: &Experiment,
    elapsed: Duration,
    deadline: Duration,
    verdict: WorkerVerdict,
) -> ExperimentRecord {
    match verdict {
        WorkerVerdict::Done(table) => ExperimentRecord::ok(exp.slug, exp.id, elapsed, table),
        WorkerVerdict::Panicked(message) => {
            ExperimentRecord::failed(exp.slug, exp.id, elapsed, message)
        }
        WorkerVerdict::Overtime => ExperimentRecord::timed_out(exp.slug, exp.id, elapsed, deadline),
        WorkerVerdict::OomKilled { peak_mb, limit_mb } => {
            ExperimentRecord::oom_killed(exp.slug, exp.id, elapsed, peak_mb, limit_mb)
        }
        WorkerVerdict::CpuExceeded {
            used_secs,
            limit_secs,
        } => ExperimentRecord::cpu_exceeded(exp.slug, exp.id, elapsed, used_secs, limit_secs),
    }
}

/// Runs `experiments` in order under the given degradation policy,
/// reporting each [`ExperimentRecord`] through `on_record` the moment
/// it exists (print the table, write the artifact, rewrite the
/// manifest — whatever the caller does with progress).
///
/// Determinism: experiments influence each other only through the
/// shared `ctx` seed, which none of them mutates, and each runs in its
/// own child process, so the set of failures never changes *what the
/// healthy experiments compute* — their tables are bit-identical to a
/// clean run's.
pub fn run_suite(
    experiments: &[Arc<Experiment>],
    ctx: &RunCtx,
    opts: &SuiteOptions,
    mut on_record: impl FnMut(&ExperimentRecord),
) -> SuiteReport {
    let mut report = SuiteReport {
        records: Vec::with_capacity(experiments.len()),
        aborted: false,
    };
    for exp in experiments {
        let record = if opts.skip.contains(exp.slug) {
            ExperimentRecord::skipped(exp.slug, exp.id)
        } else {
            let deadline = opts.deadline_for(exp);
            let mut attempt: u32 = 0;
            loop {
                let (elapsed, verdict) = run_isolated(exp, ctx, deadline, &opts.isolation);
                let record =
                    verdict_record(exp, elapsed, deadline, verdict).with_attempts(attempt + 1);
                if record.status.is_failure() && attempt < opts.retries {
                    std::thread::sleep(retry_delay(ctx.seed, exp.slug, attempt));
                    attempt += 1;
                    continue;
                }
                break record;
            }
        };
        let failed = record.status.is_failure();
        on_record(&record);
        report.records.push(record);
        if failed && !opts.keep_going {
            report.aborted = true;
            break;
        }
    }
    report
}

// Every entry runs in a child process, so these tests stand `/bin/sh`
// in for the experiments binary: `sh -c <script>` receives the
// appended worker args as $0..$5 (`--worker-one <slug> --out <handoff>
// --cpu-limit-secs <n>`), so a script can dispatch on its slug ("$1")
// and address its own handoff directory as "$3".
#[cfg(all(test, unix))]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::artifact::RunStatus;
    use crate::registry::{Cost, Registry};

    /// Four toy entries. Their closures never run: a worker script
    /// plays each entry's child process.
    fn toy_registry() -> Registry {
        let mut r = Registry::new();
        for (id, slug) in [
            ("T1", "t1-ok"),
            ("T2", "t2-panic"),
            ("T3", "t3-slow"),
            ("T4", "t4-ok"),
        ] {
            r.register(Experiment::new(id, slug, "toy", &[], Cost::Cheap, |_| {
                unreachable!("suite entries run in worker children")
            }));
        }
        r
    }

    /// The toy entries as one worker script: `t2-panic` leaves a panic
    /// file and exits 101 (what a panicking worker does), `t3-slow`
    /// sleeps 300 ms first, and every other entry writes a one-row
    /// table naming its slug.
    const TOY_WORKER: &str = r#"
        case "$1" in
          t2-panic) printf 't2 exploded deterministically' > "$3/$1.panic.txt"; exit 101 ;;
          t3-slow) sleep 0.3 ;;
        esac
        printf '{"table":{"id":"T","title":"toy","headers":["slug"],"rows":[["%s"]]}}' "$1" > "$3/$1.json"
    "#;

    /// Default options whose workers run `script` under a private
    /// handoff root named after `tag`.
    fn sh_opts(script: &str, tag: &str) -> SuiteOptions {
        let root = std::env::temp_dir().join(format!("autosec-suite-iso-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        SuiteOptions {
            keep_going: false,
            deadline_override: None,
            skip: BTreeSet::new(),
            retries: 0,
            isolation: Isolation {
                spec: WorkerSpec {
                    exe: PathBuf::from("/bin/sh"),
                    base_args: vec!["-c".into(), script.into()],
                },
                budgets: ResourceBudgets::default(),
                handoff_root: root,
            },
        }
    }

    /// Runs `experiments` under `opts`, then removes the handoff root.
    fn run(experiments: &[Arc<Experiment>], ctx: &RunCtx, opts: &SuiteOptions) -> SuiteReport {
        let report = run_suite(experiments, ctx, opts, |_| {});
        let _ = std::fs::remove_dir_all(&opts.isolation.handoff_root);
        report
    }

    fn cell(record: &ExperimentRecord) -> &str {
        &record.table.as_ref().expect("ok record has a table").rows[0][0]
    }

    #[test]
    fn keep_going_quarantines_the_panicking_experiment() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            keep_going: true,
            ..sh_opts(TOY_WORKER, "keep-going")
        };
        let mut seen = Vec::new();
        let report = run_suite(&reg.all(), &RunCtx::new(42, 1), &opts, |r| {
            seen.push(r.slug.clone());
        });
        let _ = std::fs::remove_dir_all(&opts.isolation.handoff_root);
        assert_eq!(seen, vec!["t1-ok", "t2-panic", "t3-slow", "t4-ok"]);
        assert!(!report.aborted);
        assert_eq!(report.failures().len(), 1);
        let failure = &report.records[1];
        assert_eq!(
            failure.status,
            RunStatus::Failed {
                message: "t2 exploded deterministically".into()
            }
        );
        assert!(failure.table.is_none());
        // The healthy experiments still produced their tables.
        assert_eq!(cell(&report.records[0]), "t1-ok");
        assert_eq!(cell(&report.records[3]), "t4-ok");
    }

    #[test]
    fn without_keep_going_the_suite_stops_at_the_failure() {
        let reg = toy_registry();
        let opts = sh_opts(TOY_WORKER, "abort");
        let report = run(&reg.all(), &RunCtx::new(42, 1), &opts);
        assert!(report.aborted);
        assert_eq!(report.records.len(), 2, "t3/t4 never attempted");
        assert!(report.records[1].status.is_failure());
    }

    #[test]
    fn generous_deadline_lets_slow_experiments_finish() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            deadline_override: Some(Duration::from_secs(30)),
            ..sh_opts(TOY_WORKER, "generous")
        };
        let report = run(&reg.select("t3-slow"), &RunCtx::new(42, 1), &opts);
        assert_eq!(report.records[0].status, RunStatus::Ok);
        assert!(report.records[0].duration >= Duration::from_millis(300));
    }

    #[test]
    fn skip_set_produces_skipped_records_without_running() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            // Skipping the panicking experiment means nothing fails.
            skip: ["t2-panic".to_owned(), "t1-ok".to_owned()].into(),
            ..sh_opts(TOY_WORKER, "skip")
        };
        let report = run(&reg.all(), &RunCtx::new(42, 1), &opts);
        assert!(!report.aborted && report.failures().is_empty());
        assert_eq!(report.records[0].status, RunStatus::Skipped);
        assert_eq!(report.records[1].status, RunStatus::Skipped);
        assert_eq!(report.records[2].status, RunStatus::Ok);
        assert_eq!(report.records[0].duration, Duration::ZERO);
    }

    #[test]
    fn cost_derived_deadline_is_used_when_no_override() {
        let reg = toy_registry();
        let opts = sh_opts(TOY_WORKER, "deadline-for");
        let exp = &reg.select("t1-ok")[0];
        assert_eq!(opts.deadline_for(exp), Cost::Cheap.deadline());
        let fixed = SuiteOptions {
            deadline_override: Some(Duration::from_secs(1)),
            ..opts
        };
        assert_eq!(fixed.deadline_for(exp), Duration::from_secs(1));
    }

    #[test]
    fn default_cpu_budget_is_the_deadline_in_force_times_jobs() {
        // The worker reports the --cpu-limit-secs it was given ("$5").
        let script = r#"printf '{"table":{"id":"T1","title":"cpu","headers":["cpu"],"rows":[["%s"]]}}' "$5" > "$3/$1.json""#;
        let reg = toy_registry();
        let t1 = reg.select("t1-ok");
        let budget = |jobs, deadline_override, tag| {
            let opts = SuiteOptions {
                deadline_override,
                ..sh_opts(script, tag)
            };
            let report = run(&t1, &RunCtx::new(42, jobs), &opts);
            cell(&report.records[0]).to_owned()
        };
        assert_eq!(budget(1, None, "cpu-cost"), "30", "cheap deadline");
        let long = Some(Duration::from_secs(1200));
        assert_eq!(budget(1, long, "cpu-long"), "1200");
        assert_eq!(budget(3, long, "cpu-long-j3"), "3600");
        let short = Some(Duration::from_millis(200));
        assert_eq!(budget(1, short, "cpu-short"), "1", "never a zero budget");
        let endless = Some(Duration::from_secs(u64::MAX));
        assert_eq!(budget(2, endless, "cpu-endless"), u64::MAX.to_string());
    }

    #[test]
    fn retries_rerun_failures_until_green() {
        // Attempt counter in the handoff root, which outlives the
        // per-attempt handoff directory.
        let script = r#"
            n=$(cat "$3/../calls" 2>/dev/null || echo 0)
            echo $((n + 1)) > "$3/../calls"
            if [ "$n" -lt 2 ]; then printf 'flaky wobble' > "$3/$1.panic.txt"; exit 101; fi
            printf '{"table":{"id":"T1","title":"ok","headers":["a"],"rows":[["1"]]}}' > "$3/$1.json"
        "#;
        let reg = toy_registry();
        let opts = SuiteOptions {
            keep_going: true,
            retries: 3,
            ..sh_opts(script, "retry")
        };
        let report = run(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts);
        assert!(!report.aborted && report.failures().is_empty());
        assert_eq!(report.records[0].status, RunStatus::Ok);
        assert_eq!(report.records[0].attempts, 3, "two failures + one success");
    }

    #[test]
    fn exhausted_retries_keep_the_final_failure() {
        let reg = toy_registry();
        let opts = SuiteOptions {
            keep_going: true,
            retries: 1,
            ..sh_opts(TOY_WORKER, "exhausted")
        };
        let report = run(&reg.select("t2-panic"), &RunCtx::new(42, 1), &opts);
        assert_eq!(report.records[0].attempts, 2);
        assert!(report.records[0].status.is_failure());
    }

    #[test]
    fn isolated_worker_artifact_becomes_the_record_table() {
        let script = r#"printf '{"table":{"id":"T1","title":"from child","headers":["a"],"rows":[["7"]]}}' > "$3/$1.json""#;
        let opts = sh_opts(script, "ok");
        let reg = toy_registry();
        let report = run(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts);
        assert!(!report.aborted && report.failures().is_empty());
        let table = report.records[0].table.as_ref().expect("parsed back");
        assert_eq!(table.id, "T1");
        assert_eq!(table.title, "from child");
        assert_eq!(table.rows, vec![vec!["7".to_owned()]]);
    }

    #[test]
    fn isolated_deadline_kills_the_child_for_real() {
        let opts = SuiteOptions {
            keep_going: true,
            deadline_override: Some(Duration::from_millis(200)),
            ..sh_opts("sleep 30", "deadline")
        };
        let reg = toy_registry();
        let start = Instant::now();
        let report = run(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the 30 s sleeper must not hold the suite"
        );
        assert_eq!(
            report.records[0].status,
            RunStatus::TimedOut {
                deadline: Duration::from_millis(200)
            }
        );
        assert!(report.records[0].duration >= Duration::from_millis(200));
    }

    #[test]
    fn isolated_crash_reports_the_exit_code() {
        let opts = SuiteOptions {
            keep_going: true,
            ..sh_opts("exit 7", "crash")
        };
        let reg = toy_registry();
        let report = run(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts);
        assert_eq!(
            report.records[0].status,
            RunStatus::Failed {
                message: "worker exited with code 7".into()
            }
        );
    }

    #[test]
    fn isolated_clean_exit_without_artifact_is_a_failure() {
        let opts = SuiteOptions {
            keep_going: true,
            ..sh_opts("exit 0", "no-artifact")
        };
        let reg = toy_registry();
        let report = run(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts);
        match &report.records[0].status {
            RunStatus::Failed { message } => {
                assert!(message.contains("no readable artifact"), "{message}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn spawn_failure_is_contained_not_fatal() {
        let mut opts = SuiteOptions {
            keep_going: true,
            ..sh_opts("", "spawnfail")
        };
        opts.isolation.spec.exe = PathBuf::from("/nonexistent/experiments-binary");
        let reg = toy_registry();
        let report = run(&reg.select("t1-ok"), &RunCtx::new(42, 1), &opts);
        match &report.records[0].status {
            RunStatus::Failed { message } => {
                assert!(message.contains("worker spawn failed"), "{message}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }
}
