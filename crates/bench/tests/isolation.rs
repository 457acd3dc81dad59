//! End-to-end process isolation of the `experiments` binary, which runs
//! every suite entry in a supervised worker child: a deadline SIGKILLs
//! the child for real (with bounded suite wall time), resource budgets
//! land `oom_killed` / `cpu_exceeded` manifest statuses, healthy
//! artifacts are byte-identical to in-process `Experiment::run`
//! records, `--retries` drives a flaky probe back to green, and a
//! suite killed mid-child leaves a parseable incremental manifest that
//! `--resume` finishes.
//!
//! The workload is the hidden `x0-chaos` probe (registered only when
//! `AUTOSEC_CHAOS` is set — env vars are passed per child process, so
//! these tests never mutate their own environment).

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use autosec_bench::{registry, ArtifactStore, ExperimentRecord, RunCtx, RunManifest};
use serde_json::Value;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autosec-isolation-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the chaos probe alone against `out`.
fn run_chaos(mode: &str, out: &Path, extra: &[&str]) -> Output {
    Command::new(bin())
        .env("AUTOSEC_CHAOS", mode)
        .args(["--filter", "x0-chaos", "--json", "--keep-going", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("binary runs")
}

fn manifest(out: &Path) -> Value {
    let text = std::fs::read_to_string(out.join("manifest.json")).expect("manifest exists");
    serde_json::from_str(&text).expect("manifest parses")
}

fn entry<'a>(m: &'a Value, slug: &str) -> &'a Value {
    m["experiments"]
        .as_array()
        .expect("experiments array")
        .iter()
        .find(|e| e["slug"].as_str() == Some(slug))
        .unwrap_or_else(|| panic!("no manifest entry for {slug}"))
}

#[test]
fn isolated_deadline_kills_the_sleeper_with_bounded_wall_time() {
    let out = tmp("deadline");
    let start = Instant::now();
    // A 30 s sleeper under a 1 s deadline dies by SIGKILL.
    let slow = run_chaos("sleep:30000", &out, &["--deadline-secs", "1"]);
    let wall = start.elapsed();
    assert_eq!(slow.status.code(), Some(1));
    assert!(
        wall < Duration::from_secs(20),
        "deadline must bound the suite, took {wall:?}"
    );
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("timed_out"));
    assert_eq!(e["deadline_secs"].as_f64(), Some(1.0));
    // True elapsed time, not the 30 s the sleeper wanted.
    let secs = e["duration_ms"].as_f64().expect("duration recorded") / 1e3;
    assert!(secs < 15.0, "recorded {secs} s for a 1 s deadline");

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn rss_budget_lands_oom_killed() {
    let out = tmp("oom");
    // The leaker wants 300 MiB; the budget is 64.
    let killed = run_chaos("alloc:300", &out, &["--rss-limit-mb", "64"]);
    assert_eq!(killed.status.code(), Some(1));
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("oom_killed"));
    assert_eq!(e["rss_limit_mb"].as_u64(), Some(64));
    let peak = e["peak_rss_mb"].as_u64().expect("peak recorded");
    assert!(peak >= 64, "kill fired below the limit: peak {peak} MiB");
    assert!(!out.join("x0-chaos.json").exists());

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn cpu_budget_lands_cpu_exceeded() {
    let out = tmp("cpu");
    let start = Instant::now();
    // The spinner wants 30 s of CPU; the ceiling is 1 CPU-second, which
    // fires long before the cost-derived wall deadline.
    let killed = run_chaos("spin:30", &out, &["--cpu-limit-secs", "1"]);
    let wall = start.elapsed();
    assert_eq!(killed.status.code(), Some(1));
    assert!(
        wall < Duration::from_secs(20),
        "CPU ceiling must bound the suite, took {wall:?}"
    );
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("cpu_exceeded"));
    assert_eq!(e["cpu_limit_secs"].as_u64(), Some(1));
    assert!(e["cpu_secs"].as_f64().expect("usage recorded") >= 1.0);

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn suite_artifacts_match_in_process_records() {
    const SLUGS: [&str; 2] = ["e3-technologies", "e4-protocol-matrix"];
    let suite = tmp("identity-suite");
    let inprocess = tmp("identity-inprocess");
    let run = Command::new(bin())
        .args(["--filter", SLUGS[0], "--filter", SLUGS[1]])
        .args(["--json", "--canonical", "--out"])
        .arg(&suite)
        .output()
        .expect("binary runs");
    assert_eq!(run.status.code(), Some(0), "suite failed");
    // No handoff residue may survive a clean run.
    assert!(!suite.join(".workers").exists(), "handoff dir leaked");

    // The same experiments run in this process, written through the
    // same canonical store.
    let ctx = RunCtx::default();
    let store = ArtifactStore::create(&inprocess)
        .expect("create dir")
        .canonical();
    let records = registry()
        .select_many(&SLUGS)
        .iter()
        .map(|exp| ExperimentRecord::ok(exp.slug, exp.id, Duration::ZERO, exp.run(&ctx)))
        .collect();
    let manifest = RunManifest {
        seed: ctx.seed,
        jobs: ctx.jobs,
        trials_scale: ctx.trials_scale,
        filter: Some(SLUGS.join(",")),
        records,
    };
    for record in &manifest.records {
        store
            .write_record(record, ctx.seed, ctx.jobs, ctx.trials_scale)
            .expect("write record");
    }
    store.write_manifest(&manifest).expect("write manifest");

    // The whole canonical artifact tree must diff clean, manifest
    // included.
    let mut names: Vec<String> = std::fs::read_dir(&suite)
        .expect("dir")
        .map(|f| f.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "e3-technologies.json",
            "e4-protocol-matrix.json",
            "manifest.json"
        ],
        "unexpected artifact set"
    );
    for name in names {
        let a = std::fs::read(suite.join(&name)).expect("suite artifact");
        let b = std::fs::read(inprocess.join(&name)).expect("in-process artifact");
        assert_eq!(a, b, "{name} differs between the suite and Experiment::run");
    }

    let _ = std::fs::remove_dir_all(&suite);
    let _ = std::fs::remove_dir_all(&inprocess);
}

#[test]
fn retries_drive_a_flaky_probe_back_to_green() {
    let out = tmp("retry");
    let marker = std::env::temp_dir().join("autosec-isolation-retry.marker");
    let _ = std::fs::remove_file(&marker);
    // First attempt panics and drops the marker; the retry (a fresh
    // child) finds it and succeeds.
    let run = run_chaos(
        &format!("flaky:{}", marker.display()),
        &out,
        &["--retries", "2"],
    );
    assert_eq!(run.status.code(), Some(0), "retries must end green");
    let m = manifest(&out);
    let e = entry(&m, "x0-chaos");
    assert_eq!(e["status"].as_str(), Some("ok"));
    assert_eq!(e["attempts"].as_u64(), Some(2));
    assert!(out.join("x0-chaos.json").exists());

    let _ = std::fs::remove_file(&marker);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_suite_killed_mid_child_resumes_to_green() {
    let out = tmp("kill-resume");
    // Healthy members first (registration order), then the sleeper;
    // the incremental manifest is rewritten after every record.
    let filters = [
        "--filter",
        "e3-technologies",
        "--filter",
        "e4-protocol-matrix",
        "--filter",
        "x0-chaos",
    ];
    let mut suite = Command::new(bin())
        .env("AUTOSEC_CHAOS", "sleep:60000")
        .args(filters)
        .args(["--json", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("suite starts");

    // Wait until both healthy records are on disk — the sleeper child
    // is then the one in flight — and kill the supervising parent.
    // (Grepping the manifest text would trip on the `filter` field,
    // which also names every slug; parse the records instead.)
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "suite never reached the sleeper");
        let healthy_done = std::fs::read_to_string(out.join("manifest.json"))
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .is_some_and(|m: Value| {
                let has = |slug| {
                    m["experiments"]
                        .as_array()
                        .is_some_and(|a| a.iter().any(|e| e["slug"].as_str() == Some(slug)))
                };
                has("e3-technologies") && has("e4-protocol-matrix")
            });
        if healthy_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    suite.kill().expect("kill the parent");
    suite.wait().expect("reap the parent");

    // The interrupted manifest parses and already carries the healthy
    // entries.
    let m = manifest(&out);
    for slug in ["e3-technologies", "e4-protocol-matrix"] {
        assert_eq!(entry(&m, slug)["status"].as_str(), Some("ok"));
    }

    // Resume with the chaos healed: healthy artifacts are reused, only
    // the killed entry re-runs, the suite goes green.
    let resumed = Command::new(bin())
        .env("AUTOSEC_CHAOS", "ok")
        .args(filters)
        .args(["--json", "--resume", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert_eq!(resumed.status.code(), Some(0), "resume must finish green");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("skipped e3-technologies"),
        "healthy artifact not reused:\n{stderr}"
    );
    let m = manifest(&out);
    assert_eq!(m["failures"].as_u64(), Some(0));
    assert_eq!(entry(&m, "x0-chaos")["status"].as_str(), Some("ok"));
    assert!(out.join("x0-chaos.json").exists());

    let _ = std::fs::remove_dir_all(&out);
}
