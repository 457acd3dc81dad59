//! End-to-end and per-layer benchmark of the autosec workbench.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-default --seed 42 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! `--trace 0` repeats the workload through its stable entry points
//! (`FleetEngine::new` + `run`, or `registry()` + `Experiment::run`)
//! for `--seconds` and reports the end-to-end medians. `--trace 1`
//! repeats a separate traced run: the workload once untraced and once
//! with spans around each public call it decomposes into, a traced run
//! of the other workload kind (so every per-layer row exists on every
//! workload), and the kernel rows. Spans are written to
//! `.perfbench-out/` at the end. Either way the last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod fleet;
mod kernels;
mod stats;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use autosec_fleet::{FleetConfig, FleetReport};
use serde_json::{json, Value};

use crate::kernels::KernelSize;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <fleet-default|fleet-epidemic|paper-suite> \
[--seed N] [--seconds N] [--trace 0|1]
       perfbench --self-check";

/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".perfbench-out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The CLI's default fleet: construction-heavy, read-mostly loop.
    FleetDefault,
    /// Undefended fleet under a high attack rate: write-heavy loop.
    FleetEpidemic,
    /// The paper's figures and tables through the experiment registry.
    PaperSuite,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetDefault,
        Workload::FleetEpidemic,
        Workload::PaperSuite,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetDefault => "fleet-default",
            Workload::FleetEpidemic => "fleet-epidemic",
            Workload::PaperSuite => "paper-suite",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: the benchmark's, or the self-check's tiny ones.
#[derive(Debug, Clone, Copy)]
struct Scale {
    vehicles: usize,
    default_ticks: u64,
    epidemic_ticks: u64,
    /// Outcome-table and graph calibration trials (`None`: the fleet
    /// default).
    calibration_trials: Option<usize>,
    /// Monte-Carlo multiplier for the suite (1.0: published counts).
    trials_scale: f64,
    kernels: KernelSize,
    /// Repetitions run even when `--seconds` has already elapsed.
    min_reps: usize,
}

impl Scale {
    const FULL: Scale = Scale {
        vehicles: fleet::VEHICLES,
        default_ticks: fleet::DEFAULT_TICKS,
        epidemic_ticks: fleet::EPIDEMIC_TICKS,
        calibration_trials: None,
        trials_scale: 1.0,
        kernels: KernelSize::FULL,
        min_reps: 3,
    };
    const TINY: Scale = Scale {
        vehicles: 2_000,
        default_ticks: 20,
        epidemic_ticks: 20,
        calibration_trials: Some(2),
        trials_scale: 0.02,
        kernels: KernelSize::TINY,
        min_reps: 2,
    };

    fn fleet_config(&self, w: Workload, seed: u64, jobs: usize) -> FleetConfig {
        let mut cfg = match w {
            Workload::FleetEpidemic => {
                fleet::epidemic_config(self.vehicles, self.epidemic_ticks, seed, jobs)
            }
            _ => fleet::default_config(self.vehicles, self.default_ticks, seed, jobs),
        };
        if let Some(t) = self.calibration_trials {
            cfg.calibration_trials = t;
        }
        cfg
    }
}

/// One reported metric.
struct Metric {
    name: String,
    /// Median over the repetitions' values.
    value: f64,
    unit: &'static str,
    samples: usize,
    /// First and third quartile of the samples.
    quartiles: (f64, f64),
}

/// What one invocation measured.
#[derive(Default)]
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Reports the median of `xs`, each value measured over
    /// `samples_each` samples.
    fn push(
        &mut self,
        name: impl Into<String>,
        xs: &[f64],
        unit: &'static str,
        samples_each: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value: median(xs),
            unit,
            samples: xs.len() * samples_each,
            quartiles: (quantile(xs, 0.25), quantile(xs, 0.75)),
        });
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn result_json(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), json!({ "value": m.value, "unit": m.unit })))
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}

/// Counts one fleet report: its vehicles are attempted, and all of
/// them fail when a check fails (a `Lost` vehicle fails the census
/// check) or its digest differs from `want`.
fn count_fleet(out: &mut Outcome, report: &FleetReport, digest: &str, want: &str) {
    let vehicles = report.config.vehicles as u64;
    out.attempted += vehicles;
    let checks = fleet::check_report(report).and_then(|()| {
        if digest == want {
            Ok(())
        } else {
            Err(format!("canonical digest {digest} differs from {want}"))
        }
    });
    if let Err(e) = checks {
        out.failed += vehicles;
        out.errors.push(e);
    }
}

/// Counts the shard-invariance check: a small fleet at one shard and
/// at `max(nproc, 2)` shards must give the same canonical digest.
fn count_shard_invariance(out: &mut Outcome, cfg: &FleetConfig, jobs: usize) {
    let [one, many] = fleet::shard_pair(cfg, jobs.max(2));
    let want = fleet::digest(&one);
    count_fleet(out, &one, &want, &want);
    count_fleet(out, &many, &fleet::digest(&many), &want);
}

/// Counts one suite repetition against the reference outputs.
fn count_suite(out: &mut Outcome, rep: &suite::SuiteRep, reference: &[Result<String, String>]) {
    let failed = suite::failed_experiments(rep, reference);
    out.attempted += rep.outputs.len() as u64;
    out.failed += failed.len() as u64;
    out.errors.extend(failed);
}

/// Runs `body` at least `min_reps` times and until
/// `seconds` have elapsed.
fn repeat(seconds: f64, min_reps: usize, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() < seconds {
        body(reps);
        reps += 1;
    }
}

/// The end-to-end run: the workload through its stable entry points.
fn run_untraced(w: Workload, seed: u64, seconds: f64, jobs: usize, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let (mut e2e, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    // Peak memory of one execution, as a user runs it: later
    // repetitions add allocator fragmentation, not workload memory.
    let mut peak_rss = 0.0;
    match w {
        Workload::FleetDefault | Workload::FleetEpidemic => {
            let cfg = scale.fleet_config(w, seed, jobs);
            let mut first: Option<String> = None;
            repeat(seconds, scale.min_reps, |i| {
                let rep = fleet::run_plain(&cfg);
                if i == 0 {
                    peak_rss = stats::peak_rss_mb();
                }
                let d = fleet::digest(&rep.report);
                let want = first.get_or_insert_with(|| d.clone()).clone();
                count_fleet(&mut out, &rep.report, &d, &want);
                e2e.push(rep.e2e_s());
                setup.push(rep.setup_s);
                rate.push(rep.report.vehicle_ticks() as f64 / rep.run_s);
            });
        }
        Workload::PaperSuite => {
            let mut reference: Option<Vec<Result<String, String>>> = None;
            repeat(seconds, scale.min_reps, |i| {
                let rep = suite::run_plain(seed, jobs, scale.trials_scale);
                if i == 0 {
                    peak_rss = stats::peak_rss_mb();
                }
                let want = reference.get_or_insert_with(|| rep.outputs.clone());
                count_suite(&mut out, &rep, want);
                e2e.push(rep.e2e_s());
                setup.push(rep.setup_s);
                rate.push(rep.outputs.len() as f64 / rep.run_s());
            });
        }
    }
    out.push("e2e_s", &e2e, "s", 1);
    out.push("setup_s", &setup, "s", 1);
    out.push("run_vtps", &rate, "1/s", 1);
    out.push("peak_rss_mb", &[peak_rss], "MB", 1);
    out
}

/// Per-layer values of one traced repetition: value, unit, and the
/// samples behind the value.
type LayerValues = BTreeMap<String, (f64, &'static str, usize)>;

/// The traced fleet run and its rows. Returns the report, the traced
/// `e2e_s` and the seconds its construction spans add up to.
fn traced_fleet(
    cfg: &FleetConfig,
    tracer: &mut Tracer,
    vals: &mut LayerValues,
) -> (FleetReport, f64, f64) {
    let (rep, [graph_s, table_s, parts_s]) = fleet::run_traced(cfg, tracer);
    vals.insert("adversary.calibrated_graph_s".into(), (graph_s, "s", 1));
    vals.insert("core.table_calibrate_s".into(), (table_s, "s", 1));
    vals.insert("fleet.with_parts_s".into(), (parts_s, "s", 1));
    vals.insert("fleet.run_s".into(), (rep.run_s, "s", 1));
    let t = rep.report.totals();
    let ratio = t.attacks_succeeded as f64 / t.attacks_attempted.max(1) as f64;
    for (name, v, unit) in [
        ("fleet.attacks", t.attacks_attempted as f64, "count"),
        ("fleet.attack_success_ratio", ratio, "ratio"),
        ("fleet.infections", t.infections as f64, "count"),
        ("fleet.alerts", t.alerts as f64, "count"),
        ("fleet.recoveries", t.recoveries as f64, "count"),
        ("fleet.fault_injections", t.fault_injections as f64, "count"),
    ] {
        vals.insert(name.into(), (v, unit, 1));
    }
    let e2e = rep.e2e_s();
    (rep.report, e2e, graph_s + table_s + parts_s)
}

/// The traced suite run and its rows. Returns the repetition.
fn traced_suite(
    seed: u64,
    jobs: usize,
    scale: Scale,
    tracer: &mut Tracer,
    vals: &mut LayerValues,
) -> suite::SuiteRep {
    let (rep, slugs) = suite::run_traced(seed, jobs, scale.trials_scale, tracer);
    for (slug, secs) in slugs.iter().zip(&rep.exp_s) {
        vals.insert(format!("bench.{slug}_s"), (*secs, "s", 1));
    }
    rep
}

/// Layers whose self time is reported.
const SELF_LAYERS: [&str; 5] = ["adversary", "core", "fleet", "runner", "harness"];

/// The traced run: per-layer rows for every workload.
fn run_traced(w: Workload, seed: u64, seconds: f64, jobs: usize, scale: Scale) -> (Outcome, Value) {
    let mut out = Outcome::default();
    let mut per_rep: Vec<LayerValues> = Vec::new();
    let mut traces: Vec<Value> = Vec::new();
    // The other workload kind runs at `fleet-default`'s configuration
    // on the suite workload, so its fleet rows exist.
    let fleet_cfg = scale.fleet_config(w, seed, jobs);
    let mut first_digest: Option<String> = None;
    let mut reference: Option<Vec<Result<String, String>>> = None;
    repeat(seconds, 1, |i| {
        let mut vals = LayerValues::new();
        let mut tracer = Tracer::default();
        let (plain_setup, plain_e2e, traced_e2e, construction, report);
        match w {
            Workload::FleetDefault | Workload::FleetEpidemic => {
                let plain = fleet::run_plain(&fleet_cfg);
                let d_plain = fleet::digest(&plain.report);
                let want = first_digest.get_or_insert_with(|| d_plain.clone()).clone();
                count_fleet(&mut out, &plain.report, &d_plain, &want);
                let root = tracer.enter(format!("rep{i}.{}", w.name()), "harness");
                let (r, e, parts) = traced_fleet(&fleet_cfg, &mut tracer, &mut vals);
                let d = fleet::digest(&r);
                count_fleet(&mut out, &r, &d, &want);
                tracer.exit(root);
                (plain_setup, plain_e2e, traced_e2e, construction) =
                    (plain.setup_s, plain.e2e_s(), e, parts);
                report = r;
                let root = tracer.enter(format!("rep{i}.reference.paper-suite"), "harness");
                let rep = traced_suite(seed, jobs, scale, &mut tracer, &mut vals);
                let want = reference.get_or_insert_with(|| rep.outputs.clone());
                count_suite(&mut out, &rep, want);
                tracer.exit(root);
            }
            Workload::PaperSuite => {
                let plain = suite::run_plain(seed, jobs, scale.trials_scale);
                let want = reference
                    .get_or_insert_with(|| plain.outputs.clone())
                    .clone();
                count_suite(&mut out, &plain, &want);
                let root = tracer.enter(format!("rep{i}.{}", w.name()), "harness");
                let rep = traced_suite(seed, jobs, scale, &mut tracer, &mut vals);
                count_suite(&mut out, &rep, &want);
                tracer.exit(root);
                (plain_setup, plain_e2e, traced_e2e, construction) =
                    (plain.setup_s, plain.e2e_s(), rep.e2e_s(), rep.setup_s);
                let root = tracer.enter(format!("rep{i}.reference.fleet-default"), "harness");
                let (r, _, _) = traced_fleet(&fleet_cfg, &mut tracer, &mut vals);
                let d = fleet::digest(&r);
                let want = first_digest.get_or_insert_with(|| d.clone()).clone();
                count_fleet(&mut out, &r, &d, &want);
                tracer.exit(root);
                report = r;
            }
        }
        vals.insert(
            "trace.overhead_pct".into(),
            ((traced_e2e / plain_e2e - 1.0) * 100.0, "%", 1),
        );
        vals.insert(
            "trace.setup_coverage_pct".into(),
            (construction / plain_setup * 100.0, "%", 1),
        );
        let by_layer = tracer.self_by_layer();
        for layer in SELF_LAYERS.iter().chain(&suite::LAYER_TAGS) {
            let secs = by_layer.get(layer).copied().unwrap_or(0.0);
            vals.insert(format!("self.{layer}_s"), (secs, "s", 1));
        }
        for k in kernels::measure(&fleet_cfg, &report, scale.kernels) {
            vals.insert(k.name, (k.value, k.unit, k.samples));
        }
        traces.push(json!({ "rep": i as u64, "trace": tracer.to_json() }));
        per_rep.push(vals);
    });
    for (name, &(_, unit, each)) in &per_rep[0] {
        let xs: Vec<f64> = per_rep.iter().map(|v| v[name].0).collect();
        out.push(name.clone(), &xs, unit, each);
    }
    (out, json!(traces))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = autosec_runner::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in one mode; the traced run also returns spans.
fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> (Outcome, Option<Value>) {
    let jobs = nproc();
    let (mut out, spans) = if trace {
        let (out, spans) = run_traced(w, seed, seconds, jobs, scale);
        (out, Some(spans))
    } else {
        (run_untraced(w, seed, seconds, jobs, scale), None)
    };
    // Once per invocation that runs a fleet, after the timed part.
    if trace || w != Workload::PaperSuite {
        count_shard_invariance(&mut out, &scale.fleet_config(w, seed, jobs), jobs);
    }
    (out, spans)
}

fn print_outcome(w: Workload, seed: u64, trace: bool, out: &Outcome) {
    println!(
        "perfbench {} seed {seed} trace {} nproc {}",
        w.name(),
        u8::from(trace),
        nproc()
    );
    for m in &out.metrics {
        let (q1, q3) = m.quartiles;
        println!(
            "  {:<58} {:>16.6} {:<6} n={} q1={q1:.6} q3={q3:.6}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<58} {frac:>16.6} {:<6} ({}/{})",
        "fail_frac", "ratio", out.failed, out.attempted
    );
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", out.result_json());
}

fn write_trace(w: Workload, seed: u64, reps: Value) {
    let path = std::path::Path::new(TRACE_DIR).join(format!("trace-{}-seed{seed}.json", w.name()));
    let doc = json!({ "workload": w.name(), "seed": seed, "nproc": nproc() as u64, "reps": reps });
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, doc.to_string()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// The metric names `BENCHMARK.json` declares for one mode.
fn declared_metrics(trace: bool) -> Vec<String> {
    let doc =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric has a name")
                .to_owned()
        })
        .collect()
}

/// Every workload in both modes at a tiny scale: all code paths,
/// checks and tracing included, and the metric names against
/// `BENCHMARK.json`.
fn self_check() -> ExitCode {
    let mut problems = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let (out, spans) = run(w, autosec_runner::DEFAULT_SEED, 0.0, trace, Scale::TINY);
            print_outcome(w, autosec_runner::DEFAULT_SEED, trace, &out);
            let tag = format!("{} trace {}", w.name(), u8::from(trace));
            if !out.correct() {
                problems.push(format!("{tag}: outputs failed their checks"));
            }
            let mut got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            let mut want = declared_metrics(trace);
            got.sort();
            want.sort();
            if got != want {
                problems.push(format!(
                    "{tag}: metrics {got:?} differ from BENCHMARK.json {want:?}"
                ));
            }
            if out.metrics.iter().any(|m| !m.value.is_finite()) {
                problems.push(format!("{tag}: a metric is not finite"));
            }
            if !trace && out.metrics.iter().any(|m| m.value <= 0.0) {
                problems.push(format!("{tag}: an end-to-end metric is not positive"));
            }
            if spans
                .as_ref()
                .is_some_and(|s| s.as_array().is_none_or(Vec::is_empty))
            {
                problems.push(format!("{tag}: no spans recorded"));
            }
        }
    }
    if problems.is_empty() {
        println!("perfbench self-check ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench self-check: {p}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--self-check") {
        return self_check();
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (out, spans) = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::FULL,
    );
    if let Some(reps) = spans {
        write_trace(args.workload, args.seed, reps);
    }
    print_outcome(args.workload, args.seed, args.trace, &out);
    ExitCode::SUCCESS
}
