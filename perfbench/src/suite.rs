//! The `paper-suite` workload: every registry entry behind the paper's
//! figures and tables, run through `registry()` + `Experiment::run`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use autosec_runner::{panic_message, Experiment, RunCtx, Table};

use crate::trace::Tracer;

/// Registry groups behind the paper's figures and tables (E1–E13) and
/// its ablations (A1–A5): 18 groups, 26 experiments.
const PAPER_GROUPS: [&str; 18] = [
    "E1", "E2", "E2b", "E3", "E4", "E5-E7", "E8", "E8b", "E9", "E10", "E11", "E12", "E13", "A1",
    "A2", "A3", "A4", "A5",
];

/// Registry tags that name the paper layer an experiment exercises,
/// in lookup order (an ablation's `ablation` tag is not a layer).
pub const LAYER_TAGS: [&str; 10] = [
    "framework",
    "scenarios",
    "phy",
    "ivn",
    "protocols",
    "sdv",
    "data",
    "sos",
    "collab",
    "ids",
];

/// The experiment's layer tag.
///
/// # Panics
///
/// Panics if the experiment carries none of [`LAYER_TAGS`].
pub fn layer_of(exp: &Experiment) -> &'static str {
    LAYER_TAGS
        .iter()
        .find(|t| exp.tags.contains(t))
        .unwrap_or_else(|| panic!("{} carries no layer tag", exp.slug))
}

/// The suite's set-up: build the registry, select the experiments,
/// make the run context.
fn setup(seed: u64, jobs: usize, trials_scale: f64) -> (Vec<Arc<Experiment>>, RunCtx) {
    let exps = autosec_bench::registry().select_many(&PAPER_GROUPS);
    (
        exps,
        RunCtx::new(seed, jobs).with_trials_scale(trials_scale),
    )
}

/// One timed repetition of the suite.
pub struct SuiteRep {
    /// Seconds in [`setup`].
    pub setup_s: f64,
    /// Seconds in each `Experiment::run`, in registry order.
    pub exp_s: Vec<f64>,
    /// Rendered table per experiment, or its panic message.
    pub outputs: Vec<Result<String, String>>,
}

impl SuiteRep {
    /// Seconds across all experiments.
    pub fn run_s(&self) -> f64 {
        self.exp_s.iter().sum()
    }

    /// Set-up plus every experiment.
    pub fn e2e_s(&self) -> f64 {
        self.setup_s + self.run_s()
    }
}

fn execute(exp: &Experiment, ctx: &RunCtx) -> std::thread::Result<Table> {
    catch_unwind(AssertUnwindSafe(|| exp.run(ctx)))
}

/// The rendered table, or why the experiment failed.
fn judge(exp: &Experiment, out: std::thread::Result<Table>) -> Result<String, String> {
    match out {
        Ok(table) if table.rows.is_empty() => Err(format!("{} returned an empty table", exp.slug)),
        Ok(table) => Ok(table.to_string()),
        Err(payload) => Err(format!(
            "{} panicked: {}",
            exp.slug,
            panic_message(payload.as_ref())
        )),
    }
}

/// Runs the suite untraced.
pub fn run_plain(seed: u64, jobs: usize, trials_scale: f64) -> SuiteRep {
    let t = Instant::now();
    let (exps, ctx) = setup(seed, jobs, trials_scale);
    let setup_s = t.elapsed().as_secs_f64();
    let (exp_s, outputs) = exps
        .iter()
        .map(|e| {
            let t = Instant::now();
            let out = execute(e, &ctx);
            (t.elapsed().as_secs_f64(), judge(e, out))
        })
        .unzip();
    SuiteRep {
        setup_s,
        exp_s,
        outputs,
    }
}

/// Runs the suite with one span for the set-up, one per layer group
/// and one per experiment (`bench.<slug>`) inside its group. Returns
/// the repetition and the experiments' slugs.
pub fn run_traced(
    seed: u64,
    jobs: usize,
    trials_scale: f64,
    tracer: &mut Tracer,
) -> (SuiteRep, Vec<&'static str>) {
    let id = tracer.enter("suite.setup", "runner");
    let (exps, ctx) = setup(seed, jobs, trials_scale);
    let setup_s = tracer.exit(id);
    let mut exp_s = Vec::with_capacity(exps.len());
    let mut outputs = Vec::with_capacity(exps.len());
    let mut group: Option<(&str, usize)> = None;
    for exp in &exps {
        let layer = layer_of(exp);
        if group.is_some_and(|(l, _)| l != layer) {
            tracer.exit(group.take().expect("checked above").1);
        }
        if group.is_none() {
            group = Some((layer, tracer.enter(format!("layer.{layer}"), "harness")));
        }
        let id = tracer.enter(format!("bench.{}", exp.slug), layer);
        let out = execute(exp, &ctx);
        exp_s.push(tracer.exit(id));
        outputs.push(judge(exp, out));
    }
    if let Some((_, id)) = group {
        tracer.exit(id);
    }
    let slugs = exps.iter().map(|e| e.slug).collect();
    (
        SuiteRep {
            setup_s,
            exp_s,
            outputs,
        },
        slugs,
    )
}

/// Experiments failed in `rep`: panicked, returned an empty table, or
/// rendered text different from the reference repetition's.
pub fn failed_experiments(rep: &SuiteRep, reference: &[Result<String, String>]) -> Vec<String> {
    rep.outputs
        .iter()
        .zip(reference)
        .enumerate()
        .filter_map(|(i, (out, want))| match (out, want) {
            (Err(e), _) => Some(e.clone()),
            (Ok(text), Ok(first)) if text == first => None,
            (Ok(_), _) => Some(format!(
                "experiment #{i} rendered different text than its first run"
            )),
        })
        .collect()
}
