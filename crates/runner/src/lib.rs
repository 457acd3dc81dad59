//! # autosec-runner
//!
//! The experiment-execution engine: a registry of experiments with
//! metadata, deterministic parallel Monte-Carlo helpers, a suite
//! runner that supervises each experiment in a child process, and
//! JSON run artifacts.
//!
//! ## Determinism contract
//!
//! Every parallel helper in this crate maps trial `i` to the RNG
//! stream `base.fork_idx(i)` and merges results **in trial order**, so
//! the output of a run is a pure function of `(seed, trial count)` —
//! bit-identical for any `--jobs N`, including `N = 1`. Workers claim
//! trial indices from a shared counter, which decides only *which
//! thread* executes a trial, never *what* the trial computes or where
//! its result lands.
//!
//! ## Layout
//!
//! - [`Table`] — the rendered experiment table (moved here from
//!   `autosec-bench` so the engine can serialize results without
//!   depending on the experiment implementations).
//! - [`Experiment`] / [`Registry`] — experiments as data: id, slug,
//!   title, tags, cost class, and a closure producing a [`Table`].
//! - [`RunCtx`] — seed + job count handed to every experiment.
//! - [`par_trials`] / [`try_par_trials`] — the two deterministic
//!   parallel Monte-Carlo entry points: the first propagates a
//!   panicking trial, the second quarantines it as a [`TrialOutcome`]
//!   instead of unwinding.
//! - [`suite`] — the fault-tolerant suite runner: every entry in a
//!   supervised child process, cost-derived deadlines, keep-going
//!   degradation, seeded retry backoff, and resume skip sets.
//! - [`proc`] — process-level supervision: worker children that
//!   deadlines SIGKILL for real, with peak-RSS and CPU-seconds budgets
//!   enforced by `/proc` polling plus rlimit backstops.
//! - [`artifact`] — run manifest + per-experiment JSON artifacts, with
//!   per-entry statuses and [`ResumeState`] for `--resume`.
//!
//! ## Fault-tolerance contract
//!
//! Failure handling is as deterministic as success: a panicking trial
//! is quarantined into the same slot with the same message for every
//! `--jobs` value, a panicking experiment never perturbs its
//! neighbors' RNG streams, a resumed run reuses artifacts only when
//! `(seed, trials-scale, filter set)` all match, and the retry
//! backoff schedule is a pure function of `(seed, slug, attempt)` —
//! see [`proc::retry_delay`].

pub mod artifact;
pub mod ctx;
pub mod par;
pub mod proc;
pub mod registry;
pub mod suite;
pub mod table;

pub use artifact::DEFAULT_ARTIFACT_DIR;
pub use artifact::{
    normalize_filters, strip_volatile, ArtifactStore, ExperimentRecord, ResumeState, RunManifest,
    RunStatus,
};
pub use ctx::{RunCtx, DEFAULT_SEED};
pub use par::{panic_message, par_trials, silence_panics, try_par_trials, TrialOutcome};
pub use proc::{
    apply_worker_rlimits, retry_delay, worker_failure_path, ResourceBudgets, WorkerSpec,
};
pub use registry::{Cost, Experiment, Registry};
pub use suite::{run_suite, Isolation, SuiteOptions, SuiteReport};
pub use table::Table;
