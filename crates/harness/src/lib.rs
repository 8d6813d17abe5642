//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment module reproduces one artifact of the evaluation
//! section and returns [`metrics::Table`]s with the same rows/series the
//! paper reports. The `experiments` binary runs them by id (see
//! [`experiments::registry`]).

pub mod cache;
pub mod experiments;
pub mod gantt;
pub mod par;
pub mod perfetto;
pub mod runner;
pub mod squadlab;
pub mod tracectl;

pub use runner::{
    deployment, run_custom, run_system, run_system_traced, run_validated, RunResult, System,
};

/// Unwraps an `Option` that an experiment's construction guarantees is
/// `Some`, panicking with context otherwise (the crate denies bare
/// `unwrap`/`expect`; experiment code has no caller to propagate to).
pub(crate) fn require<T>(opt: Option<T>, what: &str) -> T {
    opt.unwrap_or_else(|| panic!("{what}"))
}

/// [`require`] for `Result`s whose error means a broken experiment setup.
pub(crate) fn require_ok<T, E: std::fmt::Debug>(res: Result<T, E>, what: &str) -> T {
    res.unwrap_or_else(|e| panic!("{what}: {e:?}"))
}
