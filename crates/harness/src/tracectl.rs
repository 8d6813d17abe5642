//! Global trace-capture control for the experiment harness.
//!
//! The `experiments` binary turns tracing on for every run with
//! `--trace [DIR]`; the runner then records each simulation into a
//! [`gpu_sim::BufferSink`], writes a Perfetto/Chrome JSON file into `DIR`, and
//! machine-checks the scheduler invariants with the
//! [`metrics::TraceValidator`]. The Perfetto file is written *before*
//! validation so that a CI failure still leaves the artifact behind for
//! inspection in <https://ui.perfetto.dev>.
//!
//! State is process-global (experiments fan out over worker threads); the
//! experiment label is thread-local so concurrent experiments name their
//! trace files correctly, and [`crate::par`] copies the caller's label onto
//! each grid worker. File numbers come from one process-wide counter, so
//! they stay unique; when a grid runs in parallel they follow completion
//! order rather than grid order.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpu_sim::TraceEvent;
use metrics::{TraceValidator, ValidatorConfig};
use sim_core::SimDuration;

static TRACE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LABEL: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Enables global trace capture, writing Perfetto JSON files into `dir`
/// (created if missing).
pub fn enable(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if let Ok(mut d) = TRACE_DIR.lock() {
        *d = Some(dir.to_path_buf());
    }
    Ok(())
}

/// Whether global trace capture is on.
pub fn enabled() -> bool {
    TRACE_DIR.lock().map(|d| d.is_some()).unwrap_or(false)
}

/// Sets this thread's experiment label, used in trace file names.
pub fn set_label(label: &str) {
    let clean: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    LABEL.with(|l| *l.borrow_mut() = clean);
}

/// This thread's experiment label (empty when none was set).
pub(crate) fn label() -> String {
    LABEL.with(|l| l.borrow().clone())
}

/// Writes `events` as Perfetto JSON under the trace dir; returns the path
/// (None when capture is off or the write failed).
pub fn write_perfetto(name: &str, events: &[TraceEvent]) -> Option<PathBuf> {
    let dir = TRACE_DIR.lock().ok()?.clone()?;
    let n = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let label = label();
    let stem = if label.is_empty() {
        format!("{name}-{n:03}")
    } else {
        format!("{label}-{name}-{n:03}")
    };
    let path = dir.join(format!("{stem}.json"));
    let json = crate::perfetto::export_chrome_trace(events);
    match std::fs::write(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write trace {}: {e}", path.display());
            None
        }
    }
}

/// Exports `events` to Perfetto JSON (when capture is on) and replays them
/// through the [`TraceValidator`], panicking on any invariant violation.
///
/// `iso_targets` enables the relative-progress fairness check; pass `None`
/// for baselines and fault drills (structural invariants only).
pub fn export_and_validate(
    name: &str,
    num_sms: u32,
    iso_targets: Option<&[SimDuration]>,
    events: &[TraceEvent],
) {
    let path = write_perfetto(name, events);
    let config = ValidatorConfig {
        num_sms,
        iso_targets: iso_targets.map(|t| t.iter().map(|d| d.as_nanos() as f64).collect()),
        fairness_spread: None,
        max_recovery_ns: None,
    };
    let report = TraceValidator::new(config).validate(events);
    if !report.is_clean() {
        if let Some(p) = &path {
            eprintln!("trace with violations saved to {}", p.display());
        }
        report.assert_clean();
    }
}
