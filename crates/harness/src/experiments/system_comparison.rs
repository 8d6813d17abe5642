//! §6.1 head-to-head system comparison on a bursty trace, now including
//! the Tally baseline (priority tenant unimpeded, best-effort kernels
//! throttled).
//!
//! Every run goes through [`run_validated`]: the full trace stream is
//! captured and machine-checked against the scheduler invariants, so each
//! reported row is backed by a validator-clean execution.

use bless::BlessParams;
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload, WorkloadSet};

use crate::cache;
use crate::par::par_map;
use crate::runner::{run_validated, System};

/// The comparison scenario: a VGG-11 + ResNet-50 pair replaying the
/// Azure-like sparse/bursty trace — the workload shape where scheduling
/// policy differences are widest (§6.3). Under Tally the first tenant
/// (VGG-11) is the priority task.
fn workload() -> WorkloadSet {
    pair_workload(
        cache::model(ModelKind::Vgg11, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::TraceAzure,
        0,
        SimTime::from_secs(2),
        31,
    )
}

/// The full §6.1 comparison roster: the latency target, the five
/// baselines, Tally, and BLESS.
pub fn comparison_set() -> Vec<System> {
    vec![
        System::Iso,
        System::Temporal,
        System::Mig,
        System::Gslice,
        System::Unbound,
        System::ReefPlus,
        System::Zico,
        System::Tally,
        System::Bless(BlessParams::default()),
    ]
}

/// Regenerates the system-comparison table.
pub fn run() -> Vec<Table> {
    let spec = GpuSpec::a100();
    let ws = workload();
    let horizon = SimTime::from_secs(60);

    let mut t = Table::new(
        "System comparison: VGG11 + R50, Azure-like trace (validator-checked runs)",
        &[
            "system",
            "avg latency ms",
            "p99 app0 ms",
            "p99 app1 ms",
            "deviation ms",
            "util %",
        ],
    );
    let rows = par_map(&comparison_set(), |sys| {
        let r = run_validated(sys, &ws, &spec, horizon, None);
        let p99 = |app: usize| r.log.stats(app).p99.map_or(f64::NAN, |d| d.as_millis_f64());
        [
            sys.name().to_string(),
            format!("{:.2}", r.mean_ms()),
            format!("{:.2}", p99(0)),
            format!("{:.2}", p99(1)),
            format!("{:.2}", r.deviation().as_millis_f64()),
            format!("{:.1}", r.utilization * 100.0),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    t.note("TALLY protects app 0 (priority); its p99 app0 column is the headline");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::RunOutcome;

    #[test]
    fn every_system_completes_validator_clean() {
        let spec = GpuSpec::a100();
        let ws = workload();
        for sys in comparison_set() {
            // `run_validated` panics on any trace-invariant violation.
            let r = run_validated(&sys, &ws, &spec, SimTime::from_secs(60), None);
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", sys.name());
            for app in 0..2 {
                assert!(
                    r.log.completed_count(app) > 0,
                    "{} app {app} completed nothing",
                    sys.name()
                );
            }
        }
    }

    #[test]
    fn tally_priority_p99_beats_temporal() {
        let spec = GpuSpec::a100();
        let ws = workload();
        let tally = run_validated(&System::Tally, &ws, &spec, SimTime::from_secs(60), None);
        let temporal = run_validated(&System::Temporal, &ws, &spec, SimTime::from_secs(60), None);
        let p99 = |r: &crate::runner::RunResult| crate::require(r.log.stats(0).p99, "p99");
        assert!(
            p99(&tally) <= p99(&temporal),
            "priority p99 {:?} vs temporal {:?}",
            p99(&tally),
            p99(&temporal)
        );
    }
}
