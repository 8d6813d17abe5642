//! Uniform experiment runner: any system × any workload → a request log.

use baselines::{
    ReefPlusDriver, ShareMode, StaticShareDriver, TallyDriver, TemporalDriver, ZicoDriver,
};
use bless::{BlessDriver, BlessParams, DeployedApp};
use dnn_models::gen::CALIBRATION_PCIE;
use gpu_sim::{
    BufferSink, Gpu, GpuSpec, HostCosts, HostDriver, RunOutcome, Simulation, TraceEvent,
};
use metrics::{RequestLog, TraceValidator, ValidatorConfig};
use sim_core::{SimDuration, SimTime};
use workloads::{TenantSpec, WorkloadSet};

use crate::{cache, tracectl};

/// The systems under comparison (§6.1).
#[derive(Clone, Debug)]
pub enum System {
    /// BLESS with the given parameters.
    Bless(BlessParams),
    /// Round-robin time slicing.
    Temporal,
    /// Hard MIG partitions.
    Mig,
    /// Static MPS partitions at each quota.
    Gslice,
    /// Unrestricted sharing via the hardware scheduler.
    Unbound,
    /// Batched launching with even MPS partitioning.
    ReefPlus,
    /// Unbounded sharing with tick-tock staggering (training).
    Zico,
    /// Priority tenant unimpeded; best-effort kernels throttled (Tally).
    Tally,
    /// Each app alone on its quota partition (the latency target).
    Iso,
}

impl System {
    /// Display name used in report tables.
    pub fn name(&self) -> &'static str {
        match self {
            System::Bless(_) => "BLESS",
            System::Temporal => "TEMPORAL",
            System::Mig => "MIG",
            System::Gslice => "GSLICE",
            System::Unbound => "UNBOUND",
            System::ReefPlus => "REEF+",
            System::Zico => "ZICO",
            System::Tally => "TALLY",
            System::Iso => "ISO",
        }
    }

    /// The default comparison set for inference experiments.
    pub fn inference_set() -> Vec<System> {
        vec![
            System::Temporal,
            System::Mig,
            System::Gslice,
            System::Unbound,
            System::ReefPlus,
            System::Bless(BlessParams::default()),
        ]
    }

    /// The default comparison set for training experiments.
    pub fn training_set() -> Vec<System> {
        vec![
            System::Temporal,
            System::Mig,
            System::Unbound,
            System::Zico,
            System::Bless(BlessParams::default()),
        ]
    }
}

/// Outcome of one experiment run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-app request log.
    pub log: RequestLog,
    /// ISO latency target per app at its quota.
    pub iso_targets: Vec<SimDuration>,
    /// Average GPU utilization over the makespan.
    pub utilization: f64,
    /// Simulation outcome.
    pub outcome: RunOutcome,
    /// Last event time observed.
    pub makespan: SimTime,
}

impl RunResult {
    /// Mean of per-app mean latencies, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.log
            .mean_of_app_means()
            .map_or(f64::NAN, |d| d.as_millis_f64())
    }

    /// Per-app mean latencies.
    pub fn app_means(&self) -> Vec<SimDuration> {
        (0..self.log.apps())
            .map(|a| self.log.stats(a).mean.unwrap_or(SimDuration::ZERO))
            .collect()
    }

    /// The §6.2 latency deviation against the ISO targets.
    pub fn deviation(&self) -> SimDuration {
        metrics::latency_deviation(&self.app_means(), &self.iso_targets)
    }
}

/// Mean GPU utilization over `[0, makespan]`.
fn mean_utilization(gpu: &Gpu, spec: &GpuSpec, makespan: SimTime) -> f64 {
    let secs = makespan.as_secs_f64();
    if secs > 0.0 {
        gpu.busy_sm_seconds() / (spec.num_sms as f64 * secs)
    } else {
        0.0
    }
}

/// Builds the deployment (profiles at this GPU's SM count + quotas).
pub fn deployment(
    ws: &WorkloadSet,
    spec: &GpuSpec,
    slos: Option<&[SimDuration]>,
) -> Vec<DeployedApp> {
    ws.tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let profile = cache::profile(t.model.kind, t.model.phase, spec);
            let slo = slos.and_then(|s| s.get(i).copied());
            DeployedApp::new(profile, t.quota, slo)
        })
        .collect()
}

/// Runs `system` on `ws` and collects the result.
///
/// When global trace capture is on (`experiments --trace`), the run is
/// also recorded, exported to Perfetto JSON, and machine-checked against
/// the scheduler invariants (panicking on a violation).
pub fn run_system(
    system: &System,
    ws: &WorkloadSet,
    spec: &GpuSpec,
    horizon: SimTime,
    slos: Option<&[SimDuration]>,
) -> RunResult {
    let capture = tracectl::enabled();
    let (result, events) = run_system_capture(system, ws, spec, horizon, slos, capture);
    if !events.is_empty() {
        tracectl::export_and_validate(
            system.name(),
            spec.num_sms,
            Some(&result.iso_targets),
            &events,
        );
    }
    result
}

/// [`run_system`] with forced trace capture: returns the run result and
/// the full event stream, regardless of the global `--trace` switch.
/// ([`System::Iso`] runs per-tenant solo simulations and returns an empty
/// stream.)
pub fn run_system_traced(
    system: &System,
    ws: &WorkloadSet,
    spec: &GpuSpec,
    horizon: SimTime,
    slos: Option<&[SimDuration]>,
) -> (RunResult, Vec<TraceEvent>) {
    run_system_capture(system, ws, spec, horizon, slos, true)
}

/// Runs `system` with trace capture and replays the stream through the
/// [`TraceValidator`], panicking on any invariant violation. This is the
/// entry point the integration suites use so every run is machine-checked.
pub fn run_validated(
    system: &System,
    ws: &WorkloadSet,
    spec: &GpuSpec,
    horizon: SimTime,
    slos: Option<&[SimDuration]>,
) -> RunResult {
    let (result, events) = run_system_capture(system, ws, spec, horizon, slos, true);
    if !events.is_empty() {
        let config = ValidatorConfig {
            num_sms: spec.num_sms,
            iso_targets: Some(
                result
                    .iso_targets
                    .iter()
                    .map(|d| d.as_nanos() as f64)
                    .collect(),
            ),
            fairness_spread: None,
            max_recovery_ns: None,
        };
        TraceValidator::new(config).validate(&events).assert_clean();
    }
    result
}

fn run_system_capture(
    system: &System,
    ws: &WorkloadSet,
    spec: &GpuSpec,
    horizon: SimTime,
    slos: Option<&[SimDuration]>,
    capture: bool,
) -> (RunResult, Vec<TraceEvent>) {
    let apps = deployment(ws, spec, slos);
    let iso_targets: Vec<SimDuration> = apps.iter().map(|a| a.iso_latency()).collect();

    if matches!(system, System::Iso) {
        return (run_iso(ws, spec, horizon, iso_targets), Vec::new());
    }

    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    let sink = if capture {
        let s = BufferSink::new();
        gpu.set_trace_sink(Box::new(s.clone()));
        Some(s)
    } else {
        None
    };
    let arrivals = ws.initial_arrivals();

    macro_rules! run {
        ($driver:expr, $extract:expr) => {{
            let mut sim =
                Simulation::new(gpu, $driver, arrivals).with_notice_handler(ws.notice_handler());
            let outcome = sim.run(horizon);
            let makespan = sim.gpu.now();
            let util = mean_utilization(&sim.gpu, spec, makespan);
            #[allow(clippy::redundant_closure_call)]
            let log = ($extract)(sim.driver);
            RunResult {
                log,
                iso_targets,
                utilization: util,
                outcome,
                makespan,
            }
        }};
    }

    let result = match system {
        System::Bless(params) => {
            run!(BlessDriver::new(apps, params.clone()), |d: BlessDriver| d
                .log)
        }
        System::Temporal => run!(TemporalDriver::new(apps), |d: TemporalDriver| d.tenants.log),
        System::Mig => run!(
            StaticShareDriver::new(apps, ShareMode::Mig),
            |d: StaticShareDriver| d.log
        ),
        System::Gslice => run!(
            StaticShareDriver::new(apps, ShareMode::QuotaMps),
            |d: StaticShareDriver| d.log
        ),
        System::Unbound => run!(
            StaticShareDriver::new(apps, ShareMode::Unbound),
            |d: StaticShareDriver| d.log
        ),
        System::ReefPlus => run!(ReefPlusDriver::new(apps), |d: ReefPlusDriver| d.tenants.log),
        System::Tally => run!(TallyDriver::new(apps), |d: TallyDriver| d.tenants.log),
        System::Zico => {
            // Tick-tock: the second tenant trails by half an iteration and
            // rounds are memory-coordinated (iteration barriers).
            let stagger = ws
                .tenants
                .get(1)
                .map(|t| t.model.solo_duration(CALIBRATION_PCIE).mul_f64(0.5))
                .unwrap_or(sim_core::SimDuration::ZERO);
            run!(ZicoDriver::new(apps, stagger), |d: ZicoDriver| d.log)
        }
        System::Iso => unreachable!("handled above"),
    };
    let events = sink.map(|s| s.take()).unwrap_or_default();
    (result, events)
}

/// Runs each tenant alone on its quota's MPS partition (the ISO target
/// measurement) and merges the logs.
fn run_iso(
    ws: &WorkloadSet,
    spec: &GpuSpec,
    horizon: SimTime,
    iso_targets: Vec<SimDuration>,
) -> RunResult {
    let mut merged = RequestLog::new(ws.len());
    let mut busy_total = 0.0;
    let mut makespan = SimTime::ZERO;
    let mut outcome = RunOutcome::Completed;

    // Use the *same* pre-generated arrival streams the co-located run
    // sees, so ISO latencies are measured on identical request timings.
    let all_arrivals = ws.initial_arrivals();
    for (i, tenant) in ws.tenants.iter().enumerate() {
        // A single-tenant workload preserving this tenant's pattern (the
        // closed-loop controller needs the think-time budget).
        let solo_ws = WorkloadSet::new(
            vec![TenantSpec::new(
                tenant.model.clone(),
                tenant.quota,
                tenant.pattern.clone(),
            )],
            ws.seed.wrapping_add(i as u64),
        );
        let arrivals: Vec<gpu_sim::RequestArrival> = all_arrivals
            .iter()
            .filter(|a| a.app == i)
            .map(|a| gpu_sim::RequestArrival { app: 0, ..*a })
            .collect();
        let apps = deployment(&solo_ws, spec, None);
        let driver = StaticShareDriver::new(apps, ShareMode::QuotaMps);
        let gpu = Gpu::new(spec.clone(), HostCosts::paper());
        let mut sim =
            Simulation::new(gpu, driver, arrivals).with_notice_handler(solo_ws.notice_handler());
        let o = sim.run(horizon);
        if o != RunOutcome::Completed {
            outcome = o;
        }
        busy_total += sim.gpu.busy_sm_seconds();
        makespan = makespan.max(sim.gpu.now());
        for rec in sim.driver.log.records(0) {
            merged.arrived(i, rec.req, rec.arrival);
            if let Some(c) = rec.completion {
                merged.completed(i, rec.req, c);
            }
        }
    }

    let util = if makespan.as_secs_f64() > 0.0 {
        busy_total / (spec.num_sms as f64 * makespan.as_secs_f64())
    } else {
        0.0
    };
    RunResult {
        log: merged,
        iso_targets,
        utilization: util,
        outcome,
        makespan,
    }
}

/// Convenience wrapper: run a driver you constructed yourself (for
/// experiments that need driver internals such as squad logs).
pub fn run_custom<D: HostDriver>(
    driver: D,
    ws: &WorkloadSet,
    spec: &GpuSpec,
    horizon: SimTime,
) -> (D, RunOutcome, SimTime) {
    let (driver, outcome, now, _) =
        run_custom_faulted(driver, ws, spec, horizon, sim_core::FaultPlan::none());
    (driver, outcome, now)
}

/// [`run_custom`] with a deterministic [`sim_core::FaultPlan`] installed on
/// the device before the run; also returns the engine's fault counters.
/// `FaultPlan::none()` leaves the device byte-identical to an uninstalled
/// plan, so `run_custom` routes through here unchanged.
pub fn run_custom_faulted<D: HostDriver>(
    driver: D,
    ws: &WorkloadSet,
    spec: &GpuSpec,
    horizon: SimTime,
    plan: sim_core::FaultPlan,
) -> (D, RunOutcome, SimTime, gpu_sim::FaultCounters) {
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    gpu.set_fault_plan(plan);
    // Under `--trace`, custom runs (fault drills, squad labs) are captured
    // and checked against the structural invariants; fairness is skipped
    // since fault injection legitimately skews progress.
    let sink = if tracectl::enabled() {
        let s = BufferSink::new();
        gpu.set_trace_sink(Box::new(s.clone()));
        Some(s)
    } else {
        None
    };
    let mut sim = Simulation::new(gpu, driver, ws.initial_arrivals())
        .with_notice_handler(ws.notice_handler());
    let outcome = sim.run(horizon);
    let now = sim.gpu.now();
    let counters = sim.gpu.fault_counters();
    if let Some(s) = sink {
        let events = s.take();
        tracectl::export_and_validate("custom", spec.num_sms, None, &events);
    }
    (sim.driver, outcome, now, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelKind, Phase};
    use workloads::{pair_workload, PaperWorkload};

    fn ws() -> WorkloadSet {
        pair_workload(
            cache::model(ModelKind::Vgg11, Phase::Inference),
            cache::model(ModelKind::ResNet50, Phase::Inference),
            (0.5, 0.5),
            PaperWorkload::LowLoad,
            5,
            SimTime::from_secs(5),
            42,
        )
    }

    #[test]
    fn all_inference_systems_complete() {
        let spec = GpuSpec::a100();
        for sys in System::inference_set() {
            let r = run_system(&sys, &ws(), &spec, SimTime::from_secs(30), None);
            assert_eq!(r.outcome, RunOutcome::Completed, "{}", sys.name());
            assert_eq!(r.log.completed_count(0), 5, "{}", sys.name());
            assert_eq!(r.log.completed_count(1), 5, "{}", sys.name());
            assert!(r.mean_ms().is_finite());
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        }
    }

    #[test]
    fn iso_runs_each_tenant_alone() {
        let spec = GpuSpec::a100();
        let r = run_system(&System::Iso, &ws(), &spec, SimTime::from_secs(30), None);
        assert_eq!(r.outcome, RunOutcome::Completed);
        // Solo closed-loop latency equals the quota's isolated latency
        // (within the launch-overhead noise).
        for app in 0..2 {
            let mean = r.log.stats(app).mean.unwrap().as_nanos() as f64;
            let target = r.iso_targets[app].as_nanos() as f64;
            assert!((mean - target).abs() / target < 0.10, "app {app}");
        }
    }

    #[test]
    fn bless_beats_gslice_on_low_load() {
        let spec = GpuSpec::a100();
        let bless = run_system(
            &System::Bless(BlessParams::default()),
            &ws(),
            &spec,
            SimTime::from_secs(30),
            None,
        );
        let gslice = run_system(&System::Gslice, &ws(), &spec, SimTime::from_secs(30), None);
        assert!(
            bless.mean_ms() < gslice.mean_ms(),
            "BLESS {} vs GSLICE {}",
            bless.mean_ms(),
            gslice.mean_ms()
        );
    }
}
