//! Stress and robustness: many tenants, long horizons, degenerate
//! parameters, and failure injection at the admission boundary.

use bless::{BlessDriver, BlessParams, DeployedApp};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{
    BufferSink, CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, RunOutcome, Simulation, StepOutput,
};
use harness::runner::{run_validated, System};
use metrics::{TraceValidator, ValidatorConfig};
use sim_core::{SimDuration, SimTime};
use workloads::{multi_workload, PaperWorkload, EIGHT_MODEL_QUOTAS};

#[test]
fn eight_tenants_sustained_load() {
    let spec = GpuSpec::a100();
    let models: Vec<AppModel> = [
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        ModelKind::Bert,
    ]
    .iter()
    .cycle()
    .take(8)
    .map(|&m| AppModel::build(m, Phase::Inference))
    .collect();
    let ws = multi_workload(
        models,
        &EIGHT_MODEL_QUOTAS,
        PaperWorkload::MediumLoad,
        5,
        SimTime::from_secs(10),
        77,
    );
    let r = run_validated(
        &System::Bless(BlessParams::default()),
        &ws,
        &spec,
        SimTime::from_secs(600),
        None,
    );
    assert_eq!(r.outcome, RunOutcome::Completed);
    for app in 0..8 {
        assert_eq!(r.log.completed_count(app), 5, "app {app}");
    }
}

#[test]
fn tiny_squads_still_complete() {
    let spec = GpuSpec::a100();
    let params = BlessParams {
        max_kernels_per_squad: 1,
        launch_window: 1,
        ..BlessParams::default()
    };
    let profile =
        profiler::ProfiledApp::profile(&AppModel::build(ModelKind::Vgg11, Phase::Inference), &spec);
    let apps = vec![DeployedApp::new(profile, 1.0, None)];
    let driver = BlessDriver::new(apps, params);
    let mut gpu = Gpu::new(spec, HostCosts::paper());
    let num_sms = gpu.spec().num_sms;
    let sink = BufferSink::new();
    gpu.set_trace_sink(Box::new(sink.clone()));
    let arrivals = vec![gpu_sim::RequestArrival {
        app: 0,
        req: 0,
        at: SimTime::ZERO,
    }];
    let mut sim = Simulation::new(gpu, driver, arrivals);
    assert_eq!(sim.run(SimTime::from_secs(10)), RunOutcome::Completed);
    TraceValidator::new(ValidatorConfig::structural(num_sms))
        .validate(&sink.take())
        .assert_clean();
    assert_eq!(sim.driver.log.completed_count(0), 1);
    // One-kernel squads: squads == kernels.
    assert_eq!(
        sim.driver.squads_launched,
        sim.driver.apps[0].profile.kernel_count()
    );
}

#[test]
fn split_ratio_extremes_work() {
    let spec = GpuSpec::a100();
    for split in [0.0, 1.0] {
        let params = BlessParams {
            split_ratio: split,
            ..BlessParams::default()
        };
        let ws = workloads::pair_workload(
            AppModel::build(ModelKind::ResNet50, Phase::Inference),
            AppModel::build(ModelKind::ResNet50, Phase::Inference),
            (0.5, 0.5),
            PaperWorkload::HighLoad,
            5,
            SimTime::from_secs(10),
            13,
        );
        let r = run_validated(
            &System::Bless(params),
            &ws,
            &spec,
            SimTime::from_secs(120),
            None,
        );
        assert_eq!(r.outcome, RunOutcome::Completed, "split {split}");
        assert_eq!(r.log.completed_count(0), 5);
        assert_eq!(r.log.completed_count(1), 5);
    }
}

#[test]
fn memcpy_heavy_queues_complete() {
    // A queue that is mostly DMA traffic interleaved with compute.
    let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
    let ctx = gpu.create_context(CtxKind::Default).unwrap();
    let q = gpu.create_queue(ctx).unwrap();
    let kernels: Vec<_> = (0..50)
        .flat_map(|_| {
            [
                KernelDesc::memcpy_h2d(1_000_000),
                KernelDesc::compute(SimDuration::from_micros(30), 60, 0.3),
                KernelDesc::memcpy_d2h(100_000),
            ]
        })
        .collect();
    let n = kernels.len();
    let table = gpu.register_kernel_table(kernels.into());
    let handles: Vec<_> = (0..n)
        .map(|k| gpu.launch(q, table, k, 0).unwrap())
        .collect();
    let mut out = Vec::new();
    gpu.drain_outputs_into(&mut out, 100_000).unwrap();
    assert!(gpu.is_device_idle());
    // One queue: every kernel completes, in launch order.
    let done: Vec<_> = out
        .iter()
        .filter_map(|&(_, o)| match o {
            StepOutput::KernelDone { handle, .. } => Some(handle),
            _ => None,
        })
        .collect();
    assert_eq!(done, handles);
}

#[test]
fn deployment_larger_than_memory_panics_at_start() {
    // The runtime refuses (panics) when the deployment cannot fit; the
    // admission check exists to catch this beforehand.
    let spec = GpuSpec {
        memory_mib: 512,
        ..GpuSpec::a100()
    };
    let profile =
        profiler::ProfiledApp::profile(&AppModel::build(ModelKind::Bert, Phase::Inference), &spec);
    let apps = vec![DeployedApp::new(profile, 1.0, None)];
    let driver = BlessDriver::new(apps, BlessParams::default());
    let gpu = Gpu::new(spec, HostCosts::paper());
    let arrivals = vec![gpu_sim::RequestArrival {
        app: 0,
        req: 0,
        at: SimTime::ZERO,
    }];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut sim = Simulation::new(gpu, driver, arrivals);
        sim.run(SimTime::from_secs(1))
    }));
    assert!(result.is_err(), "OOM deployment must fail loudly");
}

#[test]
fn zero_request_workload_is_a_clean_noop() {
    let spec = GpuSpec::a100();
    let profile =
        profiler::ProfiledApp::profile(&AppModel::build(ModelKind::Vgg11, Phase::Inference), &spec);
    let apps = vec![DeployedApp::new(profile, 1.0, None)];
    let driver = BlessDriver::new(apps, BlessParams::default());
    let gpu = Gpu::new(spec, HostCosts::paper());
    let mut sim = Simulation::new(gpu, driver, Vec::new());
    assert_eq!(sim.run(SimTime::from_secs(1)), RunOutcome::Completed);
    assert_eq!(sim.driver.squads_launched, 0);
}
