//! TEMPORAL: round-robin time-slice GPU sharing (cGPU-style).
//!
//! The GPU's time is divided into a fixed rotation of per-tenant windows,
//! each proportional to the tenant's quota. A request may only launch
//! kernels during its tenant's window: a request arriving outside it
//! waits — even if the GPU is idle — which is exactly the bubble pattern
//! of Fig. 1(a). Kernels are not preemptable, so windows overrun by up to
//! one kernel; both effects are why temporal sharing "cannot precisely
//! occupy provisioned quotas" (§1). While an application owns the GPU its
//! kernels rarely saturate all SMs, and nobody else may use the rest.

use gpu_sim::{CtxKind, Gpu, HostDriver, KernelDone, KernelTableId, QueueId, RequestArrival};
use sim_core::SimDuration;

use crate::common::{must, must_some, tag_of, untag, TenantStates};
use bless::DeployedApp;
use profiler::PARTITIONS;

/// Wake token for deferred slice scheduling.
const SLICE_WAKE: u64 = u64::MAX - 1;

/// The TEMPORAL driver.
pub struct TemporalDriver {
    /// Deployment data per app.
    pub apps: Vec<DeployedApp>,
    /// Tenant request state + log.
    pub tenants: TenantStates,
    /// Base time-slice quantum (an app with quota `q` among `n` tenants
    /// receives a slice of `quantum · q · n`).
    pub quantum: SimDuration,
    /// Cost of switching the GPU between tenants' contexts at slice
    /// boundaries. Full GPU context switches (pipeline drain, state swap)
    /// are far heavier than the 50 µs MPS queue switch; ~1 ms is typical
    /// for temporal-sharing systems.
    pub switch_cost: SimDuration,
    /// The app that owned the previous slice (no switch cost when the
    /// same tenant keeps the GPU).
    last_owner: Option<usize>,
    queues: Vec<QueueId>,
    /// Each app's profiled kernels, registered as an engine table.
    tables: Vec<KernelTableId>,
    outstanding: usize,
    wake_pending: bool,
}

impl TemporalDriver {
    /// Creates a TEMPORAL driver with the default 2 ms base quantum.
    pub fn new(apps: Vec<DeployedApp>) -> Self {
        let totals = apps.iter().map(|a| a.profile.kernel_count()).collect();
        TemporalDriver {
            tenants: TenantStates::new(totals),
            quantum: SimDuration::from_millis(5),
            switch_cost: SimDuration::from_millis(1),
            last_owner: None,
            queues: Vec::new(),
            tables: Vec::new(),
            outstanding: 0,
            wake_pending: false,
            apps,
        }
    }

    /// Overrides the base quantum.
    pub fn with_quantum(mut self, quantum: SimDuration) -> Self {
        self.quantum = quantum;
        self
    }

    /// True while launched slice kernels are still outstanding.
    fn slice_active(&self) -> bool {
        self.outstanding > 0
    }

    fn request_slice(&mut self, gpu: &mut Gpu) {
        // A pending boundary wake or an in-flight slice absorbs this
        // request: the arrival will be served when its tenant's window
        // next comes around — time slicing is deliberately not
        // work conserving across windows (Fig. 1a).
        if self.wake_pending || self.slice_active() {
            return;
        }
        self.wake_pending = true;
        gpu.wake_at(gpu.now(), SLICE_WAKE);
    }

    /// Length of one tenant's window in the rotation.
    fn window_of(&self, app: usize) -> SimDuration {
        self.quantum
            .mul_f64(self.apps[app].quota * self.apps.len() as f64)
    }

    /// Total rotation cycle length.
    fn cycle(&self) -> SimDuration {
        (0..self.apps.len()).map(|a| self.window_of(a)).sum()
    }

    /// Which tenant owns the wall-clock instant `t`, and how much of its
    /// window remains.
    fn owner_at(&self, t: sim_core::SimTime) -> (usize, SimDuration) {
        let cycle_ns = self.cycle().as_nanos();
        let pos = SimDuration::from_nanos(t.as_nanos() % cycle_ns);
        let mut acc = SimDuration::ZERO;
        for app in 0..self.apps.len() {
            let w = self.window_of(app);
            if pos < acc + w {
                return (app, acc + w - pos);
            }
            acc += w;
        }
        unreachable!("position within cycle");
    }

    fn start_slice(&mut self, gpu: &mut Gpu) {
        debug_assert!(!self.slice_active());
        if self.tenants.apps_with_work().is_empty() {
            return; // Fully idle; the next arrival restarts the rotation.
        }
        let (owner, remaining) = self.owner_at(gpu.now());
        if self.tenants.active[owner].is_none() {
            // The window's owner is idle: the GPU stays idle (the Fig. 1a
            // bubble) until the next window boundary or a new arrival.
            gpu.wake_at(gpu.now() + remaining, SLICE_WAKE);
            self.wake_pending = true;
            return;
        }
        let app = owner;

        // Charge the GPU context switch when the device changes hands.
        if self.last_owner != Some(app) {
            gpu.charge_host(self.switch_cost);
        }
        self.last_owner = Some(app);

        // Launch kernels of the active request until the rest of the
        // window is covered (kernels are not preemptable, so the last one
        // may overrun).
        let budget = remaining;
        let total = self.tenants.kernel_total(app);
        let start_kernel =
            must_some(self.tenants.active[app], "scheduled tenant has work").next_kernel;
        let mut used = SimDuration::ZERO;
        let mut launched = 0usize;
        for k in start_kernel..total {
            must(
                gpu.launch_table(self.queues[app], self.tables[app], k, tag_of(app, k)),
                "launch",
            );
            used += self.apps[app].profile.kernel_duration(PARTITIONS - 1, k);
            launched += 1;
            if used >= budget {
                break;
            }
        }
        debug_assert!(launched > 0);
        self.outstanding = launched;
    }
}

impl HostDriver for TemporalDriver {
    fn on_start(&mut self, gpu: &mut Gpu) {
        for app in &self.apps {
            must(gpu.alloc_memory(app.profile.memory_mib), "deployment fits");
            let ctx = must(gpu.create_context(CtxKind::Default), "ctx");
            self.queues.push(must(gpu.create_queue(ctx), "queue"));
            self.tables
                .push(gpu.register_kernel_table(app.profile.kernels.clone()));
        }
    }

    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        self.tenants.on_arrival(req.app, req.req, req.at);
        self.request_slice(gpu);
    }

    fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
        if token == SLICE_WAKE {
            self.wake_pending = false;
            if !self.slice_active() {
                self.start_slice(gpu);
            }
        }
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        let (app, kernel) = untag(done.tag);
        self.tenants.on_kernel_done(gpu, app, kernel, done.at);
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.request_slice(gpu);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{AppModel, ModelKind, Phase};
    use gpu_sim::{GpuSpec, HostCosts, RunOutcome, Simulation};
    use profiler::ProfiledApp;
    use sim_core::SimTime;

    fn deploy(kind: ModelKind, quota: f64) -> DeployedApp {
        let profile =
            ProfiledApp::profile(&AppModel::build(kind, Phase::Inference), &GpuSpec::a100());
        DeployedApp::new(profile, quota, None)
    }

    fn run_pair(quotas: (f64, f64)) -> TemporalDriver {
        let apps = vec![
            deploy(ModelKind::Vgg11, quotas.0),
            deploy(ModelKind::ResNet50, quotas.1),
        ];
        let driver = TemporalDriver::new(apps);
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::ZERO,
            },
        ];
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(10)), RunOutcome::Completed);
        sim.driver
    }

    #[test]
    fn both_requests_complete() {
        let d = run_pair((0.5, 0.5));
        assert_eq!(d.tenants.log.completed_count(0), 1);
        assert_eq!(d.tenants.log.completed_count(1), 1);
    }

    #[test]
    fn temporal_sharing_serializes_and_is_slow() {
        // With both requests overlapping, time slicing roughly serializes
        // them: the average latency must clearly exceed what concurrent
        // spatial sharing achieves (each app solo takes ~10.2/8.7 ms; the
        // interleaving pushes both toward the sum).
        let d = run_pair((0.5, 0.5));
        let mean = d.tenants.log.mean_of_app_means().unwrap();
        assert!(
            mean.as_millis_f64() > 12.0,
            "temporal sharing should be slow: {mean}"
        );
    }

    #[test]
    fn solo_app_still_waits_for_idle_windows() {
        // Time slicing is not work conserving: even with the other tenant
        // idle, a solo request only runs inside its own windows (the
        // Fig. 1a bubbles), so its latency exceeds the 8.7 ms solo run —
        // but it never waits more than the other tenant's window per
        // cycle.
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.5),
            deploy(ModelKind::Vgg11, 0.5),
        ];
        let driver = TemporalDriver::new(apps);
        let arrivals = vec![RequestArrival {
            app: 0,
            req: 0,
            at: SimTime::ZERO,
        }];
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(5)), RunOutcome::Completed);
        let lat = sim
            .driver
            .tenants
            .log
            .stats(0)
            .mean
            .unwrap()
            .as_millis_f64();
        assert!(lat > 9.0, "idle windows must cost something: {lat}");
        assert!(lat < 20.0, "but bounded by the rotation: {lat}");
    }

    #[test]
    fn larger_quota_gets_longer_slices() {
        // Under contention the big-quota app should finish earlier
        // relative to its solo time than the small-quota app.
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.8),
            deploy(ModelKind::ResNet50, 0.2),
        ];
        let driver = TemporalDriver::new(apps);
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::ZERO,
            },
        ];
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(10)), RunOutcome::Completed);
        let l0 = sim.driver.tenants.log.stats(0).mean.unwrap();
        let l1 = sim.driver.tenants.log.stats(1).mean.unwrap();
        assert!(l0 < l1, "quota 0.8 app should finish first: {l0} vs {l1}");
    }
}
