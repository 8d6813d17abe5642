//! REEF+: controlled kernel concurrency with even MPS spatial partitioning.
//!
//! REEF (OSDI '22) launches kernels periodically in controlled batches and
//! pads kernels for deterministic co-execution; the paper's improved
//! REEF+ replaces kernel padding with MPS so that concurrently launched
//! batches are *evenly* spatially partitioned. Compared to BLESS, REEF+
//!
//! * selects kernels round-robin instead of by quota progress,
//! * always splits the GPU evenly among the *active* tenants (no
//!   configuration search — "the optimal spatial partitioning
//!   configuration of kernels cannot be determined at runtime in REEF+",
//!   §6.4), and
//! * keeps the restriction for the whole batch (no semi-SP tail); a
//!   batch, once launched, cannot shrink for a newcomer the way BLESS's
//!   draining squads do.

use gpu_sim::{
    CtxId, CtxKind, Gpu, HostDriver, KernelDone, KernelTableId, QueueId, RequestArrival,
};

use crate::common::{must, must_some, tag_of, untag, TenantStates};
use bless::DeployedApp;

/// Wake token for deferred batch scheduling.
const BATCH_WAKE: u64 = u64::MAX - 2;

/// The REEF+ driver.
pub struct ReefPlusDriver {
    /// Deployment data per app.
    pub apps: Vec<DeployedApp>,
    /// Tenant request state + log.
    pub tenants: TenantStates,
    /// Maximum kernels per batch (matches BLESS's squad size by default).
    pub batch_size: usize,
    queues: Vec<QueueId>,
    /// Each app's profiled kernels, registered as an engine table.
    tables: Vec<KernelTableId>,
    ctxs: Vec<CtxId>,
    outstanding: usize,
    batch_active: bool,
    wake_pending: bool,
}

impl ReefPlusDriver {
    /// Creates a REEF+ driver with the default batch size of 50.
    pub fn new(apps: Vec<DeployedApp>) -> Self {
        let totals = apps.iter().map(|a| a.profile.kernel_count()).collect();
        ReefPlusDriver {
            tenants: TenantStates::new(totals),
            batch_size: 50,
            queues: Vec::new(),
            tables: Vec::new(),
            ctxs: Vec::new(),
            outstanding: 0,
            batch_active: false,
            wake_pending: false,
            apps,
        }
    }

    fn request_batch(&mut self, gpu: &mut Gpu) {
        if self.wake_pending || self.batch_active {
            return;
        }
        self.wake_pending = true;
        gpu.wake_at(gpu.now(), BATCH_WAKE);
    }

    fn start_batch(&mut self, gpu: &mut Gpu) {
        debug_assert!(!self.batch_active);
        let active = self.tenants.apps_with_work();
        if active.is_empty() {
            return;
        }
        // Even spatial partitioning over the *active* tenants (a solo
        // tenant gets the whole GPU; REEF's concurrency control is work
        // conserving for the running task set, unlike GSLICE's static
        // quota slices).
        let cap = (gpu.spec().num_sms / active.len() as u32).max(1);
        for &app in &active {
            must(gpu.set_mps_cap(self.ctxs[app], cap), "cap");
        }

        // Round-robin kernel selection up to the batch size.
        let mut pointers: Vec<usize> = active
            .iter()
            .map(|&a| must_some(self.tenants.active[a], "active tenant has work").next_kernel)
            .collect();
        let mut launched = 0usize;
        let mut progressed = true;
        'outer: while launched < self.batch_size && progressed {
            progressed = false;
            for (i, &app) in active.iter().enumerate() {
                let total = self.tenants.kernel_total(app);
                if pointers[i] >= total {
                    continue;
                }
                let k = pointers[i];
                must(
                    gpu.launch(self.queues[app], self.tables[app], k, tag_of(app, k)),
                    "launch",
                );
                pointers[i] += 1;
                launched += 1;
                progressed = true;
                if launched >= self.batch_size {
                    break 'outer;
                }
            }
        }
        debug_assert!(launched > 0);
        self.outstanding = launched;
        self.batch_active = true;
    }
}

impl HostDriver for ReefPlusDriver {
    fn on_start(&mut self, gpu: &mut Gpu) {
        for app in &self.apps {
            must(gpu.alloc_memory(app.profile.memory_mib), "deployment fits");
            let ctx = must(
                gpu.create_context(CtxKind::MpsAffinity {
                    sm_cap: gpu.spec().num_sms,
                }),
                "ctx",
            );
            self.ctxs.push(ctx);
            self.queues.push(must(gpu.create_queue(ctx), "queue"));
            self.tables
                .push(gpu.register_kernel_table(app.profile.kernels.clone()));
        }
    }

    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        self.tenants.on_arrival(req.app, req.req, req.at);
        self.request_batch(gpu);
    }

    fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
        if token == BATCH_WAKE {
            self.wake_pending = false;
            if !self.batch_active {
                self.start_batch(gpu);
            }
        }
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        let (app, kernel) = untag(done.tag);
        self.tenants.on_kernel_done(gpu, app, kernel, done.at);
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.batch_active = false;
            gpu.charge_host(gpu.costs().squad_sync);
            self.request_batch(gpu);
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

    fn run(arrivals: Vec<RequestArrival>) -> ReefPlusDriver {
        let apps = vec![
            deploy(ModelKind::Vgg11, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let driver = ReefPlusDriver::new(apps);
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(10)), RunOutcome::Completed);
        sim.driver
    }

    #[test]
    fn pair_completes_with_even_split() {
        let d = run(vec![
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
        ]);
        assert_eq!(d.tenants.log.completed_count(0), 1);
        assert_eq!(d.tenants.log.completed_count(1), 1);
        // Even 54/54 splitting under full overlap: latencies in the same
        // ballpark as the 50% ISO latencies.
        for app in 0..2 {
            let lat = d.tenants.log.stats(app).mean.unwrap().as_nanos() as f64;
            let iso = d.apps[app].iso_latency().as_nanos() as f64;
            assert!(lat < iso * 1.8, "app {app}: {lat} vs iso {iso}");
        }
    }

    #[test]
    fn solo_request_uses_full_gpu() {
        let d = run(vec![RequestArrival {
            app: 1,
            req: 0,
            at: SimTime::ZERO,
        }]);
        let lat = d.tenants.log.stats(1).mean.unwrap();
        assert!(lat.as_millis_f64() < 10.0, "solo R50 {lat}");
    }

    #[test]
    fn uneven_quotas_are_ignored() {
        // REEF+ splits evenly regardless of quotas: with identical models
        // the two tenants get nearly identical latencies.
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.8),
            deploy(ModelKind::ResNet50, 0.2),
        ];
        let driver = ReefPlusDriver::new(apps);
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
        let l0 = sim
            .driver
            .tenants
            .log
            .stats(0)
            .mean
            .unwrap()
            .as_millis_f64();
        let l1 = sim
            .driver
            .tenants
            .log
            .stats(1)
            .mean
            .unwrap()
            .as_millis_f64();
        assert!((l0 - l1).abs() / l0 < 0.10, "{l0} vs {l1}");
    }
}
