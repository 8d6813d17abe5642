//! Static-resource sharing baselines: UNBOUND, GSLICE, MIG (and the ISO
//! reference, which reuses the same launch-on-arrival driver).
//!
//! These systems launch kernels at *request granularity*: when a request
//! arrives, all its kernels are enqueued asynchronously into the
//! application's device queue and the host loses control (§3.2). They
//! differ only in how the application's context restricts SMs:
//!
//! * **UNBOUND** — default contexts, no restriction; the hardware
//!   scheduler arbitrates (high utilization, interfered and unpredictable
//!   latency).
//! * **GSLICE** — MPS SM-affinity contexts sized to each tenant's quota;
//!   idle SMs of one tenant are *not* usable by others (bubbles).
//! * **MIG** — hard partitions at the A100's GPC granularity; quotas are
//!   rounded to the nearest feasible slice, so many quota configurations
//!   are not expressible (Fig. 14).
//!
//! ZICO's unbounded training pairs with tick-tock staggering live in
//! [`crate::ZicoDriver`].

use gpu_sim::{CtxKind, Gpu, HostDriver, KernelDone, KernelTableId, QueueId, RequestArrival};

use crate::common::{must, tag_of, untag, InflightTracker};
use bless::DeployedApp;
use metrics::RequestLog;

/// How a static-share tenant's context is configured.
#[derive(Clone, Debug, PartialEq)]
pub enum ShareMode {
    /// Full-GPU default context (UNBOUND).
    Unbound,
    /// MPS SM-affinity cap at the tenant's quota (GSLICE, ISO).
    QuotaMps,
    /// Hard MIG partition at the nearest feasible slice.
    Mig,
}

/// The A100 exposes MIG slices at GPC granularity: 1/7 … 7/7 of the GPU.
/// Returns the SM count of the largest slice not exceeding `quota` (but at
/// least one GPC), given the GPU's SM count. Flooring is what makes
/// co-resident MIG instances feasible — and what loses capacity for
/// quotas that are not multiples of 1/7 (Fig. 14's inflexibility).
pub fn mig_slice_sms(quota: f64, num_sms: u32) -> u32 {
    let gpc = num_sms / 7;
    let slices = ((quota * 7.0).floor()).clamp(1.0, 7.0) as u32;
    (slices * gpc).min(num_sms)
}

/// A launch-on-arrival driver with per-tenant static contexts.
pub struct StaticShareDriver {
    /// Deployment data per app.
    pub apps: Vec<DeployedApp>,
    /// Request log.
    pub log: RequestLog,
    mode: ShareMode,
    queues: Vec<QueueId>,
    /// Each app's profiled kernels, registered as an engine table.
    tables: Vec<KernelTableId>,
    inflight: InflightTracker,
}

impl StaticShareDriver {
    /// Creates a driver with the given share mode.
    pub fn new(apps: Vec<DeployedApp>, mode: ShareMode) -> Self {
        let n = apps.len();
        StaticShareDriver {
            log: RequestLog::new(n),
            inflight: InflightTracker::new(n),
            mode,
            queues: Vec::new(),
            tables: Vec::new(),
            apps,
        }
    }
}

impl HostDriver for StaticShareDriver {
    fn on_start(&mut self, gpu: &mut Gpu) {
        let num_sms = gpu.spec().num_sms;
        for app in &self.apps {
            let kind = match self.mode {
                ShareMode::Unbound => CtxKind::Default,
                ShareMode::QuotaMps => CtxKind::MpsAffinity {
                    sm_cap: ((app.quota * num_sms as f64).round() as u32).clamp(1, num_sms),
                },
                ShareMode::Mig => CtxKind::MigPartition {
                    sm_count: mig_slice_sms(app.quota, num_sms),
                },
            };
            if let CtxKind::MigPartition { sm_count } = kind {
                // The MIG slice carves its own memory; the tenant must fit
                // inside it (real MIG OOMs otherwise).
                let slice_mib = gpu.spec().memory_mib * sm_count as u64 / num_sms as u64;
                assert!(
                    app.profile.memory_mib <= slice_mib,
                    "tenant needs {} MiB but its MIG slice holds {} MiB",
                    app.profile.memory_mib,
                    slice_mib
                );
            } else {
                must(gpu.alloc_memory(app.profile.memory_mib), "deployment fits");
            }
            let ctx = must(gpu.create_context(kind), "context");
            self.queues.push(must(gpu.create_queue(ctx), "queue"));
            self.tables
                .push(gpu.register_kernel_table(app.profile.kernels.clone()));
        }
    }

    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        self.log.arrived(req.app, req.req, req.at);
        let total = self.apps[req.app].profile.kernels.len();
        let (queue, table) = (self.queues[req.app], self.tables[req.app]);
        for i in 0..total {
            must(gpu.launch(queue, table, i, tag_of(req.app, i)), "launch");
        }
        self.inflight.launched(req.app, req.req, total);
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        let (app, _kernel) = untag(done.tag);
        if let Some(req) = self.inflight.kernel_done(app) {
            self.log.completed(app, req, done.at);
            gpu.post_notice(crate::common::workload_notice(app, req));
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

    fn run(mode: ShareMode, quotas: (f64, f64)) -> StaticShareDriver {
        let apps = vec![
            deploy(ModelKind::Vgg11, quotas.0),
            deploy(ModelKind::ResNet50, quotas.1),
        ];
        let driver = StaticShareDriver::new(apps, mode);
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
    fn mig_slices_snap_to_gpc_granularity() {
        assert_eq!(mig_slice_sms(0.5, 108), 45); // floor(0.5*7)=3 GPCs x 15 SMs
        assert_eq!(mig_slice_sms(1.0 / 3.0, 108), 30);
        assert_eq!(mig_slice_sms(2.0 / 3.0, 108), 60);
        assert_eq!(mig_slice_sms(0.05, 108), 15); // at least one GPC
        assert_eq!(mig_slice_sms(1.0, 108), 105);
        // Two half-GPU tenants fit side by side (3 GPCs each).
        assert!(2 * mig_slice_sms(0.5, 108) <= 108);
    }

    #[test]
    fn gslice_respects_quota_caps() {
        let d = run(ShareMode::QuotaMps, (1.0 / 3.0, 2.0 / 3.0));
        // Each app's latency should be near its ISO latency: GSLICE gives
        // exactly the quota partition, plus interference.
        for app in 0..2 {
            let lat = d.log.stats(app).mean.unwrap().as_nanos() as f64;
            let iso = d.apps[app].iso_latency().as_nanos() as f64;
            assert!(lat >= iso * 0.98, "app {app} cannot beat its partition");
            assert!(lat <= iso * 1.30, "app {app} too slow: {lat} vs {iso}");
        }
    }

    #[test]
    fn unbound_is_faster_on_average_but_unpredictable() {
        let g = run(ShareMode::QuotaMps, (0.5, 0.5));
        let u = run(ShareMode::Unbound, (0.5, 0.5));
        let mean = |d: &StaticShareDriver| d.log.mean_of_app_means().unwrap();
        // With both requests overlapping, UNBOUND's work-conserving
        // hardware arbitration beats the static split on average.
        assert!(mean(&u) < mean(&g), "{} vs {}", mean(&u), mean(&g));
    }

    #[test]
    fn mig_rounds_quotas_and_isolates() {
        let d = run(ShareMode::Mig, (1.0 / 3.0, 2.0 / 3.0));
        for app in 0..2 {
            assert_eq!(d.log.completed_count(app), 1);
        }
        // 1/3 quota -> 2 GPCs = 30 SMs, slower than the 36-SM ISO.
        let lat0 = d.log.stats(0).mean.unwrap();
        let iso0 = d.apps[0].iso_latency();
        assert!(
            lat0 > iso0,
            "MIG rounds 1/3 down to 30 SMs: {lat0} vs {iso0}"
        );
    }
}
