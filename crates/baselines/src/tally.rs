//! Tally: non-intrusive priority-aware GPU sharing.
//!
//! Tally (arXiv 2410.07381) interposes transparently between applications
//! and the GPU and splits tenants into one *priority* task and a set of
//! *best-effort* tasks. The priority tenant's kernels are forwarded
//! unimpeded on an unrestricted context; best-effort tenants are scheduled
//! at kernel granularity — one kernel in flight at a time — and, while the
//! priority tenant is active, throttled to a small MPS SM-affinity slice
//! so that their occupancy cannot inflate priority latency. Whenever the
//! priority tenant goes idle the throttle lifts and best-effort kernels
//! run at the full SM cap (work conservation at kernel boundaries).
//!
//! Compared to BLESS, Tally
//!
//! * protects exactly one tenant instead of balancing per-quota progress,
//! * never searches for a spatial configuration (the throttle cap is a
//!   fixed fraction), and
//! * serializes each best-effort tenant's kernels, giving up the
//!   intra-request concurrency that BLESS's squads exploit.

use gpu_sim::{
    CtxId, CtxKind, Gpu, HostDriver, KernelDone, KernelTableId, QueueId, RequestArrival,
};

use crate::common::{must, must_some, tag_of, untag, TenantStates};
use bless::DeployedApp;

/// The tenant index Tally protects (by convention the first deployed app).
pub const PRIORITY_APP: usize = 0;

/// Best-effort SM share while the priority tenant is active, as a divisor
/// of the device SM count (`num_sms / TALLY_THROTTLE_DIVISOR`).
pub const TALLY_THROTTLE_DIVISOR: u32 = 8;

/// The Tally driver.
pub struct TallyDriver {
    /// Deployment data per app; app [`PRIORITY_APP`] is the priority task.
    pub apps: Vec<DeployedApp>,
    /// Tenant request state + log.
    pub tenants: TenantStates,
    queues: Vec<QueueId>,
    /// Each app's profiled kernels, registered as an engine table.
    tables: Vec<KernelTableId>,
    ctxs: Vec<CtxId>,
    throttled: bool,
}

impl TallyDriver {
    /// Creates a Tally driver; the first app is the priority tenant.
    pub fn new(apps: Vec<DeployedApp>) -> Self {
        assert!(!apps.is_empty(), "Tally needs at least the priority app");
        let totals = apps.iter().map(|a| a.profile.kernel_count()).collect();
        TallyDriver {
            tenants: TenantStates::new(totals),
            queues: Vec::new(),
            tables: Vec::new(),
            ctxs: Vec::new(),
            throttled: false,
            apps,
        }
    }

    fn priority_active(&self) -> bool {
        self.tenants.active[PRIORITY_APP].is_some()
    }

    /// Applies the best-effort throttle matching the priority tenant's
    /// activity. Raising or lowering an MPS cap re-allocates immediately,
    /// so in-flight best-effort kernels shrink the moment a priority
    /// request arrives (the non-intrusive analogue of REEF's preemption).
    fn sync_caps(&mut self, gpu: &mut Gpu) {
        let want = self.priority_active();
        if want == self.throttled {
            return;
        }
        self.throttled = want;
        let cap = if want {
            (gpu.spec().num_sms / TALLY_THROTTLE_DIVISOR).max(1)
        } else {
            gpu.spec().num_sms
        };
        for app in 1..self.ctxs.len() {
            must(gpu.set_mps_cap(self.ctxs[app], cap), "throttle cap");
        }
    }

    /// Launches the whole active priority request at once (its queue keeps
    /// kernels in order; Tally adds no scheduling between them).
    fn launch_priority_request(&mut self, gpu: &mut Gpu) {
        let act = must_some(
            self.tenants.active[PRIORITY_APP],
            "priority launch without active request",
        );
        debug_assert_eq!(act.next_kernel, 0, "priority requests launch whole");
        let total = self.tenants.kernel_total(PRIORITY_APP);
        let (queue, table) = (self.queues[PRIORITY_APP], self.tables[PRIORITY_APP]);
        for k in 0..total {
            must(
                gpu.launch_table(queue, table, k, tag_of(PRIORITY_APP, k)),
                "priority launch",
            );
        }
    }

    /// Launches the next kernel of a best-effort tenant's active request
    /// (exactly one in flight per tenant).
    fn launch_best_effort_kernel(&mut self, gpu: &mut Gpu, app: usize) {
        debug_assert_ne!(app, PRIORITY_APP);
        let act = must_some(
            self.tenants.active[app],
            "best-effort launch without active request",
        );
        let k = act.next_kernel;
        must(
            gpu.launch_table(self.queues[app], self.tables[app], k, tag_of(app, k)),
            "launch",
        );
    }
}

impl HostDriver for TallyDriver {
    fn on_start(&mut self, gpu: &mut Gpu) {
        for (i, app) in self.apps.iter().enumerate() {
            must(gpu.alloc_memory(app.profile.memory_mib), "deployment fits");
            let kind = if i == PRIORITY_APP {
                // The priority tenant is never restricted.
                CtxKind::Default
            } else {
                CtxKind::MpsAffinity {
                    sm_cap: gpu.spec().num_sms,
                }
            };
            let ctx = must(gpu.create_context(kind), "ctx");
            self.ctxs.push(ctx);
            self.queues.push(must(gpu.create_queue(ctx), "queue"));
            self.tables
                .push(gpu.register_kernel_table(app.profile.kernels.clone()));
        }
    }

    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        let was_idle = self.tenants.active[req.app].is_none();
        self.tenants.on_arrival(req.app, req.req, req.at);
        if was_idle {
            if req.app == PRIORITY_APP {
                self.launch_priority_request(gpu);
            } else {
                self.launch_best_effort_kernel(gpu, req.app);
            }
        }
        self.sync_caps(gpu);
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        let (app, kernel) = untag(done.tag);
        let completed = self.tenants.on_kernel_done(gpu, app, kernel, done.at);
        if app == PRIORITY_APP {
            // Mid-request completions need no action: the rest of the
            // request is already in flight on the in-order queue.
            if completed && self.tenants.active[PRIORITY_APP].is_some() {
                self.launch_priority_request(gpu);
            }
        } else if self.tenants.active[app].is_some() {
            // Continue the current request, or start the next queued one.
            self.launch_best_effort_kernel(gpu, app);
        }
        self.sync_caps(gpu);
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

    fn run(arrivals: Vec<RequestArrival>) -> TallyDriver {
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.5),
            deploy(ModelKind::Vgg11, 0.5),
        ];
        let driver = TallyDriver::new(apps);
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(10)), RunOutcome::Completed);
        sim.driver
    }

    fn at(app: usize, req: usize, at: SimTime) -> RequestArrival {
        RequestArrival { app, req, at }
    }

    #[test]
    fn priority_latency_stays_near_iso_under_contention() {
        let d = run(vec![
            at(0, 0, SimTime::ZERO),
            at(1, 0, SimTime::ZERO),
            at(1, 1, SimTime::ZERO),
        ]);
        assert_eq!(d.tenants.log.completed_count(0), 1);
        assert_eq!(d.tenants.log.completed_count(1), 2);
        // The throttled best-effort tenant can only perturb the priority
        // tenant through its 1/8 slice; the priority latency stays close
        // to running alone on the full GPU.
        let lat = d.tenants.log.stats(0).mean.unwrap().as_nanos() as f64;
        let solo = run(vec![at(0, 0, SimTime::ZERO)])
            .tenants
            .log
            .stats(0)
            .mean
            .unwrap()
            .as_nanos() as f64;
        assert!(lat < solo * 1.35, "priority {lat} vs solo {solo}");
    }

    #[test]
    fn best_effort_gets_full_gpu_when_priority_idle() {
        let solo_be = run(vec![at(1, 0, SimTime::ZERO)]);
        let lat = solo_be.tenants.log.stats(1).mean.unwrap();
        // One-kernel-at-a-time serialization on an otherwise free GPU:
        // within 2x of the isolated full-GPU latency.
        let iso = solo_be.apps[1].iso_latency();
        assert!(
            lat.as_nanos() < iso.as_nanos() * 2,
            "best-effort solo {lat} vs iso {iso}"
        );
    }

    #[test]
    fn no_best_effort_request_is_lost() {
        let mut arrivals = vec![at(0, 0, SimTime::ZERO)];
        for r in 0..6 {
            arrivals.push(at(1, r, SimTime::from_millis(r as u64)));
        }
        let d = run(arrivals);
        assert_eq!(d.tenants.log.completed_count(0), 1);
        assert_eq!(d.tenants.log.completed_count(1), 6);
    }

    #[test]
    fn throttle_follows_priority_activity() {
        // A priority request arriving mid-way through a best-effort run
        // must still finish quickly (the cap shrinks immediately).
        let d = run(vec![
            at(1, 0, SimTime::ZERO),
            at(0, 0, SimTime::from_millis(2)),
        ]);
        let lat = d.tenants.log.stats(0).mean.unwrap().as_nanos() as f64;
        let solo = run(vec![at(0, 0, SimTime::ZERO)])
            .tenants
            .log
            .stats(0)
            .mean
            .unwrap()
            .as_nanos() as f64;
        assert!(lat < solo * 1.35, "late priority {lat} vs solo {solo}");
    }
}
