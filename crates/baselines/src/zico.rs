//! ZICO: memory-coordinated unbounded sharing for concurrent DNN training.
//!
//! Zico (ATC '21) co-locates two training jobs on one GPU and *coordinates
//! their iterations* so that one job's memory-hungry forward pass overlaps
//! the other's memory-releasing backward pass (tick-tock). The
//! coordination bounds the combined memory footprint — but it serializes
//! progress at iteration granularity: a job may not start iteration `r`
//! until its partner has finished iteration `r − 1` (tick) or `r` (tock).
//! When one side runs ahead it *waits*, leaving the idle bubbles that the
//! paper's Fig. 18(b) shows BLESS removing (−8.5% iteration latency).
//!
//! Kernels themselves run unbounded (default contexts, hardware
//! scheduling), like UNBOUND.

use std::collections::VecDeque;

use gpu_sim::{CtxKind, Gpu, HostDriver, KernelDone, KernelTableId, QueueId, RequestArrival};
use sim_core::SimDuration;

use crate::common::{must, tag_of, untag, workload_notice, InflightTracker};
use bless::DeployedApp;
use metrics::RequestLog;

/// Wake token for deferred gate evaluation (so all same-instant arrivals
/// are observed before deciding whether a partner is exhausted).
const GATE_WAKE: u64 = u64::MAX - 3;

/// The ZICO driver (two training tenants).
pub struct ZicoDriver {
    /// Deployment data per app.
    pub apps: Vec<DeployedApp>,
    /// Request log.
    pub log: RequestLog,
    /// Initial stagger of the tock tenant's first iteration (half an
    /// iteration by default, so forward and backward phases interleave).
    pub stagger: SimDuration,
    queues: Vec<QueueId>,
    /// Each app's profiled kernels, registered as an engine table.
    tables: Vec<KernelTableId>,
    inflight: InflightTracker,
    /// Iterations completed per app.
    rounds_done: Vec<usize>,
    /// Requests waiting for the tick-tock gate, per app.
    gated: Vec<VecDeque<usize>>,
    /// Requests launched so far, per app.
    launched: Vec<usize>,
    stagger_applied: bool,
    wake_pending: bool,
}

impl ZicoDriver {
    /// Creates a ZICO driver; `stagger` delays the second tenant's first
    /// iteration (tick-tock phase offset).
    pub fn new(apps: Vec<DeployedApp>, stagger: SimDuration) -> Self {
        let n = apps.len();
        assert!(n >= 1, "ZICO needs at least one tenant");
        ZicoDriver {
            log: RequestLog::new(n),
            inflight: InflightTracker::new(n),
            stagger,
            queues: Vec::new(),
            tables: Vec::new(),
            rounds_done: vec![0; n],
            gated: vec![VecDeque::new(); n],
            launched: vec![0; n],
            stagger_applied: false,
            wake_pending: false,
            apps,
        }
    }

    /// The tick-tock gate: app `i` may launch its `r`-th iteration once
    /// its partner finished iteration `r − 1` (tick side, app 0) or `r`
    /// shifted by the stagger (tock side). With a single tenant — or once
    /// the partner's iteration stream is exhausted (nothing gated, nothing
    /// in flight) — there is no gate: coordination must not strand the
    /// surviving job's remaining iterations.
    fn gate_open(&self, app: usize, r: usize) -> bool {
        if self.apps.len() < 2 {
            return true;
        }
        let partner = (app + 1) % self.apps.len();
        let partner_exhausted =
            self.gated[partner].is_empty() && self.inflight.inflight(partner) == 0;
        if partner_exhausted {
            return true;
        }
        if app == 0 {
            // Tick leads: iteration r needs the partner's r-1 finished.
            r == 0 || self.rounds_done[partner] >= r
        } else {
            // Tock trails by the stagger: iteration r needs tick's r done
            // or at least launched ahead.
            self.rounds_done[partner] >= r
        }
    }

    fn try_launch(&mut self, gpu: &mut Gpu, app: usize) {
        while let Some(&req) = self.gated[app].front() {
            let r = self.launched[app];
            debug_assert_eq!(req, r, "requests launch in order");
            if !self.gate_open(app, r) {
                break;
            }
            self.gated[app].pop_front();
            let extra = if app == 1 && !self.stagger_applied {
                self.stagger_applied = true;
                self.stagger
            } else {
                SimDuration::ZERO
            };
            let total = self.apps[app].profile.kernels.len();
            let (queue, table) = (self.queues[app], self.tables[app]);
            for i in 0..total {
                must(
                    gpu.launch_delayed(queue, table, i, tag_of(app, i), extra),
                    "launch",
                );
            }
            self.inflight.launched(app, req, total);
            self.launched[app] += 1;
        }
    }
}

impl HostDriver for ZicoDriver {
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
        self.log.arrived(req.app, req.req, req.at);
        self.gated[req.app].push_back(req.req);
        // Defer gating so every same-instant arrival is seen first (else a
        // partner whose arrival is one event behind looks exhausted).
        if !self.wake_pending {
            self.wake_pending = true;
            gpu.wake_at(gpu.now(), GATE_WAKE);
        }
    }

    fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
        if token == GATE_WAKE {
            self.wake_pending = false;
            for app in 0..self.apps.len() {
                self.try_launch(gpu, app);
            }
        }
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        let (app, _kernel) = untag(done.tag);
        if let Some(req) = self.inflight.kernel_done(app) {
            self.log.completed(app, req, done.at);
            self.rounds_done[app] = req + 1;
            gpu.post_notice(workload_notice(app, req));
            // A finished iteration may open the partner's gate.
            for other in 0..self.apps.len() {
                self.try_launch(gpu, other);
            }
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

    fn deploy() -> DeployedApp {
        let profile = ProfiledApp::profile(
            &AppModel::build(ModelKind::Vgg11, Phase::Training),
            &GpuSpec::a100(),
        );
        DeployedApp::new(profile, 0.5, None)
    }

    #[test]
    fn tick_tock_alternates_iterations() {
        let apps = vec![deploy(), deploy()];
        let stagger = SimDuration::from_millis(5);
        let driver = ZicoDriver::new(apps, stagger);
        // Three iterations each, arriving up front (continuous training).
        let mut arrivals = Vec::new();
        for app in 0..2 {
            for req in 0..3 {
                arrivals.push(RequestArrival {
                    app,
                    req,
                    at: SimTime::ZERO,
                });
            }
        }
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(30)), RunOutcome::Completed);
        // All iterations completed, and the rounds stay coordinated: no
        // side ever runs more than one full round ahead of the other.
        for app in 0..2 {
            assert_eq!(sim.driver.log.completed_count(app), 3);
        }
        for r in 0..2 {
            let tick_next = sim.driver.log.records(0)[r + 1].completion.unwrap();
            let tock_r = sim.driver.log.records(1)[r].completion.unwrap();
            assert!(
                tock_r <= tick_next,
                "round {r}: tick ran ahead of the barrier"
            );
        }
    }

    #[test]
    fn coordination_leaves_bubbles() {
        // With coordination, a fast iteration waits for its partner:
        // the mean iteration latency exceeds plain unbounded sharing.
        let mk_arrivals = || {
            let mut v = Vec::new();
            for app in 0..2 {
                for req in 0..4 {
                    v.push(RequestArrival {
                        app,
                        req,
                        at: SimTime::ZERO,
                    });
                }
            }
            v
        };
        let zico = {
            let driver = ZicoDriver::new(vec![deploy(), deploy()], SimDuration::from_millis(5));
            let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
            let mut sim = Simulation::new(gpu, driver, mk_arrivals());
            assert_eq!(sim.run(SimTime::from_secs(60)), RunOutcome::Completed);
            sim.driver.log.mean_of_app_means().unwrap()
        };
        let unbound = {
            let driver =
                crate::StaticShareDriver::new(vec![deploy(), deploy()], crate::ShareMode::Unbound);
            let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
            let mut sim = Simulation::new(gpu, driver, mk_arrivals());
            assert_eq!(sim.run(SimTime::from_secs(60)), RunOutcome::Completed);
            sim.driver.log.mean_of_app_means().unwrap()
        };
        assert!(
            zico >= unbound,
            "coordination cannot be faster than unbounded here: {zico} vs {unbound}"
        );
    }
}
