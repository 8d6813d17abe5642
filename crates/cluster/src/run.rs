//! Running a placed multi-GPU deployment: one replicated BLESS runtime
//! per GPU, each driving its own simulated device.
//!
//! GPUs are mutually independent once placed — each gets its own
//! [`Gpu`], [`BlessDriver`], arrival stream, and (optionally) trace sink —
//! so one runner validates, places, and simulates the GPUs on
//! [`sim_core::par`], the workspace's ordered parallel map (DESIGN.md
//! §5k). Each GPU's result reaches the calling thread in GPU order, so
//! the output is byte-identical at any worker count, `workers = 1` (the
//! sequential loop) included. The two entry points differ only in what
//! they keep of each GPU:
//!
//! * [`run_cluster_opts`] collects every [`GpuRun`] into a
//!   [`ClusterRun`];
//! * [`run_cluster_stream`] reduces each [`GpuRun`] to a few words on the
//!   worker that simulated it and folds those into a [`FleetSummary`].
//!   At fleet scale, materializing every [`GpuRun`] is the memory
//!   bottleneck, not the simulation; this keeps O(workers) GPU results
//!   resident, plus a few words per GPU, instead of O(fleet) results.

use bless::{BlessDriver, BlessParams, DeployedApp};
use gpu_sim::{BufferSink, Gpu, GpuSpec, HostCosts, RequestArrival, RunOutcome, Simulation};
use metrics::{Fnv, RequestLog};
use profiler::SharedProfile;
use sim_core::par;
use sim_core::trace::TraceEvent;
use sim_core::SimTime;
use workloads::{TenantSpec, WorkloadSet};

use crate::placement::{
    place_with, Placement, PlacementDigest, PlacementError, PlacementPolicy, PlacementRequest,
};

/// Result of one GPU's run within the cluster.
#[derive(Debug)]
pub struct GpuRun {
    /// This GPU's index within the placement.
    pub gpu: usize,
    /// Request indices (into the cluster's tenant list) served here.
    pub tenants: Vec<usize>,
    /// The GPU-local request log (indexed by local tenant position).
    pub log: RequestLog,
    /// Simulation outcome.
    pub outcome: RunOutcome,
    /// GPU utilization over its makespan.
    pub utilization: f64,
    /// This GPU's structured trace stream (empty unless
    /// [`ClusterOptions::capture_trace`] was set). Events are GPU-local:
    /// app ids index into `tenants`.
    pub trace: Vec<TraceEvent>,
}

/// Result of a whole cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// The placement used.
    pub placement: Placement,
    /// Per-GPU results, in placement order.
    pub gpus: Vec<GpuRun>,
}

impl ClusterRun {
    /// Mean latency (ms) of one cluster-level tenant.
    pub fn tenant_mean_ms(&self, tenant: usize) -> Option<f64> {
        let gpu = *self.placement.assignments.get(tenant)?;
        let local = self.gpus[gpu].tenants.iter().position(|&t| t == tenant)?;
        self.gpus[gpu]
            .log
            .stats(local)
            .mean
            .map(|d| d.as_millis_f64())
    }

    /// True when every GPU completed all its requests.
    pub fn all_completed(&self) -> bool {
        self.gpus.iter().all(|g| g.outcome == RunOutcome::Completed)
    }
}

/// Knobs for [`run_cluster_opts`] and [`run_cluster_stream`].
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Record each GPU's structured trace stream into
    /// [`GpuRun::trace`].
    pub capture_trace: bool,
    /// Worker-pool size; `None` honours `std::thread::available_parallelism`.
    /// `Some(1)` runs the sequential loop. Output is byte-identical at
    /// any worker count.
    pub workers: Option<usize>,
    /// How tenants are matched to GPUs during placement
    /// ([`PlacementPolicy::FirstFit`] by default;
    /// [`PlacementPolicy::ContentionAware`] scores candidates by
    /// predicted bottleneck-channel overlap).
    pub placement_policy: PlacementPolicy,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            capture_trace: false,
            workers: None,
            placement_policy: PlacementPolicy::FirstFit,
        }
    }
}

/// Places the workload's tenants onto a fleet and serves each GPU with a
/// replicated BLESS runtime, simulating GPUs in parallel.
///
/// `profiles` must align with `ws.tenants` (one profile per tenant, on the
/// fleet's GPU spec). Pass [`SharedProfile`] handles to avoid deep-copying
/// kernel tables; plain [`profiler::ProfiledApp`] values are accepted and
/// interned on entry.
pub fn run_cluster_opts<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
) -> Result<ClusterRun, PlacementError> {
    let mut gpus = Vec::new();
    let fleet = Fleet::place(ws, profiles, fleet_size, spec, params, horizon, opts)?;
    fleet.run(|run| run, |run| gpus.push(run));
    Ok(ClusterRun {
        placement: fleet.placement,
        gpus,
    })
}

/// Streaming summary of a fleet run — everything the fleet-scale
/// experiments need, at O(1) size per GPU instead of a materialized
/// [`GpuRun`].
///
/// All fields are byte-stable across worker counts: each GPU's result is
/// reduced to a fixed-size tally on its worker, and the tallies fold into
/// the summary in GPU index order on the calling thread.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// The placement that was simulated, as its digest.
    pub placement: PlacementDigest,
    /// GPUs whose simulation completed every request.
    pub completed_gpus: usize,
    /// Requests that arrived fleet-wide.
    pub arrived_requests: u64,
    /// Requests that completed fleet-wide.
    pub completed_requests: u64,
    /// Exact sum of completed-request latencies, in nanoseconds.
    pub latency_sum_ns: u64,
    /// Worst completed-request latency, in nanoseconds.
    pub max_latency_ns: u64,
    /// Mean per-GPU utilization (folded in GPU order).
    pub mean_utilization: f64,
    /// FNV-1a fold of every GPU's request-log digest, in GPU order —
    /// byte-identical to hashing the sequential run's logs.
    pub digest: u64,
}

impl FleetSummary {
    /// Mean completed-request latency in milliseconds, if any completed.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.completed_requests == 0 {
            return None;
        }
        Some(self.latency_sum_ns as f64 / self.completed_requests as f64 / 1e6)
    }

    /// True when every GPU completed all its requests.
    pub fn all_completed(&self) -> bool {
        self.completed_gpus == self.placement.gpus_used
    }
}

/// One GPU's contribution to a [`FleetSummary`], reduced on the worker
/// that simulated it so the GPU's log, trace and tenant buffers are freed
/// there.
#[derive(Debug, PartialEq)]
struct GpuTally {
    digest: u64,
    utilization: f64,
    arrived: u64,
    completed: u64,
    latency_ns: u64,
    max_latency_ns: u64,
    completed_run: bool,
}

impl GpuTally {
    fn of(run: &GpuRun) -> Self {
        let mut t = GpuTally {
            digest: run.log.digest(),
            utilization: run.utilization,
            arrived: 0,
            completed: 0,
            latency_ns: 0,
            max_latency_ns: 0,
            completed_run: run.outcome == RunOutcome::Completed,
        };
        for app in 0..run.tenants.len() {
            for r in run.log.records(app) {
                t.arrived += 1;
                if let Some(l) = r.latency() {
                    t.completed += 1;
                    t.latency_ns += l.as_nanos();
                    t.max_latency_ns = t.max_latency_ns.max(l.as_nanos());
                }
            }
        }
        t
    }
}

/// [`run_cluster_opts`] for fleets too big to materialize: each GPU's
/// result is reduced to a few words on its worker and its buffers are
/// freed, so O(workers) GPU results stay resident (plus a few words per
/// GPU) instead of O(fleet). The summary — including its fleet digest — is
/// byte-identical across worker counts and to summarizing a materialized
/// [`run_cluster_opts`] run.
///
/// Trace capture is refused (a fleet-wide trace is exactly the O(fleet)
/// buffer this path exists to avoid); use [`run_cluster_opts`] for that.
///
/// # Panics
///
/// Panics if `opts.capture_trace` is set.
pub fn run_cluster_stream<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
) -> Result<FleetSummary, PlacementError> {
    assert!(
        !opts.capture_trace,
        "run_cluster_stream cannot capture traces; use run_cluster_opts"
    );
    let fleet = Fleet::place(ws, profiles, fleet_size, spec, params, horizon, opts)?;
    // The same GPU-order folds as hashing and averaging a materialized
    // run's per-GPU digests and utilizations.
    let (mut h, mut util_sum, mut completed_gpus) = (Fnv::new(), 0.0f64, 0);
    let (mut arrived, mut completed, mut latency_ns, mut max_latency_ns) = (0, 0, 0, 0);
    fleet.run(
        |run| GpuTally::of(&run),
        |t| {
            h.write_u64(t.digest);
            util_sum += t.utilization;
            completed_gpus += usize::from(t.completed_run);
            arrived += t.arrived;
            completed += t.completed;
            latency_ns += t.latency_ns;
            max_latency_ns = max_latency_ns.max(t.max_latency_ns);
        },
    );
    let gpus = fleet.placement.gpus_used;
    Ok(FleetSummary {
        placement: fleet.placement.digest(),
        completed_gpus,
        arrived_requests: arrived,
        completed_requests: completed,
        latency_sum_ns: latency_ns,
        max_latency_ns,
        mean_utilization: if gpus > 0 {
            util_sum / gpus as f64
        } else {
            0.0
        },
        digest: h.finish(),
    })
}

/// A validated, placed fleet: the one runner behind both public entry
/// points, and the per-GPU builders the chaos runner shares.
pub(crate) struct Fleet<'a> {
    pub(crate) placement: Placement,
    pub(crate) requests: Vec<PlacementRequest>,
    /// Every GPU's tenants in one array, ascending within each GPU: GPU
    /// `g`'s are `members[starts[g]..starts[g + 1]]`.
    members: Vec<usize>,
    starts: Vec<usize>,
    ws: &'a WorkloadSet,
    spec: &'a GpuSpec,
    params: &'a BlessParams,
    horizon: SimTime,
    opts: &'a ClusterOptions,
}

impl<'a> Fleet<'a> {
    /// Validates the inputs and places the tenants.
    pub(crate) fn place<P: Into<SharedProfile>>(
        ws: &'a WorkloadSet,
        profiles: Vec<P>,
        fleet_size: usize,
        spec: &'a GpuSpec,
        params: &'a BlessParams,
        horizon: SimTime,
        opts: &'a ClusterOptions,
    ) -> Result<Self, PlacementError> {
        if ws.tenants.is_empty() {
            return Err(PlacementError::EmptyWorkload);
        }
        if ws.len() != profiles.len() {
            return Err(PlacementError::ProfileCountMismatch {
                profiles: profiles.len(),
                tenants: ws.len(),
            });
        }
        let requests: Vec<PlacementRequest> = profiles
            .into_iter()
            .zip(&ws.tenants)
            .map(|(p, t)| PlacementRequest {
                profile: p.into(),
                quota: t.quota,
            })
            .collect();
        let placement = place_with(
            &requests,
            fleet_size,
            spec.memory_mib,
            &profiler::AdmissionPolicy::default(),
            &opts.placement_policy,
        )?;
        // A counting sort of the tenants by GPU, stable, so each GPU's
        // tenants keep ascending order.
        let mut starts = vec![0; placement.gpus_used + 1];
        for &g in &placement.assignments {
            starts[g + 1] += 1;
        }
        for g in 0..placement.gpus_used {
            starts[g + 1] += starts[g];
        }
        let mut cursor = starts.clone();
        let mut members = vec![0; placement.assignments.len()];
        for (t, &g) in placement.assignments.iter().enumerate() {
            members[cursor[g]] = t;
            cursor[g] += 1;
        }
        Ok(Fleet {
            placement,
            requests,
            members,
            starts,
            ws,
            spec,
            params,
            horizon,
            opts,
        })
    }

    /// Simulates every placed GPU on the worker pool, reduces each run
    /// with `reduce` on its worker, and hands the reductions to `sink` in
    /// GPU order on the calling thread.
    fn run<R: Send>(&self, reduce: impl Fn(GpuRun) -> R + Sync, mut sink: impl FnMut(R)) {
        par::for_each_ordered(
            self.opts.workers,
            0..self.placement.gpus_used,
            |g| reduce(self.run_one_gpu(g)),
            |_, r| sink(r),
        );
    }

    /// GPU `g`'s tenants (fleet ids) and its GPU-local workload: app ids
    /// remapped to local positions, seeded at the fleet seed plus `g`.
    pub(crate) fn local_workload(&self, g: usize) -> (Vec<usize>, WorkloadSet) {
        let ws = self.ws;
        let tenants = self.members[self.starts[g]..self.starts[g + 1]].to_vec();
        let local_ws = WorkloadSet::new(
            tenants
                .iter()
                .map(|&t| {
                    TenantSpec::new(
                        ws.tenants[t].model.clone(),
                        ws.tenants[t].quota,
                        ws.tenants[t].pattern.clone(),
                    )
                })
                .collect(),
            ws.seed.wrapping_add(g as u64),
        );
        (tenants, local_ws)
    }

    /// A fresh device running a BLESS runtime that serves `tenants` (fleet
    /// ids, in local app order) over `arrivals`. Deployment shares the
    /// interned profiles — no kernel-table copies.
    pub(crate) fn simulation(
        &self,
        tenants: &[usize],
        arrivals: Vec<RequestArrival>,
    ) -> Simulation<BlessDriver> {
        let apps: Vec<DeployedApp> = tenants
            .iter()
            .map(|&t| {
                DeployedApp::new(
                    SharedProfile::clone(&self.requests[t].profile),
                    self.ws.tenants[t].quota,
                    None,
                )
            })
            .collect();
        let driver = BlessDriver::new(apps, self.params.clone());
        let gpu = Gpu::new(self.spec.clone(), HostCosts::paper());
        Simulation::new(gpu, driver, arrivals)
    }

    /// Simulates one GPU's tenants to completion — the unit of work of
    /// the worker pool.
    fn run_one_gpu(&self, g: usize) -> GpuRun {
        let (tenants, local_ws) = self.local_workload(g);
        let mut sim = self
            .simulation(&tenants, local_ws.initial_arrivals())
            .with_notice_handler(local_ws.notice_handler());
        let sink = if self.opts.capture_trace {
            let s = BufferSink::new();
            sim.gpu.set_trace_sink(Box::new(s.clone()));
            Some(s)
        } else {
            None
        };
        let outcome = sim.run(self.horizon);
        let makespan = sim.gpu.now().as_secs_f64();
        let utilization = if makespan > 0.0 {
            sim.gpu.busy_sm_seconds() / (self.spec.num_sms as f64 * makespan)
        } else {
            0.0
        };
        GpuRun {
            gpu: g,
            tenants,
            log: sim.driver.log,
            outcome,
            utilization,
            trace: sink.map(|s| s.take()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{AppModel, ModelKind, Phase};
    use profiler::ProfiledApp;
    use sim_core::SimDuration;
    use workloads::ArrivalPattern;

    fn four_tenant_fixture() -> (GpuSpec, WorkloadSet, Vec<SharedProfile>) {
        let spec = GpuSpec::a100();
        let kinds = [
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            ModelKind::ResNet101,
            ModelKind::Bert,
        ];
        let tenants: Vec<TenantSpec> = kinds
            .iter()
            .map(|&k| {
                TenantSpec::new(
                    AppModel::build(k, Phase::Inference),
                    0.5,
                    ArrivalPattern::ClosedLoop {
                        think: SimDuration::from_millis(10),
                        count: 4,
                    },
                )
            })
            .collect();
        let profiles: Vec<SharedProfile> = kinds
            .iter()
            .map(|&k| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
            .collect();
        // Quotas sum to 2.0: WorkloadSet normally rejects oversubscription,
        // so build per-GPU sets through the cluster API instead.
        (spec, WorkloadSet { tenants, seed: 5 }, profiles)
    }

    #[test]
    fn four_tenants_on_two_gpus_all_complete() {
        // The four-tenant fleet packs two GPUs; the periodic pair shares one.
        for (fixture, gpus_used) in [(four_tenant_fixture(), 2), (pair_fixture(), 1)] {
            let (spec, ws, profiles) = fixture;
            let run = run_cluster_opts(
                &ws,
                profiles,
                4,
                &spec,
                &BlessParams::default(),
                SimTime::from_secs(60),
                &ClusterOptions::default(),
            )
            .unwrap();
            assert_eq!(run.placement.gpus_used, gpus_used);
            assert!(run.all_completed());
            for t in 0..ws.len() {
                let ms = run.tenant_mean_ms(t).expect("tenant served");
                assert!(ms.is_finite() && ms > 0.0);
            }
        }
    }

    /// The sequential loop: one worker.
    fn sequential() -> ClusterOptions {
        ClusterOptions {
            workers: Some(1),
            ..ClusterOptions::default()
        }
    }

    #[test]
    fn parallel_and_sequential_runs_are_identical() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let horizon = SimTime::from_secs(60);
        let params = BlessParams::default();
        // Force a real worker pool: on a single-core host the default
        // would degrade to the sequential loop and compare it to itself.
        let opts = ClusterOptions {
            workers: Some(3),
            ..ClusterOptions::default()
        };
        let par =
            run_cluster_opts(&ws, profiles.clone(), 4, &spec, &params, horizon, &opts).unwrap();
        let seq =
            run_cluster_opts(&ws, profiles, 4, &spec, &params, horizon, &sequential()).unwrap();
        assert_eq!(par.placement, seq.placement);
        assert_eq!(par.gpus.len(), seq.gpus.len());
        for (p, s) in par.gpus.iter().zip(&seq.gpus) {
            assert_eq!(p.gpu, s.gpu);
            assert_eq!(p.tenants, s.tenants);
            assert_eq!(p.outcome, s.outcome);
            assert_eq!(p.utilization.to_bits(), s.utilization.to_bits());
            for app in 0..p.tenants.len() {
                let pr: Vec<_> = p
                    .log
                    .records(app)
                    .iter()
                    .map(|r| (r.arrival, r.completion))
                    .collect();
                let sr: Vec<_> = s
                    .log
                    .records(app)
                    .iter()
                    .map(|r| (r.arrival, r.completion))
                    .collect();
                assert_eq!(pr, sr, "gpu {} app {app}", p.gpu);
            }
        }
    }

    #[test]
    fn trace_capture_covers_every_gpu() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let run = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
            &ClusterOptions {
                capture_trace: true,
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        for g in &run.gpus {
            assert!(!g.trace.is_empty(), "gpu {} captured no events", g.gpu);
        }
        // Capture is purely observational: the uncaptured run matches.
        let (spec, ws, profiles) = four_tenant_fixture();
        let plain = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
            &ClusterOptions::default(),
        )
        .unwrap();
        for (a, b) in run.gpus.iter().zip(&plain.gpus) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        }
    }

    #[test]
    fn fleet_errors_propagate() {
        let spec = GpuSpec::a100();
        let tenants: Vec<TenantSpec> = (0..2)
            .map(|_| {
                TenantSpec::new(
                    AppModel::build(ModelKind::ResNet50, Phase::Inference),
                    0.9,
                    ArrivalPattern::Simultaneous {
                        count: 1,
                        at: SimTime::ZERO,
                    },
                )
            })
            .collect();
        let profiles: Vec<SharedProfile> = (0..2)
            .map(|_| {
                ProfiledApp::profile_shared(
                    &AppModel::build(ModelKind::ResNet50, Phase::Inference),
                    &spec,
                )
            })
            .collect();
        let ws = WorkloadSet { tenants, seed: 1 };
        let err = run_cluster_opts(
            &ws,
            profiles,
            1,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
            &ClusterOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PlacementError::FleetTooSmall { .. }));
    }

    #[test]
    fn empty_workload_is_a_typed_error() {
        let spec = GpuSpec::a100();
        let ws = WorkloadSet {
            tenants: vec![],
            seed: 1,
        };
        let err = run_cluster_opts::<SharedProfile>(
            &ws,
            vec![],
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
            &ClusterOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, PlacementError::EmptyWorkload);
    }

    #[test]
    fn profile_count_mismatch_is_a_typed_error() {
        let (spec, ws, mut profiles) = four_tenant_fixture();
        profiles.pop();
        let err = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
            &ClusterOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PlacementError::ProfileCountMismatch {
                profiles: 3,
                tenants: 4
            }
        );
    }

    fn pair_fixture() -> (GpuSpec, WorkloadSet, Vec<SharedProfile>) {
        let spec = GpuSpec::a100();
        let kinds = [ModelKind::Vgg11, ModelKind::ResNet50];
        let tenants: Vec<TenantSpec> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                TenantSpec::new(
                    AppModel::build(k, Phase::Inference),
                    0.45,
                    ArrivalPattern::Periodic {
                        period: SimDuration::from_millis(5),
                        count: 6,
                        offset: SimDuration::from_millis(i as u64),
                    },
                )
            })
            .collect();
        let profiles = kinds
            .iter()
            .map(|&k| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
            .collect();
        (spec, WorkloadSet { tenants, seed: 9 }, profiles)
    }

    #[test]
    fn streaming_summary_matches_materialized_run_at_any_worker_count() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let horizon = SimTime::from_secs(60);
        let params = BlessParams::default();
        // Ground truth: the materialized sequential run, folded by hand.
        let seq = run_cluster_opts(
            &ws,
            profiles.clone(),
            4,
            &spec,
            &params,
            horizon,
            &sequential(),
        )
        .unwrap();
        let mut h = Fnv::new();
        for g in &seq.gpus {
            h.write_u64(g.log.digest());
        }
        let want_digest = h.finish();

        // The stream keeps only the placement's digest, so also check the
        // materialized placement against the one the stream simulates
        // (both come from `Fleet::place`), and the per-GPU tenant lists
        // against a scan of the assignments.
        let opts = sequential();
        let fleet = Fleet::place(&ws, profiles.clone(), 4, &spec, &params, horizon, &opts).unwrap();
        assert_eq!(fleet.placement, seq.placement);
        for g in &seq.gpus {
            assert_eq!(g.tenants, seq.placement.tenants_of(g.gpu));
        }

        let mut summaries = Vec::new();
        for workers in [1usize, 2, 4] {
            let opts = ClusterOptions {
                workers: Some(workers),
                ..ClusterOptions::default()
            };
            let s = run_cluster_stream(&ws, profiles.clone(), 4, &spec, &params, horizon, &opts)
                .unwrap();
            assert_eq!(s.digest, want_digest, "workers={workers}");
            assert_eq!(seq.placement, s.placement);
            assert!(s.all_completed());
            summaries.push(s);
        }
        // The whole summary — not just the digest — is byte-stable.
        assert_eq!(summaries[0], summaries[1]);
        assert_eq!(summaries[0], summaries[2]);
        // And the commutative counters agree with the materialized logs.
        let arrived: u64 = seq
            .gpus
            .iter()
            .map(|g| {
                (0..g.tenants.len())
                    .map(|a| g.log.records(a).len() as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(summaries[0].arrived_requests, arrived);
        assert_eq!(summaries[0].completed_requests, arrived);
        assert!(summaries[0].mean_latency_ms().is_some());
    }

    /// Stress for the ordered map under the fleet runner: seeded worker
    /// counts in 1..=4, with a `yield_now` on every worker before it
    /// hands its GPU back. Three copies of the four-tenant fixture fill
    /// six GPUs, so GPUs finish out of order.
    #[test]
    fn fleet_matches_one_worker_at_random_worker_counts() {
        let (spec, mut ws, profiles) = four_tenant_fixture();
        ws.tenants = ws.tenants.iter().cycle().take(12).cloned().collect();
        let profiles: Vec<SharedProfile> = profiles.iter().cycle().take(12).cloned().collect();
        let (params, horizon) = (BlessParams::default(), SimTime::from_secs(60));
        // Per-GPU tallies of the materialized and the streamed map, then
        // both public summaries, at `workers`.
        let run = |workers| {
            let opts = ClusterOptions {
                workers: Some(workers),
                ..ClusterOptions::default()
            };
            let fleet =
                Fleet::place(&ws, profiles.clone(), 12, &spec, &params, horizon, &opts).unwrap();
            let (mut materialized, mut streamed) = (Vec::new(), Vec::new());
            fleet.run(
                |run| {
                    std::thread::yield_now();
                    run
                },
                |run| materialized.push(GpuTally::of(&run)),
            );
            fleet.run(
                |run| {
                    std::thread::yield_now();
                    GpuTally::of(&run)
                },
                |t| streamed.push(t),
            );
            let summary =
                run_cluster_stream(&ws, profiles.clone(), 12, &spec, &params, horizon, &opts)
                    .unwrap();
            let cluster =
                run_cluster_opts(&ws, profiles.clone(), 12, &spec, &params, horizon, &opts)
                    .unwrap();
            let digests: Vec<u64> = cluster.gpus.iter().map(|g| g.log.digest()).collect();
            (materialized, streamed, summary, digests)
        };
        let want = run(1);
        assert_eq!(want.2.placement.gpus_used, 6);
        assert_eq!(want.0, want.1);
        let mut rng = sim_core::SimRng::new(0x5eed);
        for _ in 0..12 {
            let workers = rng.range_inclusive(1, 4) as usize;
            assert_eq!(run(workers), want, "workers = {workers}");
        }
    }

    #[test]
    fn contention_aware_fleet_runs_end_to_end() {
        let (spec, ws, profiles) = four_tenant_fixture();
        let opts = ClusterOptions {
            placement_policy: PlacementPolicy::contention_aware(),
            ..ClusterOptions::default()
        };
        let run = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
            &opts,
        )
        .unwrap();
        assert!(run.all_completed());
        // Every tenant still lands somewhere valid.
        for t in 0..4 {
            assert!(run.tenant_mean_ms(t).is_some());
        }
    }

    #[test]
    fn oom_tenant_is_a_typed_error() {
        // BERT cannot fit a 512 MiB device: placement rejects it with the
        // admission reason instead of panicking mid-deployment.
        let spec = GpuSpec {
            memory_mib: 512,
            ..GpuSpec::a100()
        };
        let model = AppModel::build(ModelKind::Bert, Phase::Inference);
        let ws = WorkloadSet {
            tenants: vec![TenantSpec::new(
                model.clone(),
                0.5,
                ArrivalPattern::Simultaneous {
                    count: 1,
                    at: SimTime::ZERO,
                },
            )],
            seed: 1,
        };
        let profiles = vec![ProfiledApp::profile_shared(&model, &spec)];
        let err = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
            &ClusterOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Unplaceable { request: 0, .. }
        ));
    }
}
