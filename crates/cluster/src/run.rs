//! Running a placed multi-GPU deployment: one replicated BLESS runtime
//! per GPU, each driving its own simulated device.
//!
//! GPUs are mutually independent once placed — each gets its own
//! [`Gpu`], [`BlessDriver`], arrival stream, and (optionally) trace sink —
//! so the fleet is simulated on *sharded* worker threads: each worker
//! owns a fixed contiguous GPU range (a shard) and drains it
//! front-to-back, stealing from the tail of other shards once its own is
//! dry (DESIGN.md §5k). Results land in a preallocated per-GPU slot
//! arena, so the placement-order merge is a pure move and the merged
//! [`ClusterRun`] is byte-identical at any worker count, `workers = 1`
//! (the sequential loop) included.
//!
//! At fleet scale, materializing every [`GpuRun`] is the memory
//! bottleneck, not the simulation: [`run_cluster_stream`] folds each
//! GPU's result into a [`FleetSummary`] the moment it finishes and drops
//! the per-GPU buffers, keeping resident memory O(workers) instead of
//! O(fleet) while the summary (including its request-log digest) stays
//! byte-identical across worker counts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use bless::{BlessDriver, BlessParams, DeployedApp};
use gpu_sim::{BufferSink, Gpu, GpuSpec, HostCosts, RequestArrival, RunOutcome, Simulation};
use metrics::{Fnv, RequestLog, ShareMode};
use profiler::SharedProfile;
use sim_core::trace::TraceEvent;
use sim_core::SimTime;
use workloads::{TenantSpec, WorkloadSet};

use crate::placement::{place_with, Placement, PlacementError, PlacementPolicy, PlacementRequest};

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

/// Knobs for [`run_cluster_opts`].
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Record each GPU's structured trace stream into
    /// [`GpuRun::trace`].
    pub capture_trace: bool,
    /// Worker-pool size; `None` honours `std::thread::available_parallelism`.
    /// `Some(1)` runs the sequential loop. Output is byte-identical at
    /// any worker count.
    pub workers: Option<usize>,
    /// Initial degradation-ladder position per fleet tenant, restored
    /// into each GPU's driver before the first arrival (the same
    /// mechanism a migration uses to carry ladder state). `None` deploys
    /// everyone semi-spatial as usual.
    pub initial_modes: Option<Vec<ShareMode>>,
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
            initial_modes: None,
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
pub fn run_cluster<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
) -> Result<ClusterRun, PlacementError> {
    run_cluster_opts(
        ws,
        profiles,
        fleet_size,
        spec,
        params,
        horizon,
        &ClusterOptions::default(),
    )
}

/// [`run_cluster`] with explicit [`ClusterOptions`].
pub fn run_cluster_opts<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
) -> Result<ClusterRun, PlacementError> {
    if ws.tenants.is_empty() {
        return Err(PlacementError::EmptyWorkload);
    }
    if ws.len() != profiles.len() {
        return Err(PlacementError::ProfileCountMismatch {
            profiles: profiles.len(),
            tenants: ws.len(),
        });
    }
    if let Some(modes) = &opts.initial_modes {
        assert_eq!(
            modes.len(),
            ws.len(),
            "initial_modes needs one entry per tenant"
        );
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

    let workers = worker_count(opts.workers, placement.gpus_used);
    let gpus = if workers <= 1 || placement.gpus_used <= 1 {
        (0..placement.gpus_used)
            .map(|g| run_one_gpu(g, &placement, ws, &requests, spec, params, horizon, opts))
            .collect()
    } else {
        run_gpus_parallel(
            &placement, ws, &requests, spec, params, horizon, opts, workers,
        )
    };

    Ok(ClusterRun { placement, gpus })
}

/// Resolves a `workers` option into an effective worker count for
/// `items` independent units of work.
pub(crate) fn worker_count(workers: Option<usize>, items: usize) -> usize {
    workers
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
        .clamp(1, items.max(1))
}

/// Fixed GPU-range shards with tail stealing.
///
/// Shard `s` owns the contiguous range `[s·chunk, (s+1)·chunk)` and
/// drains it front-to-back; a worker whose shard runs dry steals from the
/// *tail* of the next non-empty shard, so stolen work is the work the
/// owner would have reached last. Contiguous ranges keep each worker's
/// slot-arena writes clustered; stealing absorbs load imbalance from
/// heterogeneous tenancies without perturbing the output (results are
/// keyed by GPU index, never by completion order).
struct ShardPool {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl ShardPool {
    fn new(gpus: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let chunk = gpus.div_ceil(shards);
        let queues = (0..shards)
            .map(|s| {
                let lo = (s * chunk).min(gpus);
                let hi = ((s + 1) * chunk).min(gpus);
                Mutex::new((lo..hi).collect())
            })
            .collect();
        ShardPool { queues }
    }

    /// Next GPU for worker `shard`: its own shard's head, else a steal
    /// from the tail of the nearest non-empty shard, else `None` (all
    /// work claimed; no new work is ever produced, so `None` is final).
    fn next(&self, shard: usize) -> Option<usize> {
        if let Some(g) = self.queues[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            return Some(g);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (shard + off) % n;
            if let Some(g) = self.queues[victim]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_back()
            {
                return Some(g);
            }
        }
        None
    }
}

/// Simulates the fleet on `workers` sharded threads, handing each
/// finished [`GpuRun`] to `consume` (on the worker thread that produced
/// it). Both fleet paths build on this: the materializing path's consumer
/// moves the run into its slot arena; the streaming path's folds it into
/// a [`FleetSummary`] and drops it.
#[allow(clippy::too_many_arguments)]
fn run_gpus_sharded<F>(
    placement: &Placement,
    ws: &WorkloadSet,
    requests: &[PlacementRequest],
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
    workers: usize,
    consume: &F,
) where
    F: Fn(GpuRun) + Sync,
{
    let pool = ShardPool::new(placement.gpus_used, workers);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let pool = &pool;
            scope.spawn(move || {
                while let Some(g) = pool.next(w) {
                    consume(run_one_gpu(
                        g, placement, ws, requests, spec, params, horizon, opts,
                    ));
                }
            });
        }
    });
}

/// Materializing fleet run: every GPU's result lands in a preallocated
/// per-GPU slot, so the placement-order merge is a pure move — the output
/// is byte-identical to the sequential loop at any worker count.
#[allow(clippy::too_many_arguments)]
fn run_gpus_parallel(
    placement: &Placement,
    ws: &WorkloadSet,
    requests: &[PlacementRequest],
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
    workers: usize,
) -> Vec<GpuRun> {
    let slots: Vec<Mutex<Option<GpuRun>>> =
        (0..placement.gpus_used).map(|_| Mutex::new(None)).collect();
    run_gpus_sharded(
        placement,
        ws,
        requests,
        spec,
        params,
        horizon,
        opts,
        workers,
        &|run: GpuRun| {
            let g = run.gpu;
            *slots[g].lock().unwrap_or_else(PoisonError::into_inner) = Some(run);
        },
    );
    // A panicking worker propagates out of the scope above, so every slot
    // holds exactly one result here.
    slots
        .into_iter()
        .enumerate()
        .map(|(g, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| panic!("gpu {g} produced no result"))
        })
        .collect()
}

/// Streaming summary of a fleet run — everything the fleet-scale
/// experiments need, at O(1) size per GPU (two words: digest and
/// utilization) instead of a materialized [`GpuRun`].
///
/// All fields are byte-stable across worker counts: counters are exact
/// integer sums (commutative), and the two order-sensitive folds (the
/// fleet digest and the utilization mean) run over per-GPU slots in GPU
/// index order after the workers join.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// The placement that was simulated.
    pub placement: Placement,
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

/// The shared fold target of [`run_cluster_stream`]: commutative atomic
/// counters plus per-GPU word slots for the order-sensitive parts.
struct FleetAccumulator {
    digests: Vec<AtomicU64>,
    utilization_bits: Vec<AtomicU64>,
    completed_gpus: AtomicUsize,
    arrived: AtomicU64,
    completed: AtomicU64,
    latency_ns: AtomicU64,
    max_latency_ns: AtomicU64,
}

impl FleetAccumulator {
    fn new(gpus: usize) -> Self {
        FleetAccumulator {
            digests: (0..gpus).map(|_| AtomicU64::new(0)).collect(),
            utilization_bits: (0..gpus).map(|_| AtomicU64::new(0)).collect(),
            completed_gpus: AtomicUsize::new(0),
            arrived: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            latency_ns: AtomicU64::new(0),
            max_latency_ns: AtomicU64::new(0),
        }
    }

    /// Folds one GPU's result in; the caller drops the run (and its log,
    /// trace, and tenant buffers) immediately after.
    fn fold(&self, run: &GpuRun) {
        let mut arrived = 0u64;
        let mut completed = 0u64;
        let mut latency = 0u64;
        let mut max_latency = 0u64;
        for app in 0..run.tenants.len() {
            for r in run.log.records(app) {
                arrived += 1;
                if let Some(l) = r.latency() {
                    completed += 1;
                    latency += l.as_nanos();
                    max_latency = max_latency.max(l.as_nanos());
                }
            }
        }
        self.arrived.fetch_add(arrived, Ordering::Relaxed);
        self.completed.fetch_add(completed, Ordering::Relaxed);
        self.latency_ns.fetch_add(latency, Ordering::Relaxed);
        self.max_latency_ns
            .fetch_max(max_latency, Ordering::Relaxed);
        if run.outcome == RunOutcome::Completed {
            self.completed_gpus.fetch_add(1, Ordering::Relaxed);
        }
        self.digests[run.gpu].store(run.log.digest(), Ordering::Relaxed);
        self.utilization_bits[run.gpu].store(run.utilization.to_bits(), Ordering::Relaxed);
    }

    /// Final GPU-order folds, after all workers joined.
    fn finish(self, placement: Placement) -> FleetSummary {
        let mut h = Fnv::new();
        let mut util_sum = 0.0f64;
        for (d, u) in self.digests.iter().zip(&self.utilization_bits) {
            h.write_u64(d.load(Ordering::Relaxed));
            util_sum += f64::from_bits(u.load(Ordering::Relaxed));
        }
        let gpus = self.digests.len();
        FleetSummary {
            placement,
            completed_gpus: self.completed_gpus.into_inner(),
            arrived_requests: self.arrived.into_inner(),
            completed_requests: self.completed.into_inner(),
            latency_sum_ns: self.latency_ns.into_inner(),
            max_latency_ns: self.max_latency_ns.into_inner(),
            mean_utilization: if gpus > 0 {
                util_sum / gpus as f64
            } else {
                0.0
            },
            digest: h.finish(),
        }
    }
}

/// [`run_cluster_opts`] for fleets too big to materialize: each GPU's
/// result folds into a [`FleetSummary`] the moment it finishes and its
/// buffers are freed, so resident memory stays O(workers) GPU results
/// (plus two words per GPU) instead of O(fleet). The summary — including
/// its fleet digest — is byte-identical across worker counts and to
/// summarizing a materialized [`run_cluster_opts`] run.
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
    if ws.tenants.is_empty() {
        return Err(PlacementError::EmptyWorkload);
    }
    if ws.len() != profiles.len() {
        return Err(PlacementError::ProfileCountMismatch {
            profiles: profiles.len(),
            tenants: ws.len(),
        });
    }
    if let Some(modes) = &opts.initial_modes {
        assert_eq!(
            modes.len(),
            ws.len(),
            "initial_modes needs one entry per tenant"
        );
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

    let acc = FleetAccumulator::new(placement.gpus_used);
    let workers = worker_count(opts.workers, placement.gpus_used);
    if workers <= 1 || placement.gpus_used <= 1 {
        for g in 0..placement.gpus_used {
            acc.fold(&run_one_gpu(
                g, &placement, ws, &requests, spec, params, horizon, opts,
            ));
        }
    } else {
        run_gpus_sharded(
            &placement,
            ws,
            &requests,
            spec,
            params,
            horizon,
            opts,
            workers,
            &|run: GpuRun| acc.fold(&run),
        );
    }
    Ok(acc.finish(placement))
}

/// Simulates one GPU's tenants to completion — the unit of work both the
/// sequential loop and the worker pool execute.
#[allow(clippy::too_many_arguments)]
fn run_one_gpu(
    g: usize,
    placement: &Placement,
    ws: &WorkloadSet,
    requests: &[PlacementRequest],
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    opts: &ClusterOptions,
) -> GpuRun {
    let tenants = placement.tenants_of(g);
    // Build a GPU-local workload with remapped app ids.
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
    // Deployment shares the interned profiles — no kernel-table copies.
    let apps: Vec<DeployedApp> = tenants
        .iter()
        .map(|&t| {
            DeployedApp::new(
                SharedProfile::clone(&requests[t].profile),
                ws.tenants[t].quota,
                None,
            )
        })
        .collect();
    let mut driver = BlessDriver::new(apps, params.clone());
    if let Some(modes) = &opts.initial_modes {
        for (local, &t) in tenants.iter().enumerate() {
            driver.restore_share_mode(local, modes[t], 0);
        }
    }
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    let sink = if opts.capture_trace {
        let s = BufferSink::new();
        gpu.set_trace_sink(Box::new(s.clone()));
        Some(s)
    } else {
        None
    };
    let arrivals: Vec<RequestArrival> = local_ws.initial_arrivals();
    let mut sim =
        Simulation::new(gpu, driver, arrivals).with_notice_handler(local_ws.notice_handler());
    let outcome = sim.run(horizon);
    let makespan = sim.gpu.now().as_secs_f64();
    let utilization = if makespan > 0.0 {
        sim.gpu.busy_sm_seconds() / (spec.num_sms as f64 * makespan)
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
        let (spec, ws, profiles) = four_tenant_fixture();
        let run = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
        )
        .unwrap();
        assert_eq!(run.placement.gpus_used, 2);
        assert!(run.all_completed());
        for t in 0..4 {
            let ms = run.tenant_mean_ms(t).expect("tenant served");
            assert!(ms.is_finite() && ms > 0.0);
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
        let plain = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
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
        let err = run_cluster(
            &ws,
            profiles,
            1,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
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
        let err = run_cluster::<SharedProfile>(
            &ws,
            vec![],
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
        )
        .unwrap_err();
        assert_eq!(err, PlacementError::EmptyWorkload);
    }

    #[test]
    fn profile_count_mismatch_is_a_typed_error() {
        let (spec, ws, mut profiles) = four_tenant_fixture();
        profiles.pop();
        let err = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
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

    fn strict_pair_fixture() -> (GpuSpec, WorkloadSet, Vec<SharedProfile>) {
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
    fn pinned_strict_spatial_tenancy_serves_every_request() {
        // `initial_modes` restores each tenant's ladder position before
        // the first arrival: the pinned pair still serves every request,
        // on a different schedule than the same pair deployed
        // semi-spatial.
        let (spec, ws, profiles) = strict_pair_fixture();
        let run = |initial_modes| {
            let opts = ClusterOptions {
                initial_modes,
                ..ClusterOptions::default()
            };
            let horizon = SimTime::from_secs(60);
            let params = BlessParams::default();
            run_cluster_opts(&ws, profiles.clone(), 1, &spec, &params, horizon, &opts).unwrap()
        };
        let pinned = run(Some(vec![ShareMode::StrictSpatial; 2]));
        let semi = run(None);
        let g = &pinned.gpus[0];
        assert_eq!(g.outcome, RunOutcome::Completed);
        for app in 0..2 {
            assert_eq!(g.log.completed_count(app), 6, "app {app} lost requests");
        }
        assert_ne!(
            g.log.digest(),
            semi.gpus[0].log.digest(),
            "pinning the ladder changed nothing"
        );
    }

    #[test]
    fn pool_reachable_tenancies_stay_monolithic() {
        // Without mode pinning every tenant deploys semi-spatial and can
        // reach the shared pool.
        let (spec, ws, profiles) = strict_pair_fixture();
        let run = run_cluster(
            &ws,
            profiles,
            1,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(60),
        )
        .unwrap();
        assert!(run.all_completed());
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

        let mut summaries = Vec::new();
        for workers in [1usize, 2, 4] {
            let opts = ClusterOptions {
                workers: Some(workers),
                ..ClusterOptions::default()
            };
            let s = run_cluster_stream(&ws, profiles.clone(), 4, &spec, &params, horizon, &opts)
                .unwrap();
            assert_eq!(s.digest, want_digest, "workers={workers}");
            assert_eq!(s.placement, seq.placement);
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
        let err = run_cluster(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            SimTime::from_secs(10),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Unplaceable { request: 0, .. }
        ));
    }
}
