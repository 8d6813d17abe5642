//! `fleet_diurnal`: fleet10k's diurnal tenant cycle at 1/10 scale (1,000
//! GPUs, 2,000 tenants, ~100k open-loop requests) through placement, the
//! sharded streaming runner and streaming aggregation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bless::{BlessDriver, BlessParams, DeployedApp};
use cluster::{place_with, FleetSummary, Placement, PlacementPolicy, PlacementRequest};
use dnn_models::{AppModel, Phase};
use gpu_sim::{Gpu, GpuSpec, HostCosts, RunOutcome, Simulation};
use harness::experiments::fleet10k::{self, CYCLE, EQUAL_MEMORY_MIB, TRACE_SPAN};
use metrics::Fnv;
use profiler::{AdmissionPolicy, ProfiledApp, SharedProfile};
use sim_core::SimTime;
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

use crate::prof::{
    elapsed_ns, ratio, take_counts, timed_notices, Acc, CountingSink, Layer, SimTotals, Spans,
    TimedDriver,
};
use crate::stats::Summary;
use crate::{gate, more_setups, timed_reps, timed_setup, Metric, Opts, RunOut, TraceOut};

/// Fleet size: 1/10 of fleet10k.
pub const GPUS: usize = 1_000;
/// Mean requests per tenant over the 60 s diurnal trace.
const REQS_PER_TENANT: usize = 50;
/// Worker threads of the timed reps and of the traced decomposition.
const WORKERS: usize = 2;

fn horizon() -> SimTime {
    SimTime::ZERO + TRACE_SPAN + TRACE_SPAN
}

struct Setup {
    ws: WorkloadSet,
    profiles: Vec<SharedProfile>,
}

/// Profiles the cycle's models on the fleet's spec and builds the 2,000
/// tenants, with arrivals seeded by `seed`.
fn setup(seed: u64) -> Setup {
    let (mut ws, profiles) = fleet10k::workload(GPUS, REQS_PER_TENANT);
    ws.seed = seed;
    Setup { ws, profiles }
}

/// The tenants as placement requests, sharing the set-up's profiles.
fn placement_requests(s: &Setup) -> Vec<PlacementRequest> {
    s.profiles
        .iter()
        .zip(&s.ws.tenants)
        .map(|(p, t)| PlacementRequest {
            profile: SharedProfile::clone(p),
            quota: t.quota,
        })
        .collect()
}

fn streamed(s: &Setup, workers: usize) -> FleetSummary {
    fleet10k::streamed_run(&s.ws, &s.profiles, GPUS, workers).0
}

pub fn run(o: &Opts) -> RunOut {
    let mut setup_s = Vec::new();
    let s = timed_setup(&mut setup_s, || setup(o.seed));
    // Warm-up on one worker: also the reference the timed reps must match.
    let reference = streamed(&s, 1);
    let (wall_s, heap_mib, summaries) = timed_reps(
        o.seconds,
        || streamed(&s, WORKERS),
        || more_setups(&mut setup_s, || setup(o.seed)),
    );
    let reps = summaries.len() as u64;
    let gates = vec![
        gate(
            "summary_identical_at_workers_1_and_2",
            summaries.iter().all(|x| *x == reference),
        ),
        gate("every_gpu_completed", reference.all_completed()),
        gate(
            "arrived_equals_completed",
            reference.arrived_requests == reference.completed_requests,
        ),
    ];
    let median_wall = Summary::of(&wall_s).median;
    let completed = reference.completed_requests;
    RunOut {
        setup_s,
        wall_s,
        heap_mib,
        attempted: reference.arrived_requests * reps,
        failed: (reference.arrived_requests - completed) * reps,
        gates,
        host: vec![Metric::single(
            "sim_requests_per_s",
            "req/s",
            completed as f64 / median_wall,
            reps as usize,
        )],
        virt: vec![
            Metric::single(
                "virt_mean_ms",
                "ms",
                reference.mean_latency_ms().unwrap_or(0.0),
                completed as usize,
            ),
            Metric::single(
                "virt_sm_util",
                "ratio",
                reference.mean_utilization,
                reference.placement.gpus_used,
            ),
        ],
        digests: vec![("fleet".to_string(), reference.digest)],
    }
}

/// What one traced worker thread measured.
#[derive(Default)]
struct Worker {
    acc: Acc,
    totals: SimTotals,
    /// Host time of the thread's loop, determiner replay excluded.
    busy_ns: u64,
    arrived: u64,
    completed: u64,
    completed_gpus: usize,
}

pub fn trace(o: &Opts) -> TraceOut {
    let s = setup(o.seed);
    let spec = fleet10k::gpu_spec();
    let t = Instant::now();
    for &(kind, _) in &CYCLE {
        let mut m = AppModel::build(kind, Phase::Inference);
        m.memory_mib = EQUAL_MEMORY_MIB;
        std::hint::black_box(ProfiledApp::profile_shared(&m, &spec));
    }
    let profile_ms = t.elapsed().as_secs_f64() * 1e3;

    let (walls, _, summaries) = timed_reps(o.seconds, || streamed(&s, WORKERS), || {});
    let untraced_s = Summary::of(&walls).median;
    let untraced = &summaries[0];
    let t = Instant::now();
    let single = streamed(&s, 1);
    let single_s = t.elapsed().as_secs_f64();

    // The traced run: placement, then every GPU on the benchmark's own
    // worker threads, mirroring the runner's monolithic per-GPU path.
    let requests = placement_requests(&s);
    let mut acc = Acc::default();
    let placement = acc
        .time(Layer::Placement, || {
            place_with(
                &requests,
                GPUS,
                spec.memory_mib,
                &AdmissionPolicy::default(),
                &PlacementPolicy::FirstFit,
            )
        })
        .expect("the fleet workload places under first-fit");
    let mut spans = Spans::new(o.spans);
    let gpus = placement.gpus_used;
    let next = AtomicUsize::new(0);
    let digests: Vec<AtomicU64> = (0..gpus).map(|_| AtomicU64::new(0)).collect();
    let workers: Vec<(Worker, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|tid| {
                let (next, digests, placement, requests, s, spec) =
                    (&next, &digests, &placement, &requests, &s, &spec);
                let mut spans = spans.fork();
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut w = Worker::default();
                    loop {
                        // A work counter; results are read after the join.
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        if g >= gpus {
                            break;
                        }
                        let t = Instant::now();
                        let digest = traced_gpu(g, placement, s, requests, spec, &mut w);
                        digests[g].store(digest, Ordering::Relaxed);
                        spans.record(|| format!("gpu {g}"), tid, t);
                    }
                    w.busy_ns = elapsed_ns(start) - w.totals.replay_ns;
                    (w, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut totals = SimTotals::default();
    let mut thread_ns = acc.ns(Layer::Placement);
    // Wall of the traced run without the determiner replay: placement plus
    // the busiest worker's loop.
    let mut slowest_ns = 0;
    let (mut arrived, mut completed, mut completed_gpus) = (0, 0, 0);
    for (w, worker_spans) in workers {
        acc.merge(&w.acc);
        totals.merge(w.totals);
        thread_ns += w.busy_ns;
        slowest_ns = slowest_ns.max(w.busy_ns);
        arrived += w.arrived;
        completed += w.completed;
        completed_gpus += w.completed_gpus;
        spans.merge(worker_spans);
    }
    let mut fold = Fnv::new();
    for d in &digests {
        fold.write_u64(d.load(Ordering::Relaxed));
    }

    let t = Instant::now();
    std::hint::black_box(
        place_with(
            &requests,
            GPUS,
            spec.memory_mib,
            &AdmissionPolicy::default(),
            &PlacementPolicy::contention_aware(),
        )
        .expect("the fleet workload places under contention-aware placement"),
    );
    let contention_ns = elapsed_ns(t);

    let gates = vec![
        gate(
            "summary_identical_at_workers_1_and_2",
            summaries.iter().all(|x| *x == single),
        ),
        gate("traced_placement_matches", placement == untraced.placement),
        gate(
            "traced_fold_reproduces_fleet_digest",
            fold.finish() == untraced.digest,
        ),
        gate(
            "traced_counts_match",
            (arrived, completed, completed_gpus)
                == (
                    untraced.arrived_requests,
                    untraced.completed_requests,
                    untraced.completed_gpus,
                ),
        ),
    ];
    let tenants = requests.len() as f64;
    let mut layers: Vec<(String, f64)> = totals
        .layer_metrics(&acc, thread_ns)
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    layers.extend([
        (
            "cluster.placement.us_per_tenant".to_string(),
            acc.ns(Layer::Placement) as f64 / 1e3 / tenants,
        ),
        (
            "cluster.placement.contention_us_per_tenant".to_string(),
            contention_ns as f64 / 1e3 / tenants,
        ),
        (
            "cluster.run.parallel_speedup".to_string(),
            single_s / untraced_s,
        ),
        (
            "cluster.aggregate.ns_per_gpu".to_string(),
            ratio(acc.ns(Layer::Aggregate) as f64, gpus as f64),
        ),
        ("profiler.profile_ms".to_string(), profile_ms),
        (
            "trace.overhead_frac".to_string(),
            (acc.ns(Layer::Placement) + slowest_ns) as f64 / 1e9 / untraced_s - 1.0,
        ),
        (
            "trace.unattributed_frac".to_string(),
            1.0 - ratio(acc.total_ns() as f64, thread_ns as f64),
        ),
    ]);
    TraceOut {
        attempted: arrived,
        failed: arrived - completed,
        gates,
        layers,
        acc,
        spans,
    }
}

/// Simulates GPU `g` the way the runner's monolithic path does, timing
/// each layer from outside; returns the GPU's request-log digest.
///
/// # Panics
///
/// Panics if the runner would have split this GPU into engine lanes: the
/// mirror covers only the monolithic path.
fn traced_gpu(
    g: usize,
    placement: &Placement,
    s: &Setup,
    requests: &[PlacementRequest],
    spec: &GpuSpec,
    w: &mut Worker,
) -> u64 {
    let tenants = placement.tenants_of(g);
    let t = Instant::now();
    let local_ws = WorkloadSet::new(
        tenants
            .iter()
            .map(|&t| {
                let spec = &s.ws.tenants[t];
                TenantSpec::new(spec.model.clone(), spec.quota, spec.pattern.clone())
            })
            .collect(),
        s.ws.seed.wrapping_add(g as u64),
    );
    let arrivals = local_ws.initial_arrivals();
    w.acc.add(Layer::Arrivals, elapsed_ns(t), 1);
    w.totals.requests += arrivals.len() as u64;

    let t = Instant::now();
    let apps: Vec<DeployedApp> = tenants
        .iter()
        .map(|&t| {
            DeployedApp::new(
                SharedProfile::clone(&requests[t].profile),
                s.ws.tenants[t].quota,
                None,
            )
        })
        .collect();
    let driver = BlessDriver::new(apps.clone(), BlessParams::default());
    let hints = driver.lane_hints(spec.num_sms);
    let open_loop = local_ws
        .tenants
        .iter()
        .all(|t| !matches!(t.pattern, ArrivalPattern::ClosedLoop { .. }));
    assert!(
        !(open_loop && hints.is_fully_sharded() && hints.num_lanes() > 1),
        "gpu {g} would take the lane-sharded path, which the traced mirror does not cover"
    );
    w.acc.add(Layer::Runtime, elapsed_ns(t), 1);

    let t = Instant::now();
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    let (sink, slot) = CountingSink::new();
    gpu.set_trace_sink(Box::new(sink));
    let notice_ns = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new(gpu, TimedDriver::new(driver), arrivals).with_notice_handler(
        timed_notices(local_ws.notice_handler(), Arc::clone(&notice_ns)),
    );
    let outcome = sim.run(horizon());
    drop(sim.gpu.take_trace_sink());
    let run_ns = elapsed_ns(t);
    let notice_ns = notice_ns.load(Ordering::Relaxed);
    w.acc
        .add(Layer::Engine, run_ns - sim.driver.ns - notice_ns, 1);
    w.acc.add(Layer::Runtime, sim.driver.ns, sim.driver.calls);
    w.acc.add(Layer::Arrivals, notice_ns, 0);
    w.totals.run_calls += 1;
    w.totals.add_sim(&sim.driver, take_counts(&slot));

    // Aggregation: the log digest plus the counter fold the streaming
    // accumulator performs per GPU.
    let t = Instant::now();
    let log = &sim.driver.inner.log;
    let digest = log.digest();
    let (mut arrived, mut completed) = (0u64, 0u64);
    for app in 0..tenants.len() {
        for r in log.records(app) {
            arrived += 1;
            completed += u64::from(r.latency().is_some());
        }
    }
    w.arrived += arrived;
    w.completed += completed;
    w.completed_gpus += usize::from(outcome == RunOutcome::Completed);
    w.acc.add(Layer::Aggregate, elapsed_ns(t), 1);

    w.totals.replay(&apps, spec);
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{run_cluster_stream, ClusterOptions};

    /// The traced mirror's per-GPU digests, folded in GPU order, equal the
    /// streaming runner's fleet digest on a small fleet.
    #[test]
    fn fnv_fold_of_traced_gpus_reproduces_the_runner_digest() {
        const SMALL: usize = 8;
        let (mut ws, profiles) = fleet10k::workload(SMALL, 2);
        ws.seed = 3;
        let spec = fleet10k::gpu_spec();
        let summary = run_cluster_stream(
            &ws,
            profiles.clone(),
            SMALL,
            &spec,
            &BlessParams::default(),
            horizon(),
            &ClusterOptions {
                workers: Some(2),
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        let s = Setup { ws, profiles };
        let requests = placement_requests(&s);
        let placement = place_with(
            &requests,
            SMALL,
            spec.memory_mib,
            &AdmissionPolicy::default(),
            &PlacementPolicy::FirstFit,
        )
        .unwrap();
        assert_eq!(placement, summary.placement);
        let mut w = Worker::default();
        let mut fold = Fnv::new();
        for g in 0..placement.gpus_used {
            fold.write_u64(traced_gpu(g, &placement, &s, &requests, &spec, &mut w));
        }
        assert_eq!(fold.finish(), summary.digest);
        assert_eq!(w.arrived, summary.arrived_requests);
        assert_eq!(w.completed, summary.completed_requests);
        assert!(w.totals.kernels > 0);
    }
}
