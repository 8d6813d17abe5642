//! `colocate_dense`: six closed-loop tenants at 1/6 quota each on one
//! per-resource A100 (paper workload A), so every squad is contended and
//! the determiner searches multi-tenant configurations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bless::{BlessDriver, BlessParams, DeployedApp};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{Gpu, GpuSpec, HostCosts, RunOutcome, Simulation};
use metrics::{LatencyStats, RequestLog};
use profiler::{ProfiledApp, SharedProfile};
use sim_core::{SimDuration, SimTime};
use workloads::{multi_workload, PaperWorkload, WorkloadSet};

use crate::prof::{
    elapsed_ns, ratio, take_counts, timed_notices, Acc, CountingSink, Layer, SimTotals, Spans,
    TimedDriver,
};
use crate::stats::{tail_percentile, Summary};
use crate::{gate, more_setups, timed_reps, timed_setup, Metric, Opts, RunOut, TraceOut};

const MODELS: [ModelKind; 6] = [
    ModelKind::Vgg11,
    ModelKind::ResNet50,
    ModelKind::ResNet101,
    ModelKind::Bert,
    ModelKind::NasNet,
    ModelKind::Vgg11,
];
const QUOTA: f64 = 1.0 / 6.0;
/// Requests each closed-loop client sends.
const REQUESTS: usize = 2_000;

fn horizon() -> SimTime {
    SimTime::from_secs(3_600)
}

struct Setup {
    spec: GpuSpec,
    ws: WorkloadSet,
    apps: Vec<DeployedApp>,
    /// Host time of profiling the models.
    profile_ms: f64,
}

/// Profiles each distinct model once on the per-resource spec (the two
/// VGG11 tenants share a profile) and builds the closed-loop clients.
fn setup(seed: u64) -> Setup {
    let spec = GpuSpec::a100_per_resource();
    let models: Vec<AppModel> = MODELS
        .iter()
        .map(|&k| AppModel::build(k, Phase::Inference))
        .collect();
    let t = Instant::now();
    let mut profiled: Vec<(ModelKind, SharedProfile)> = Vec::new();
    let apps = models
        .iter()
        .map(|m| {
            let profile = match profiled.iter().find(|(k, _)| *k == m.kind) {
                Some((_, p)) => SharedProfile::clone(p),
                None => {
                    let p = ProfiledApp::profile_shared(m, &spec);
                    profiled.push((m.kind, SharedProfile::clone(&p)));
                    p
                }
            };
            DeployedApp::new(profile, QUOTA, None)
        })
        .collect();
    let profile_ms = t.elapsed().as_secs_f64() * 1e3;
    let ws = multi_workload(
        models,
        &[QUOTA; 6],
        PaperWorkload::HighLoad,
        REQUESTS,
        horizon(),
        seed,
    );
    Setup {
        spec,
        ws,
        apps,
        profile_ms,
    }
}

fn gpu(spec: &GpuSpec) -> Gpu {
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    // As the experiment runner does for long runs: drivers never look at
    // finished kernels, so their slots are recycled.
    gpu.set_slot_recycling(true);
    gpu
}

/// One rep's outputs.
struct Rep {
    outcome: RunOutcome,
    log: RequestLog,
    utilization: f64,
}

fn rep(s: &Setup) -> Rep {
    let mut sim = Simulation::new(
        gpu(&s.spec),
        BlessDriver::new(s.apps.clone(), BlessParams::default()),
        s.ws.initial_arrivals(),
    )
    .with_notice_handler(s.ws.notice_handler());
    let outcome = sim.run(horizon());
    let utilization = ratio(
        sim.gpu.busy_sm_seconds(),
        f64::from(s.spec.num_sms) * sim.gpu.now().as_secs_f64(),
    );
    Rep {
        outcome,
        log: sim.driver.log,
        utilization,
    }
}

fn every_client_finished(log: &RequestLog) -> bool {
    (0..MODELS.len())
        .all(|a| log.records(a).len() == REQUESTS && log.completed_count(a) == REQUESTS)
}

pub fn run(o: &Opts) -> RunOut {
    let mut setup_s = Vec::new();
    let s = timed_setup(&mut setup_s, || setup(o.seed));
    let warm = rep(&s);
    let digest = warm.log.digest();
    let (wall_s, heap_mib, reps) = timed_reps(
        o.seconds,
        || {
            let r = rep(&s);
            (r.outcome, r.log.digest())
        },
        || more_setups(&mut setup_s, || setup(o.seed)),
    );
    let gates = vec![
        gate(
            "outcome_completed",
            warm.outcome == RunOutcome::Completed
                && reps.iter().all(|(o, _)| *o == RunOutcome::Completed),
        ),
        gate("every_client_finished", every_client_finished(&warm.log)),
        gate(
            "digest_equal_across_reps",
            reps.iter().all(|(_, d)| *d == digest),
        ),
    ];
    let latencies: Vec<SimDuration> = (0..MODELS.len())
        .flat_map(|a| warm.log.latencies(a))
        .collect();
    let offered: u64 = (0..MODELS.len())
        .map(|a| warm.log.records(a).len() as u64)
        .sum();
    let completed = latencies.len() as u64;
    let median_wall = Summary::of(&wall_s).median;
    let n = wall_s.len();
    let mut virt = latency_metrics(&latencies);
    virt.push(Metric::single("virt_sm_util", "ratio", warm.utilization, 1));
    RunOut {
        setup_s,
        wall_s,
        heap_mib,
        attempted: offered * n as u64,
        failed: (offered - completed) * n as u64,
        gates,
        host: vec![Metric::single(
            "sim_requests_per_s",
            "req/s",
            completed as f64 / median_wall,
            n,
        )],
        virt,
        digests: vec![("log".to_string(), digest)],
    }
}

/// Mean, median and p99 of virtual latencies, each with its sample count;
/// p99 only when at least ten samples lie beyond it.
pub fn latency_metrics(latencies: &[SimDuration]) -> Vec<Metric> {
    let st = LatencyStats::from_latencies(latencies);
    let n = st.count;
    let ms = |d: Option<SimDuration>| d.map_or(0.0, |d| d.as_millis_f64());
    let mut out = vec![
        Metric::single("virt_mean_ms", "ms", ms(st.mean), n),
        Metric::single("virt_p50_ms", "ms", ms(st.p50), n),
    ];
    if tail_percentile(n).is_some_and(|p| p >= 0.99) {
        out.push(Metric::single("virt_p99_ms", "ms", ms(st.p99), n));
    }
    out
}

pub fn trace(o: &Opts) -> TraceOut {
    let s = setup(o.seed);

    let (walls, _, reps) = timed_reps(o.seconds, || rep(&s).log.digest(), || {});
    let untraced_s = Summary::of(&walls).median;

    let mut acc = Acc::default();
    let mut totals = SimTotals::default();
    let mut spans = Spans::new(o.spans);
    let start = Instant::now();
    let arrivals = acc.time(Layer::Arrivals, || s.ws.initial_arrivals());
    let driver = acc.time(Layer::Runtime, || {
        TimedDriver::new(BlessDriver::new(s.apps.clone(), BlessParams::default()))
    });
    let t = Instant::now();
    let mut gpu = gpu(&s.spec);
    let (sink, slot) = CountingSink::new();
    gpu.set_trace_sink(Box::new(sink));
    let notice_ns = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new(gpu, driver, arrivals)
        .with_notice_handler(timed_notices(s.ws.notice_handler(), Arc::clone(&notice_ns)));
    let outcome = sim.run(horizon());
    drop(sim.gpu.take_trace_sink());
    let run_ns = elapsed_ns(t);
    let notice_ns = notice_ns.load(Ordering::Relaxed);
    acc.add(Layer::Engine, run_ns - sim.driver.ns - notice_ns, 1);
    acc.add(Layer::Runtime, sim.driver.ns, sim.driver.calls);
    acc.add(Layer::Arrivals, notice_ns, 0);
    let traced_ns = elapsed_ns(start);
    spans.record(|| "colocate_dense traced run".to_string(), 0, start);

    totals.run_calls = 1;
    totals.requests = MODELS.len() as u64 * REQUESTS as u64;
    totals.add_sim(&sim.driver, take_counts(&slot));
    totals.replay(&s.apps, &s.spec);

    let log = &sim.driver.inner.log;
    let offered: u64 = (0..MODELS.len()).map(|a| log.records(a).len() as u64).sum();
    let completed: u64 = (0..MODELS.len())
        .map(|a| log.completed_count(a) as u64)
        .sum();
    let gates = vec![
        gate("outcome_completed", outcome == RunOutcome::Completed),
        gate("every_client_finished", every_client_finished(log)),
        gate(
            "traced_digest_matches_untraced",
            reps.iter().all(|&d| d == log.digest()),
        ),
    ];
    let mut layers: Vec<(String, f64)> = totals
        .layer_metrics(&acc, traced_ns)
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    layers.extend([
        ("profiler.profile_ms".to_string(), s.profile_ms),
        (
            "trace.overhead_frac".to_string(),
            traced_ns as f64 / 1e9 / untraced_s - 1.0,
        ),
        (
            "trace.unattributed_frac".to_string(),
            1.0 - ratio(acc.total_ns() as f64, traced_ns as f64),
        ),
    ]);
    TraceOut {
        attempted: offered,
        failed: offered - completed,
        gates,
        layers,
        acc,
        spans,
    }
}
