//! `serve_open`: the BLESS serving daemon behind lock-free ingest, driven
//! open-loop at fixed total rates by one client thread while the daemon
//! pumps on the main thread.

use std::time::Instant;

use bless::{
    BlessDriver, BlessParams, DeployedApp, IngestConfig, IngestSink, IngestStage, ServeDaemon,
    TenantStream,
};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{Gpu, GpuSpec, HostCosts, RequestArrival, RunOutcome, Simulation, TraceEvent};
use metrics::RequestLog;
use profiler::{admit, AdmissionPolicy, ProfiledApp};
use sim_core::{SimDuration, SimRng, SimTime};
use workloads::ArrivalPattern;

use crate::colocate::latency_metrics;
use crate::prof::{
    elapsed_ns, ratio, take_counts, Acc, CountingSink, Layer, SimTotals, Spans, TimedDriver,
};
use crate::stats::Summary;
use crate::{gate, more_setups, timed_reps, timed_setup, Gate, Metric, Opts, RunOut, TraceOut};

const MODELS: [ModelKind; 3] = [ModelKind::Vgg11, ModelKind::ResNet50, ModelKind::Bert];
/// Fixed total offered rates, requests per virtual second.
const RATES: [u32; 4] = [15, 30, 45, 60];
/// The rate whose latencies are reported as `virt_*`.
const REPORT_RATE: u32 = 45;
/// Virtual p99 limit of `serve_capacity_rps`.
const P99_LIMIT_MS: f64 = 100.0;
/// Length of each rate's arrival window.
const SPAN: SimDuration = SimDuration::from_secs(120);
/// Diurnal cycle of the Twitter-like tenant.
const CYCLE: SimDuration = SimDuration::from_secs(30);
/// Backpressure bound on admitted-but-incomplete requests per tenant.
const MAX_OUTSTANDING: u32 = 24;

fn horizon() -> SimTime {
    SimTime::from_secs(600)
}

/// A fresh device. Drivers only consume completion tags, so finished
/// kernel slots are recycled (bit-identical results, bounded memory over
/// the long windows).
fn gpu(spec: &GpuSpec) -> Gpu {
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    gpu.set_slot_recycling(true);
    gpu
}

fn ingest_config() -> IngestConfig {
    IngestConfig {
        max_outstanding: Some(MAX_OUTSTANDING),
        ..IngestConfig::default()
    }
}

struct Setup {
    spec: GpuSpec,
    apps: Vec<DeployedApp>,
    /// Host time of profiling the models.
    profile_ms: f64,
    /// Per rate: every offered arrival `(time, tenant)`, in the order the
    /// client offers them (time, then tenant).
    offered: Vec<Vec<(SimTime, usize)>>,
}

/// Per-tenant arrivals at total rate `rate`: two Poisson streams and one
/// diurnally modulated stream, each carrying a third of the rate.
fn offered(seed: u64, rate: u32) -> Vec<(SimTime, usize)> {
    let mean = SimDuration::from_nanos(3_000_000_000 / u64::from(rate));
    let window = SimTime::ZERO + SPAN;
    let patterns = [
        ArrivalPattern::Poisson {
            mean_interval: mean,
            horizon: window,
        },
        ArrivalPattern::Poisson {
            mean_interval: mean,
            horizon: window,
        },
        ArrivalPattern::TwitterLike {
            mean_interval: mean,
            cycle: CYCLE,
            horizon: window,
        },
    ];
    let mut rng = SimRng::new(seed).fork(u64::from(rate));
    let mut out: Vec<(SimTime, usize)> = patterns
        .iter()
        .enumerate()
        .flat_map(|(app, p)| {
            p.initial_arrivals(app, &mut rng.fork(app as u64))
                .into_iter()
                .map(move |a| (a.at, app))
        })
        .collect();
    out.sort_unstable();
    out
}

fn setup(seed: u64) -> Setup {
    let spec = GpuSpec::a100();
    let t = Instant::now();
    let apps = MODELS
        .iter()
        .map(|&k| {
            let profile = ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec);
            DeployedApp::new(profile, 1.0 / 3.0, None)
        })
        .collect();
    let profile_ms = t.elapsed().as_secs_f64() * 1e3;
    let offered = RATES.iter().map(|&r| offered(seed, r)).collect();
    Setup {
        spec,
        apps,
        profile_ms,
        offered,
    }
}

/// What the client thread saw.
#[derive(Default)]
struct Client {
    /// Arrivals whose first offer found the ring full.
    rejects: u64,
    /// Host time spent retrying those offers.
    wait_ns: u64,
}

/// Offers every arrival in time order. Offers are globally time-ordered,
/// so before each one every other stream can promise nothing earlier will
/// follow; that lets the daemon advance past tenants that are idle.
/// Dropping the streams at the end closes them.
fn offer_all(mut streams: Vec<TenantStream>, offered: &[(SimTime, usize)]) -> Client {
    let mut c = Client::default();
    for &(at, app) in offered {
        for (j, s) in streams.iter_mut().enumerate() {
            if j != app {
                s.advance(at);
            }
        }
        if streams[app].offer(at).is_err() {
            let t = Instant::now();
            c.rejects += 1;
            while streams[app].offer(at).is_err() {
                std::hint::spin_loop();
            }
            c.wait_ns += elapsed_ns(t);
        }
    }
    c
}

/// One rate's outcome through the daemon.
struct Pass {
    offered: u64,
    admitted: u64,
    completed: u64,
    conserved: bool,
    outcome: RunOutcome,
    digest: u64,
    log: RequestLog,
}

fn pass(s: &Setup, rate: usize) -> Pass {
    let (mut daemon, streams) = ServeDaemon::new(
        s.apps.clone(),
        BlessParams::default(),
        gpu(&s.spec),
        &ingest_config(),
        s.spec.memory_mib,
        &AdmissionPolicy::default(),
    )
    .expect("the serve deployment passes admission");
    let offered = &s.offered[rate];
    let outcome = std::thread::scope(|scope| {
        let client = scope.spawn(move || offer_all(streams, offered));
        let outcome = daemon.run_to_completion(horizon());
        client
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        outcome
    });
    let mut conserved = true;
    let (mut admitted, mut total) = (0, 0);
    for app in 0..MODELS.len() {
        let st = daemon.tenant_stats(app);
        let want = offered.iter().filter(|&&(_, a)| a == app).count() as u64;
        conserved &= st.admitted + st.shed() == st.offered && st.offered == want;
        admitted += st.admitted;
        total += st.offered;
    }
    let log = daemon.into_sim().driver.log;
    let completed = (0..MODELS.len())
        .map(|a| log.completed_count(a) as u64)
        .sum();
    Pass {
        offered: total,
        admitted,
        completed,
        conserved,
        outcome,
        digest: log.digest(),
        log,
    }
}

/// Replays the daemon's admitted arrivals through the batch simulation
/// and returns its digest.
fn batch_twin_digest(s: &Setup, log: &RequestLog) -> u64 {
    let replay: Vec<RequestArrival> = (0..MODELS.len())
        .flat_map(|app| {
            log.records(app).iter().map(move |r| RequestArrival {
                app,
                req: r.req,
                at: r.arrival,
            })
        })
        .collect();
    let mut batch = Simulation::new(
        gpu(&s.spec),
        BlessDriver::new(s.apps.clone(), BlessParams::default()),
        replay,
    );
    batch.run(horizon());
    batch.driver.log.digest()
}

fn sweep(s: &Setup) -> Vec<Pass> {
    (0..RATES.len()).map(|r| pass(s, r)).collect()
}

fn pass_gates(passes: &[Pass]) -> Vec<Gate> {
    passes
        .iter()
        .zip(RATES)
        .flat_map(|(p, rate)| {
            [
                gate(
                    format!("admitted_plus_shed_equals_offered_at_{rate}"),
                    p.conserved,
                ),
                gate(
                    format!("daemon_drained_at_{rate}"),
                    p.outcome == RunOutcome::Completed && p.completed == p.admitted,
                ),
            ]
        })
        .collect()
}

pub fn run(o: &Opts) -> RunOut {
    let mut setup_s = Vec::new();
    let s = timed_setup(&mut setup_s, || setup(o.seed));
    let warm = sweep(&s);
    let mut gates = pass_gates(&warm);
    for (p, rate) in warm.iter().zip(RATES) {
        gates.push(gate(
            format!("batch_twin_reproduces_daemon_at_{rate}"),
            batch_twin_digest(&s, &p.log) == p.digest,
        ));
    }
    let (wall_s, heap_mib, sweeps) = timed_reps(
        o.seconds,
        || {
            let passes = sweep(&s);
            let gates = pass_gates(&passes);
            let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
            (gates, digests)
        },
        || more_setups(&mut setup_s, || setup(o.seed)),
    );
    let n = sweeps.len();
    let mut all_equal = true;
    for (rep_gates, digests) in sweeps {
        gates.extend(rep_gates.into_iter().filter(|g| !g.ok));
        all_equal &= digests.iter().zip(&warm).all(|(d, p)| *d == p.digest);
    }
    gates.push(gate("digests_equal_across_sweeps", all_equal));

    let offered: u64 = warm.iter().map(|p| p.offered).sum();
    let completed: u64 = warm.iter().map(|p| p.completed).sum();
    let median_wall = Summary::of(&wall_s).median;
    let mut capacity = 0;
    let mut virt = Vec::new();
    for (p, rate) in warm.iter().zip(RATES) {
        let latencies: Vec<SimDuration> =
            (0..MODELS.len()).flat_map(|a| p.log.latencies(a)).collect();
        let lat = latency_metrics(&latencies);
        let p99 = lat
            .iter()
            .find(|m| m.name == "virt_p99_ms")
            .map(|m| m.value);
        if p99.is_some_and(|v| v <= P99_LIMIT_MS) && p.admitted == p.offered {
            capacity = capacity.max(rate);
        }
        virt.push(Metric::single(
            format!("virt_p99_ms_at_{rate}"),
            "ms",
            p99.unwrap_or(0.0),
            latencies.len(),
        ));
        virt.push(Metric::single(
            format!("failed_frac_at_{rate}"),
            "ratio",
            (p.offered - p.completed) as f64 / p.offered as f64,
            p.offered as usize,
        ));
        if rate == REPORT_RATE {
            virt.extend(lat);
        }
    }
    virt.push(Metric::single(
        "serve_capacity_rps",
        "req/s",
        f64::from(capacity),
        RATES.len(),
    ));
    RunOut {
        setup_s,
        wall_s,
        heap_mib,
        attempted: offered * n as u64,
        failed: (offered - completed) * n as u64,
        gates,
        host: vec![
            Metric::single(
                "arrivals_per_s",
                "arrivals/s",
                offered as f64 / median_wall,
                n,
            ),
            Metric::single(
                "sim_requests_per_s",
                "req/s",
                completed as f64 / median_wall,
                n,
            ),
        ],
        virt,
        digests: warm
            .iter()
            .zip(RATES)
            .map(|(p, rate)| (format!("rate_{rate}"), p.digest))
            .collect(),
    }
}

/// The benchmark's own [`IngestSink`] over a timed simulation: the same
/// clock handoff as the daemon's sink, with the simulation time it runs
/// measured so the pump's own time can be separated from it.
struct TimedSink {
    sim: Simulation<TimedDriver<BlessDriver>>,
    /// Per tenant, the number of leading completed records.
    done: Vec<usize>,
    sim_ns: u64,
    run_calls: u64,
}

impl IngestSink for TimedSink {
    fn run_until_before(&mut self, t: SimTime) {
        let ns = t.as_nanos();
        if ns > 0 {
            let t0 = Instant::now();
            self.sim.run(SimTime::from_nanos(ns - 1));
            self.sim_ns += elapsed_ns(t0);
            self.run_calls += 1;
        }
    }

    fn accept(&mut self, arrival: RequestArrival) {
        self.sim.inject_arrival(arrival);
    }

    fn completed_prefix(&mut self, app: usize) -> u64 {
        let recs = self.sim.driver.inner.log.records(app);
        let p = &mut self.done[app];
        while *p < recs.len() && recs[*p].completion.is_some() {
            *p += 1;
        }
        *p as u64
    }

    fn emit(&mut self, ev: TraceEvent) {
        if self.sim.gpu.tracing_enabled() {
            self.sim.gpu.trace_emit(ev);
        }
    }
}

/// What the traced sweep measured, summed over rates.
#[derive(Default)]
struct Traced {
    acc: Acc,
    totals: SimTotals,
    pumps: u64,
    /// Arrivals the pumps processed.
    processed: u64,
    offered: u64,
    admitted: u64,
    client: Client,
}

impl Traced {
    /// Serves `offered` through the timed stage and sink the way the
    /// daemon does, after the same admission check; returns the digest.
    fn pass(&mut self, s: &Setup, offered: &[(SimTime, usize)], spans: &mut Spans) -> u64 {
        let profiles: Vec<&ProfiledApp> = s.apps.iter().map(|a| &*a.profile).collect();
        self.acc
            .time(Layer::Profiler, || {
                admit(&profiles, s.spec.memory_mib, &AdmissionPolicy::default())
            })
            .expect("the serve deployment passes admission");
        let driver = self.acc.time(Layer::Runtime, || {
            TimedDriver::new(BlessDriver::new(s.apps.clone(), BlessParams::default()))
        });
        let mut gpu = gpu(&s.spec);
        let (counting, slot) = CountingSink::new();
        gpu.set_trace_sink(Box::new(counting));
        let mut sink = TimedSink {
            sim: Simulation::new(gpu, driver, Vec::new()),
            done: vec![0; MODELS.len()],
            sim_ns: 0,
            run_calls: 0,
        };
        let (mut stage, streams) = IngestStage::new(MODELS.len(), &ingest_config());
        let (mut pump_ns, mut pumps) = (0, 0);
        let client = std::thread::scope(|scope| {
            let client = scope.spawn(move || offer_all(streams, offered));
            loop {
                let t = Instant::now();
                let p = stage.pump(&mut sink);
                pump_ns += elapsed_ns(t);
                pumps += 1;
                self.processed += p.processed;
                if p.processed > 0 {
                    spans.record(|| format!("pump {}", p.processed), 0, t);
                }
                if p.drained {
                    break;
                }
                if p.processed == 0 {
                    std::hint::spin_loop();
                }
            }
            client
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e))
        });
        let t = Instant::now();
        sink.sim.run(horizon());
        let final_ns = elapsed_ns(t);
        drop(sink.sim.gpu.take_trace_sink());
        let driver = &sink.sim.driver;
        self.acc.add(Layer::Ingest, pump_ns - sink.sim_ns, pumps);
        self.acc.add(
            Layer::Engine,
            sink.sim_ns + final_ns - driver.ns,
            sink.run_calls + 1,
        );
        self.acc.add(Layer::Runtime, driver.ns, driver.calls);
        self.pumps += pumps;
        self.totals.run_calls += sink.run_calls + 1;
        self.totals.add_sim(driver, take_counts(&slot));
        self.totals.replay(&s.apps, &s.spec);
        for app in 0..MODELS.len() {
            let st = stage.tenant_stats(app);
            self.offered += st.offered;
            self.admitted += st.admitted;
        }
        self.client.rejects += client.rejects;
        self.client.wait_ns += client.wait_ns;
        driver.inner.log.digest()
    }
}

pub fn trace(o: &Opts) -> TraceOut {
    let s = setup(o.seed);
    let (walls, _, sweeps) = timed_reps(o.seconds, || sweep(&s), || {});
    let untraced_s = Summary::of(&walls).median;
    let untraced = &sweeps[0];

    let mut tr = Traced::default();
    let mut spans = Spans::new(o.spans);
    let mut gates = pass_gates(untraced);
    let start = Instant::now();
    for (r, &rate) in RATES.iter().enumerate() {
        let t = Instant::now();
        let arrivals = tr.acc.time(Layer::Arrivals, || offered(o.seed, rate));
        tr.totals.requests += arrivals.len() as u64;
        let digest = tr.pass(&s, &arrivals, &mut spans);
        gates.push(gate(
            format!("traced_digest_matches_daemon_at_{rate}"),
            digest == untraced[r].digest,
        ));
        spans.record(|| format!("rate {rate}"), 1, t);
    }
    // The daemon thread's time; the client thread is the load generator,
    // reported through the spsc metrics only.
    let thread_ns = elapsed_ns(start) - tr.totals.replay_ns;
    let completed: u64 = untraced.iter().map(|p| p.completed).sum();
    let acc = tr.acc;
    let mut layers: Vec<(String, f64)> = tr
        .totals
        .layer_metrics(&acc, thread_ns)
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    layers.extend([
        (
            "bless.ingest.ns_per_arrival".to_string(),
            ratio(acc.ns(Layer::Ingest) as f64, tr.processed as f64),
        ),
        (
            "bless.ingest.admit_frac".to_string(),
            ratio(tr.admitted as f64, tr.offered as f64),
        ),
        (
            "bless.ingest.arrivals_per_pump".to_string(),
            ratio(tr.processed as f64, tr.pumps as f64),
        ),
        (
            "sim_core.spsc.full_rejects".to_string(),
            tr.client.rejects as f64,
        ),
        (
            "sim_core.spsc.producer_wait_ns".to_string(),
            tr.client.wait_ns as f64,
        ),
        ("profiler.profile_ms".to_string(), s.profile_ms),
        (
            "trace.overhead_frac".to_string(),
            thread_ns as f64 / 1e9 / untraced_s - 1.0,
        ),
        (
            "trace.unattributed_frac".to_string(),
            1.0 - ratio(acc.total_ns() as f64, thread_ns as f64),
        ),
    ]);
    TraceOut {
        attempted: tr.offered,
        failed: tr.offered - completed,
        gates,
        layers,
        acc,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timed stage and sink serve a short trace exactly as the daemon
    /// does, and the batch path replays it.
    #[test]
    fn timed_ingest_sink_leaves_the_daemon_digest_unchanged() {
        let mut s = setup(5);
        s.offered = vec![s.offered[0][..300].to_vec()];
        let daemon = pass(&s, 0);
        assert!(daemon.conserved && daemon.completed == 300);
        assert_eq!(batch_twin_digest(&s, &daemon.log), daemon.digest);

        let mut tr = Traced::default();
        let digest = tr.pass(&s, &s.offered[0], &mut Spans::new(false));
        assert_eq!(digest, daemon.digest);
        assert_eq!((tr.offered, tr.admitted, tr.processed), (300, 300, 300));
        assert!(tr.totals.run_calls > 1 && tr.acc.ns(Layer::Ingest) > 0);
    }
}
