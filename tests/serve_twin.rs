//! Differential twin of the serving front-end (DESIGN.md §5l): the BLESS
//! daemon replaying a closed arrival trace through the lock-free ingest
//! path must produce a request log *byte-identical* (FNV-1a digest) to
//! the batch path handed the same arrivals up front — at any producer
//! worker count — and the digest itself is pinned as a golden value.

use bless::{BlessDriver, BlessParams, DeployedApp, IngestConfig, RateLimit, ServeDaemon};
use dnn_models::{ModelKind, Phase};
use gpu_sim::{BufferSink, Gpu, GpuSpec, HostCosts, RequestArrival, RunOutcome, Simulation};
use harness::cache;
use metrics::{TraceValidator, ValidatorConfig};
use profiler::AdmissionPolicy;
use sim_core::trace::TraceEvent;
use sim_core::{SimDuration, SimRng, SimTime};
use workloads::ArrivalPattern;

/// Request-log digest of the fixture workload, identical for the batch
/// path and the daemon at every worker count. Pinned: any change to the
/// scheduler, the simulator, or the ingest handoff that shifts a single
/// timestamp shows up here.
const GOLDEN_SERVE_DIGEST: u64 = 0x942b_d0dd_6a1e_f500;

const TENANTS: usize = 4;
const CAPACITY_MIB: u64 = 80 * 1024;

fn deployed() -> Vec<DeployedApp> {
    let spec = GpuSpec::a100();
    let kinds = [
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        ModelKind::Bert,
        ModelKind::NasNet,
    ];
    kinds
        .iter()
        .map(|&k| {
            DeployedApp::new(
                cache::profile(k, Phase::Inference, &spec),
                1.0 / TENANTS as f64,
                None,
            )
        })
        .collect()
}

/// The closed fixture trace: per-tenant Poisson arrival times, seeded.
fn offered_times() -> Vec<Vec<SimTime>> {
    (0..TENANTS)
        .map(|app| {
            let pattern = ArrivalPattern::Poisson {
                mean_interval: SimDuration::from_millis(3),
                horizon: SimTime::from_millis(40),
            };
            pattern
                .initial_arrivals(app, &mut SimRng::new(42 + app as u64))
                .into_iter()
                .map(|a| a.at)
                .collect()
        })
        .collect()
}

fn horizon() -> SimTime {
    SimTime::from_secs(10)
}

/// Batch path: all arrivals handed to the simulation up front,
/// app-major so the stable sort's tie order matches the daemon's
/// lowest-tenant-first rule.
fn batch_digest() -> u64 {
    let times = offered_times();
    let mut arrivals = Vec::new();
    for (app, ts) in times.iter().enumerate() {
        arrivals.extend(
            ts.iter()
                .enumerate()
                .map(|(req, &at)| RequestArrival { app, req, at }),
        );
    }
    let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
    let driver = BlessDriver::new(deployed(), BlessParams::default());
    let mut sim = Simulation::new(gpu, driver, arrivals);
    assert_eq!(sim.run(horizon()), RunOutcome::Completed);
    sim.driver.log.digest()
}

/// Daemon path: the same closed trace pushed through the SPSC rings by
/// `workers` producer threads (streams partitioned round-robin), pumped
/// and admitted live against the virtual clock.
fn daemon_digest(workers: usize, capture_trace: bool) -> (u64, Vec<TraceEvent>) {
    let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
    let (mut daemon, streams) = ServeDaemon::new(
        deployed(),
        BlessParams::default(),
        gpu,
        &IngestConfig::default(),
        CAPACITY_MIB,
        &AdmissionPolicy::default(),
    )
    .expect("fixture deployment must pass placement admission");
    let buf = BufferSink::new();
    if capture_trace {
        daemon.sim_mut().gpu.set_trace_sink(Box::new(buf.clone()));
    }
    let times = offered_times();

    // Partition tenant streams round-robin over the producer workers.
    let mut buckets: Vec<Vec<(Vec<SimTime>, bless::TenantStream)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (app, stream) in streams.into_iter().enumerate() {
        buckets[app % workers].push((times[app].clone(), stream));
    }

    std::thread::scope(|s| {
        for bucket in buckets {
            s.spawn(move || {
                // Interleave the worker's streams arrival-by-arrival so
                // rings fill in a wall-clock order unrelated to virtual
                // time — the determinism contract must not care.
                let mut cursors: Vec<(std::vec::IntoIter<SimTime>, bless::TenantStream)> = bucket
                    .into_iter()
                    .map(|(ts, st)| (ts.into_iter(), st))
                    .collect();
                loop {
                    let mut any = false;
                    for (it, st) in cursors.iter_mut() {
                        if let Some(at) = it.next() {
                            st.offer_blocking(at);
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                }
                for (_, st) in cursors {
                    st.close();
                }
            });
        }
        let outcome = daemon.run_to_completion(horizon());
        assert_eq!(outcome, RunOutcome::Completed);
    });
    let digest = daemon.sim().driver.log.digest();
    (digest, buf.take())
}

#[test]
fn daemon_matches_batch_at_any_worker_count() {
    let batch = batch_digest();
    assert_eq!(
        batch, GOLDEN_SERVE_DIGEST,
        "batch-path digest drifted from the pinned golden: {batch:#018x}"
    );
    for workers in [1usize, 2, 4] {
        let (daemon, _) = daemon_digest(workers, false);
        assert_eq!(
            daemon, batch,
            "daemon digest diverged from batch at {workers} producer worker(s)"
        );
    }
}

#[test]
fn daemon_trace_satisfies_ingest_invariants() {
    let (digest, events) = daemon_digest(2, true);
    assert_eq!(digest, GOLDEN_SERVE_DIGEST);
    // Every offered request must be admitted (no limits configured) and
    // handed to the scheduler at its admission instant.
    let admitted = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RequestAdmitted { .. }))
        .count();
    let total_offered: usize = offered_times().iter().map(Vec::len).sum();
    assert_eq!(admitted, total_offered);
    assert!(!events
        .iter()
        .any(|e| matches!(e, TraceEvent::RequestShed { .. })));
    TraceValidator::new(ValidatorConfig::structural(GpuSpec::a100().num_sms))
        .validate(&events)
        .assert_clean();
}

#[test]
fn rate_limited_daemon_conserves_every_request() {
    let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
    let cfg = IngestConfig {
        rate: Some(RateLimit {
            tokens_per_sec: 150,
            burst: 1,
        }),
        max_outstanding: Some(4),
        ..IngestConfig::default()
    };
    let (mut daemon, streams) = ServeDaemon::new(
        deployed(),
        BlessParams::default(),
        gpu,
        &cfg,
        CAPACITY_MIB,
        &AdmissionPolicy::default(),
    )
    .expect("fixture deployment must pass placement admission");
    let buf = BufferSink::new();
    daemon.sim_mut().gpu.set_trace_sink(Box::new(buf.clone()));
    let times = offered_times();
    for (app, stream) in streams.into_iter().enumerate() {
        let mut stream = stream;
        for &at in &times[app] {
            stream.offer_blocking(at);
        }
        stream.close();
    }
    assert_eq!(daemon.run_to_completion(horizon()), RunOutcome::Completed);
    let mut total_shed = 0;
    for (app, offered) in times.iter().enumerate() {
        let st = daemon.tenant_stats(app);
        assert_eq!(st.offered as usize, offered.len());
        assert_eq!(
            st.admitted + st.shed(),
            st.offered,
            "tenant {app}: admitted + shed must equal offered"
        );
        total_shed += st.shed();
    }
    assert!(total_shed > 0, "fixture must actually exercise shedding");
    TraceValidator::new(ValidatorConfig::structural(GpuSpec::a100().num_sms))
        .validate(&buf.take())
        .assert_clean();
}
