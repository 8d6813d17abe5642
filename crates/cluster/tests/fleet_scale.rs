//! 10k-GPU smoke: the streaming fleet runner at full fleet width with
//! minimal per-GPU work, pinned to a golden digest.
//!
//! One single-tenant micro app per device (quota 1.0, two one-kernel
//! requests) keeps the event volume tiny even in debug builds while
//! still exercising the full fast path — indexed placement over 10,000
//! requests, the ordered parallel map, and the GPU-order fold of the
//! per-GPU tallies — at worker counts 1 and 4. The pinned digest catches any behavioral
//! drift in that path; the cross-worker equality catches nondeterminism.
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use cluster::{run_cluster_stream, ClusterOptions, FleetSummary};
use dnn_models::{micro, AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use profiler::ProfiledApp;
use sim_core::{SimDuration, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

const GPUS: usize = 10_000;

/// Golden fleet digest for the seeded 10k-GPU smoke run below.
const GOLDEN_10K_DIGEST: u64 = 0x0ec5_96af_01ff_9800;

fn smoke_run(workers: usize) -> FleetSummary {
    let spec = GpuSpec::a100();
    let model = AppModel {
        kind: ModelKind::Vgg11,
        phase: Phase::Inference,
        name: "fleet-smoke".into(),
        kernels: vec![micro::compute_bound(SimDuration::from_micros(200), 54)].into(),
        memory_mib: 512,
    };
    let profile = ProfiledApp::profile_shared(&model, &spec);
    let tenants: Vec<TenantSpec> = (0..GPUS)
        .map(|i| {
            TenantSpec::new(
                model.clone(),
                1.0,
                ArrivalPattern::Periodic {
                    period: SimDuration::from_millis(1),
                    count: 2,
                    offset: SimDuration::from_micros((i % 97) as u64),
                },
            )
        })
        .collect();
    let profiles = vec![profile; GPUS];
    run_cluster_stream(
        &WorkloadSet { tenants, seed: 99 },
        profiles,
        GPUS,
        &spec,
        &bless::BlessParams::default(),
        SimTime::from_secs(5),
        &ClusterOptions {
            workers: Some(workers),
            ..ClusterOptions::default()
        },
    )
    .expect("10k fleet placement")
}

#[test]
fn ten_thousand_gpu_smoke_digest_is_pinned() {
    let seq = smoke_run(1);
    assert_eq!(seq.completed_gpus, GPUS);
    assert_eq!(seq.arrived_requests, 2 * GPUS as u64);
    assert!(seq.all_completed(), "all requests must finish by horizon");
    let par = smoke_run(4);
    assert_eq!(seq, par, "streamed summary must not depend on workers");
    assert_eq!(
        seq.digest, GOLDEN_10K_DIGEST,
        "10k-GPU fleet digest drifted (got {:#018x})",
        seq.digest
    );
}
