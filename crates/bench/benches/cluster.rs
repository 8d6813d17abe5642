//! Multi-GPU placement + per-GPU runtime (paper §4.2.2 extension).

use bless::BlessParams;
use criterion::{criterion_group, criterion_main, Criterion};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use profiler::{ProfiledApp, SharedProfile};
use sim_core::{SimDuration, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

fn bench(c: &mut Criterion) {
    let spec = GpuSpec::a100();
    let kinds = [
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        ModelKind::Bert,
    ];
    let profiles: Vec<SharedProfile> = kinds
        .iter()
        .map(|&k| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
        .collect();
    let tenants: Vec<TenantSpec> = kinds
        .iter()
        .map(|&k| {
            TenantSpec::new(
                AppModel::build(k, Phase::Inference),
                0.5,
                ArrivalPattern::ClosedLoop {
                    think: SimDuration::from_millis(10),
                    count: 3,
                },
            )
        })
        .collect();
    let ws = WorkloadSet { tenants, seed: 5 };

    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    g.bench_function("place_and_run_4_tenants", |b| {
        b.iter(|| {
            cluster::run_cluster_opts(
                &ws,
                profiles.clone(),
                4,
                &spec,
                &BlessParams::default(),
                SimTime::from_secs(60),
                &cluster::ClusterOptions::default(),
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
