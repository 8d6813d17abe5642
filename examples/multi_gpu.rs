//! Multi-GPU deployment (paper §4.2.2): a central controller places six
//! tenants across a fleet of A100s, then a replicated BLESS runtime
//! serves each GPU.
//!
//! Run with: `cargo run --release --example multi_gpu`

use bless::BlessParams;
use cluster::{run_cluster_opts, ClusterOptions};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use profiler::{ProfiledApp, SharedProfile};
use sim_core::SimTime;
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

fn main() {
    let spec = GpuSpec::a100();
    let tenants_spec = [
        (ModelKind::Vgg11, 0.5),
        (ModelKind::ResNet50, 0.5),
        (ModelKind::ResNet101, 0.6),
        (ModelKind::Bert, 0.4),
        (ModelKind::NasNet, 0.7),
        (ModelKind::ResNet50, 0.3),
    ];

    println!("profiling 6 tenants...");
    // Shared handles: placement and the per-GPU runtimes reference one
    // interned kernel table per tenant instead of deep-copying it.
    let profiles: Vec<SharedProfile> = tenants_spec
        .iter()
        .map(|&(k, _)| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
        .collect();

    let tenants: Vec<TenantSpec> = tenants_spec
        .iter()
        .map(|&(k, q)| {
            let model = AppModel::build(k, Phase::Inference);
            let think = model.solo_duration(dnn_models::gen::CALIBRATION_PCIE);
            TenantSpec::new(model, q, ArrivalPattern::ClosedLoop { think, count: 10 })
        })
        .collect();
    // Cluster-level tenant lists may oversubscribe a single GPU; the
    // controller splits them across devices.
    let ws = WorkloadSet { tenants, seed: 11 };

    let run = run_cluster_opts(
        &ws,
        profiles,
        4,
        &spec,
        &BlessParams::default(),
        SimTime::from_secs(120),
        &ClusterOptions::default(),
    )
    .expect("fleet hosts the tenants");

    println!(
        "placement: {} tenants on {} GPUs\n",
        tenants_spec.len(),
        run.placement.gpus_used
    );
    for (g, gpu) in run.gpus.iter().enumerate() {
        println!(
            "GPU {g}: tenants {:?}, outcome {:?}, utilization {:.1}%",
            gpu.tenants,
            gpu.outcome,
            gpu.utilization * 100.0
        );
    }
    println!();
    for (t, &(k, q)) in tenants_spec.iter().enumerate() {
        println!(
            "tenant {t} ({:<10} q={:.0}%) on GPU {}: mean {:.2} ms",
            k.full_name(),
            q * 100.0,
            run.placement.assignments[t],
            run.tenant_mean_ms(t).unwrap_or(f64::NAN)
        );
    }
}
