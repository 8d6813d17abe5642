//! Dynamic applications (paper §6.10): LLM autoregressive inference.
//!
//! > "For example, in the inference of Large Language Models, which
//! > exhibit an autoregressive computation pattern, BLESS could be
//! > enhanced by treating each forward pass as a distinct application DAG
//! > for scheduling."
//!
//! This example builds a synthetic decode-step "application" (one forward
//! pass = one request DAG of tensor-core kernels), registers it like any
//! stationary app, and co-locates a chatty LLM tenant with a ResNet-101
//! batch tenant. Each decode step is a separate request, so BLESS
//! schedules the autoregressive stream at forward-pass granularity.
//!
//! Run with: `cargo run --release --example llm_decode`

use bless::{BlessDriver, BlessParams, DeployedApp};
use dnn_models::gen::{generate_kernels, GenSpec};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{Gpu, GpuSpec, HostCosts, Simulation};
use profiler::ProfiledApp;
use sim_core::{SimDuration, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

/// One decode forward pass: short, tensor-core heavy, memory-bound-ish
/// (reading the KV cache), ~80 kernels and ~1.6 ms on a full A100.
fn decode_step_model() -> AppModel {
    let spec = GenSpec {
        name: "llm-decode".into(),
        kernels: 80,
        total: SimDuration::from_millis_f64(1.6),
        utilization: 0.55,
        dur_sigma: 0.5,
        d_frac_range: (0.3, 0.9),
        mem_range: (0.3, 0.7),
        tensor_core: true,
        input_bytes: 16 * 1024,   // token ids + positions
        output_bytes: 256 * 1024, // logits row
        memory_mib: 6_000,        // weights + KV cache
        seed: 0x11A_DEC0,
    };
    AppModel {
        kind: ModelKind::Bert, // closest family; kernels are our own
        phase: Phase::Inference,
        name: spec.name.clone(),
        memory_mib: spec.memory_mib,
        kernels: generate_kernels(&spec).into(),
    }
}

fn main() {
    let spec = GpuSpec::a100();

    // The decode pass is profiled once, like any stationary DAG (§6.10).
    let llm = decode_step_model();
    let llm_profile = ProfiledApp::profile(&llm, &spec);
    let r101 = AppModel::build(ModelKind::ResNet101, Phase::Inference);
    let r101_profile = ProfiledApp::profile(&r101, &spec);

    println!(
        "decode step: {} kernels, solo {} per token",
        llm_profile.kernel_count(),
        llm_profile.iso_latency[profiler::PARTITIONS - 1]
    );

    // Tenant 0: an LLM generating 120 tokens autoregressively (each
    // decode step issues as soon as the previous finished, plus a small
    // host-side sampling gap). Tenant 1: a steady R101 batch service.
    let ws = WorkloadSet::new(
        vec![
            TenantSpec::new(
                llm.clone(),
                2.0 / 3.0,
                // Each decode step issues when the previous one finished
                // (autoregressive), plus a small host-side gap.
                ArrivalPattern::ClosedLoop {
                    think: SimDuration::from_micros(200), // sampling + detok
                    count: 120,
                },
            ),
            TenantSpec::new(
                r101.clone(),
                1.0 / 3.0,
                ArrivalPattern::ClosedLoop {
                    think: SimDuration::from_millis(17),
                    count: 8,
                },
            ),
        ],
        2025,
    );

    let apps = vec![
        DeployedApp::new(llm_profile, 2.0 / 3.0, None),
        DeployedApp::new(r101_profile, 1.0 / 3.0, None),
    ];
    let driver = BlessDriver::new(apps, BlessParams::default());
    let gpu = Gpu::new(spec, HostCosts::paper());
    let mut sim = Simulation::new(gpu, driver, ws.initial_arrivals())
        .with_notice_handler(ws.notice_handler());
    let outcome = sim.run(SimTime::from_secs(60));

    println!("outcome: {outcome:?}");
    let d = sim.driver.log.stats(0);
    println!(
        "decode steps: {} served, mean {:.2} ms/token, p99 {:.2} ms (solo {:.2} ms)",
        d.count,
        d.mean_ms(),
        d.p99.map_or(f64::NAN, |x| x.as_millis_f64()),
        sim.driver.apps[0].profile.iso_latency[profiler::PARTITIONS - 1].as_millis_f64(),
    );
    let tokens_per_sec = d.count as f64
        / sim
            .driver
            .log
            .records(0)
            .last()
            .and_then(|r| r.completion)
            .map_or(1.0, |c| c.as_secs_f64());
    println!("decode throughput: {tokens_per_sec:.0} tokens/s while co-located");
    let b = sim.driver.log.stats(1);
    println!(
        "R101 batch: {} requests, mean {:.2} ms (ISO target {:.2} ms)",
        b.count,
        b.mean_ms(),
        sim.driver.apps[1].iso_latency().as_millis_f64(),
    );
}
