//! ROADMAP item 2: the 10k-GPU fleet fast path.
//!
//! A diurnally-modulated (Twitter-like) inference fleet at cluster scale:
//! 10,000 GPUs, two tenants per device, ~1M requests total, served
//! through the streaming fleet runner ([`cluster::run_cluster_stream`])
//! so memory stays O(workers) instead of O(fleet). The experiment verifies
//! the three fleet-path claims end to end:
//!
//! 1. **Determinism** — the streamed [`cluster::FleetSummary`] (including
//!    the fleet-wide request-log digest) is byte-identical at worker
//!    counts 1/2/4, because per-GPU tallies reach the caller and fold in
//!    placement order.
//! 2. **Throughput** — `gpus_per_sec` at full scale, for comparison with
//!    the 64-GPU rate in `BENCH_cluster.json` (the bench gates the ratio
//!    at ≥ 0.8×; this experiment prints the same figure to stderr — the
//!    stdout tables stay byte-stable across runs by convention).
//! 3. **Contention-aware placement** — scoring the top-k feasible hosts
//!    by predicted bottleneck-channel overlap
//!    ([`cluster::PlacementPolicy::ContentionAware`]) strictly lowers the
//!    fleet's predicted bottleneck slowdown vs first-fit on this trace.
//!
//! The tenant cycle is built so placement actually has choices: all
//! models are pinned to an equal memory footprint (FFD then keeps index
//! order instead of grouping by kind) and quotas cycle 0.6/0.6/0.4/0.4,
//! so each group of four opens two half-full devices before the two
//! 0.4-quota stragglers pick their host.
//!
//! `BENCH_QUICK=1` shrinks the fleet to 64 GPUs for CI smoke runs; the
//! checks are identical, only the scale differs.

use std::time::Instant;

use bless::BlessParams;
use cluster::{
    place_with, predicted_fleet_slowdown, run_cluster_stream, ClusterOptions, FleetSummary,
    PlacementPolicy, PlacementRequest,
};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{ChannelParams, GpuSpec};
use metrics::Table;
use profiler::{AdmissionPolicy, ProfiledApp, SharedProfile};
use sim_core::{SimDuration, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

/// The tenant cycle: (model, quota), repeated per pair of GPUs. The two
/// 0.6-quota heavies each open a device; the two 0.4-quota lights then
/// have a genuine host choice for the contention-aware policy to score.
pub const CYCLE: [(ModelKind, f64); 4] = [
    (ModelKind::Bert, 0.6),
    (ModelKind::Vgg11, 0.6),
    (ModelKind::ResNet101, 0.4),
    (ModelKind::ResNet50, 0.4),
];

/// Equalized resident footprint (MiB) so FFD's memory-descending sort
/// degenerates to index order and the cycle above reaches placement
/// interleaved rather than grouped by model kind.
pub const EQUAL_MEMORY_MIB: u64 = 1_200;

/// Simulated span of the diurnal trace.
pub const TRACE_SPAN: SimDuration = SimDuration::from_secs(60);

/// Full-scale fleet: 10k GPUs × 2 tenants × ~50 requests ≈ 1M requests.
pub const FULL_GPUS: usize = 10_000;
/// Mean requests per tenant over the trace span (diurnal swing ±60%).
pub const FULL_REQS_PER_TENANT: usize = 50;

/// CI smoke scale (`BENCH_QUICK=1`).
pub const QUICK_GPUS: usize = 64;
pub const QUICK_REQS_PER_TENANT: usize = 6;

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// The experiment's GPU model: per-resource channels, so profiled demand
/// vectors carry real L2/DRAM/PCIe pressure for the contention scorer.
pub fn gpu_spec() -> GpuSpec {
    GpuSpec::a100_per_resource()
}

/// Builds the diurnal fleet workload: `2 * gpus` tenants cycling
/// [`CYCLE`], each issuing a Twitter-like (diurnally modulated Poisson)
/// open-loop stream averaging `reqs_per_tenant` requests over
/// [`TRACE_SPAN`]. Returns the workload plus per-tenant shared profiles
/// (one profile per model kind, interned and shared fleet-wide).
pub fn workload(gpus: usize, reqs_per_tenant: usize) -> (WorkloadSet, Vec<SharedProfile>) {
    let spec = gpu_spec();
    let models: Vec<AppModel> = CYCLE
        .iter()
        .map(|&(kind, _)| {
            let mut m = AppModel::build(kind, Phase::Inference);
            m.memory_mib = EQUAL_MEMORY_MIB;
            m
        })
        .collect();
    let kind_profiles: Vec<SharedProfile> = models
        .iter()
        .map(|m| ProfiledApp::profile_shared(m, &spec))
        .collect();
    let mean_interval =
        SimDuration::from_nanos(TRACE_SPAN.as_nanos() / reqs_per_tenant.max(1) as u64);
    let horizon = SimTime::ZERO + TRACE_SPAN;
    let n = 2 * gpus;
    let tenants: Vec<TenantSpec> = (0..n)
        .map(|i| {
            let (_, quota) = CYCLE[i % CYCLE.len()];
            TenantSpec::new(
                models[i % CYCLE.len()].clone(),
                quota,
                ArrivalPattern::TwitterLike {
                    mean_interval,
                    cycle: SimDuration::from_secs(15),
                    horizon,
                },
            )
        })
        .collect();
    let profiles: Vec<SharedProfile> = (0..n)
        .map(|i| SharedProfile::clone(&kind_profiles[i % CYCLE.len()]))
        .collect();
    (WorkloadSet { tenants, seed: 77 }, profiles)
}

/// Placement requests mirroring [`workload`]'s tenants, for policy
/// comparisons that do not need to run the fleet.
pub fn placement_requests(gpus: usize) -> Vec<PlacementRequest> {
    let (_, profiles) = workload(gpus, 1);
    profiles
        .into_iter()
        .enumerate()
        .map(|(i, profile)| PlacementRequest {
            profile,
            quota: CYCLE[i % CYCLE.len()].1,
        })
        .collect()
}

/// Predicted fleet bottleneck slowdown under both placement policies on
/// the same request trace: `(first_fit, contention_aware)`.
pub fn policy_slowdowns(gpus: usize, fleet_size: usize) -> (f64, f64) {
    let requests = placement_requests(gpus);
    let spec = gpu_spec();
    let params = ChannelParams::a100();
    let admission = AdmissionPolicy::default();
    let ff = place_with(
        &requests,
        fleet_size,
        spec.memory_mib,
        &admission,
        &PlacementPolicy::FirstFit,
    )
    .map(|p| predicted_fleet_slowdown(&requests, &p, &params));
    let ca = place_with(
        &requests,
        fleet_size,
        spec.memory_mib,
        &admission,
        &PlacementPolicy::contention_aware(),
    )
    .map(|p| predicted_fleet_slowdown(&requests, &p, &params));
    match (ff, ca) {
        (Ok(f), Ok(c)) => (f, c),
        (f, c) => panic!("fleet10k placement failed: ff={f:?} ca={c:?}"),
    }
}

/// One streamed fleet run at the given worker count; returns the summary
/// and the wall-clock seconds it took.
pub fn streamed_run(
    ws: &WorkloadSet,
    profiles: &[SharedProfile],
    fleet_size: usize,
    workers: usize,
) -> (FleetSummary, f64) {
    let spec = gpu_spec();
    let t0 = Instant::now();
    let summary = run_cluster_stream(
        ws,
        profiles.to_vec(),
        fleet_size,
        &spec,
        &BlessParams::default(),
        SimTime::ZERO + TRACE_SPAN + TRACE_SPAN,
        &ClusterOptions {
            workers: Some(workers),
            ..ClusterOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("fleet10k run failed: {e}"));
    (summary, t0.elapsed().as_secs_f64())
}

/// Regenerates the fleet10k tables: streamed determinism across worker
/// counts, throughput, and the placement-policy comparison.
pub fn run() -> Vec<Table> {
    let (gpus, reqs) = if quick() {
        (QUICK_GPUS, QUICK_REQS_PER_TENANT)
    } else {
        (FULL_GPUS, FULL_REQS_PER_TENANT)
    };
    let (ws, profiles) = workload(gpus, reqs);

    let mut runs = Table::new(
        format!(
            "fleet10k: streamed {gpus}-GPU diurnal fleet ({} tenants, ~{} requests)",
            2 * gpus,
            2 * gpus * reqs
        ),
        &["workers", "gpus", "arrived", "completed", "digest"],
    );
    let mut first: Option<FleetSummary> = None;
    for workers in [1usize, 2, 4] {
        let (summary, secs) = streamed_run(&ws, &profiles, gpus, workers);
        // Wall-clock goes to stderr so stdout stays byte-stable across
        // runs (the md5 convention); BENCH_cluster.json records timing.
        eprintln!(
            "[fleet10k] workers={workers}: {secs:.2}s wall, {:.1} gpus/s",
            summary.completed_gpus as f64 / secs
        );
        runs.row(&[
            workers.to_string(),
            summary.completed_gpus.to_string(),
            summary.arrived_requests.to_string(),
            summary.completed_requests.to_string(),
            format!("{:#018x}", summary.digest),
        ]);
        match &first {
            None => first = Some(summary),
            Some(base) => assert_eq!(
                base, &summary,
                "streamed fleet summary must be byte-identical at any worker count"
            ),
        }
    }
    runs.note("summaries (counters + fleet digest) byte-identical across worker counts");
    runs.note(
        "memory: per-GPU tallies fold in GPU order with O(workers) runs resident; \
         engine slots are recycled; one kernel table per model",
    );

    let (ff, ca) = policy_slowdowns(gpus, gpus);
    let mut policy = Table::new(
        "fleet10k: predicted bottleneck slowdown by placement policy",
        &["policy", "predicted slowdown", "vs first-fit"],
    );
    policy.row(&["first-fit".into(), format!("{ff:.4}"), "—".into()]);
    policy.row(&[
        "contention-aware".into(),
        format!("{ca:.4}"),
        format!("{:+.2}%", (ca / ff - 1.0) * 100.0),
    ]);
    assert!(
        ca < ff,
        "contention-aware placement must strictly lower predicted fleet slowdown (ff={ff:.4}, ca={ca:.4})"
    );
    policy.note("scored over top-k feasible hosts by bottleneck-channel overlap (§ Zahaf et al.)");
    vec![runs, policy]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build smoke: tiny fleet, but the full pipeline — streamed
    /// determinism across worker counts and the contention-aware win.
    #[test]
    fn quick_scale_fleet_is_deterministic_and_contention_aware_wins() {
        let (ws, profiles) = workload(16, 2);
        let (a, _) = streamed_run(&ws, &profiles, 16, 1);
        let (b, _) = streamed_run(&ws, &profiles, 16, 4);
        assert_eq!(a, b);
        assert!(a.arrived_requests > 0);
        let (ff, ca) = policy_slowdowns(16, 16);
        assert!(ca < ff, "ff={ff:.4} ca={ca:.4}");
    }

    /// Tenants and profiles of one model share one kernel table.
    #[test]
    fn tenants_share_their_profiles_kernel_table() {
        let (ws, profiles) = workload(8, 1);
        assert_eq!(ws.tenants.len(), profiles.len());
        for (t, p) in ws.tenants.iter().zip(&profiles) {
            assert!(std::sync::Arc::ptr_eq(&t.model.kernels, &p.kernels));
        }
    }
}
