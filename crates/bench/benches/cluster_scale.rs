//! Cluster-scale benchmark baseline: fleet-simulation throughput
//! (parallel vs. sequential) and the determiner's branch-and-bound
//! savings under both channel models, written to `BENCH_cluster.json` at
//! the repo root.
//!
//! Run with `cargo bench --bench cluster_scale`; set `BENCH_QUICK=1` for
//! the CI smoke variant (small fleets, few samples). The checked-in JSON
//! is a reference snapshot — absolute numbers are machine-dependent
//! (notably `workers`: the parallel speedup scales with host cores and
//! degrades to ~1x on a single-core container), while the determiner's
//! `evaluated`/`pruned` counts are deterministic on any machine.

use std::cell::RefCell;
use std::time::Duration;

use bless::{
    determine_config, determine_config_exhaustive, determine_config_model, BlessParams,
    DeployedApp, Squad,
};
use cluster::{run_chaos, run_cluster_opts, ChaosOptions, ClusterOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use harness::cache;
use harness::experiments::fleet10k;
use harness::squadlab::slice_squad;
use profiler::SharedProfile;
use sim_core::{FaultSpec, SimDuration, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

const KINDS: [ModelKind; 4] = [
    ModelKind::Vgg11,
    ModelKind::ResNet50,
    ModelKind::ResNet101,
    ModelKind::Bert,
];

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// Two tenants per GPU at quota 0.5 each, so FFD fills exactly `fleet`
/// devices. Profiles are interned once per model kind and shared by every
/// tenant of that kind across the whole fleet.
fn fleet_workload(fleet: usize, spec: &GpuSpec) -> (WorkloadSet, Vec<SharedProfile>) {
    let tenants: Vec<TenantSpec> = (0..2 * fleet)
        .map(|i| {
            TenantSpec::new(
                cache::model(KINDS[i % KINDS.len()], Phase::Inference),
                0.5,
                ArrivalPattern::ClosedLoop {
                    think: SimDuration::from_millis(10),
                    count: 3,
                },
            )
        })
        .collect();
    let profiles: Vec<SharedProfile> = (0..2 * fleet)
        .map(|i| cache::profile(KINDS[i % KINDS.len()], Phase::Inference, spec))
        .collect();
    // Fleet-level quotas sum past 1.0 by design; the placement controller
    // splits them across GPUs, so bypass WorkloadSet's single-GPU check.
    (WorkloadSet { tenants, seed: 7 }, profiles)
}

/// Wraps a routine so every call logs its own wall-clock duration —
/// criterion's shim prints summaries but does not hand samples back.
fn timed<R>(samples: &RefCell<Vec<Duration>>, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let r = f();
    samples.borrow_mut().push(start.elapsed());
    r
}

fn min_ms(samples: &RefCell<Vec<Duration>>) -> f64 {
    samples
        .borrow()
        .iter()
        .min()
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(f64::NAN)
}

struct FleetRow {
    gpus: usize,
    tenants: usize,
    seq_ms: f64,
    par_ms: f64,
}

struct ChaosRow {
    gpus: usize,
    tenants: usize,
    cluster_ms: f64,
    none_ms: f64,
    faulted_ms: f64,
    migrations: usize,
    stranded: usize,
}

struct Fleet10kRun {
    workers: usize,
    secs: f64,
    gpus_per_sec: f64,
}

struct Fleet10k {
    gpus: usize,
    tenants: usize,
    arrived_requests: u64,
    digest: u64,
    runs: Vec<Fleet10kRun>,
    base64_gpus_per_sec: f64,
    scale_ratio_vs_64: f64,
    ff_slowdown: f64,
    ca_slowdown: f64,
}

/// The 10k-GPU acceptance gates: a seeded ~1M-request diurnal fleet
/// streamed at workers 1/2/4 with byte-identical summaries, throughput
/// within 0.8× of the 64-GPU rate (no superlinear degradation), and
/// contention-aware placement strictly below first-fit on predicted
/// bottleneck slowdown. `BENCH_QUICK=1` shrinks the fleet (the CI smoke
/// keeps the determinism and contention gates; the scale-ratio gate only
/// means something at full scale).
fn bench_fleet10k() -> Fleet10k {
    let (gpus, reqs) = if quick() {
        (fleet10k::QUICK_GPUS, fleet10k::QUICK_REQS_PER_TENANT)
    } else {
        (fleet10k::FULL_GPUS, fleet10k::FULL_REQS_PER_TENANT)
    };
    let (ws, profiles) = fleet10k::workload(gpus, reqs);
    let mut runs = Vec::new();
    let mut first = None;
    let mut best_secs = f64::INFINITY;
    for workers in [1usize, 2, 4] {
        let (summary, secs) = fleet10k::streamed_run(&ws, &profiles, gpus, workers);
        println!(
            "fleet10k: {gpus} gpus, workers {workers}: {secs:.2}s, digest {:#018x}",
            summary.digest
        );
        best_secs = best_secs.min(secs);
        runs.push(Fleet10kRun {
            workers,
            secs,
            gpus_per_sec: gpus as f64 / secs,
        });
        match &first {
            None => first = Some(summary),
            Some(base) => assert_eq!(
                base, &summary,
                "gate: streamed fleet summary must be byte-identical at any worker count"
            ),
        }
    }
    let summary = first.unwrap_or_else(|| unreachable!("three runs recorded"));

    // 64-GPU reference rate under the same per-tenant load, best of the
    // same worker counts.
    let (ws64, profiles64) = fleet10k::workload(64, reqs);
    let mut base_secs = f64::INFINITY;
    for workers in [1usize, 2, 4] {
        let (_, secs) = fleet10k::streamed_run(&ws64, &profiles64, 64, workers);
        base_secs = base_secs.min(secs);
    }
    let gps = gpus as f64 / best_secs;
    let base_gps = 64.0 / base_secs;
    let ratio = gps / base_gps;
    if !quick() {
        assert!(
            ratio >= 0.8,
            "gate: gpus_per_sec at {gpus} GPUs degraded superlinearly: \
             {gps:.1} vs {base_gps:.1} at 64 GPUs (ratio {ratio:.3} < 0.8)"
        );
    }

    let (ff_slowdown, ca_slowdown) = fleet10k::policy_slowdowns(gpus, gpus);
    assert!(
        ca_slowdown < ff_slowdown,
        "gate: contention-aware placement must strictly lower predicted fleet slowdown \
         (ff={ff_slowdown:.4}, ca={ca_slowdown:.4})"
    );

    Fleet10k {
        gpus,
        tenants: 2 * gpus,
        arrived_requests: summary.arrived_requests,
        digest: summary.digest,
        runs,
        base64_gpus_per_sec: base_gps,
        scale_ratio_vs_64: ratio,
        ff_slowdown,
        ca_slowdown,
    }
}

struct DeterminerRow {
    /// `"scalar"` or `"per_resource"` (the channel model searched under).
    model: &'static str,
    apps: usize,
    kernels_per_app: usize,
    space: usize,
    evaluated: usize,
    pruned: usize,
    /// The uncut search's time; `None` where no public exhaustive twin
    /// exists (per-resource rows).
    exhaustive_ms: Option<f64>,
    pruned_ms: f64,
}

fn bench_fleet(c: &mut Criterion, rows: &mut Vec<FleetRow>) {
    let spec = GpuSpec::a100();
    let params = BlessParams::default();
    let horizon = SimTime::from_secs(60);
    let fleets: &[usize] = if quick() { &[1, 4] } else { &[1, 4, 16, 64] };
    let samples = if quick() { 2 } else { 5 };

    let mut g = c.benchmark_group("cluster_throughput");
    g.sample_size(samples);
    for &fleet in fleets {
        let (ws, profiles) = fleet_workload(fleet, &spec);
        let seq = RefCell::new(Vec::new());
        let par = RefCell::new(Vec::new());
        g.bench_function(format!("seq_fleet{fleet}"), |b| {
            b.iter(|| {
                timed(&seq, || {
                    run_cluster_opts(
                        &ws,
                        profiles.clone(),
                        fleet,
                        &spec,
                        &params,
                        horizon,
                        &ClusterOptions {
                            parallel: false,
                            ..ClusterOptions::default()
                        },
                    )
                    .unwrap()
                })
            })
        });
        g.bench_function(format!("par_fleet{fleet}"), |b| {
            b.iter(|| {
                timed(&par, || {
                    run_cluster_opts(
                        &ws,
                        profiles.clone(),
                        fleet,
                        &spec,
                        &params,
                        horizon,
                        &ClusterOptions::default(),
                    )
                    .unwrap()
                })
            })
        });
        rows.push(FleetRow {
            gpus: fleet,
            tenants: 2 * fleet,
            seq_ms: min_ms(&seq),
            par_ms: min_ms(&par),
        });
    }
    g.finish();
}

/// Open-loop chaos workload: 2·N−1 tenants at quota 0.45 so the fleet
/// keeps one half-empty device for evacuees (closed-loop clients cannot
/// be checkpointed across a migration, so chaos runs are open-loop).
fn chaos_workload(fleet: usize, spec: &GpuSpec) -> (WorkloadSet, Vec<SharedProfile>) {
    let n = 2 * fleet - 1;
    let tenants: Vec<TenantSpec> = (0..n)
        .map(|i| {
            TenantSpec::new(
                cache::model(KINDS[i % KINDS.len()], Phase::Inference),
                0.45,
                ArrivalPattern::Periodic {
                    period: SimDuration::from_millis(5),
                    count: 6,
                    offset: SimDuration::from_millis((i % 5) as u64),
                },
            )
        })
        .collect();
    let profiles = (0..n)
        .map(|i| cache::profile(KINDS[i % KINDS.len()], Phase::Inference, spec))
        .collect();
    (WorkloadSet { tenants, seed: 7 }, profiles)
}

/// The chaos runner's cost model: a fault-free chaos run against the
/// plain cluster runner (the identity overhead of the fault machinery),
/// and a kill/hang matrix run showing what quiesce + checkpoint +
/// migrate + rebuild cost on top.
fn bench_chaos(c: &mut Criterion, rows: &mut Vec<ChaosRow>) {
    let spec = GpuSpec::a100();
    let params = BlessParams::default();
    let horizon = SimTime::from_secs(60);
    let fleets: &[usize] = if quick() { &[4] } else { &[4, 16] };
    let faults = FaultSpec {
        gpu_fail_count: 2,
        gpu_fail_window: (SimTime::from_millis(5), SimTime::from_millis(25)),
        gpu_hang_count: 2,
        gpu_hang_window: (SimTime::from_millis(5), SimTime::from_millis(25)),
        gpu_hang_len: SimDuration::from_millis(3),
        ..FaultSpec::default()
    };

    let mut g = c.benchmark_group("chaos_recovery");
    g.sample_size(if quick() { 2 } else { 5 });
    for &fleet in fleets {
        let (ws, profiles) = chaos_workload(fleet, &spec);
        let cluster_t = RefCell::new(Vec::new());
        let none_t = RefCell::new(Vec::new());
        let faulted_t = RefCell::new(Vec::new());
        g.bench_function(format!("cluster_fleet{fleet}"), |b| {
            b.iter(|| {
                timed(&cluster_t, || {
                    run_cluster_opts(
                        &ws,
                        profiles.clone(),
                        fleet,
                        &spec,
                        &params,
                        horizon,
                        &ClusterOptions::default(),
                    )
                    .unwrap()
                })
            })
        });
        g.bench_function(format!("chaos_none_fleet{fleet}"), |b| {
            b.iter(|| {
                timed(&none_t, || {
                    run_chaos(
                        &ws,
                        profiles.clone(),
                        fleet,
                        &spec,
                        &params,
                        horizon,
                        42,
                        &FaultSpec::default(),
                        &ChaosOptions::default(),
                    )
                    .unwrap()
                })
            })
        });
        let mut migrations = 0;
        let mut stranded = 0;
        g.bench_function(format!("chaos_faulted_fleet{fleet}"), |b| {
            b.iter(|| {
                timed(&faulted_t, || {
                    let run = run_chaos(
                        &ws,
                        profiles.clone(),
                        fleet,
                        &spec,
                        &params,
                        horizon,
                        42,
                        &faults,
                        &ChaosOptions::default(),
                    )
                    .unwrap();
                    migrations = run.migrations.len();
                    stranded = run.stranded.len();
                    run
                })
            })
        });
        rows.push(ChaosRow {
            gpus: fleet,
            tenants: 2 * fleet - 1,
            cluster_ms: min_ms(&cluster_t),
            none_ms: min_ms(&none_t),
            faulted_ms: min_ms(&faulted_t),
            migrations,
            stranded,
        });
    }
    g.finish();
}

/// `k` equal-quota apps cycling through [`KINDS`] on `spec`, and a squad
/// of `per_app` kernels from each.
fn determiner_squad(k: usize, per_app: usize, spec: &GpuSpec) -> (Vec<DeployedApp>, Squad) {
    let apps: Vec<DeployedApp> = (0..k)
        .map(|i| {
            DeployedApp::new(
                cache::profile(KINDS[i % KINDS.len()], Phase::Inference, spec),
                1.0 / k as f64,
                None,
            )
        })
        .collect();
    let squad = slice_squad(&apps, &vec![1; k], &vec![per_app; k]);
    (apps, squad)
}

fn bench_determiner(c: &mut Criterion, rows: &mut Vec<DeterminerRow>) {
    let spec = GpuSpec::a100();
    let per_app = 12;
    let max_apps = if quick() { 3 } else { 5 };
    let mut g = c.benchmark_group("determiner_search");
    g.sample_size(if quick() { 10 } else { 50 });
    for k in 2..=max_apps {
        let (apps, squad) = determiner_squad(k, per_app, &spec);
        let fast = determine_config(&squad, &apps, spec.num_sms);
        let slow = determine_config_exhaustive(&squad, &apps, spec.num_sms);
        assert_eq!(
            fast.config, slow.config,
            "pruning must not change the argmin"
        );
        let ex_t = RefCell::new(Vec::new());
        let pr_t = RefCell::new(Vec::new());
        g.bench_function(format!("exhaustive_{k}apps"), |b| {
            b.iter(|| {
                timed(&ex_t, || {
                    determine_config_exhaustive(&squad, &apps, spec.num_sms)
                })
            })
        });
        g.bench_function(format!("pruned_{k}apps"), |b| {
            b.iter(|| timed(&pr_t, || determine_config(&squad, &apps, spec.num_sms)))
        });
        rows.push(DeterminerRow {
            model: "scalar",
            apps: k,
            kernels_per_app: per_app,
            space: slow.evaluated,
            evaluated: fast.evaluated,
            pruned: fast.pruned,
            exhaustive_ms: Some(min_ms(&ex_t)),
            pruned_ms: min_ms(&pr_t),
        });
    }

    // The per-resource search: same squads on the per-channel model, up
    // to the exact-search limit of six apps. `evaluated` includes the
    // hill-climb seed's candidates, so `evaluated + pruned` slightly
    // exceeds `space` (NSP + C(17, K-1) splits).
    let pr_spec = GpuSpec::a100_per_resource();
    let max_apps = if quick() { 3 } else { 6 };
    for k in 2..=max_apps {
        let (apps, squad) = determiner_squad(k, per_app, &pr_spec);
        let search =
            || determine_config_model(&squad, &apps, pr_spec.num_sms, &pr_spec.channel_model);
        let choice = search();
        let t = RefCell::new(Vec::new());
        g.bench_function(format!("per_resource_{k}apps"), |b| {
            b.iter(|| timed(&t, search))
        });
        rows.push(DeterminerRow {
            model: "per_resource",
            apps: k,
            kernels_per_app: per_app,
            space: 1 + binomial(17, k - 1),
            evaluated: choice.evaluated,
            pruned: choice.pruned,
            exhaustive_ms: None,
            pruned_ms: min_ms(&t),
        });
    }
    g.finish();
}

/// `C(n, r)`.
fn binomial(n: usize, r: usize) -> usize {
    (0..r).fold(1, |c, i| c * (n - i) / (i + 1))
}

fn write_json(fleet: &[FleetRow], det: &[DeterminerRow], chaos: &[ChaosRow], f10k: &Fleet10k) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"cluster_scale\",\n");
    out.push_str("  \"regenerate\": \"cargo bench --bench cluster_scale\",\n");
    out.push_str(&format!("  \"quick\": {},\n", quick()));
    out.push_str(&format!("  \"host_cpus\": {workers},\n"));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    if workers == 1 {
        // A single-worker "parallel" run is just the sequential path with
        // thread-pool overhead: labelling its ratio as a speedup would
        // misrepresent the machine. The rows still carry both timings.
        out.push_str(
            "  \"note\": \"single worker: par_ms is not a parallel baseline, speedup omitted\",\n",
        );
    }
    out.push_str("  \"fleet\": [\n");
    for (i, r) in fleet.iter().enumerate() {
        let speedup = if workers > 1 {
            format!("{:.2}", r.seq_ms / r.par_ms)
        } else {
            "null".to_string()
        };
        let gps = r.gpus as f64 / (r.par_ms / 1e3);
        // Parallelism the row could actually use: one worker per GPU at
        // most, so the speedup column reads against its real ceiling.
        let row_workers = workers.min(r.gpus);
        out.push_str(&format!(
            "    {{\"gpus\": {}, \"tenants\": {}, \"workers\": {}, \"seq_ms\": {:.3}, \
             \"par_ms\": {:.3}, \"speedup\": {}, \"gpus_per_sec\": {:.1}}}{}\n",
            r.gpus,
            r.tenants,
            row_workers,
            r.seq_ms,
            r.par_ms,
            speedup,
            gps,
            if i + 1 < fleet.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // Chaos overhead: the fault-free chaos runner against the plain
    // cluster runner (none_ms / cluster_ms is the identity overhead of
    // the fault machinery) and the kill/hang matrix run on top.
    out.push_str("  \"chaos\": [\n");
    for (i, r) in chaos.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"gpus\": {}, \"tenants\": {}, \"cluster_ms\": {:.3}, \
             \"none_ms\": {:.3}, \"faulted_ms\": {:.3}, \"none_overhead\": {:.3}, \
             \"migrations\": {}, \"stranded\": {}}}{}\n",
            r.gpus,
            r.tenants,
            r.cluster_ms,
            r.none_ms,
            r.faulted_ms,
            r.none_ms / r.cluster_ms,
            r.migrations,
            r.stranded,
            if i + 1 < chaos.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // The 10k-GPU acceptance section: all three gates are asserted by the
    // bench before this snapshot is written, so a checked-in file implies
    // they passed on the generating machine.
    out.push_str("  \"fleet10k\": {\n");
    out.push_str(&format!(
        "    \"gpus\": {}, \"tenants\": {}, \"arrived_requests\": {},\n",
        f10k.gpus, f10k.tenants, f10k.arrived_requests
    ));
    out.push_str(&format!("    \"digest\": \"{:#018x}\",\n", f10k.digest));
    out.push_str(&format!("    \"host_workers\": {workers},\n"));
    // Speedup baseline: the 1-worker run of the same sweep. On a 1-CPU
    // host every multi-worker row is the sequential path plus pool
    // overhead, so the ratio would misstate the machine — null instead
    // (same honesty rule as the fleet rows above).
    let base_secs = f10k.runs.iter().find(|r| r.workers == 1).map(|r| r.secs);
    out.push_str("    \"runs\": [\n");
    for (i, r) in f10k.runs.iter().enumerate() {
        let speedup = match base_secs {
            Some(base) if workers > 1 => format!("{:.2}", base / r.secs),
            _ => "null".to_string(),
        };
        out.push_str(&format!(
            "      {{\"workers\": {}, \"secs\": {:.3}, \"gpus_per_sec\": {:.1}, \"speedup\": {}}}{}\n",
            r.workers,
            r.secs,
            r.gpus_per_sec,
            speedup,
            if i + 1 < f10k.runs.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"base64_gpus_per_sec\": {:.1}, \"scale_ratio_vs_64\": {:.3},\n",
        f10k.base64_gpus_per_sec, f10k.scale_ratio_vs_64
    ));
    out.push_str(&format!(
        "    \"ff_predicted_slowdown\": {:.4}, \"ca_predicted_slowdown\": {:.4},\n",
        f10k.ff_slowdown, f10k.ca_slowdown
    ));
    out.push_str(&format!(
        "    \"gates\": {{\"digest_identical_w124\": true, \"scale_ratio_ge_0.8\": {}, \"contention_strictly_lower\": true}}\n",
        if quick() { "\"not gated in quick mode\"" } else { "true" }
    ));
    out.push_str("  },\n");
    out.push_str("  \"determiner\": [\n");
    for (i, r) in det.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"apps\": {}, \"kernels_per_app\": {}, \"space\": {}, \
             \"evaluated\": {}, \"pruned\": {}, \"exhaustive_ms\": {}, \"pruned_ms\": {:.4}}}{}\n",
            r.model,
            r.apps,
            r.kernels_per_app,
            r.space,
            r.evaluated,
            r.pruned,
            r.exhaustive_ms
                .map_or_else(|| "null".to_string(), |ms| format!("{ms:.4}")),
            r.pruned_ms,
            if i + 1 < det.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    std::fs::write(path, &out).expect("write BENCH_cluster.json");
    println!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    bench::warm_profiles();
    let mut fleet_rows = Vec::new();
    let mut det_rows = Vec::new();
    let mut chaos_rows = Vec::new();
    bench_fleet(c, &mut fleet_rows);
    bench_chaos(c, &mut chaos_rows);
    bench_determiner(c, &mut det_rows);
    let f10k = bench_fleet10k();
    write_json(&fleet_rows, &det_rows, &chaos_rows, &f10k);
}

criterion_group!(benches, bench);
criterion_main!(benches);
