//! Allocation-regression gate: measures steady-state heap allocations per
//! simulated kernel for the raw engine loop and for a single-GPU BLESS
//! run, plus table-launch engine throughput, then writes
//! `BENCH_alloc.json` at the repo root.
//!
//! Run with `cargo bench -p bench --bench alloc_stats --features
//! count-alloc`; set `BENCH_QUICK=1` for the CI smoke variant, which
//! compares against the checked-in snapshot and fails on regression
//! instead of rewriting it.
//!
//! The BLESS figure is *marginal*: two runs differing only in request
//! count, so (ΔA)/(ΔK) cancels one-time setup allocations (contexts,
//! profiles, logs) and isolates the steady-state scheduling loop. Before
//! the zero-allocation work this was ~2.46 allocs/kernel; the scratch
//! buffers and kernel tables bring it under 0.25 (see `BEFORE_BLESS`).

use std::time::Instant;

use cluster::ClusterOptions;
use dnn_models::ModelKind;
use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, KernelTableId, QueueId};
use harness::cache;
use harness::experiments::fleet10k;
use harness::runner::System;
use sim_core::{SimDuration, SimTime};
use workloads::PaperWorkload;

/// Measured marginal allocs/kernel for single-GPU BLESS before the
/// zero-allocation work (same workload pair, same request counts).
const BEFORE_BLESS: f64 = 2.4602;

/// Engine-loop allocs/kernel before this PR (slot recycling and stable
/// queue capacities already made the clone-launch loop allocation-free).
const BEFORE_ENGINE: f64 = 0.0;

/// Quick-mode regression slack on the BLESS marginal: absolute headroom
/// over the checked-in baseline before the gate fails (tolerates drain
/// jitter between runs of different machines).
const GATE_SLACK: f64 = 0.05;

/// Events one drain of at most eight kernels may pop before it fails.
const DRAIN_BUDGET: u64 = 100_000;

/// A warmed engine with two contending default-context queues and a
/// registered one-entry kernel table.
fn engine_setup() -> (Gpu, Vec<QueueId>, KernelTableId) {
    engine_setup_with(GpuSpec::a100())
}

/// [`engine_setup`] under an explicit spec (the per-resource channel model
/// reuses the same harness).
fn engine_setup_with(spec: GpuSpec) -> (Gpu, Vec<QueueId>, KernelTableId) {
    let mut gpu = Gpu::new(spec, HostCosts::free());
    let queues: Vec<QueueId> = (0..2)
        .map(|_| {
            let ctx = gpu.create_context(CtxKind::Default).expect("ctx");
            gpu.create_queue(ctx).expect("queue")
        })
        .collect();
    let desc = KernelDesc::compute(SimDuration::from_micros(5), 54, 0.2)
        .with_demand(gpu_sim::ChannelDemand::new(0.2, 0.3, 0.4, 0.1));
    let table = gpu.register_kernel_table(vec![desc].into());
    (gpu, queues, table)
}

/// Launches `n` short compute kernels by table reference across the two
/// queues and drains every 8 — the steady-state engine hot loop.
fn engine_batch(gpu: &mut Gpu, queues: &[QueueId], table: KernelTableId, n: usize) {
    for i in 0..n {
        let q = queues[i % queues.len()];
        gpu.launch(q, table, 0, i as u64).expect("launch");
        if i % 8 == 7 {
            gpu.drain(DRAIN_BUDGET).expect("drain");
        }
    }
    gpu.drain(DRAIN_BUDGET).expect("drain");
}

/// Steady-state allocations per kernel for the engine loop: warm the
/// arena (slots, event heap, queue rings) with one batch, then count.
fn engine_allocs_per_kernel(n: usize) -> f64 {
    let (mut gpu, queues, table) = engine_setup();
    engine_batch(&mut gpu, &queues, table, 4096); // warmup
    let before = bench::alloc_count();
    engine_batch(&mut gpu, &queues, table, n);
    (bench::alloc_count() - before) as f64 / n as f64
}

/// [`engine_allocs_per_kernel`] under the per-resource channel model: the
/// 4-channel pressure gather runs on stack arrays and must stay
/// allocation-free too.
fn engine_allocs_per_kernel_per_resource(n: usize) -> f64 {
    let (mut gpu, queues, table) = engine_setup_with(GpuSpec::a100_per_resource());
    engine_batch(&mut gpu, &queues, table, 4096); // warmup
    let before = bench::alloc_count();
    engine_batch(&mut gpu, &queues, table, n);
    (bench::alloc_count() - before) as f64 / n as f64
}

/// Table-launch engine throughput in kernels/second (best of `reps`
/// batches on a warmed engine).
fn engine_kernels_per_sec(batch: usize, reps: usize) -> f64 {
    let (mut gpu, queues, table) = engine_setup();
    engine_batch(&mut gpu, &queues, table, 4096); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        engine_batch(&mut gpu, &queues, table, batch);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    batch as f64 / best
}

/// Total allocations for one streamed fleet run at the given size and
/// worker count (workload construction and profiling excluded).
fn cluster_stream_allocs(gpus: usize, workers: usize) -> u64 {
    let (ws, profiles) = fleet10k::workload(gpus, 2);
    let spec = fleet10k::gpu_spec();
    let horizon = SimTime::ZERO + fleet10k::TRACE_SPAN + fleet10k::TRACE_SPAN;
    let before = bench::alloc_count();
    let summary = cluster::run_cluster_stream(
        &ws,
        profiles,
        gpus,
        &spec,
        &bless::BlessParams::default(),
        horizon,
        &ClusterOptions {
            workers: Some(workers),
            ..ClusterOptions::default()
        },
    )
    .expect("fleet placement");
    std::hint::black_box(summary.digest);
    bench::alloc_count() - before
}

/// Marginal allocations per GPU-step for the streamed fleet runner, at
/// one worker and at two. Two fleet sizes cancel per-run setup (thread
/// spawns, the result channel's first blocks); the two-worker marginal
/// minus the one-worker marginal is the steady-state cost of the
/// parallel machinery itself — `sim_core::par`'s claim, channel and
/// reorder buffer plus the ordered fold of per-GPU tallies — which must
/// be allocation-free per GPU.
fn cluster_marginals(n1: usize, n2: usize) -> (f64, f64) {
    let d = (n2 - n1) as f64;
    let seq = (cluster_stream_allocs(n2, 1) - cluster_stream_allocs(n1, 1)) as f64 / d;
    let parallel = (cluster_stream_allocs(n2, 2) - cluster_stream_allocs(n1, 2)) as f64 / d;
    (seq, parallel)
}

/// (total allocations, simulated kernels) for one single-GPU BLESS run.
fn bless_run(requests: usize) -> (u64, u64) {
    let spec = GpuSpec::a100();
    let ws = bench::small_pair(
        ModelKind::NasNet,
        ModelKind::Bert,
        PaperWorkload::MediumLoad,
        requests,
    );
    let per_app: Vec<u64> = ws
        .tenants
        .iter()
        .map(|t| cache::profile(t.model.kind, t.model.phase, &spec).kernel_count() as u64)
        .collect();
    let before = bench::alloc_count();
    let r = bench::run(&System::Bless(bless::BlessParams::default()), &ws);
    let allocs = bench::alloc_count() - before;
    let mut kernels = 0u64;
    for (app, &per) in per_app.iter().enumerate() {
        let done = r
            .log
            .records(app)
            .iter()
            .filter(|x| x.completion.is_some())
            .count();
        kernels += done as u64 * per;
    }
    (allocs, kernels)
}

fn main() {
    bench::warm_profiles();
    let counting = bench::alloc_counting_enabled();
    println!("alloc counter active: {counting}");

    let engine_n = if bench::quick() { 8192 } else { 65536 };
    let engine = engine_allocs_per_kernel(engine_n);
    println!("engine steady-state allocs/kernel: {engine:.4}");
    if counting {
        assert!(
            engine == 0.0,
            "engine hot loop must stay allocation-free in steady state (got {engine:.4}/kernel)"
        );
    }

    let engine_pr = engine_allocs_per_kernel_per_resource(engine_n);
    println!("engine steady-state allocs/kernel (per-resource model): {engine_pr:.4}");
    if counting {
        assert!(
            engine_pr == 0.0,
            "per-resource hot loop must stay allocation-free in steady state (got {engine_pr:.4}/kernel)"
        );
    }

    let (batch, reps) = if bench::quick() {
        (10_000, 5)
    } else {
        (10_000, 20)
    };
    let kps = engine_kernels_per_sec(batch, reps);
    println!(
        "engine table-launch throughput: {:.2}M kernels/s",
        kps / 1e6
    );

    // Parallel fleet runner: warm once (lazy globals, profile interning),
    // then compare per-GPU marginals at one worker and at two. The
    // difference is the parallel machinery's own steady-state cost and
    // must be zero allocations per GPU-step.
    let (c1, c2) = if bench::quick() { (4, 12) } else { (8, 24) };
    std::hint::black_box(cluster_stream_allocs(c1, 2)); // warmup
    let (cluster_seq, cluster_parallel) = cluster_marginals(c1, c2);
    let parallel_overhead = cluster_parallel - cluster_seq;
    println!(
        "fleet runner allocs/GPU-step: seq-fold {cluster_seq:.1}, parallel {cluster_parallel:.1}, \
         parallel overhead {parallel_overhead:.4}"
    );
    if counting {
        assert!(
            parallel_overhead <= 0.0,
            "parallel fleet runner must add 0 steady-state allocs/GPU-step over the sequential \
             fold (got {parallel_overhead:.4}: seq {cluster_seq:.1} vs parallel {cluster_parallel:.1})"
        );
    }

    // Marginal allocations per kernel: two runs differing only in request
    // count; the delta cancels per-run setup (driver, profiles, logs).
    let (a1, k1) = bless_run(8);
    let (a2, k2) = bless_run(24);
    let bless_marginal = (a2 - a1) as f64 / (k2 - k1) as f64;
    println!(
        "bless marginal allocs/kernel: {bless_marginal:.4}  (runs: {a1}/{k1} vs {a2}/{k2}, before: {BEFORE_BLESS:.4})"
    );
    if counting {
        assert!(
            bless_marginal <= BEFORE_BLESS / 10.0,
            "BLESS steady state must allocate >=10x less than the {BEFORE_BLESS:.4}/kernel baseline (got {bless_marginal:.4})"
        );
    }

    let path = bench::snapshot_path("alloc");
    if bench::quick() {
        // CI smoke: gate against the checked-in snapshot; never rewrite it.
        let Ok(snapshot) = std::fs::read_to_string(&path) else {
            panic!("BENCH_alloc.json missing; regenerate with `cargo bench -p bench --bench alloc_stats --features count-alloc`");
        };
        if counting {
            let base = bench::json_number(&snapshot, "allocs_per_kernel_bless")
                .expect("allocs_per_kernel_bless in BENCH_alloc.json");
            assert!(
                bless_marginal <= base + GATE_SLACK,
                "allocation regression: BLESS now at {bless_marginal:.4} allocs/kernel vs checked-in {base:.4} (+{GATE_SLACK} slack)"
            );
            println!("alloc gate passed: {bless_marginal:.4} <= {base:.4} + {GATE_SLACK}");
        } else {
            println!("alloc gate skipped: count-alloc feature off");
        }
        return;
    }

    if !counting {
        println!("not rewriting BENCH_alloc.json: count-alloc feature off, alloc figures would be meaningless");
        return;
    }
    let host_cpus = bench::host_cpus();
    let json = format!(
        "{{\n  \"bench\": \"alloc_stats\",\n  \"regenerate\": \"cargo bench -p bench --bench alloc_stats --features count-alloc\",\n  \"count_alloc\": {counting},\n  \"host_cpus\": {host_cpus},\n  \"engine\": {{\n    \"kernels\": {engine_n},\n    \"allocs_per_kernel\": {engine:.4},\n    \"allocs_per_kernel_per_resource\": {engine_pr:.4},\n    \"allocs_per_kernel_before\": {BEFORE_ENGINE:.4},\n    \"table_launch_kernels_per_sec\": {kps:.0}\n  }},\n  \"cluster\": {{\n    \"gpus\": [{c1}, {c2}],\n    \"allocs_per_gpu_seq\": {cluster_seq:.1},\n    \"allocs_per_gpu_parallel\": {cluster_parallel:.1},\n    \"parallel_overhead_per_gpu\": {parallel_overhead:.4}\n  }},\n  \"bless\": {{\n    \"allocs_per_kernel_bless\": {bless_marginal:.4},\n    \"allocs_per_kernel_before\": {BEFORE_BLESS:.4},\n    \"improvement_factor\": {:.1},\n    \"runs\": [[{a1}, {k1}], [{a2}, {k2}]]\n  }}\n}}\n",
        BEFORE_BLESS / bless_marginal.max(1e-9),
    );
    std::fs::write(&path, json).expect("write BENCH_alloc.json");
    println!("wrote {path}");
}
