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
use gpu_sim::{
    CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, KernelTableId, LaneEngine, MergedOutput, QueueId,
};
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

/// Allowed steady-state allocs/kernel for the *threaded* lane drain.
/// `std::thread::scope` allocates per spawned worker per drain round; that
/// constant amortizes over the round's kernels but cannot reach zero.
const LANE_THREADED_EPSILON: f64 = 0.5;

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// A warmed engine with two contending default-context queues and a
/// registered one-entry kernel table.
fn engine_setup() -> (Gpu, Vec<QueueId>, KernelTableId) {
    engine_setup_with(GpuSpec::a100())
}

/// [`engine_setup`] under an explicit spec (the per-resource channel model
/// reuses the same harness).
fn engine_setup_with(spec: GpuSpec) -> (Gpu, Vec<QueueId>, KernelTableId) {
    let mut gpu = Gpu::new(spec, HostCosts::free());
    gpu.set_slot_recycling(true);
    let queues: Vec<QueueId> = (0..2)
        .map(|_| {
            let ctx = gpu.create_context(CtxKind::Default).expect("ctx");
            gpu.create_queue(ctx).expect("queue")
        })
        .collect();
    let desc = KernelDesc::compute("k", SimDuration::from_micros(5), 54, 0.2)
        .with_demand(gpu_sim::ChannelDemand::new(0.2, 0.3, 0.4, 0.1));
    let table = gpu.register_kernel_table(vec![desc].into());
    (gpu, queues, table)
}

/// Launches `n` short compute kernels by table reference across the two
/// queues and drains every 8 — the steady-state engine hot loop.
fn engine_batch(gpu: &mut Gpu, queues: &[QueueId], table: KernelTableId, n: usize) {
    for i in 0..n {
        let q = queues[i % queues.len()];
        gpu.launch_table(q, table, 0, i as u64).expect("launch");
        if i % 8 == 7 {
            gpu.drain();
        }
    }
    gpu.drain();
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

/// A warmed 4-lane engine: per-lane contending queues and a one-entry
/// kernel table, slot recycling on — the lane analogue of `engine_setup`.
fn lane_setup(lanes: usize) -> (LaneEngine, Vec<[QueueId; 2]>, Vec<KernelTableId>) {
    let mut eng = LaneEngine::homogeneous(GpuSpec::a100(), HostCosts::free(), lanes);
    let mut queues = Vec::new();
    let mut tables = Vec::new();
    for lane in 0..lanes {
        let gpu = eng.lane_mut(lane);
        gpu.set_slot_recycling(true);
        let qs = [0u8, 1].map(|_| {
            let ctx = gpu.create_context(CtxKind::Default).expect("ctx");
            gpu.create_queue(ctx).expect("queue")
        });
        let desc = KernelDesc::compute("k", SimDuration::from_micros(5), 54, 0.2);
        tables.push(gpu.register_kernel_table(vec![desc].into()));
        queues.push(qs);
    }
    (eng, queues, tables)
}

/// Launches `n` table kernels per lane and drains every 8 launch rounds
/// through the chosen lane path, reusing one merged-output buffer — the
/// steady-state lane hot loop.
fn lane_batch(
    eng: &mut LaneEngine,
    queues: &[[QueueId; 2]],
    tables: &[KernelTableId],
    n: usize,
    par: bool,
    out: &mut Vec<MergedOutput>,
) {
    let drain = |eng: &mut LaneEngine, out: &mut Vec<MergedOutput>| {
        out.clear();
        if par {
            eng.drain_par_into(out);
        } else {
            eng.drain_seq_into(out);
        }
    };
    for i in 0..n {
        for (lane, qs) in queues.iter().enumerate() {
            eng.lane_mut(lane)
                .launch_table(qs[i % 2], tables[lane], 0, i as u64)
                .expect("launch");
        }
        if i % 8 == 7 {
            drain(eng, out);
        }
    }
    drain(eng, out);
}

/// Steady-state allocations per kernel for the 4-lane engine: warm every
/// lane's arena and the merge scratch with one batch, then count.
fn lane_allocs_per_kernel(n: usize, par: bool, workers: usize) -> f64 {
    let (mut eng, queues, tables) = lane_setup(4);
    eng.set_workers(workers);
    let mut out = Vec::new();
    lane_batch(&mut eng, &queues, &tables, 1024, par, &mut out); // warmup
    let before = bench::alloc_count();
    lane_batch(&mut eng, &queues, &tables, n, par, &mut out);
    (bench::alloc_count() - before) as f64 / (n * queues.len()) as f64
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
            parallel: workers > 1,
            workers: Some(workers),
            ..ClusterOptions::default()
        },
    )
    .expect("fleet placement");
    std::hint::black_box(summary.digest);
    bench::alloc_count() - before
}

/// Marginal allocations per GPU-step for the streamed fleet runner, for
/// the sequential fold and the sharded worker pool. Two fleet sizes
/// cancel per-run setup (thread spawns, shard deques, accumulator
/// arrays); the sharded marginal minus the sequential marginal is the
/// steady-state cost of the sharding machinery itself — work-stealing
/// dispatch plus streaming aggregation — which must be allocation-free
/// per GPU.
fn cluster_marginals(n1: usize, n2: usize) -> (f64, f64) {
    let d = (n2 - n1) as f64;
    let seq = (cluster_stream_allocs(n2, 1) - cluster_stream_allocs(n1, 1)) as f64 / d;
    let sharded = (cluster_stream_allocs(n2, 2) - cluster_stream_allocs(n1, 2)) as f64 / d;
    (seq, sharded)
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

/// Extracts the number following `"key":` from a flat JSON snapshot.
/// (No JSON dependency in this workspace; the file is machine-written
/// with known formatting.)
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    bench::warm_profiles();
    let counting = bench::alloc_counting_enabled();
    println!("alloc counter active: {counting}");

    let engine_n = if quick() { 8192 } else { 65536 };
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

    let (batch, reps) = if quick() { (10_000, 5) } else { (10_000, 20) };
    let kps = engine_kernels_per_sec(batch, reps);
    println!(
        "engine table-launch throughput: {:.2}M kernels/s",
        kps / 1e6
    );

    // Lane engine steady state: the sequential merge loop and the
    // single-worker parallel path (same merge machinery, no threads) must
    // stay allocation-free; the threaded path pays only the per-round
    // thread-spawn constant.
    let lane_n = if quick() { 2048 } else { 16384 };
    let lane_seq = lane_allocs_per_kernel(lane_n, false, 1);
    let lane_par = lane_allocs_per_kernel(lane_n, true, 1);
    let lane_threaded = lane_allocs_per_kernel(lane_n, true, 2);
    println!(
        "lane engine allocs/kernel: seq {lane_seq:.4}, par(1w) {lane_par:.4}, par(2w) {lane_threaded:.4}"
    );
    if counting {
        assert!(
            lane_seq == 0.0,
            "lane step_seq loop must stay allocation-free in steady state (got {lane_seq:.4}/kernel)"
        );
        assert!(
            lane_par == 0.0,
            "lane parallel merge path must stay allocation-free in steady state (got {lane_par:.4}/kernel)"
        );
        assert!(
            lane_threaded <= LANE_THREADED_EPSILON,
            "threaded lane drain exceeds the thread-spawn budget (got {lane_threaded:.4}/kernel, cap {LANE_THREADED_EPSILON})"
        );
    }

    // Sharded fleet runner: warm once (lazy globals, profile interning),
    // then compare per-GPU marginals of the sequential fold and the
    // 2-worker sharded pool. The difference is the sharding machinery's
    // own steady-state cost and must be zero allocations per GPU-step.
    let (c1, c2) = if quick() { (4, 12) } else { (8, 24) };
    std::hint::black_box(cluster_stream_allocs(c1, 2)); // warmup
    let (cluster_seq, cluster_sharded) = cluster_marginals(c1, c2);
    let shard_overhead = cluster_sharded - cluster_seq;
    println!(
        "fleet runner allocs/GPU-step: seq-fold {cluster_seq:.1}, sharded {cluster_sharded:.1}, \
         sharding overhead {shard_overhead:.4}"
    );
    if counting {
        assert!(
            shard_overhead <= 0.0,
            "sharded fleet runner must add 0 steady-state allocs/GPU-step over the sequential \
             fold (got {shard_overhead:.4}: seq {cluster_seq:.1} vs sharded {cluster_sharded:.1})"
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

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    if quick() {
        // CI smoke: gate against the checked-in snapshot; never rewrite it.
        let Ok(snapshot) = std::fs::read_to_string(path) else {
            panic!("BENCH_alloc.json missing; regenerate with `cargo bench -p bench --bench alloc_stats --features count-alloc`");
        };
        if counting {
            let base = json_number(&snapshot, "allocs_per_kernel_bless")
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
    let json = format!(
        "{{\n  \"bench\": \"alloc_stats\",\n  \"regenerate\": \"cargo bench -p bench --bench alloc_stats --features count-alloc\",\n  \"count_alloc\": {counting},\n  \"engine\": {{\n    \"kernels\": {engine_n},\n    \"allocs_per_kernel\": {engine:.4},\n    \"allocs_per_kernel_per_resource\": {engine_pr:.4},\n    \"allocs_per_kernel_before\": {BEFORE_ENGINE:.4},\n    \"table_launch_kernels_per_sec\": {kps:.0}\n  }},\n  \"lanes\": {{\n    \"lanes\": 4,\n    \"kernels\": {},\n    \"allocs_per_kernel_seq\": {lane_seq:.4},\n    \"allocs_per_kernel_par\": {lane_par:.4},\n    \"allocs_per_kernel_par_threaded\": {lane_threaded:.4}\n  }},\n  \"cluster\": {{\n    \"gpus\": [{c1}, {c2}],\n    \"allocs_per_gpu_seq\": {cluster_seq:.1},\n    \"allocs_per_gpu_sharded\": {cluster_sharded:.1},\n    \"sharding_overhead_per_gpu\": {shard_overhead:.4}\n  }},\n  \"bless\": {{\n    \"allocs_per_kernel_bless\": {bless_marginal:.4},\n    \"allocs_per_kernel_before\": {BEFORE_BLESS:.4},\n    \"improvement_factor\": {:.1},\n    \"runs\": [[{a1}, {k1}], [{a2}, {k2}]]\n  }}\n}}\n",
        lane_n * 4,
        BEFORE_BLESS / bless_marginal.max(1e-9),
    );
    std::fs::write(path, json).expect("write BENCH_alloc.json");
    println!("wrote {path}");
}
