//! Interference-model microbenchmark: steady-state engine throughput under
//! the scalar interference model vs the per-resource channel model, plus
//! the regression gate keeping the channel hot loop within 15% of scalar.
//!
//! Run with `cargo bench -p bench --bench interference` to rewrite
//! `BENCH_interference.json` at the repo root; set `BENCH_QUICK=1` for the
//! CI smoke variant, which compares against the checked-in snapshot and
//! fails on regression instead of rewriting it.
//!
//! Absolute kernels/s figures are machine-dependent; the gate is on the
//! per-resource/scalar *ratio*, which is stable across hosts.

use std::time::Instant;

use gpu_sim::{
    ChannelDemand, CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, KernelTableId, QueueId,
};
use sim_core::SimDuration;

/// The per-resource hot loop must retain at least this fraction of the
/// scalar model's throughput (the 4-channel gather/max adds work to every
/// reallocation, but only O(channels) of it).
const RATIO_FLOOR: f64 = 0.85;

/// Quick-mode slack below the checked-in ratio before the gate fails.
const GATE_SLACK: f64 = 0.10;

/// Events one drain of at most eight kernels may pop before it fails.
const DRAIN_BUDGET: u64 = 100_000;

/// One engine under test: two contending default-context queues and a
/// one-entry kernel table whose kernel presses on all four channels.
struct Engine {
    gpu: Gpu,
    queues: Vec<QueueId>,
    table: KernelTableId,
}

impl Engine {
    /// An engine under `spec`, warmed by one 4096-kernel batch.
    fn warmed(spec: GpuSpec) -> Self {
        let mut gpu = Gpu::new(spec, HostCosts::free());
        let queues: Vec<QueueId> = (0..2)
            .map(|_| {
                let ctx = gpu.create_context(CtxKind::Default).expect("ctx");
                gpu.create_queue(ctx).expect("queue")
            })
            .collect();
        let desc = KernelDesc::compute(SimDuration::from_micros(5), 54, 0.4)
            .with_demand(ChannelDemand::new(0.2, 0.3, 0.4, 0.1));
        let table = gpu.register_kernel_table(vec![desc].into());
        let mut engine = Engine { gpu, queues, table };
        engine.batch(4096);
        engine
    }

    /// Launches `n` table kernels across the two queues, draining every
    /// 8 — the steady-state hot loop (two co-resident kernels per
    /// reallocation).
    fn batch(&mut self, n: usize) {
        for i in 0..n {
            let q = self.queues[i % self.queues.len()];
            self.gpu.launch(q, self.table, 0, i as u64).expect("launch");
            if i % 8 == 7 {
                self.gpu.drain(DRAIN_BUDGET).expect("drain");
            }
        }
        self.gpu.drain(DRAIN_BUDGET).expect("drain");
    }

    /// Wall-clock seconds of one `n`-kernel batch.
    fn timed_batch(&mut self, n: usize) -> f64 {
        let t0 = Instant::now();
        self.batch(n);
        t0.elapsed().as_secs_f64()
    }
}

fn main() {
    let (n, reps) = if bench::quick() {
        (10_000, 5)
    } else {
        (20_000, 20)
    };
    // Both engines are built and warmed first; each round then times one
    // scalar batch and one per-resource batch back to back, so a host
    // slowdown lands on both models rather than reading as a model
    // regression. Each model keeps its best batch.
    let mut scalar_engine = Engine::warmed(GpuSpec::a100());
    let mut per_resource_engine = Engine::warmed(GpuSpec::a100_per_resource());
    let (mut scalar_best, mut per_resource_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        scalar_best = scalar_best.min(scalar_engine.timed_batch(n));
        per_resource_best = per_resource_best.min(per_resource_engine.timed_batch(n));
    }
    let scalar = n as f64 / scalar_best;
    let per_resource = n as f64 / per_resource_best;
    let ratio = per_resource / scalar;
    println!(
        "engine throughput: scalar {:.2}M kernels/s, per-resource {:.2}M kernels/s (ratio {ratio:.3})",
        scalar / 1e6,
        per_resource / 1e6
    );
    assert!(
        ratio >= RATIO_FLOOR,
        "per-resource model costs too much: {ratio:.3} of scalar throughput (floor {RATIO_FLOOR})"
    );

    let path = bench::snapshot_path("interference");
    if bench::quick() {
        // CI smoke: gate against the checked-in snapshot; never rewrite it.
        let Ok(snapshot) = std::fs::read_to_string(&path) else {
            panic!("BENCH_interference.json missing; regenerate with `cargo bench -p bench --bench interference`");
        };
        let base = bench::json_number(&snapshot, "per_resource_over_scalar")
            .expect("per_resource_over_scalar in BENCH_interference.json");
        assert!(
            ratio >= base - GATE_SLACK,
            "interference-model regression: ratio now {ratio:.3} vs checked-in {base:.3} (-{GATE_SLACK} slack)"
        );
        println!("interference gate passed: {ratio:.3} >= {base:.3} - {GATE_SLACK}");
        return;
    }

    let host_cpus = bench::host_cpus();
    let json = format!(
        "{{\n  \"bench\": \"interference\",\n  \"regenerate\": \"cargo bench -p bench --bench interference\",\n  \"host_cpus\": {host_cpus},\n  \"kernels\": {n},\n  \"scalar_kernels_per_sec\": {scalar:.0},\n  \"per_resource_kernels_per_sec\": {per_resource:.0},\n  \"per_resource_over_scalar\": {ratio:.3}\n}}\n"
    );
    std::fs::write(&path, json).expect("write BENCH_interference.json");
    println!("wrote {path}");
}
