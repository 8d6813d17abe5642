//! Monolithic engine throughput in kernels per second, swept over
//! MIG-partition count × event volume and written to `BENCH_engine.json`
//! at the repo root.
//!
//! Run with `cargo bench -p bench --bench engine_scale`; set
//! `BENCH_QUICK=1` for the CI smoke variant, which gates the headline
//! against the checked-in snapshot instead of rewriting it (the
//! `BENCH_alloc.json` pattern).
//!
//! Each partition carries three queues, so the partition count sets the
//! device's total queue count. The headline is **`queue_scaling_4x`**:
//! kernels/s at 4 partitions (12 queues) over kernels/s at 1 partition
//! (3 queues), both at the largest volume. The engine settles every
//! queue on every event, so its per-kernel cost grows with the queue
//! count; the ratio shows how much. Both rows are measured in the same
//! process with their samples interleaved, each row keeping its fastest,
//! so host speed and its drift during the run cancel and the gate
//! compares like with like across hosts. The quick variant measures
//! exactly those two rows.
//!
//! Every configuration first checks that each launched kernel tag
//! completes exactly once, so a throughput number never comes from a
//! run that dropped work.

use std::collections::BTreeSet;
use std::time::Instant;

use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, StepOutput};
use sim_core::{SimDuration, SimRng, SimTime};

const QUEUES_PER_PARTITION: usize = 3;
const PLAN_SEED: u64 = 0x5CA1E;

/// Kernels per queue of the largest volume, the one the headline reads.
const HEADLINE_VOLUME: usize = 2560;

/// Relative slack vs. the checked-in snapshot: wall-clock ratios jitter
/// far more than alloc counts, so the gate allows a wide band before
/// calling regression.
const GATE_FRACTION: f64 = 0.6;

/// Per partition, per queue: (kernel, tag, extra arrival delay).
/// Compute only, zero memory intensity.
type Plan = Vec<Vec<Vec<(KernelDesc, u64, SimDuration)>>>;

fn build_plan(partitions: usize, per_queue: usize, seed: u64) -> Plan {
    let sms_per_part = (GpuSpec::a100().num_sms / partitions as u32).max(1);
    let mut rng = SimRng::new(seed);
    (0..partitions)
        .map(|part| {
            (0..QUEUES_PER_PARTITION)
                .map(|q| {
                    (0..per_queue)
                        .map(|k| {
                            let tag = ((part as u64) << 40) | ((q as u64) << 32) | k as u64;
                            let extra = SimDuration::from_nanos(rng.next_below(500_000));
                            let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
                            let sms = 4 + rng.next_below(sms_per_part.max(5) as u64 - 4) as u32;
                            (KernelDesc::compute(dur, sms, 0.0), tag, extra)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// One MIG-partition context per plan partition on a single `Gpu`.
fn build_mono(plan: &Plan) -> Gpu {
    let spec = GpuSpec::a100();
    let sm_count = (spec.num_sms / plan.len() as u32).max(1);
    let mut gpu = Gpu::new(spec, HostCosts::free());
    for queues in plan {
        let ctx = gpu
            .create_context(CtxKind::MigPartition { sm_count })
            .expect("mig ctx");
        let qids: Vec<_> = (0..queues.len())
            .map(|_| gpu.create_queue(ctx).expect("queue"))
            .collect();
        for (q, kernels) in queues.iter().enumerate() {
            let table =
                gpu.register_kernel_table(kernels.iter().map(|(d, _, _)| d.clone()).collect());
            for (i, (_, tag, extra)) in kernels.iter().enumerate() {
                gpu.launch_delayed(qids[q], table, i, *tag, *extra)
                    .expect("launch");
            }
        }
    }
    gpu
}

/// Every tag the plan launches, for the completion check.
fn plan_tags(plan: &Plan) -> BTreeSet<u64> {
    plan.iter()
        .flatten()
        .flatten()
        .map(|(_, tag, _)| *tag)
        .collect()
}

/// Tags of the completed kernels; panics on a tag that completes twice.
fn done_tags(outs: &[(SimTime, StepOutput)]) -> BTreeSet<u64> {
    let mut done = BTreeSet::new();
    for (_, o) in outs {
        if let StepOutput::KernelDone { tag, .. } = o {
            assert!(done.insert(*tag), "tag {tag:#x} completed twice");
        }
    }
    done
}

struct EngineRow {
    partitions: usize,
    kernels: usize,
    mono_ms: f64,
}

impl EngineRow {
    fn kernels_per_s(&self) -> f64 {
        self.kernels as f64 / (self.mono_ms / 1e3)
    }
}

fn bench_engine(rows: &mut Vec<EngineRow>) {
    let partition_counts: &[usize] = if bench::quick() { &[1, 4] } else { &[1, 2, 4] };
    // 2560/queue is the 10× row: fleet-replay event volume.
    let volumes: &[usize] = if bench::quick() {
        &[HEADLINE_VOLUME]
    } else {
        &[64, 256, HEADLINE_VOLUME]
    };
    let samples = if bench::quick() { 3 } else { 7 };

    for &per_queue in volumes {
        let plans: Vec<(usize, Plan)> = partition_counts
            .iter()
            .map(|&partitions| (partitions, build_plan(partitions, per_queue, PLAN_SEED)))
            .collect();
        let kernels = |partitions: usize| partitions * QUEUES_PER_PARTITION * per_queue;
        // Far above the few events each kernel takes.
        let budget = |partitions: usize| 1_000 * kernels(partitions) as u64;

        // Completion check: every launched tag finishes exactly once.
        for (partitions, plan) in &plans {
            let mut gpu = build_mono(plan);
            let mut out = Vec::new();
            gpu.drain_outputs_into(&mut out, budget(*partitions))
                .expect("drain");
            assert_eq!(
                done_tags(&out),
                plan_tags(plan),
                "launched kernels went missing at partitions={partitions}"
            );
        }

        // The rows' samples alternate, so a host slowdown while one row
        // runs lands on the others' samples too, and each row keeps its
        // minimum. Building the device and launching the plan stay
        // outside the timed drain.
        let mut best = vec![f64::INFINITY; plans.len()];
        for _ in 0..=samples {
            for ((partitions, plan), best) in plans.iter().zip(&mut best) {
                let (mut gpu, mut out) =
                    (build_mono(plan), Vec::with_capacity(kernels(*partitions)));
                let start = Instant::now();
                gpu.drain_outputs_into(&mut out, budget(*partitions))
                    .expect("drain");
                *best = best.min(start.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(out);
            }
        }
        for ((partitions, _), mono_ms) in plans.iter().zip(best) {
            let kernels = kernels(*partitions);
            println!(
                "{:<40} min {mono_ms:>10.3} ms ({} runs, interleaved)",
                format!("engine_scale/mono_p{partitions}_k{kernels}"),
                samples + 1
            );
            rows.push(EngineRow {
                partitions: *partitions,
                kernels,
                mono_ms,
            });
        }
    }
    rows.sort_by_key(|r| (r.partitions, r.kernels));
}

/// The headline: kernels/s at 4 partitions over kernels/s at 1
/// partition, both at the largest volume.
fn headline(rows: &[EngineRow]) -> Option<f64> {
    let at = |partitions: usize| {
        rows.iter()
            .rfind(|r| r.partitions == partitions)
            .map(EngineRow::kernels_per_s)
    };
    Some(at(4)? / at(1)?)
}

fn write_json(rows: &[EngineRow]) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_scale\",\n");
    out.push_str("  \"regenerate\": \"cargo bench -p bench --bench engine_scale\",\n");
    out.push_str(&format!("  \"quick\": {},\n", bench::quick()));
    out.push_str(&format!("  \"host_cpus\": {},\n", bench::host_cpus()));
    if let Some(h) = headline(rows) {
        out.push_str(&format!("  \"queue_scaling_4x\": {h:.3},\n"));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"partitions\": {}, \"queues\": {}, \"kernels\": {}, \"mono_ms\": {:.3}, \
             \"kernels_per_s\": {:.0}}}{}\n",
            r.partitions,
            r.partitions * QUEUES_PER_PARTITION,
            r.kernels,
            r.mono_ms,
            r.kernels_per_s(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = bench::snapshot_path("engine");

    if bench::quick() {
        // CI smoke: gate against the checked-in snapshot; never rewrite it.
        let Ok(snapshot) = std::fs::read_to_string(&path) else {
            panic!(
                "BENCH_engine.json missing; regenerate with `cargo bench -p bench --bench engine_scale`"
            );
        };
        let fresh = headline(rows).expect("quick sweep includes the 1- and 4-partition rows");
        let base = bench::json_number(&snapshot, "queue_scaling_4x")
            .expect("queue_scaling_4x in BENCH_engine.json");
        assert!(
            fresh >= base * GATE_FRACTION,
            "engine-scale regression: queue_scaling_4x {fresh:.3} vs checked-in {base:.3} (allowed fraction {GATE_FRACTION})"
        );
        println!("engine gate passed: queue_scaling_4x {fresh:.3} (snapshot {base:.3})");
        return;
    }

    std::fs::write(&path, &out).expect("write BENCH_engine.json");
    println!("wrote {path}");
}

fn main() {
    let mut rows = Vec::new();
    bench_engine(&mut rows);
    write_json(&rows);
}
