//! Lane-sharded engine scaling: monolithic event loop vs. the
//! `LaneEngine` sweep over lane count × event volume, written to
//! `BENCH_engine.json` at the repo root.
//!
//! Run with `cargo bench -p bench --bench engine_scale`; set
//! `BENCH_QUICK=1` for the CI smoke variant, which gates the 4-lane
//! sharding speedup against the checked-in snapshot instead of
//! rewriting it (the `BENCH_alloc.json` pattern).
//!
//! The headline figure is the **sharding speedup**: monolithic drain
//! time over the lane engine's sequential merge loop on the same
//! decoupled workload. It is *algorithmic*, not thread parallelism —
//! the monolithic engine settles every queue on every event, so its
//! per-event cost grows with the device's total queue count, while each
//! lane only scans its own queues. That gain holds on a single-core
//! host; the parallel-drain timings are recorded alongside with the
//! worker count, under the same single-worker honesty convention as
//! `BENCH_cluster.json`.
//!
//! Every configuration also runs a physics guard: the lane engine's
//! per-kernel completion times must equal the monolithic engine's on
//! this decoupled (hard-MIG, compute-only) workload, so the speedup is
//! never bought with a physics change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, LaneEngine, MergedOutput, StepOutput};
use sim_core::{SimDuration, SimRng, SimTime};

const QUEUES_PER_LANE: usize = 3;
const PLAN_SEED: u64 = 0x5CA1E;

/// Absolute floor for the quick-mode gate: the 4-lane sharding speedup
/// is algorithmic, so even a noisy CI box must clear this.
const GATE_FLOOR: f64 = 1.2;

/// Relative slack vs. the checked-in snapshot: wall-clock ratios jitter
/// far more than alloc counts, so the gate allows a wide band before
/// calling regression.
const GATE_FRACTION: f64 = 0.6;

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
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

/// Per lane, per queue: (kernel, tag, extra arrival delay). Compute
/// only, zero memory intensity — the decoupled regime where lane
/// sharding and the monolithic engine describe the same machine.
type Plan = Vec<Vec<Vec<(KernelDesc, u64, SimDuration)>>>;

fn build_plan(lanes: usize, per_queue: usize, seed: u64) -> Plan {
    let sms_per_lane = (GpuSpec::a100().num_sms / lanes as u32).max(1);
    let mut rng = SimRng::new(seed);
    (0..lanes)
        .map(|lane| {
            (0..QUEUES_PER_LANE)
                .map(|q| {
                    (0..per_queue)
                        .map(|k| {
                            let tag = ((lane as u64) << 40) | ((q as u64) << 32) | k as u64;
                            let extra = SimDuration::from_nanos(rng.next_below(500_000));
                            let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
                            let sms = 4 + rng.next_below(sms_per_lane.max(5) as u64 - 4) as u32;
                            (KernelDesc::compute("c", dur, sms, 0.0), tag, extra)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// One MIG-partition context per lane on a single monolithic `Gpu`.
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
            for (desc, tag, extra) in kernels {
                gpu.launch_delayed(qids[q], desc.clone(), *tag, *extra)
                    .expect("launch");
            }
        }
    }
    gpu
}

/// The same workload sharded: one lane per MIG partition.
fn build_lanes(plan: &Plan) -> LaneEngine {
    let spec = GpuSpec::a100();
    let sm_count = (spec.num_sms / plan.len() as u32).max(1);
    let mut eng = LaneEngine::homogeneous(spec, HostCosts::free(), plan.len());
    for (lane, queues) in plan.iter().enumerate() {
        let gpu = eng.lane_mut(lane);
        let ctx = gpu
            .create_context(CtxKind::MigPartition { sm_count })
            .expect("mig ctx");
        let qids: Vec<_> = (0..queues.len())
            .map(|_| gpu.create_queue(ctx).expect("queue"))
            .collect();
        for (q, kernels) in queues.iter().enumerate() {
            for (desc, tag, extra) in kernels {
                gpu.launch_delayed(qids[q], desc.clone(), *tag, *extra)
                    .expect("launch");
            }
        }
    }
    eng
}

/// tag → completion time, for the cross-engine physics guard.
fn lane_finish_map(outs: &[MergedOutput]) -> BTreeMap<u64, u64> {
    outs.iter()
        .filter_map(|m| match m.output {
            StepOutput::KernelDone { tag, .. } => Some((tag, m.at.as_nanos())),
            _ => None,
        })
        .collect()
}

fn mono_finish_map(outs: &[(SimTime, StepOutput)]) -> BTreeMap<u64, u64> {
    outs.iter()
        .filter_map(|(at, o)| match o {
            StepOutput::KernelDone { tag, .. } => Some((*tag, at.as_nanos())),
            _ => None,
        })
        .collect()
}

struct EngineRow {
    lanes: usize,
    kernels: usize,
    mono_ms: f64,
    lane_seq_ms: f64,
    lane_par_ms: f64,
}

impl EngineRow {
    fn sharding_speedup(&self) -> f64 {
        self.mono_ms / self.lane_seq_ms
    }
}

fn bench_engine(c: &mut Criterion, rows: &mut Vec<EngineRow>) {
    let lane_counts: &[usize] = if quick() { &[1, 4] } else { &[1, 2, 4] };
    // 2560/queue is the 10× row: fleet-replay event volume.
    let volumes: &[usize] = if quick() { &[32] } else { &[64, 256, 2560] };
    let samples = if quick() { 3 } else { 7 };

    let mut g = c.benchmark_group("engine_scale");
    g.sample_size(samples);
    for &lanes in lane_counts {
        for &per_queue in volumes {
            let plan = build_plan(lanes, per_queue, PLAN_SEED);
            let kernels = lanes * QUEUES_PER_LANE * per_queue;

            // Physics guard: the sharded run must reproduce the
            // monolithic completion times on this decoupled workload.
            {
                let mut gpu = build_mono(&plan);
                let mut mono_out = Vec::new();
                gpu.drain_outputs_into(&mut mono_out);
                let mut eng = build_lanes(&plan);
                let mut lane_out = Vec::new();
                eng.drain_par_into(&mut lane_out);
                assert_eq!(
                    mono_finish_map(&mono_out),
                    lane_finish_map(&lane_out),
                    "lane sharding changed kernel physics at lanes={lanes}"
                );
            }

            let mono_t = RefCell::new(Vec::new());
            let seq_t = RefCell::new(Vec::new());
            let par_t = RefCell::new(Vec::new());
            g.bench_function(format!("mono_l{lanes}_k{kernels}"), |b| {
                b.iter(|| {
                    let mut gpu = build_mono(&plan);
                    let mut out = Vec::with_capacity(kernels);
                    timed(&mono_t, || gpu.drain_outputs_into(&mut out));
                    out.len()
                })
            });
            g.bench_function(format!("lane_seq_l{lanes}_k{kernels}"), |b| {
                b.iter(|| {
                    let mut eng = build_lanes(&plan);
                    let mut out = Vec::with_capacity(kernels);
                    timed(&seq_t, || eng.drain_seq_into(&mut out));
                    out.len()
                })
            });
            g.bench_function(format!("lane_par_l{lanes}_k{kernels}"), |b| {
                b.iter(|| {
                    let mut eng = build_lanes(&plan);
                    let mut out = Vec::with_capacity(kernels);
                    timed(&par_t, || eng.drain_par_into(&mut out));
                    out.len()
                })
            });
            rows.push(EngineRow {
                lanes,
                kernels,
                mono_ms: min_ms(&mono_t),
                lane_seq_ms: min_ms(&seq_t),
                lane_par_ms: min_ms(&par_t),
            });
        }
    }
    g.finish();
}

/// The headline: sharding speedup of the largest 4-lane configuration.
fn headline(rows: &[EngineRow]) -> Option<f64> {
    rows.iter()
        .rfind(|r| r.lanes == 4)
        .map(EngineRow::sharding_speedup)
}

/// Extracts the number following `"key":` from a flat JSON snapshot
/// (no JSON dependency in this workspace; the file is machine-written).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn write_json(rows: &[EngineRow]) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_scale\",\n");
    out.push_str("  \"regenerate\": \"cargo bench -p bench --bench engine_scale\",\n");
    out.push_str(&format!("  \"quick\": {},\n", quick()));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    if workers == 1 {
        // A single-worker "parallel" drain is the sequential path plus
        // thread-pool overhead; its ratio is not a parallel speedup. The
        // sharding speedup is algorithmic and stands on any core count.
        out.push_str(
            "  \"note\": \"single worker: lane_par_ms is not a parallel baseline, par_speedup omitted\",\n",
        );
    }
    if let Some(h) = headline(rows) {
        out.push_str(&format!("  \"sharding_speedup_4lanes\": {h:.2},\n"));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let par_speedup = if workers > 1 {
            format!("{:.2}", r.lane_seq_ms / r.lane_par_ms)
        } else {
            "null".to_string()
        };
        out.push_str(&format!(
            "    {{\"lanes\": {}, \"queues\": {}, \"kernels\": {}, \"mono_ms\": {:.3}, \
             \"lane_seq_ms\": {:.3}, \"lane_par_ms\": {:.3}, \"sharding_speedup\": {:.2}, \
             \"par_speedup\": {}}}{}\n",
            r.lanes,
            r.lanes * QUEUES_PER_LANE,
            r.kernels,
            r.mono_ms,
            r.lane_seq_ms,
            r.lane_par_ms,
            r.sharding_speedup(),
            par_speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");

    if quick() {
        // CI smoke: gate against the checked-in snapshot; never rewrite it.
        let Ok(snapshot) = std::fs::read_to_string(path) else {
            panic!(
                "BENCH_engine.json missing; regenerate with `cargo bench -p bench --bench engine_scale`"
            );
        };
        let fresh = headline(rows).expect("quick sweep includes a 4-lane row");
        let base = json_number(&snapshot, "sharding_speedup_4lanes")
            .expect("sharding_speedup_4lanes in BENCH_engine.json");
        assert!(
            fresh >= GATE_FLOOR,
            "engine-scale regression: 4-lane sharding speedup {fresh:.2} below the {GATE_FLOOR} floor"
        );
        assert!(
            fresh >= base * GATE_FRACTION,
            "engine-scale regression: 4-lane sharding speedup {fresh:.2} vs checked-in {base:.2} (allowed fraction {GATE_FRACTION})"
        );
        println!(
            "engine gate passed: sharding speedup {fresh:.2} (snapshot {base:.2}, floor {GATE_FLOOR})"
        );
        return;
    }

    std::fs::write(path, &out).expect("write BENCH_engine.json");
    println!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    let mut rows = Vec::new();
    bench_engine(c, &mut rows);
    write_json(&rows);
}

criterion_group!(benches, bench);
criterion_main!(benches);
