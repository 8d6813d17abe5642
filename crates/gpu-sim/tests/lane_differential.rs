//! Differential suite for the lane-sharded engine (DESIGN.md §5h).
//!
//! Three pillars:
//!
//! 1. **Seq/par twin** — the parallel lane drain must be byte-identical to
//!    the sequential merge loop (`step_seq`) on both the request-log
//!    stream and the merged trace stream, for every worker count. This is
//!    the lane analogue of the PR 4/PR 5 golden-digest pattern and runs in
//!    CI.
//! 2. **Pinned golden digest** — the canonical lane workload's merged
//!    request log hashes to a pinned constant, so cross-version drift in
//!    *either* path is caught even if both paths drift together.
//! 3. **Physics anchor** — on a decoupled workload (hard MIG partitions,
//!    compute-only, zero memory interference) the lane engine reproduces
//!    the monolithic [`Gpu`] engine's per-kernel completion times exactly.
//!    This pins lane sharding to the original physics where the two
//!    models are defined to coincide.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::collections::BTreeMap;

use gpu_sim::lanes::{LaneEngine, MergedOutput};
use gpu_sim::spec::{GpuSpec, HostCosts};
use gpu_sim::{CtxKind, Gpu, KernelDesc, StepOutput};
use sim_core::{SimDuration, SimRng, SimTime};

const LANES: usize = 4;
const SMS_PER_LANE: u32 = 27; // 4 × 27 = the A100's 108 SMs.
const QUEUES_PER_LANE: usize = 3;
const KERNELS_PER_QUEUE: usize = 40;

/// FNV-1a 64-bit, the workspace's stock digest for golden tests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// One reproducible kernel plan: every engine variant launches exactly
/// this, so digests are comparable across engines and backends.
struct Plan {
    /// Per lane, per queue, the kernels (desc, tag, extra arrival delay).
    lanes: Vec<Vec<Vec<(KernelDesc, u64, SimDuration)>>>,
}

/// A mixed, interference-carrying workload: compute kernels of varying
/// width and memory intensity plus DMA transfers, with staggered
/// arrivals. Intra-lane coupling is real (non-zero `mem_intensity`);
/// cross-lane coupling is absent by construction (separate lanes).
fn canonical_plan(seed: u64) -> Plan {
    let mut rng = SimRng::new(seed);
    let mut lanes = Vec::new();
    for lane in 0..LANES {
        let mut queues = Vec::new();
        for q in 0..QUEUES_PER_LANE {
            let mut kernels = Vec::new();
            for k in 0..KERNELS_PER_QUEUE {
                let tag = ((lane as u64) << 40) | ((q as u64) << 32) | k as u64;
                let extra = SimDuration::from_nanos(rng.next_below(500_000));
                let desc = if q == QUEUES_PER_LANE - 1 && k % 3 == 0 {
                    if k % 6 == 0 {
                        KernelDesc::memcpy_h2d("h2d", 1 << (16 + rng.next_below(6)))
                    } else {
                        KernelDesc::memcpy_d2h("d2h", 1 << (16 + rng.next_below(6)))
                    }
                } else {
                    let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
                    let sms = 4 + rng.next_below(SMS_PER_LANE as u64) as u32;
                    let mem = match rng.next_below(3) {
                        0 => 0.0,
                        1 => 0.3,
                        _ => 0.7,
                    };
                    KernelDesc::compute("c", dur, sms, mem)
                };
                kernels.push((desc, tag, extra));
            }
            queues.push(kernels);
        }
        lanes.push(queues);
    }
    Plan { lanes }
}

/// A decoupled plan for the physics anchor: compute only, zero memory
/// intensity, so the monolithic engine's global interference term is
/// identically 1 and its per-partition allocator matches the per-lane one.
fn decoupled_plan(seed: u64) -> Plan {
    let mut rng = SimRng::new(seed);
    let mut lanes = Vec::new();
    for lane in 0..LANES {
        let mut queues = Vec::new();
        for q in 0..QUEUES_PER_LANE {
            let mut kernels = Vec::new();
            for k in 0..KERNELS_PER_QUEUE {
                let tag = ((lane as u64) << 40) | ((q as u64) << 32) | k as u64;
                let extra = SimDuration::from_nanos(rng.next_below(500_000));
                let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
                let sms = 4 + rng.next_below(SMS_PER_LANE as u64) as u32;
                kernels.push((KernelDesc::compute("c", dur, sms, 0.0), tag, extra));
            }
            queues.push(kernels);
        }
        lanes.push(queues);
    }
    Plan { lanes }
}

/// Builds a lane engine with one MIG-partition context per lane and
/// launches the plan. Host costs are free so arrival staggering comes
/// entirely from the plan's `extra` delays (a shared host timeline can be
/// folded into those delays; see `lanes` module docs).
fn build_lane_engine(plan: &Plan, traced: bool) -> LaneEngine {
    let mut eng = LaneEngine::homogeneous(GpuSpec::a100(), HostCosts::free(), plan.lanes.len());
    if traced {
        eng.enable_tracing();
    }
    for (lane, queues) in plan.lanes.iter().enumerate() {
        let gpu = eng.lane_mut(lane);
        let ctx = gpu
            .create_context(CtxKind::MigPartition {
                sm_count: SMS_PER_LANE,
            })
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

/// Builds the *monolithic* equivalent: one `Gpu`, one MIG partition per
/// lane, same queues, same launch order.
fn build_monolithic(plan: &Plan) -> (Gpu, Vec<Vec<gpu_sim::QueueId>>) {
    let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
    let mut qids = Vec::new();
    for queues in &plan.lanes {
        let ctx = gpu
            .create_context(CtxKind::MigPartition {
                sm_count: SMS_PER_LANE,
            })
            .expect("mig ctx");
        qids.push(
            (0..queues.len())
                .map(|_| gpu.create_queue(ctx).expect("queue"))
                .collect::<Vec<_>>(),
        );
    }
    for (lane, queues) in plan.lanes.iter().enumerate() {
        for (q, kernels) in queues.iter().enumerate() {
            for (desc, tag, extra) in kernels {
                gpu.launch_delayed(qids[lane][q], desc.clone(), *tag, *extra)
                    .expect("launch");
            }
        }
    }
    (gpu, qids)
}

fn digest_outputs(outs: &[MergedOutput]) -> u64 {
    let mut h = Fnv::new();
    for m in outs {
        h.write_u64(m.at.as_nanos());
        h.write_u64(m.lane as u64);
        match m.output {
            StepOutput::KernelDone { handle, queue, tag } => {
                h.write_u64(1);
                h.write_u64(handle.0);
                h.write_u64(queue.0 as u64);
                h.write_u64(tag);
            }
            StepOutput::HostWake { token } => {
                h.write_u64(2);
                h.write_u64(token);
            }
            StepOutput::ContextCrash { app } => {
                h.write_u64(3);
                h.write_u64(app as u64);
            }
        }
    }
    h.0
}

fn digest_trace(trace: &[(u32, sim_core::TraceEvent)]) -> u64 {
    let mut h = Fnv::new();
    for (lane, ev) in trace {
        h.write_u64(*lane as u64);
        h.write(ev.to_json().as_bytes());
    }
    h.0
}

/// tag → completion time, for engine-shape-independent comparison.
fn finish_map(outs: &[MergedOutput]) -> BTreeMap<u64, u64> {
    outs.iter()
        .filter_map(|m| match m.output {
            StepOutput::KernelDone { tag, .. } => Some((tag, m.at.as_nanos())),
            _ => None,
        })
        .collect()
}

#[test]
fn par_drain_matches_step_seq_byte_for_byte() {
    let plan = canonical_plan(0xB1E55);
    let mut seq_eng = build_lane_engine(&plan, true);
    let mut seq = Vec::new();
    seq_eng.drain_seq_into(&mut seq);
    let seq_digest = digest_outputs(&seq);
    let seq_trace = digest_trace(&seq_eng.merged_trace());
    assert!(!seq.is_empty());

    for workers in [1usize, 2, 4, 8] {
        let mut eng = build_lane_engine(&plan, true);
        eng.set_workers(workers);
        let mut par = Vec::new();
        eng.drain_par_into(&mut par);
        assert_eq!(par, seq, "output stream diverged at workers={workers}");
        assert_eq!(digest_outputs(&par), seq_digest);
        assert_eq!(
            digest_trace(&eng.merged_trace()),
            seq_trace,
            "merged trace diverged at workers={workers}"
        );
    }
}

#[test]
fn barrier_rounds_reproduce_one_shot_drain() {
    let plan = canonical_plan(0xB1E55);
    let mut oneshot_eng = build_lane_engine(&plan, false);
    let mut oneshot = Vec::new();
    oneshot_eng.drain_par_into(&mut oneshot);

    let mut eng = build_lane_engine(&plan, false);
    let mut rounds = Vec::new();
    let mut barrier = SimTime::from_micros(750);
    while !eng.is_idle() {
        eng.advance_par_until(barrier, &mut rounds);
        barrier += SimDuration::from_micros(750);
    }
    assert_eq!(rounds, oneshot);
}

#[test]
fn golden_request_log_digest_is_pinned() {
    // Pins the canonical workload's merged stream across refactors. If a
    // deliberate physics/engine change moves this, update the constant in
    // the same commit and say why in the message.
    let plan = canonical_plan(0xB1E55);
    let mut eng = build_lane_engine(&plan, false);
    let mut out = Vec::new();
    eng.drain_par_into(&mut out);
    let d = digest_outputs(&out);
    assert_eq!(
        d, GOLDEN_LANE_DIGEST,
        "canonical lane digest drifted: got {d:#018x}"
    );
}

const GOLDEN_LANE_DIGEST: u64 = 0x4388_1671_15e1_9e40;

#[test]
fn physics_anchor_matches_monolithic_engine() {
    // On hard partitions with zero memory interference the lane engine
    // and the monolithic engine describe the same machine; completion
    // times must agree exactly (handles/slots legitimately differ).
    let plan = decoupled_plan(0xA11C);
    let mut lane_eng = build_lane_engine(&plan, false);
    let mut lane_out = Vec::new();
    lane_eng.drain_par_into(&mut lane_out);
    let lane_map = finish_map(&lane_out);

    let (mut gpu, _) = build_monolithic(&plan);
    let mut mono_out = Vec::new();
    gpu.drain_outputs_into(&mut mono_out);
    let mono_map: BTreeMap<u64, u64> = mono_out
        .iter()
        .filter_map(|(at, o)| match o {
            StepOutput::KernelDone { tag, .. } => Some((*tag, at.as_nanos())),
            _ => None,
        })
        .collect();

    assert_eq!(lane_map.len(), mono_map.len());
    assert_eq!(lane_map, mono_map);
}
