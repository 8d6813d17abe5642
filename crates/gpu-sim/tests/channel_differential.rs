//! Differential twin for the per-resource interference model
//! (DESIGN.md §5j).
//!
//! Three pillars:
//!
//! 1. **Collapse twin** — [`ChannelModel::PerResource`] with every
//!    kernel's demand collapsed onto one channel and that channel's
//!    α/base/cap matched to the scalar curve
//!    ([`GpuSpec::collapse_twin`]) must be *byte-identical* to
//!    [`ChannelModel::Scalar`]: same request-log stream, same digests,
//!    same trace digests, across a seeded workload matrix, on a [`Gpu`]
//!    whose contexts share the SM pool and on one split into two MIG
//!    partitions. This is what lets the richer model land without moving a single
//!    golden digest.
//! 2. **Property tests** — the channel slowdown formula is monotone in
//!    each channel's pressure, never below 1.0, capped per channel, and
//!    permutation-invariant across co-resident kernel order.
//! 3. **Divergence witness** — a genuinely multi-channel workload under
//!    the calibrated model *does* diverge from scalar, so the twin isn't
//!    vacuously comparing two identical code paths.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use gpu_sim::spec::{GpuSpec, HostCosts};
use gpu_sim::{
    Channel, ChannelDemand, ChannelParams, CtxKind, Gpu, KernelDesc, StepOutput, NUM_CHANNELS,
};
use proptest::prelude::*;
use sim_core::trace::BufferSink;
use sim_core::{SimDuration, SimRng, SimTime};

const QUEUES: usize = 6;
const KERNELS_PER_QUEUE: usize = 40;
const SEED_MATRIX: [u64; 4] = [0xC0FFEE, 0xB1E55, 7, 0xDEAD_BEEF];

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

/// One reproducible kernel plan: per queue, (desc, tag, extra delay).
/// Every spec variant launches exactly this, so digests are comparable.
struct Plan {
    queues: Vec<Vec<(KernelDesc, u64, SimDuration)>>,
}

/// A mixed, interference-heavy workload on shared contexts: compute
/// kernels of varying width and memory intensity (co-running across MPS
/// contexts, so the interference term is constantly exercised) plus DMA
/// transfers, with staggered arrivals. `collapse_on` routes each
/// kernel's `mem_intensity` demand onto the given channel so the same
/// plan can test the collapse on any channel.
fn canonical_plan(seed: u64, collapse_on: Channel) -> Plan {
    let mut rng = SimRng::new(seed);
    let mut queues = Vec::new();
    for q in 0..QUEUES {
        let mut kernels = Vec::new();
        for k in 0..KERNELS_PER_QUEUE {
            let tag = ((q as u64) << 32) | k as u64;
            let extra = SimDuration::from_nanos(rng.next_below(500_000));
            let desc = if q == QUEUES - 1 && k % 3 == 0 {
                if k % 6 == 0 {
                    KernelDesc::memcpy_h2d(1 << (16 + rng.next_below(6)))
                } else {
                    KernelDesc::memcpy_d2h(1 << (16 + rng.next_below(6)))
                }
            } else {
                let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
                let sms = 4 + rng.next_below(60) as u32;
                let mem = match rng.next_below(4) {
                    0 => 0.0,
                    1 => 0.3,
                    2 => 0.7,
                    _ => 0.9,
                };
                KernelDesc::compute(dur, sms, mem)
                    .with_demand(ChannelDemand::collapsed(collapse_on, mem))
            };
            kernels.push((desc, tag, extra));
        }
        queues.push(kernels);
    }
    Plan { queues }
}

/// How [`build_gpu`] lays the plan's queues out over contexts.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Two MPS-affinity contexts and one default context sharing the SM
    /// pool, queues spread across them.
    SharedPool,
    /// Two MIG-partition contexts of 54 SMs each, queues split by
    /// `q % 2`: interference stays live inside and across partitions.
    MigPair,
}

/// Builds a `Gpu` under `spec` with the given context layout and
/// launches the plan.
fn build_gpu(plan: &Plan, spec: GpuSpec, layout: Layout, sink: Option<BufferSink>) -> Gpu {
    let mut gpu = Gpu::new(spec, HostCosts::free());
    if let Some(s) = sink {
        gpu.set_trace_sink(Box::new(s));
    }
    let kinds: &[CtxKind] = match layout {
        Layout::SharedPool => &[
            CtxKind::MpsAffinity { sm_cap: 54 },
            CtxKind::MpsAffinity { sm_cap: 54 },
            CtxKind::Default,
        ],
        Layout::MigPair => &[
            CtxKind::MigPartition { sm_count: 54 },
            CtxKind::MigPartition { sm_count: 54 },
        ],
    };
    let ctxs: Vec<_> = kinds
        .iter()
        .map(|&k| gpu.create_context(k).expect("ctx"))
        .collect();
    for (q, kernels) in plan.queues.iter().enumerate() {
        let qid = gpu.create_queue(ctxs[q % ctxs.len()]).expect("queue");
        let table = gpu.register_kernel_table(kernels.iter().map(|(d, _, _)| d.clone()).collect());
        for (i, (_, tag, extra)) in kernels.iter().enumerate() {
            gpu.launch_delayed(qid, table, i, *tag, *extra)
                .expect("launch");
        }
    }
    gpu
}

fn digest_gpu_outputs(outs: &[(SimTime, StepOutput)]) -> u64 {
    let mut h = Fnv::new();
    for (at, o) in outs {
        h.write_u64(at.as_nanos());
        match o {
            StepOutput::KernelDone {
                handle,
                queue,
                tag,
                started,
            } => {
                h.write_u64(1);
                h.write_u64(handle.0);
                h.write_u64(queue.0 as u64);
                h.write_u64(*tag);
                h.write_u64(started.as_nanos());
            }
            StepOutput::HostWake { token } => {
                h.write_u64(2);
                h.write_u64(*token);
            }
            StepOutput::ContextCrash { app } => {
                h.write_u64(3);
                h.write_u64(*app as u64);
            }
        }
    }
    h.0
}

fn digest_trace_events(events: &[sim_core::TraceEvent]) -> u64 {
    let mut h = Fnv::new();
    for ev in events {
        h.write(ev.to_json().as_bytes());
    }
    h.0
}

/// Runs the plan on the monolithic engine under `spec` and returns
/// (output stream, output digest, trace digest).
fn run_monolithic(
    plan: &Plan,
    spec: GpuSpec,
    layout: Layout,
) -> (Vec<(SimTime, StepOutput)>, u64, u64) {
    let sink = BufferSink::new();
    let mut gpu = build_gpu(plan, spec, layout, Some(sink.clone()));
    // Under an event budget, so a run that never ends fails instead of
    // hanging.
    let mut out = Vec::new();
    gpu.drain_outputs_into(&mut out, 100_000).unwrap();
    drop(gpu.take_trace_sink());
    let events = sink.take();
    assert!(!out.is_empty());
    assert!(!events.is_empty());
    let od = digest_gpu_outputs(&out);
    let td = digest_trace_events(&events);
    (out, od, td)
}

#[test]
fn collapse_twin_is_bit_identical_on_monolithic_gpu() {
    // The seeded workload matrix: four seeds, collapse on the DRAM-BW
    // channel (the default constructor shape) and on L2 (any single
    // channel collapses, not just the calibrated one), on both context
    // layouts.
    for &seed in &SEED_MATRIX {
        for ch in [Channel::DramBw, Channel::L2] {
            let plan = canonical_plan(seed, ch);
            for layout in [Layout::SharedPool, Layout::MigPair] {
                let scalar_spec = GpuSpec::a100();
                let twin_spec = scalar_spec.collapse_twin(ch);
                let (s_out, s_od, s_td) = run_monolithic(&plan, scalar_spec, layout);
                let (t_out, t_od, t_td) = run_monolithic(&plan, twin_spec, layout);
                let at = format!("seed={seed:#x} ch={ch:?} layout={layout:?}");
                assert_eq!(s_out, t_out, "stream diverged: {at}");
                assert_eq!(s_od, t_od, "output digest diverged: {at}");
                assert_eq!(s_td, t_td, "trace digest diverged: {at}");
            }
        }
    }
}

#[test]
fn calibrated_model_diverges_from_scalar_on_multi_channel_demand() {
    // Witness that the twin comparison is not vacuous: a genuinely
    // multi-channel workload under the calibrated per-resource model
    // produces a different completion stream than the scalar model.
    let seed = 0xB1E55;
    let mut rng = SimRng::new(seed);
    let mut plan = Plan { queues: Vec::new() };
    for q in 0..4usize {
        let mut kernels = Vec::new();
        for k in 0..30usize {
            let dur = SimDuration::from_nanos(20_000 + rng.next_below(180_000));
            let sms = 4 + rng.next_below(60) as u32;
            let demand = ChannelDemand::new(0.3, 0.6, 0.5, 0.1);
            kernels.push((
                KernelDesc::compute(dur, sms, 0.5).with_demand(demand),
                ((q as u64) << 32) | k as u64,
                SimDuration::from_nanos(rng.next_below(500_000)),
            ));
        }
        plan.queues.push(kernels);
    }
    let (_, scalar_od, _) = run_monolithic(&plan, GpuSpec::a100(), Layout::SharedPool);
    let (_, pr_od, _) = run_monolithic(&plan, GpuSpec::a100_per_resource(), Layout::SharedPool);
    assert_ne!(
        scalar_od, pr_od,
        "per-resource model never diverged from scalar"
    );
}

// ---------------------------------------------------------------------------
// Property tests for the channel slowdown formula.
// ---------------------------------------------------------------------------

type DemandTuple = (f64, f64, f64, f64);

fn demand_of(d: DemandTuple) -> ChannelDemand {
    ChannelDemand::new(d.0, d.1, d.2, d.3)
}

const UNIT: std::ops::Range<f64> = 0.0f64..1.0;
const TRAFFIC: std::ops::Range<f64> = 0.0f64..4.0;

proptest! {
    /// Slowdown is never below 1.0 and never above the per-channel caps.
    #[test]
    fn slowdown_bounded_below_and_capped(
        d in (UNIT, UNIT, UNIT, UNIT),
        share in 0.0f64..1.0,
        t in (TRAFFIC, TRAFFIC, TRAFFIC, TRAFFIC),
    ) {
        let p = ChannelParams::a100();
        let traffic = [t.0, t.1, t.2, t.3];
        let s = p.slowdown(&demand_of(d), share, &traffic);
        prop_assert!(s >= 1.0, "slowdown {} below 1", s);
        let max_cap = p.cap.iter().cloned().fold(1.0f64, f64::max);
        prop_assert!(s <= max_cap, "slowdown {} above max cap {}", s, max_cap);
    }

    /// Slowdown is monotone (non-decreasing) in each channel's traffic.
    #[test]
    fn slowdown_monotone_in_each_channel_pressure(
        d in (UNIT, UNIT, UNIT, UNIT),
        share in 0.0f64..1.0,
        t in (TRAFFIC, TRAFFIC, TRAFFIC, TRAFFIC),
        bump in 0.0f64..2.0,
        ch in 0usize..NUM_CHANNELS,
    ) {
        let p = ChannelParams::a100();
        let demand = demand_of(d);
        let traffic = [t.0, t.1, t.2, t.3];
        let base = p.slowdown(&demand, share, &traffic);
        let mut more = traffic;
        more[ch] += bump;
        let bumped = p.slowdown(&demand, share, &more);
        prop_assert!(
            bumped >= base,
            "pressure bump on channel {} lowered slowdown: {} -> {}", ch, base, bumped
        );
    }

    /// Each channel respects its own cap: with pressure confined to one
    /// channel, the slowdown never exceeds that channel's cap even under
    /// absurd traffic.
    #[test]
    fn slowdown_capped_per_channel(
        intensity in 0.0f64..1.0,
        traffic_mag in 0.0f64..1000.0,
        ch in 0usize..NUM_CHANNELS,
    ) {
        let p = ChannelParams::a100();
        let demand = ChannelDemand::collapsed(Channel::ALL[ch], intensity);
        let mut traffic = [0.0; NUM_CHANNELS];
        traffic[ch] = traffic_mag;
        let s = p.slowdown(&demand, 0.0, &traffic);
        prop_assert!(s <= p.cap[ch], "channel {}: slowdown {} above its cap {}", ch, s, p.cap[ch]);
    }

    /// The slowdown a victim sees is invariant (to f64 accumulation
    /// noise) under permutation of its co-residents' order: traffic is a
    /// sum, so co-resident order must not matter.
    #[test]
    fn slowdown_permutation_invariant_across_co_residents(
        demands in proptest::collection::vec(((UNIT, UNIT, UNIT, UNIT), 0.0f64..0.5), 2..8),
        v in (UNIT, UNIT, UNIT, UNIT),
        rotation in 0usize..8,
    ) {
        let p = ChannelParams::a100();
        let victim = demand_of(v);
        let accumulate = |list: &[(DemandTuple, f64)]| {
            let mut t = [0.0f64; NUM_CHANNELS];
            for (d, share) in list {
                let d = demand_of(*d);
                for (tc, dc) in t.iter_mut().zip(d.0) {
                    *tc += dc * share;
                }
            }
            t
        };
        let forward = accumulate(&demands);
        let mut rotated_list = demands.clone();
        let len = rotated_list.len();
        rotated_list.rotate_left(rotation % len);
        let rotated = accumulate(&rotated_list);
        let a = p.slowdown(&victim, 0.25, &forward);
        let b = p.slowdown(&victim, 0.25, &rotated);
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1.0), "permutation moved slowdown: {} vs {}", a, b);
    }
}
