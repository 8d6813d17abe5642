//! Property tests for the engine under the default greedy-sticky policy:
//! random kernel mixes must conserve work, respect caps, and terminate.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;

use gpu_sim::{
    CtxKind, Gpu, GpuSpec, HostCosts, HwPolicy, KernelDesc, KernelHandle, QueueId, StepOutput,
};
use proptest::prelude::*;
use sim_core::{SimDuration, SimTime};

/// Registers `kernels` as one table and launches all of it into `q`,
/// tagging kernel `i` with `base + i`.
fn launch_all(gpu: &mut Gpu, q: QueueId, kernels: Vec<KernelDesc>, base: u64) -> Vec<KernelHandle> {
    let n = kernels.len();
    let table = gpu.register_kernel_table(Arc::from(kernels));
    (0..n)
        .map(|i| gpu.launch(q, table, i, base + i as u64).unwrap())
        .collect()
}

/// Events one drain may pop: far above any run here, so a run that never
/// ends (say, on a completion `settle` never advances) fails instead of
/// hanging.
const EVENT_BUDGET: u64 = 100_000;

/// Runs `gpu` to idle within [`EVENT_BUDGET`] events and returns the
/// kernels it reported done, as `(handle, finished)` in completion order.
fn drain(gpu: &mut Gpu) -> Vec<(KernelHandle, SimTime)> {
    let mut out = Vec::new();
    gpu.drain_outputs_into(&mut out, EVENT_BUDGET).unwrap();
    out.into_iter()
        .filter_map(|(at, o)| match o {
            StepOutput::KernelDone { handle, .. } => Some((handle, at)),
            _ => None,
        })
        .collect()
}

/// When `h` finished, if `done` reports it.
fn finished(done: &[(KernelHandle, SimTime)], h: KernelHandle) -> Option<SimTime> {
    done.iter().find(|d| d.0 == h).map(|d| d.1)
}

/// A random compute kernel description.
fn arb_kernel() -> impl Strategy<Value = (u64, u32, f64)> {
    // (duration us, max_sms, mem_intensity)
    (5u64..500, 1u32..=108, 0.0f64..1.0)
}

/// Runs the queues of `kernels` under `caps` to idle; returns the device,
/// the handles in launch order and what the run reported done.
fn run_mix(
    policy: HwPolicy,
    caps: Vec<Option<u32>>,
    kernels: Vec<Vec<(u64, u32, f64)>>,
) -> (Gpu, Vec<KernelHandle>, Vec<(KernelHandle, SimTime)>) {
    let mut spec = GpuSpec::a100();
    spec.hw_policy = policy;
    let mut gpu = Gpu::new(spec, HostCosts::paper());
    let mut handles = Vec::new();
    for (ctx_cap, ks) in caps.iter().zip(&kernels) {
        let ctx = match ctx_cap {
            None => gpu.create_context(CtxKind::Default).unwrap(),
            Some(c) => gpu
                .create_context(CtxKind::MpsAffinity { sm_cap: *c })
                .unwrap(),
        };
        let q = gpu.create_queue(ctx).unwrap();
        let descs = ks
            .iter()
            .map(|&(us, sms, mem)| KernelDesc::compute(SimDuration::from_micros(us), sms, mem))
            .collect();
        handles.extend(launch_all(&mut gpu, q, descs, 0));
    }
    let done = drain(&mut gpu);
    (gpu, handles, done)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every launched kernel completes, regardless of mix, caps, policy.
    #[test]
    fn prop_all_kernels_complete(
        caps in proptest::collection::vec(proptest::option::of(1u32..=108), 1..4),
        per_queue in proptest::collection::vec(
            proptest::collection::vec(arb_kernel(), 1..12), 1..4),
        fair in any::<bool>(),
    ) {
        let n = caps.len().min(per_queue.len());
        let policy = if fair { HwPolicy::FairShare } else { HwPolicy::GreedySticky };
        let (gpu, handles, done) = run_mix(
            policy,
            caps[..n].to_vec(),
            per_queue[..n].to_vec(),
        );
        prop_assert!(gpu.is_device_idle());
        // Each kernel is reported done exactly once.
        let mut reported: Vec<KernelHandle> = done.iter().map(|d| d.0).collect();
        reported.sort_unstable();
        prop_assert_eq!(reported, handles);
    }

    /// Work conservation: total busy SM·time equals the sum of every
    /// kernel's work divided by its (interference-adjusted) rate — i.e.
    /// busy time is at least the interference-free work and at most the
    /// 2x interference cap over it.
    #[test]
    fn prop_busy_time_brackets_total_work(
        per_queue in proptest::collection::vec(
            proptest::collection::vec(arb_kernel(), 1..10), 1..3),
    ) {
        let caps = vec![None; per_queue.len()];
        let (gpu, _, _) = run_mix(HwPolicy::GreedySticky, caps, per_queue.clone());
        let total_work_sm_s: f64 = per_queue
            .iter()
            .flatten()
            .map(|&(us, sms, _)| us as f64 * 1e-6 * sms as f64)
            .sum();
        let busy = gpu.busy_sm_seconds();
        prop_assert!(
            busy >= total_work_sm_s * 0.999,
            "busy {busy} < work {total_work_sm_s}"
        );
        prop_assert!(
            busy <= total_work_sm_s * 2.001,
            "busy {busy} exceeds the interference cap over {total_work_sm_s}"
        );
    }

    /// Kernels in one queue finish in submission order (CUDA stream FIFO).
    #[test]
    fn prop_queue_is_fifo(
        ks in proptest::collection::vec(arb_kernel(), 2..15),
    ) {
        let (_, handles, done) = run_mix(HwPolicy::GreedySticky, vec![None], vec![ks]);
        let mut last = SimTime::ZERO;
        for h in handles {
            let f = finished(&done, h).unwrap();
            prop_assert!(f >= last, "completion order violates FIFO");
            last = f;
        }
    }

    /// A solo queue's makespan is independent of the hardware policy:
    /// with no co-runners, greedy-sticky and fair-share agree exactly.
    #[test]
    fn prop_solo_runs_are_policy_independent(
        ks in proptest::collection::vec(arb_kernel(), 1..12),
        cap in proptest::option::of(1u32..=108),
    ) {
        let (_, h1, d1) = run_mix(HwPolicy::GreedySticky, vec![cap], vec![ks.clone()]);
        let (_, h2, d2) = run_mix(HwPolicy::FairShare, vec![cap], vec![ks]);
        let end1 = h1.iter().map(|&h| finished(&d1, h).unwrap()).max();
        let end2 = h2.iter().map(|&h| finished(&d2, h).unwrap()).max();
        prop_assert_eq!(end1, end2);
    }

    /// MIG partitions never leak capacity: two saturating tenants in
    /// disjoint partitions finish exactly as if each had its own GPU of
    /// the partition size.
    #[test]
    fn prop_mig_partitions_isolate(
        us in 50u64..500,
        split in 1u32..7,
    ) {
        let sms_a = split * 15;
        let sms_b = 105 - sms_a;
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let ca = gpu.create_context(CtxKind::MigPartition { sm_count: sms_a }).unwrap();
        let cb = gpu.create_context(CtxKind::MigPartition { sm_count: sms_b }).unwrap();
        let qa = gpu.create_queue(ca).unwrap();
        let qb = gpu.create_queue(cb).unwrap();
        let k = || KernelDesc::compute(SimDuration::from_micros(us), 108, 0.0);
        let ha = launch_all(&mut gpu, qa, vec![k()], 0)[0];
        let hb = launch_all(&mut gpu, qb, vec![k()], 1)[0];
        let done = drain(&mut gpu);
        // Each kernel's duration = work / partition size, exactly.
        let expect = |sms: u32| {
            SimDuration::from_nanos(
                ((us * 1000) as f64 * 108.0 / sms as f64).ceil() as u64)
        };
        let da = finished(&done, ha).unwrap().duration_since(SimTime::ZERO);
        let db = finished(&done, hb).unwrap().duration_since(SimTime::ZERO);
        let tol = SimDuration::from_nanos(2);
        prop_assert!(da.saturating_sub(expect(sms_a)) <= tol && expect(sms_a).saturating_sub(da) <= tol,
            "partition A: {da} vs {:?}", expect(sms_a));
        prop_assert!(db.saturating_sub(expect(sms_b)) <= tol && expect(sms_b).saturating_sub(db) <= tol,
            "partition B: {db} vs {:?}", expect(sms_b));
    }
}

// ----------------------------------------------------------------------
// Slot recycling, launch-number handles, and the drain-into scratch APIs
// (the zero-allocation steady-state machinery).
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A second batch reuses the slots the first one freed, yet handles
    /// stay launch numbers: across both batches every handle `launch`
    /// returned is reported by exactly one `KernelDone`, and no handle
    /// repeats.
    #[test]
    fn prop_recycled_slots_invalidate_stale_handles(
        first in proptest::collection::vec(arb_kernel(), 1..16),
        second in proptest::collection::vec(arb_kernel(), 1..16),
    ) {
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let launch = |gpu: &mut Gpu, ks: &[(u64, u32, f64)], base: u64| {
            let descs = ks
                .iter()
                .map(|&(us, sms, mem)| KernelDesc::compute(SimDuration::from_micros(us), sms, mem))
                .collect();
            launch_all(gpu, q, descs, base)
        };
        let mut handles = launch(&mut gpu, &first, 0);
        let mut done = drain(&mut gpu);
        let slots = gpu.instance_slots();
        handles.extend(launch(&mut gpu, &second, first.len() as u64));
        done.extend(drain(&mut gpu));
        // The second batch fits in the first one's slots when it is no
        // larger (a queue holds every launch until it runs).
        if second.len() <= first.len() {
            prop_assert_eq!(gpu.instance_slots(), slots);
        }
        let mut issued = handles.clone();
        issued.sort_unstable();
        issued.dedup();
        prop_assert_eq!(issued.len(), handles.len(), "a handle repeats");
        let mut reported: Vec<KernelHandle> = done.iter().map(|d| d.0).collect();
        reported.sort_unstable();
        prop_assert_eq!(reported, issued, "each handle is reported done exactly once");
    }

    /// `drain_notices_into` yields exactly the notices posted since the
    /// previous drain, in posting order, across interleaved posts and
    /// drains, and clears both its buffer and the GPU's.
    #[test]
    fn prop_drain_notices_into_matches_return(
        ops in proptest::collection::vec(
            proptest::option::of(any::<u64>()), 1..64),
    ) {
        // `Some(n)` posts notice n; `None` drains and compares.
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let mut posted = Vec::new();
        // Pre-seed garbage to prove the buffer is cleared first.
        let mut buf = vec![u64::MAX];
        for op in &ops {
            match op {
                Some(n) => {
                    gpu.post_notice(*n);
                    posted.push(*n);
                }
                None => {
                    gpu.drain_notices_into(&mut buf);
                    prop_assert_eq!(&posted, &buf);
                    posted.clear();
                }
            }
        }
        gpu.drain_notices_into(&mut buf);
        prop_assert_eq!(&posted, &buf);
        // Drained: a second drain comes back empty.
        gpu.drain_notices_into(&mut buf);
        prop_assert!(buf.is_empty());
    }

    /// `take_failed_into` reports every casualty of a crash exactly once:
    /// as many as `fault_counters().kernels_failed`, each a distinct
    /// launched kernel of the crashed queue that never completes.
    #[test]
    fn prop_take_failed_into_matches_return(
        seed in any::<u64>(),
        kernels in proptest::collection::vec(arb_kernel(), 2..12),
        crash_us in 10u64..400,
    ) {
        use sim_core::{FaultPlan, FaultSpec};
        let spec = FaultSpec {
            num_apps: 1,
            crash_count: 1,
            crash_window: (SimTime::from_micros(crash_us), SimTime::from_micros(crash_us)),
            ..FaultSpec::default()
        };
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        gpu.set_fault_plan(FaultPlan::build(seed, &spec));
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let descs = kernels
            .iter()
            .map(|&(us, sms, mem)| KernelDesc::compute(SimDuration::from_micros(us), sms, mem))
            .collect::<Vec<_>>();
        let table = gpu.register_kernel_table(Arc::from(descs));
        // Tag app 0 in the low bits so the crash plan targets it.
        let launched: Vec<_> = (0..kernels.len())
            .map(|i| (gpu.launch(q, table, i, (i as u64) << 20).unwrap(), (i as u64) << 20))
            .collect();
        let done = drain(&mut gpu);
        let mut buf = vec![gpu_sim::FailedKernel {
            // Pre-seed garbage to prove the buffer is cleared first.
            handle: KernelHandle(u64::MAX),
            queue: QueueId(u32::MAX),
            tag: u64::MAX,
        }];
        gpu.take_failed_into(&mut buf);
        prop_assert_eq!(buf.len() as u64, gpu.fault_counters().kernels_failed);
        for (i, f) in buf.iter().enumerate() {
            prop_assert!(launched.contains(&(f.handle, f.tag)), "{:?} was never launched", f);
            prop_assert_eq!(f.queue, q);
            prop_assert!(finished(&done, f.handle).is_none(), "{:?} also completed", f);
            prop_assert!(buf[..i].iter().all(|g| g.handle != f.handle), "{:?} reported twice", f);
        }
        // Drained: a second call comes back empty.
        gpu.take_failed_into(&mut buf);
        prop_assert!(buf.is_empty());
    }
}
