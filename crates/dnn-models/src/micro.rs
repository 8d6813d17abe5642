//! Microbenchmark kernels for the interference experiments (paper Fig. 9a).
//!
//! Fig. 9(a) measures the slowdown of victim kernels co-located with
//! aggressors of increasing memory pressure. These helpers build the
//! synthetic victim/aggressor kernels for that experiment.

use gpu_sim::{Channel, ChannelDemand, KernelDesc};
use sim_core::SimDuration;

/// A victim kernel occupying `sms` SMs for `duration` with the given
/// memory intensity.
pub fn victim(duration: SimDuration, sms: u32, mem_intensity: f64) -> KernelDesc {
    KernelDesc::compute(duration, sms, mem_intensity)
}

/// An aggressor kernel generating memory pressure: long-running so it
/// fully overlaps the victim, occupying `sms` SMs at `mem_intensity`.
pub fn aggressor(sms: u32, mem_intensity: f64) -> KernelDesc {
    KernelDesc::compute(SimDuration::from_millis(50), sms, mem_intensity)
}

/// A purely compute-bound kernel (no memory traffic at all).
pub fn compute_bound(duration: SimDuration, sms: u32) -> KernelDesc {
    KernelDesc::compute(duration, sms, 0.0)
}

/// A victim kernel with an explicit per-channel demand vector (for the
/// per-resource interference experiments, Fig. 9c). The scalar
/// `mem_intensity` is kept at the DRAM-BW component so the same kernel is
/// meaningful under `ChannelModel::Scalar`.
pub fn channel_victim(duration: SimDuration, sms: u32, demand: ChannelDemand) -> KernelDesc {
    KernelDesc::compute(duration, sms, demand.get(Channel::DramBw)).with_demand(demand)
}

/// A long-running aggressor with an explicit per-channel demand vector.
pub fn channel_aggressor(sms: u32, demand: ChannelDemand) -> KernelDesc {
    KernelDesc::compute(
        SimDuration::from_millis(50),
        sms,
        demand.get(Channel::DramBw),
    )
    .with_demand(demand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, StepOutput};
    use sim_core::SimTime;
    use std::sync::Arc;

    /// Events one pair run may pop before the victim finishes: it takes a
    /// handful, so running out means a kernel that never finishes.
    const EVENT_BUDGET: u64 = 1_000;

    /// Runs victim+aggressor concurrently and returns the victim slowdown.
    fn slowdown(victim_mem: f64, aggressor_mem: f64) -> f64 {
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::free());
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let base = SimDuration::from_micros(500);
        let pair = [victim(base, 54, victim_mem), aggressor(54, aggressor_mem)];
        let table = gpu.register_kernel_table(Arc::from(pair));
        let v = gpu.launch(q1, table, 0, 0).unwrap();
        gpu.launch(q2, table, 1, 1).unwrap();
        for _ in 0..EVENT_BUDGET {
            match gpu.step() {
                Some(StepOutput::KernelDone { handle, .. }) if handle == v => {
                    let t = gpu.now().duration_since(SimTime::ZERO);
                    return t.as_nanos() as f64 / base.as_nanos() as f64;
                }
                None if gpu.peek_event_time().is_none() => panic!("victim never finished"),
                _ => {}
            }
        }
        panic!("victim still running after {EVENT_BUDGET} events")
    }

    #[test]
    fn slowdown_grows_with_aggressor_pressure() {
        let s_low = slowdown(0.5, 0.1);
        let s_high = slowdown(0.5, 0.9);
        assert!(s_high > s_low, "low {s_low:.3} high {s_high:.3}");
    }

    #[test]
    fn slowdown_never_exceeds_two() {
        // Paper Fig. 9a: kernel-level slowdown ratio stays below 2 even
        // against a highly memory-intensive aggressor.
        let s = slowdown(1.0, 1.0);
        assert!(s <= 2.0 + 1e-9, "slowdown {s:.3}");
        assert!(s > 1.2, "worst case should be substantial, got {s:.3}");
    }

    #[test]
    fn compute_bound_victims_are_less_sensitive() {
        let s_compute = slowdown(0.0, 0.9);
        let s_memory = slowdown(1.0, 0.9);
        assert!(s_compute < s_memory);
        assert!(s_compute > 1.0, "even compute kernels feel some pressure");
    }
}
