//! Static description of the simulated GPU and host-side costs.

use sim_core::SimDuration;

use crate::channel::{Channel, ChannelModel, ChannelParams};

/// How the hardware scheduler divides SMs among concurrently runnable
/// kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HwPolicy {
    /// Realistic block-granular dispatch: a kernel grabs the free SMs it
    /// can use when it reaches the head of its queue (in dispatch order)
    /// and holds them until it finishes; it may grow into SMs freed later,
    /// but running kernels never shrink. Two full-GPU kernels therefore
    /// serialize — the "insufficient overlapping" of the paper's Fig. 7a
    /// that spatial partitioning fixes.
    GreedySticky,
    /// Idealized fluid fair sharing: on every event the SM pool is
    /// re-divided by weighted waterfilling. Kept as an ablation knob; with
    /// this policy unrestricted sharing is never worse than partitioning,
    /// which real GPUs do not exhibit.
    FairShare,
}

/// Hardware description of the simulated GPU.
///
/// The defaults model the Nvidia A100 used in the paper (108 SMs, 40 GB),
/// with the interference parameters calibrated so that
///
/// * kernel-level slowdown under worst-case memory pressure stays below the
///   2× cap the paper measures (Fig. 9a), and
/// * mutual pair-wise application slowdown averages about 7% (Fig. 9b).
#[derive(Clone, Debug)]
pub struct GpuSpec {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Device memory capacity in MiB.
    pub memory_mib: u64,
    /// Effective PCIe bandwidth per direction, bytes per second.
    pub pcie_bytes_per_sec: f64,
    /// Interference strength: how strongly aggregate memory traffic from
    /// co-running kernels slows a kernel down.
    pub interference_alpha: f64,
    /// Fraction of the slowdown that applies even to compute-bound kernels
    /// (the rest scales with the victim's own memory intensity).
    pub interference_base: f64,
    /// Hard cap on the kernel-level slowdown ratio (paper Fig. 9a: ≤ 2×).
    pub interference_cap: f64,
    /// GPU memory consumed by each additional MPS context (§6.9: ~230 MB).
    pub mps_context_mib: u64,
    /// Hardware scheduler model.
    pub hw_policy: HwPolicy,
    /// Under [`HwPolicy::GreedySticky`], a kernel only begins once the
    /// free SMs cover at least this fraction of its effective demand
    /// (its parallelism capped by its context). Models wave-granular
    /// block dispatch: a wide kernel does not productively start on a
    /// sliver of the GPU, which is what makes unrestricted co-location
    /// overlap poorly (Fig. 7a) and gives spatial partitioning its edge.
    pub dispatch_min_fraction: f64,
    /// Extra start latency paid by a kernel launching from an
    /// *unrestricted* context while other contexts have runnable kernels
    /// in the same pool. Uncontrolled cross-stream dispatch arbitrates at
    /// a single hardware work distributor ("the execution sequence of
    /// kernels is uncontrollable", §3.2/Fig. 3b); SM-affinity contexts
    /// dispatch within their own partition and do not pay it. This is the
    /// measured inefficiency that makes NSP squads slower than spatially
    /// partitioned ones (Fig. 7, Fig. 17).
    pub contended_dispatch_gap: SimDuration,
    /// Interference-model switch (DESIGN.md §5j). The default,
    /// [`ChannelModel::Scalar`], is byte-identical to the original
    /// single-scalar model driven by `interference_alpha`/`_base`/`_cap`
    /// above; [`ChannelModel::PerResource`] replaces it with the
    /// four-channel contended-resource model driven by each kernel's
    /// [`crate::ChannelDemand`] vector.
    pub channel_model: ChannelModel,
}

impl GpuSpec {
    /// The Nvidia A100 configuration used throughout the paper.
    pub fn a100() -> Self {
        GpuSpec {
            num_sms: 108,
            memory_mib: 40 * 1024,
            pcie_bytes_per_sec: 25.0e9,
            interference_alpha: 1.5,
            interference_base: 0.30,
            interference_cap: 2.0,
            mps_context_mib: 230,
            hw_policy: HwPolicy::GreedySticky,
            dispatch_min_fraction: 0.45,
            contended_dispatch_gap: SimDuration::from_micros(4),
            channel_model: ChannelModel::Scalar,
        }
    }

    /// A100 variant with a restricted SM count (the paper's Fig. 19c uses
    /// MIG to carve out GPU instances with fewer SMs).
    pub fn a100_with_sms(num_sms: u32) -> Self {
        GpuSpec {
            num_sms,
            ..Self::a100()
        }
    }

    /// A100 with the calibrated four-channel interference model
    /// ([`ChannelParams::a100`]) instead of the scalar one.
    pub fn a100_per_resource() -> Self {
        GpuSpec {
            channel_model: ChannelModel::PerResource(ChannelParams::a100()),
            ..Self::a100()
        }
    }

    /// The per-resource *collapse twin* of this spec: the same hardware
    /// with [`ChannelModel::PerResource`] whose `ch` channel carries this
    /// spec's scalar α/base/cap curve and every other channel is inert
    /// ([`ChannelParams::matched_scalar`]). With all kernel demand
    /// collapsed onto `ch`, the twin simulates bit-identically to the
    /// scalar spec — the property pinned by
    /// `tests/channel_differential.rs`.
    pub fn collapse_twin(&self, ch: Channel) -> Self {
        let params = ChannelParams::matched_scalar(
            self.interference_alpha,
            self.interference_base,
            self.interference_cap,
            ch,
        );
        GpuSpec {
            channel_model: ChannelModel::PerResource(params),
            ..self.clone()
        }
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::a100()
    }
}

/// Host-side scheduling costs, matching the paper's §6.9 measurements.
#[derive(Clone, Debug)]
pub struct HostCosts {
    /// Time for one `cudaLaunchKernel`-equivalent call (≈ 3 µs).
    pub kernel_launch: SimDuration,
    /// Synchronization between kernel squads (≈ 20 µs).
    pub squad_sync: SimDuration,
    /// Vacuum period when a request's launching switches GPU context (≈ 50 µs).
    pub context_switch: SimDuration,
    /// Multi-task scheduling cost per kernel (≈ 3.7 µs).
    pub sched_per_kernel: SimDuration,
    /// Execution-configuration search cost per kernel (≈ 2 µs).
    pub config_search_per_kernel: SimDuration,
    /// Kernel squad generation cost per kernel (≈ 1 µs).
    pub squad_gen_per_kernel: SimDuration,
}

impl HostCosts {
    /// The §6.9 cost set.
    pub fn paper() -> Self {
        HostCosts {
            kernel_launch: SimDuration::from_nanos(3_000),
            squad_sync: SimDuration::from_micros(20),
            context_switch: SimDuration::from_micros(50),
            sched_per_kernel: SimDuration::from_nanos(3_700),
            config_search_per_kernel: SimDuration::from_micros(2),
            squad_gen_per_kernel: SimDuration::from_micros(1),
        }
    }

    /// Zero-cost host, useful for isolating device-side effects in tests.
    pub fn free() -> Self {
        HostCosts {
            kernel_launch: SimDuration::ZERO,
            squad_sync: SimDuration::ZERO,
            context_switch: SimDuration::ZERO,
            sched_per_kernel: SimDuration::ZERO,
            config_search_per_kernel: SimDuration::ZERO,
            squad_gen_per_kernel: SimDuration::ZERO,
        }
    }
}

impl Default for HostCosts {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_paper() {
        let spec = GpuSpec::a100();
        assert_eq!(spec.num_sms, 108);
        assert_eq!(spec.memory_mib, 40 * 1024);
        assert_eq!(spec.mps_context_mib, 230);
        assert!(spec.interference_cap <= 2.0 + f64::EPSILON);
    }

    #[test]
    fn paper_costs_match_section_6_9() {
        let c = HostCosts::paper();
        assert_eq!(c.kernel_launch.as_micros_f64(), 3.0);
        assert_eq!(c.squad_sync.as_micros_f64(), 20.0);
        assert_eq!(c.context_switch.as_micros_f64(), 50.0);
        assert_eq!(c.sched_per_kernel.as_micros_f64(), 3.7);
        assert_eq!(c.config_search_per_kernel.as_micros_f64(), 2.0);
        assert_eq!(c.squad_gen_per_kernel.as_micros_f64(), 1.0);
    }

    #[test]
    fn restricted_sm_variant() {
        let spec = GpuSpec::a100_with_sms(14);
        assert_eq!(spec.num_sms, 14);
        assert_eq!(spec.memory_mib, GpuSpec::a100().memory_mib);
    }

    #[test]
    fn default_channel_model_is_scalar() {
        assert!(GpuSpec::a100().channel_model.is_scalar());
        assert!(GpuSpec::a100_with_sms(54).channel_model.is_scalar());
    }

    #[test]
    fn collapse_twin_carries_the_scalar_curve() {
        let spec = GpuSpec::a100();
        let twin = spec.collapse_twin(Channel::DramBw);
        match &twin.channel_model {
            ChannelModel::PerResource(p) => {
                let c = Channel::DramBw as usize;
                assert_eq!(p.alpha[c], spec.interference_alpha);
                assert_eq!(p.base[c], spec.interference_base);
                assert_eq!(p.cap[c], spec.interference_cap);
                assert_eq!(p.dma_pcie_weight, 0.0);
                for other in 0..crate::NUM_CHANNELS {
                    if other != c {
                        assert_eq!(p.alpha[other], 0.0);
                        assert_eq!(p.cap[other], 1.0);
                    }
                }
            }
            ChannelModel::Scalar => panic!("twin must be per-resource"),
        }
        assert_eq!(twin.num_sms, spec.num_sms);
    }

    #[test]
    fn per_resource_a100_couples_dma() {
        let spec = GpuSpec::a100_per_resource();
        assert!(spec.channel_model.couples_dma_to_compute());
    }
}
