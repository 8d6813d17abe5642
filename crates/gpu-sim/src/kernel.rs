//! Kernel descriptions and the isolated duration model.
//!
//! The simulator models a computational kernel as a *malleable job*: it
//! carries a total amount of work in SM·nanoseconds and can productively use
//! up to `max_sms` SMs at once. Running on an allocation of `n` SMs in
//! isolation, its duration is
//!
//! ```text
//! t(n) = work / min(n, max_sms)
//! ```
//!
//! which is exactly the shape of the `t[n%][k]` curves the BLESS profiler
//! tabulates (§4.2): linear speedup until the kernel's own parallelism limit
//! (the paper's `d%`), flat beyond it.

use sim_core::SimDuration;

use crate::channel::{Channel, ChannelDemand};

/// Identifier of a kernel table registered with
/// [`crate::Gpu::register_kernel_table`]: an interned `Arc<[KernelDesc]>`
/// (typically one application's profiled kernel sequence) that every
/// launch references by `(table, index)`, so the launch path clones no
/// descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelTableId(pub u32);

/// What a kernel does; determines which resource it occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// A computational kernel occupying SMs.
    Compute {
        /// Whether the kernel runs on tensor cores (BERT inference in the
        /// paper). Informational: tensor-core kernels are typically shorter
        /// and more memory-bound per SM·ns of work.
        tensor_core: bool,
    },
    /// Host-to-device copy over PCIe.
    MemcpyH2D {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Device-to-host copy over PCIe.
    MemcpyD2H {
        /// Transfer size in bytes.
        bytes: u64,
    },
}

impl KernelKind {
    /// True for SM-occupying computational kernels.
    pub fn is_compute(self) -> bool {
        matches!(self, KernelKind::Compute { .. })
    }

    /// True for DMA transfers (either direction).
    pub fn is_memcpy(self) -> bool {
        !self.is_compute()
    }
}

/// Static description of one GPU kernel.
#[derive(Clone, Debug)]
pub struct KernelDesc {
    /// What the kernel does.
    pub kind: KernelKind,
    /// Total work in SM·nanoseconds (compute kernels only; 0 for memcpy).
    pub work: f64,
    /// Maximum number of SMs the kernel can productively occupy — the
    /// paper's per-kernel `d%` expressed in SM count. Always ≥ 1 for
    /// compute kernels.
    pub max_sms: u32,
    /// Memory-bandwidth intensity in `[0, 1]`; drives the interference
    /// model when kernels co-run under [`crate::ChannelModel::Scalar`].
    pub mem_intensity: f64,
    /// Per-channel resource demand; drives the interference model under
    /// [`crate::ChannelModel::PerResource`]. The constructors collapse
    /// `mem_intensity` onto [`Channel::DramBw`], which keeps the default
    /// per-resource behaviour equivalent to the scalar model; use
    /// [`KernelDesc::with_demand`] for richer vectors.
    pub demand: ChannelDemand,
}

impl KernelDesc {
    /// Builds a compute kernel from its duration when given at least
    /// `max_sms` SMs (its "full speed" duration).
    ///
    /// # Panics
    ///
    /// Panics if `max_sms` is 0 or `mem_intensity` is outside `[0, 1]`.
    pub fn compute(full_speed_duration: SimDuration, max_sms: u32, mem_intensity: f64) -> Self {
        assert!(max_sms >= 1, "a compute kernel needs at least one SM");
        assert!(
            (0.0..=1.0).contains(&mem_intensity),
            "mem_intensity must be in [0,1], got {mem_intensity}"
        );
        KernelDesc {
            kind: KernelKind::Compute { tensor_core: false },
            work: full_speed_duration.as_nanos() as f64 * max_sms as f64,
            max_sms,
            mem_intensity,
            demand: ChannelDemand::collapsed(Channel::DramBw, mem_intensity),
        }
    }

    /// Same as [`KernelDesc::compute`] but flagged as a tensor-core kernel.
    pub fn tensor_compute(
        full_speed_duration: SimDuration,
        max_sms: u32,
        mem_intensity: f64,
    ) -> Self {
        let mut k = Self::compute(full_speed_duration, max_sms, mem_intensity);
        k.kind = KernelKind::Compute { tensor_core: true };
        k
    }

    /// Builds a host-to-device memcpy kernel.
    pub fn memcpy_h2d(bytes: u64) -> Self {
        KernelDesc {
            kind: KernelKind::MemcpyH2D { bytes },
            work: 0.0,
            max_sms: 0,
            mem_intensity: 0.0,
            demand: ChannelDemand::ZERO,
        }
    }

    /// Builds a device-to-host memcpy kernel.
    pub fn memcpy_d2h(bytes: u64) -> Self {
        KernelDesc {
            kind: KernelKind::MemcpyD2H { bytes },
            work: 0.0,
            max_sms: 0,
            mem_intensity: 0.0,
            demand: ChannelDemand::ZERO,
        }
    }

    /// This kernel with an explicit per-channel demand vector (only
    /// meaningful under [`crate::ChannelModel::PerResource`]; the scalar
    /// model keeps reading `mem_intensity`).
    pub fn with_demand(mut self, demand: ChannelDemand) -> Self {
        self.demand = demand;
        self
    }

    /// Isolated (interference-free) duration on an allocation of `sms` SMs.
    ///
    /// For memcpy kernels this is the uncontended PCIe transfer time given
    /// `pcie_bytes_per_sec`; `sms` is ignored.
    pub fn duration_isolated(&self, sms: f64, pcie_bytes_per_sec: f64) -> SimDuration {
        match self.kind {
            KernelKind::Compute { .. } => {
                let eff = sms.min(self.max_sms as f64);
                if eff <= 0.0 {
                    return SimDuration::MAX;
                }
                SimDuration::from_nanos((self.work / eff).round() as u64)
            }
            KernelKind::MemcpyH2D { bytes } | KernelKind::MemcpyD2H { bytes } => {
                SimDuration::from_secs_f64(bytes as f64 / pcie_bytes_per_sec)
            }
        }
    }

    /// The kernel's "full speed" duration: its duration when allocated at
    /// least `max_sms` SMs (or the uncontended transfer time for memcpy).
    pub fn full_speed_duration(&self, pcie_bytes_per_sec: f64) -> SimDuration {
        self.duration_isolated(self.max_sms.max(1) as f64, pcie_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PCIE: f64 = 25.0e9;

    #[test]
    fn compute_duration_scales_linearly_up_to_max_sms() {
        let k = KernelDesc::compute(SimDuration::from_micros(100), 54, 0.2);
        // At max_sms, full speed.
        assert_eq!(
            k.duration_isolated(54.0, PCIE),
            SimDuration::from_micros(100)
        );
        // At half the SMs, twice the duration.
        assert_eq!(
            k.duration_isolated(27.0, PCIE),
            SimDuration::from_micros(200)
        );
        // Extra SMs beyond max_sms do not help.
        assert_eq!(
            k.duration_isolated(108.0, PCIE),
            SimDuration::from_micros(100)
        );
    }

    #[test]
    fn zero_allocation_never_finishes() {
        let k = KernelDesc::compute(SimDuration::from_micros(10), 10, 0.0);
        assert_eq!(k.duration_isolated(0.0, PCIE), SimDuration::MAX);
    }

    #[test]
    fn memcpy_duration_from_bandwidth() {
        let k = KernelDesc::memcpy_h2d(25_000_000); // 25 MB at 25 GB/s = 1 ms
        assert_eq!(k.duration_isolated(0.0, PCIE), SimDuration::from_millis(1));
        assert!(k.kind.is_memcpy());
        assert!(!k.kind.is_compute());
    }

    #[test]
    fn tensor_flag_is_preserved() {
        let k = KernelDesc::tensor_compute(SimDuration::from_micros(5), 108, 0.5);
        assert_eq!(k.kind, KernelKind::Compute { tensor_core: true });
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn compute_rejects_zero_sms() {
        let _ = KernelDesc::compute(SimDuration::from_micros(1), 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "mem_intensity")]
    fn compute_rejects_bad_intensity() {
        let _ = KernelDesc::compute(SimDuration::from_micros(1), 1, 1.5);
    }

    #[test]
    fn work_round_trips_through_duration() {
        let d = SimDuration::from_nanos(12_345);
        let k = KernelDesc::compute(d, 33, 0.7);
        assert_eq!(k.full_speed_duration(PCIE), d);
    }

    #[test]
    fn default_demand_collapses_mem_intensity_onto_dram() {
        let k = KernelDesc::compute(SimDuration::from_micros(10), 8, 0.6);
        assert_eq!(k.demand.get(Channel::DramBw), 0.6);
        assert_eq!(k.demand.get(Channel::Compute), 0.0);
        assert_eq!(k.demand.get(Channel::L2), 0.0);
        assert_eq!(k.demand.get(Channel::Pcie), 0.0);
        assert_eq!(KernelDesc::memcpy_h2d(1024).demand, ChannelDemand::ZERO);
    }

    #[test]
    fn with_demand_overrides_the_default_vector() {
        let d = ChannelDemand::new(0.2, 0.5, 0.3, 0.1);
        let k = KernelDesc::compute(SimDuration::from_micros(10), 8, 0.6).with_demand(d);
        assert_eq!(k.demand, d);
        assert_eq!(k.mem_intensity, 0.6);
    }
}
