//! Per-resource interference channels (DESIGN.md §5j).
//!
//! The paper's interference term — and this simulator's original one — is
//! a single scalar: co-running kernels generate "memory traffic" and every
//! victim is slowed by `1 + α·pressure·sensitivity`, capped at 2×
//! (Fig. 9a). Elvinger et al. ("Understanding GPU Resource Interference
//! One Level Deeper", PAPERS.md) show that interference actually
//! decomposes into *distinct contended resources* — compute issue
//! bandwidth, the shared L2, DRAM bandwidth, and the PCIe link — each with
//! its own contention curve.
//!
//! This module models that decomposition while keeping the legacy scalar
//! model bit-exact:
//!
//! * [`ChannelDemand`] — a kernel's per-channel demand vector, the
//!   per-resource generalization of `mem_intensity`;
//! * [`ChannelParams`] — per-channel α/base/cap contention curves plus the
//!   DMA→PCIe coupling weight;
//! * [`ChannelModel`] — the engine switch: [`ChannelModel::Scalar`]
//!   (default; byte-identical to the original model, so every golden
//!   request-log digest is untouched) or [`ChannelModel::PerResource`].
//!
//! **Collapse-to-scalar equivalence.** When every kernel's demand vector
//! is concentrated on a single channel `c` (the default: constructors put
//! `mem_intensity` on [`Channel::DramBw`]) and `c`'s curve matches the
//! scalar α/base/cap while every other channel is inert
//! ([`ChannelParams::matched_scalar`]), the per-resource slowdown is
//! *bit-identical* to the scalar one: channel `c` evaluates the exact same
//! float expression in the same order, every other channel sees zero
//! traffic and contributes exactly 1.0, and `max(1.0, s) = s` because the
//! per-channel slowdown is ≥ 1 by construction. The differential twin in
//! `tests/channel_differential.rs` pins this across the seeded workload
//! matrix at worker counts 1/2/4.

/// Number of modeled interference channels.
pub const NUM_CHANNELS: usize = 4;

/// One contended resource (Elvinger et al.'s decomposition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// SM issue/compute bandwidth contention (co-resident warps competing
    /// for issue slots and functional units).
    Compute = 0,
    /// Shared L2 capacity/bandwidth contention.
    L2 = 1,
    /// DRAM bandwidth contention — the channel the original scalar
    /// `mem_intensity` model describes.
    DramBw = 2,
    /// PCIe link contention (pinned-host traffic of compute kernels, plus
    /// running DMA streams via [`ChannelParams::dma_pcie_weight`]).
    Pcie = 3,
}

impl Channel {
    /// All channels, in index order.
    pub const ALL: [Channel; NUM_CHANNELS] = [
        Channel::Compute,
        Channel::L2,
        Channel::DramBw,
        Channel::Pcie,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Channel::Compute => "compute",
            Channel::L2 => "l2",
            Channel::DramBw => "dram-bw",
            Channel::Pcie => "pcie",
        }
    }
}

/// A kernel's per-channel resource demand, each component in `[0, 1]`.
///
/// `demand[c]` plays the role `mem_intensity` plays in the scalar model,
/// per channel: it scales both the traffic the kernel *generates* on `c`
/// (weighted by its SM share) and its *sensitivity* to other kernels'
/// traffic on `c`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelDemand(pub [f64; NUM_CHANNELS]);

impl ChannelDemand {
    /// No demand on any channel (memcpy descriptors; DMA traffic is
    /// coupled into the PCIe channel separately, see
    /// [`ChannelParams::dma_pcie_weight`]).
    pub const ZERO: ChannelDemand = ChannelDemand([0.0; NUM_CHANNELS]);

    /// All demand concentrated on one channel — the collapse shape that
    /// reproduces the scalar model bit-exactly (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]`.
    pub fn collapsed(ch: Channel, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "channel demand must be in [0,1], got {intensity}"
        );
        let mut d = [0.0; NUM_CHANNELS];
        d[ch as usize] = intensity;
        ChannelDemand(d)
    }

    /// A full demand vector.
    ///
    /// # Panics
    ///
    /// Panics if any component is outside `[0, 1]`.
    pub fn new(compute: f64, l2: f64, dram_bw: f64, pcie: f64) -> Self {
        let d = [compute, l2, dram_bw, pcie];
        for (ch, &v) in Channel::ALL.iter().zip(&d) {
            assert!(
                (0.0..=1.0).contains(&v),
                "{} demand must be in [0,1], got {v}",
                ch.name()
            );
        }
        ChannelDemand(d)
    }

    /// The demand on one channel.
    pub fn get(&self, ch: Channel) -> f64 {
        self.0[ch as usize]
    }
}

/// Per-channel contention curves: slowdown on channel `c` is
/// `min(1 + alpha[c] · pressure · sensitivity, cap[c])` with
/// `sensitivity = base[c] + (1 − base[c]) · own_demand` — the scalar
/// model's curve, instantiated once per resource.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelParams {
    /// Contention strength per channel.
    pub alpha: [f64; NUM_CHANNELS],
    /// Demand-independent sensitivity floor per channel.
    pub base: [f64; NUM_CHANNELS],
    /// Hard slowdown cap per channel (each ≥ 1).
    pub cap: [f64; NUM_CHANNELS],
    /// PCIe-channel traffic contributed by each *running DMA stream*
    /// (memcpy in flight): compute kernels with PCIe demand are slowed by
    /// concurrent transfers. Zero decouples DMA from the compute side —
    /// required for the bit-exact scalar collapse, where DMA events must
    /// not perturb compute rates.
    pub dma_pcie_weight: f64,
}

impl ChannelParams {
    /// Calibrated A100 curves. DRAM bandwidth keeps the scalar model's
    /// curve (α 1.5, base 0.30, cap 2.0 — the Fig. 9a anchor: it is the
    /// resource the paper's "memory pressure" experiment saturates). L2 is
    /// close behind, compute contention is mild and caps early, and PCIe
    /// is mild but coupled to running DMA streams.
    ///
    /// # Calibration provenance
    ///
    /// Only the DRAM-bandwidth channel is anchored to a measured curve
    /// (the seed scalar model's Fig. 9a fit). The compute/L2/PCIe
    /// triples are *ordinal*, not measured: chosen so the relative
    /// severity ranking matches Elvinger et al.'s per-resource
    /// decomposition (DRAM ≳ L2 > PCIe > compute-issue for co-located
    /// inference) while every channel keeps the scalar curve's shape.
    /// Uses that only need a consistent ranking — the contention-aware
    /// placement scorer, the `fig9c` decomposition (which runs on
    /// [`crate::GpuSpec::a100_per_resource`] by default, pinned in
    /// `experiments_output.txt`) — are safe; absolute per-channel
    /// slowdown magnitudes outside DRAM should not be quoted until the
    /// curves are re-fit against published microbenchmarks (ROADMAP
    /// item 4 follow-on).
    pub fn a100() -> Self {
        ChannelParams {
            //       compute   l2   dram-bw  pcie
            alpha: [0.60, 1.20, 1.50, 1.00],
            base: [0.40, 0.25, 0.30, 0.15],
            cap: [1.50, 1.80, 2.00, 1.60],
            dma_pcie_weight: 0.25,
        }
    }

    /// The collapse twin of a scalar model: channel `ch` carries the
    /// scalar `(alpha, base, cap)` curve, every other channel is inert
    /// (α 0, base 0, cap 1) and DMA coupling is off. With all kernel
    /// demand collapsed onto `ch`, the per-resource engine is
    /// bit-identical to the scalar engine (module docs).
    pub fn matched_scalar(alpha: f64, base: f64, cap: f64, ch: Channel) -> Self {
        let mut p = ChannelParams {
            alpha: [0.0; NUM_CHANNELS],
            base: [0.0; NUM_CHANNELS],
            cap: [1.0; NUM_CHANNELS],
            dma_pcie_weight: 0.0,
        };
        p.alpha[ch as usize] = alpha;
        p.base[ch as usize] = base;
        p.cap[ch as usize] = cap;
        p.validate();
        p
    }

    /// Asserts the curve invariants (α ≥ 0, base in \[0,1\], cap ≥ 1).
    pub fn validate(&self) {
        for c in 0..NUM_CHANNELS {
            assert!(self.alpha[c] >= 0.0, "alpha[{c}] must be >= 0");
            assert!(
                (0.0..=1.0).contains(&self.base[c]),
                "base[{c}] must be in [0,1]"
            );
            assert!(self.cap[c] >= 1.0, "cap[{c}] must be >= 1");
        }
        assert!(self.dma_pcie_weight >= 0.0, "dma_pcie_weight must be >= 0");
    }

    /// The per-instant slowdown of a kernel with demand vector `demand`
    /// holding an SM share of `share` (its allocation divided by the
    /// GPU's SM count), given the per-channel total traffic of *all*
    /// co-running kernels (own contribution included).
    ///
    /// Channels compose by **max**: the kernel runs at the speed of its
    /// most contended resource (bottleneck composition). Each channel's
    /// slowdown is ≥ 1 and ≤ `cap[c]`; zero-pressure channels contribute
    /// exactly 1.0 and are skipped, which keeps the hot loop at scalar
    /// cost for the common one-active-channel workloads.
    #[inline]
    pub fn slowdown(
        &self,
        demand: &ChannelDemand,
        share: f64,
        traffic: &[f64; NUM_CHANNELS],
    ) -> f64 {
        let mut slow = 1.0f64;
        for (c, &total) in traffic.iter().enumerate() {
            let own = demand.0[c] * share;
            let pressure = (total - own).max(0.0);
            if pressure <= 0.0 {
                // (1 + α·0·s).min(cap) is exactly 1.0 (cap ≥ 1): skipping
                // is bit-identical and free.
                continue;
            }
            let sensitivity = self.base[c] + (1.0 - self.base[c]) * demand.0[c];
            let s = (1.0 + self.alpha[c] * pressure * sensitivity).min(self.cap[c]);
            slow = slow.max(s);
        }
        slow
    }
}

/// The engine's interference-model switch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ChannelModel {
    /// The original single-scalar model (`1 + α·pressure·sensitivity`
    /// capped, driven by `mem_intensity`). The default; byte-identical to
    /// the pre-channel engine, pinning every existing golden digest.
    #[default]
    Scalar,
    /// The four-channel contended-resource model driven by
    /// [`ChannelDemand`] vectors and composed by bottleneck max.
    PerResource(ChannelParams),
}

impl ChannelModel {
    /// True for the legacy scalar model.
    pub fn is_scalar(&self) -> bool {
        matches!(self, ChannelModel::Scalar)
    }

    /// True when running DMA streams feed the PCIe channel, coupling DMA
    /// transitions into compute-side reallocation.
    pub fn couples_dma_to_compute(&self) -> bool {
        matches!(self, ChannelModel::PerResource(p) if p.dma_pcie_weight > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapsed_demand_hits_one_channel() {
        let d = ChannelDemand::collapsed(Channel::L2, 0.7);
        assert_eq!(d.get(Channel::L2), 0.7);
        assert_eq!(d.get(Channel::Compute), 0.0);
        assert_eq!(d.get(Channel::DramBw), 0.0);
        assert_eq!(d.get(Channel::Pcie), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn demand_rejects_out_of_range() {
        let _ = ChannelDemand::new(0.0, 1.5, 0.0, 0.0);
    }

    #[test]
    fn matched_scalar_reproduces_scalar_formula() {
        // The per-resource slowdown with collapsed demand equals the
        // scalar expression bit-for-bit.
        let (alpha, base, cap) = (1.5, 0.30, 2.0);
        let p = ChannelParams::matched_scalar(alpha, base, cap, Channel::DramBw);
        let (m_victim, m_aggr) = (0.9, 0.6);
        let share = 54.0 / 108.0;
        let own = m_victim * share;
        let traffic = {
            let mut t = [0.0; NUM_CHANNELS];
            t[Channel::DramBw as usize] = own + m_aggr * share;
            t
        };
        let got = p.slowdown(
            &ChannelDemand::collapsed(Channel::DramBw, m_victim),
            share,
            &traffic,
        );
        let pressure = (traffic[Channel::DramBw as usize] - own).max(0.0);
        let sensitivity = base + (1.0 - base) * m_victim;
        let want = (1.0 + alpha * pressure * sensitivity).min(cap);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn channels_compose_by_max() {
        let p = ChannelParams::a100();
        let victim = ChannelDemand::new(0.0, 0.8, 0.8, 0.0);
        let mut traffic = [0.0; NUM_CHANNELS];
        traffic[Channel::L2 as usize] = 0.5;
        traffic[Channel::DramBw as usize] = 0.5;
        let both = p.slowdown(&victim, 0.0, &traffic);
        let dram_only = {
            let mut t = [0.0; NUM_CHANNELS];
            t[Channel::DramBw as usize] = 0.5;
            p.slowdown(&victim, 0.0, &t)
        };
        let l2_only = {
            let mut t = [0.0; NUM_CHANNELS];
            t[Channel::L2 as usize] = 0.5;
            p.slowdown(&victim, 0.0, &t)
        };
        assert_eq!(both, dram_only.max(l2_only));
        assert!(both > 1.0);
    }

    #[test]
    fn zero_pressure_is_exactly_one() {
        let p = ChannelParams::a100();
        let d = ChannelDemand::new(0.5, 0.5, 0.5, 0.5);
        // Sole kernel: traffic equals its own contribution on every channel.
        let share = 0.7;
        let traffic = d.0.map(|dc| dc * share);
        assert_eq!(p.slowdown(&d, share, &traffic), 1.0);
    }

    #[test]
    fn caps_bind_per_channel() {
        let p = ChannelParams::a100();
        let d = ChannelDemand::collapsed(Channel::Compute, 1.0);
        let mut traffic = [0.0; NUM_CHANNELS];
        traffic[Channel::Compute as usize] = 100.0; // absurd pressure
        assert_eq!(
            p.slowdown(&d, 0.0, &traffic),
            p.cap[Channel::Compute as usize]
        );
    }

    #[test]
    #[should_panic(expected = "cap[1] must be >= 1")]
    fn validate_rejects_sub_one_cap() {
        let mut p = ChannelParams::a100();
        p.cap[1] = 0.5;
        p.validate();
    }

    #[test]
    fn default_model_is_scalar() {
        assert!(ChannelModel::default().is_scalar());
        assert!(!ChannelModel::default().couples_dma_to_compute());
        assert!(ChannelModel::PerResource(ChannelParams::a100()).couples_dma_to_compute());
        let decoupled = ChannelParams::matched_scalar(1.5, 0.3, 2.0, Channel::DramBw);
        assert!(!ChannelModel::PerResource(decoupled).couples_dma_to_compute());
    }
}
