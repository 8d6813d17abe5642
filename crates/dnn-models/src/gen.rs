//! The deterministic kernel-trace generator.
//!
//! Given a [`GenSpec`] (kernel count, total duration, utilization target,
//! heterogeneity), the generator draws log-normal kernel durations and
//! per-kernel SM parallelism, then rescales both so the aggregate exactly
//! matches the calibration targets from the paper's Table 1.

use gpu_sim::KernelDesc;
use sim_core::{SimDuration, SimRng};

/// Parameters for generating one application's kernel trace.
#[derive(Clone, Debug)]
pub struct GenSpec {
    /// Application name (becomes [`crate::AppModel::name`]).
    pub name: String,
    /// Number of computational kernels.
    pub kernels: usize,
    /// Target end-to-end solo duration (including the H2D/D2H copies).
    pub total: SimDuration,
    /// Target solo GPU utilization on a 108-SM A100.
    pub utilization: f64,
    /// Sigma of the log-normal kernel-duration distribution (heterogeneity).
    pub dur_sigma: f64,
    /// Range of the per-kernel parallelism fraction (`max_sms / 108`).
    pub d_frac_range: (f64, f64),
    /// Range of per-kernel memory intensity.
    pub mem_range: (f64, f64),
    /// Whether compute kernels run on tensor cores.
    pub tensor_core: bool,
    /// Input transfer size (H2D at request start), bytes.
    pub input_bytes: u64,
    /// Output transfer size (D2H at request end), bytes.
    pub output_bytes: u64,
    /// Resident memory requirement, MiB.
    pub memory_mib: u64,
    /// Deterministic seed.
    pub seed: u64,
}

/// Reference SM count for the calibration (A100).
pub const CALIBRATION_SMS: u32 = 108;
/// Reference PCIe bandwidth for the calibration, bytes/s.
pub const CALIBRATION_PCIE: f64 = 25.0e9;

/// Lower clamp for generated kernel durations (paper: kernels down to 3 µs).
const MIN_KERNEL_NS: f64 = 3_000.0;
/// Upper clamp for generated kernel durations (paper: kernels up to 3 ms).
const MAX_KERNEL_NS: f64 = 3_000_000.0;

/// Generates the kernel sequence for one request.
///
/// The sequence is `[H2D, compute × kernels, D2H]`. Compute durations are
/// log-normal with spread `dur_sigma`, rescaled so the end-to-end solo time
/// equals `spec.total`; per-kernel `max_sms` values are drawn from
/// `d_frac_range` and iteratively rescaled so the solo utilization matches
/// `spec.utilization`.
///
/// # Panics
///
/// Panics if `spec.kernels` is zero or the total duration is too small to
/// fit the copies plus the minimum kernel durations.
pub fn generate_kernels(spec: &GenSpec) -> Vec<KernelDesc> {
    assert!(spec.kernels > 0, "a model needs at least one kernel");
    let mut rng = SimRng::new(spec.seed);

    // Budget for compute kernels: total minus the two copies.
    let copy_ns = (spec.input_bytes + spec.output_bytes) as f64 / CALIBRATION_PCIE * 1e9;
    let compute_budget = spec.total.as_nanos() as f64 - copy_ns;
    assert!(
        compute_budget > spec.kernels as f64 * MIN_KERNEL_NS,
        "{}: total duration too small for {} kernels",
        spec.name,
        spec.kernels
    );

    // Draw raw durations, then rescale to the budget. Rescaling after
    // clamping can drift, so iterate: clamp -> rescale converges fast.
    let mut durs: Vec<f64> = (0..spec.kernels)
        .map(|_| rng.lognormal(1.0, spec.dur_sigma))
        .collect();
    for _ in 0..8 {
        let sum: f64 = durs.iter().sum();
        let scale = compute_budget / sum;
        let mut changed = false;
        for d in &mut durs {
            let scaled = (*d * scale).clamp(MIN_KERNEL_NS, MAX_KERNEL_NS);
            if (scaled - *d * scale).abs() > 1e-9 {
                changed = true;
            }
            *d = scaled;
        }
        if !changed {
            break;
        }
    }
    // Final exact rescale on the unclamped middle mass: adjust every kernel
    // proportionally but keep within clamps; the residual error is folded
    // into the largest kernel (always far from its clamp in practice).
    let sum: f64 = durs.iter().sum();
    let scale = compute_budget / sum;
    for d in &mut durs {
        *d = (*d * scale).clamp(MIN_KERNEL_NS, MAX_KERNEL_NS);
    }
    let residual = compute_budget - durs.iter().sum::<f64>();
    if let Some(max_idx) = (0..durs.len()).max_by(|&a, &b| durs[a].total_cmp(&durs[b])) {
        durs[max_idx] = (durs[max_idx] + residual).clamp(MIN_KERNEL_NS, MAX_KERNEL_NS);
    }

    // Draw parallelism fractions and rescale them toward the utilization
    // target: util = Σ dur_i · d_i / Σ dur_i (with d_i = max_sms_i / SMs).
    let (d_lo, d_hi) = spec.d_frac_range;
    let mut fracs: Vec<f64> = (0..spec.kernels).map(|_| rng.uniform(d_lo, d_hi)).collect();
    let total_compute: f64 = durs.iter().sum();
    // Utilization target over the *whole* request (copies occupy 0 SMs).
    let total_all = total_compute + copy_ns;
    let target_busy = spec.utilization * total_all;
    for _ in 0..12 {
        let busy: f64 = durs.iter().zip(&fracs).map(|(d, f)| d * f).sum();
        if busy <= 0.0 {
            break;
        }
        let adjust = target_busy / busy;
        if (adjust - 1.0).abs() < 1e-4 {
            break;
        }
        for f in &mut fracs {
            *f = (*f * adjust).clamp(1.0 / CALIBRATION_SMS as f64, 1.0);
        }
    }

    let mut kernels = Vec::with_capacity(spec.kernels + 2);
    kernels.push(KernelDesc::memcpy_h2d(spec.input_bytes));
    for (&dur_ns, &frac) in durs.iter().zip(&fracs) {
        let max_sms = ((frac * CALIBRATION_SMS as f64).round() as u32).clamp(1, CALIBRATION_SMS);
        let mem = rng.uniform(spec.mem_range.0, spec.mem_range.1);
        let dur = SimDuration::from_nanos(dur_ns.round() as u64);
        let k = if spec.tensor_core {
            KernelDesc::tensor_compute(dur, max_sms, mem)
        } else {
            KernelDesc::compute(dur, max_sms, mem)
        };
        kernels.push(k);
    }
    kernels.push(KernelDesc::memcpy_d2h(spec.output_bytes));
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GenSpec {
        GenSpec {
            name: "test".into(),
            kernels: 100,
            total: SimDuration::from_millis(20),
            utilization: 0.8,
            dur_sigma: 0.9,
            d_frac_range: (0.3, 1.0),
            mem_range: (0.1, 0.4),
            tensor_core: false,
            input_bytes: 4_800_000,
            output_bytes: 32 * 1024,
            memory_mib: 100,
            seed: 99,
        }
    }

    fn solo_ns(kernels: &[KernelDesc]) -> f64 {
        kernels
            .iter()
            .map(|k| k.full_speed_duration(CALIBRATION_PCIE).as_nanos() as f64)
            .sum()
    }

    #[test]
    fn total_duration_is_exact() {
        let ks = generate_kernels(&spec());
        let total = solo_ns(&ks);
        let target = 20.0e6;
        assert!((total - target).abs() / target < 0.005, "total {total}");
    }

    #[test]
    fn utilization_hits_target() {
        let ks = generate_kernels(&spec());
        let total = solo_ns(&ks);
        let busy: f64 = ks
            .iter()
            .filter(|k| k.kind.is_compute())
            .map(|k| k.full_speed_duration(CALIBRATION_PCIE).as_nanos() as f64 * k.max_sms as f64)
            .sum();
        let util = busy / (CALIBRATION_SMS as f64 * total);
        assert!((util - 0.8).abs() < 0.02, "util {util:.3}");
    }

    #[test]
    fn durations_respect_clamps() {
        let ks = generate_kernels(&spec());
        for k in ks.iter().filter(|k| k.kind.is_compute()) {
            let ns = k.full_speed_duration(CALIBRATION_PCIE).as_nanos() as f64;
            assert!((MIN_KERNEL_NS - 1.0..=MAX_KERNEL_NS + 1.0).contains(&ns));
        }
    }

    #[test]
    fn heterogeneity_scales_with_sigma() {
        let narrow = GenSpec {
            dur_sigma: 0.2,
            seed: 7,
            ..spec()
        };
        let wide = GenSpec {
            dur_sigma: 1.2,
            seed: 7,
            ..spec()
        };
        let spread = |ks: &[KernelDesc]| {
            let durs: Vec<f64> = ks
                .iter()
                .filter(|k| k.kind.is_compute())
                .map(|k| k.full_speed_duration(CALIBRATION_PCIE).as_nanos() as f64)
                .collect();
            let max = durs.iter().cloned().fold(0.0, f64::max);
            let min = durs.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        assert!(spread(&generate_kernels(&wide)) > spread(&generate_kernels(&narrow)));
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn rejects_zero_kernels() {
        let mut s = spec();
        s.kernels = 0;
        generate_kernels(&s);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_impossible_budget() {
        let mut s = spec();
        s.total = SimDuration::from_micros(10);
        generate_kernels(&s);
    }
}
