//! Per-application profiling runs.

use std::sync::Arc;

use dnn_models::AppModel;
use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, StepOutput};
use sim_core::time::round_ns;
use sim_core::{SimDuration, SimTime};

/// Number of SM partitions the profiler measures (paper: `N = 18` on an
/// A100, i.e. 6%, 12%, …, 100% of 108 SMs).
pub const PARTITIONS: usize = 18;

/// A cheaply clonable handle to an interned profile.
///
/// A [`ProfiledApp`] owns `N + 1` runs' worth of kernel tables (tens of
/// kilobytes per application); deep-copying it per placement request and
/// again per GPU deployment dominated fleet-setup cost. Placement, the
/// per-GPU runtimes, and the experiment cache all share one table through
/// this handle instead.
pub type SharedProfile = Arc<ProfiledApp>;

/// The profiled data of one application (§4.2.1).
#[derive(Clone, Debug)]
pub struct ProfiledApp {
    /// Application name.
    pub name: String,
    /// SM count of each partition, ascending (e.g. `[6, 12, …, 108]`).
    pub partition_sms: Vec<u32>,
    /// `T[n%]`: isolated end-to-end latency per partition index.
    pub iso_latency: Vec<SimDuration>,
    /// `t[n%][k]`: per-partition, per-kernel duration.
    pub kernel_durations: Vec<Vec<SimDuration>>,
    /// `τ[n%][k]`: per-partition cumulative time from request start to the
    /// end of kernel `k`.
    pub cumulative: Vec<Vec<SimDuration>>,
    /// Per-partition prefix sums of `kernel_durations` in nanoseconds:
    /// `duration_prefix[p][k] = Σ_{j<k} t[p][j]`, with a leading 0 and one
    /// trailing entry, so any contiguous stacked-duration range is an O(1)
    /// subtraction (see [`Self::duration_range_sum`]). Unlike `cumulative`
    /// (τ), this excludes launch gaps — it is exactly the sum the
    /// configuration determiner stacks per squad entry.
    pub duration_prefix: Vec<Vec<u64>>,
    /// `d%`: per-kernel maximum active SM proportion (of the full GPU).
    pub d_frac: Vec<f64>,
    /// Resident device memory the application needs, MiB.
    pub memory_mib: u64,
    /// Total simulated time the profiling runs took (Table 1's
    /// "profile cost").
    pub profile_cost: SimDuration,
    /// The application's kernel trace (for the runtime scheduler), as an
    /// `Arc` slice so drivers can register it with the engine as a kernel
    /// table (one refcount bump, no deep copy) and launch by index.
    pub kernels: Arc<[KernelDesc]>,
}

impl ProfiledApp {
    /// Profiles `app` on a GPU with the given spec: one unrestricted run
    /// plus one run per SM partition.
    pub fn profile(app: &AppModel, spec: &GpuSpec) -> ProfiledApp {
        let num_sms = spec.num_sms;
        assert!(num_sms >= 1, "GPU needs at least one SM");
        // On GPUs smaller than the partition count (Fig. 19c's MIG-carved
        // instances), neighbouring partitions round to the same SM count;
        // that is harmless — the grid simply has duplicate entries.
        let step = num_sms as f64 / PARTITIONS as f64;
        let partition_sms: Vec<u32> = (1..=PARTITIONS)
            .map(|i| ((step * i as f64).round() as u32).clamp(1, num_sms))
            .collect();

        let mut profile_cost = SimDuration::ZERO;
        // The model's own descriptors: every profiling run launches from
        // them as a kernel table, and the profile shares them.
        let kernels = Arc::clone(&app.kernels);

        // First run: unrestricted, to obtain the overall performance.
        let (t_full, _durs, _cums) = run_solo(&kernels, spec, None);
        profile_cost += t_full;

        // One run per partition.
        let mut iso_latency = Vec::with_capacity(PARTITIONS);
        let mut kernel_durations = Vec::with_capacity(PARTITIONS);
        let mut cumulative = Vec::with_capacity(PARTITIONS);
        for &sms in &partition_sms {
            let (total, durs, cums) = run_solo(&kernels, spec, Some(sms));
            profile_cost += total;
            iso_latency.push(total);
            kernel_durations.push(durs);
            cumulative.push(cums);
        }

        let duration_prefix = kernel_durations
            .iter()
            .map(|durs: &Vec<SimDuration>| {
                let mut pre = Vec::with_capacity(durs.len() + 1);
                let mut acc = 0u64;
                pre.push(acc);
                for d in durs {
                    acc += d.as_nanos();
                    pre.push(acc);
                }
                pre
            })
            .collect();

        let d_frac = app
            .kernels
            .iter()
            .map(|k| {
                if k.kind.is_compute() {
                    k.max_sms.min(num_sms) as f64 / num_sms as f64
                } else {
                    0.0
                }
            })
            .collect();

        ProfiledApp {
            name: app.name.clone(),
            partition_sms,
            iso_latency,
            kernel_durations,
            cumulative,
            duration_prefix,
            d_frac,
            memory_mib: app.memory_mib,
            profile_cost,
            kernels,
        }
    }

    /// [`ProfiledApp::profile`] returning an interned [`SharedProfile`]
    /// handle, ready to share across placement requests and deployments
    /// without further deep copies.
    pub fn profile_shared(app: &AppModel, spec: &GpuSpec) -> SharedProfile {
        Arc::new(ProfiledApp::profile(app, spec))
    }

    /// Number of kernels per request.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// The partition index whose share best matches `quota` (rounded to
    /// the nearest partition, at least the smallest).
    pub fn partition_for_quota(&self, quota: f64) -> usize {
        let q = quota.clamp(0.0, 1.0);
        let idx = (q * PARTITIONS as f64).round() as usize;
        idx.clamp(1, PARTITIONS) - 1
    }

    /// `t[n%][k]` for a partition index.
    pub fn kernel_duration(&self, partition: usize, kernel: usize) -> SimDuration {
        self.kernel_durations[partition][kernel]
    }

    /// `τ[n%][k]` for a partition index.
    pub fn tau(&self, partition: usize, kernel: usize) -> SimDuration {
        self.cumulative[partition][kernel]
    }

    /// `Σ t[n%][k]` for kernels `start..end` (half-open), in O(1) via the
    /// prefix table. Bit-identical to summing [`Self::kernel_duration`]
    /// over the range: both are u64-nanosecond additions, which are
    /// associative.
    pub fn duration_range_sum(&self, partition: usize, start: usize, end: usize) -> SimDuration {
        let pre = &self.duration_prefix[partition];
        SimDuration::from_nanos(pre[end] - pre[start])
    }

    /// The duration of kernel `k` on an arbitrary SM count, interpolated
    /// linearly between the two neighbouring profiled partitions (§4.4.2:
    /// "the duration of a kernel using the desired number of SM is
    /// interpolated if it cannot utilize so many SMs").
    pub fn duration_at_sms(&self, kernel: usize, sms: f64) -> SimDuration {
        let first = self.partition_sms[0] as f64;
        if sms <= first {
            // Extrapolate below the smallest partition conservatively by
            // inverse-proportional scaling.
            let d0 = self.kernel_durations[0][kernel].as_nanos() as f64;
            let scaled = d0 * (first / sms.max(1.0));
            return SimDuration::from_nanos(round_ns(scaled));
        }
        let last_idx = self.partition_sms.len() - 1;
        if sms >= self.partition_sms[last_idx] as f64 {
            return self.kernel_durations[last_idx][kernel];
        }
        // Find the bracketing partitions.
        let hi = self
            .partition_sms
            .iter()
            .position(|&p| p as f64 >= sms)
            .unwrap_or(last_idx);
        let lo = hi - 1;
        let (s0, s1) = (self.partition_sms[lo] as f64, self.partition_sms[hi] as f64);
        let (d0, d1) = (
            self.kernel_durations[lo][kernel].as_nanos() as f64,
            self.kernel_durations[hi][kernel].as_nanos() as f64,
        );
        let frac = (sms - s0) / (s1 - s0);
        SimDuration::from_nanos(round_ns(d0 + (d1 - d0) * frac))
    }

    /// Mean compute-kernel duration at the largest partition (used by the
    /// admission policy).
    pub fn mean_kernel_duration(&self) -> SimDuration {
        let last = self.kernel_durations.len() - 1;
        let computes: Vec<SimDuration> = self
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| k.kind.is_compute())
            .map(|(i, _)| self.kernel_durations[last][i])
            .collect();
        if computes.is_empty() {
            return SimDuration::ZERO;
        }
        computes.iter().copied().sum::<SimDuration>() / computes.len() as u64
    }

    /// Longest compute-kernel duration at the largest partition.
    pub fn max_kernel_duration(&self) -> SimDuration {
        let last = self.kernel_durations.len() - 1;
        self.kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| k.kind.is_compute())
            .map(|(i, _)| self.kernel_durations[last][i])
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Runs the application's `kernels` once, solo, optionally under an MPS
/// cap, and returns (total latency, per-kernel durations, per-kernel
/// cumulative completion offsets), read from the completions the run
/// reports: kernel `i` launches with tag `i`.
fn run_solo(
    kernels: &Arc<[KernelDesc]>,
    spec: &GpuSpec,
    mps_cap: Option<u32>,
) -> (SimDuration, Vec<SimDuration>, Vec<SimDuration>) {
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    let ctx = match mps_cap {
        None => gpu.create_context(CtxKind::Default).expect("context"),
        Some(cap) => gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: cap })
            .expect("context"),
    };
    let queue = gpu.create_queue(ctx).expect("queue");
    let table = gpu.register_kernel_table(Arc::clone(kernels));
    for i in 0..kernels.len() {
        gpu.launch(queue, table, i, i as u64).expect("launch");
    }
    // A solo run pops a few events per kernel; far more means a kernel
    // that never finishes.
    let mut outputs = Vec::with_capacity(kernels.len());
    gpu.drain_outputs_into(&mut outputs, 1_000 * (kernels.len() as u64 + 1))
        .expect("a solo run reaches idle");
    let start = SimTime::ZERO;
    let mut durs = vec![SimDuration::ZERO; kernels.len()];
    let mut cums = vec![SimDuration::ZERO; kernels.len()];
    let mut end = SimTime::ZERO;
    for &(finish, out) in &outputs {
        if let StepOutput::KernelDone { tag, started, .. } = out {
            durs[tag as usize] = finish.duration_since(started);
            cums[tag as usize] = finish.duration_since(start);
            end = end.max(finish);
        }
    }
    assert_eq!(outputs.len(), kernels.len(), "every kernel completes once");
    (end.duration_since(start), durs, cums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{ModelKind, Phase};

    fn profiled(kind: ModelKind) -> ProfiledApp {
        let app = AppModel::build(kind, Phase::Inference);
        ProfiledApp::profile(&app, &GpuSpec::a100())
    }

    #[test]
    fn partitions_cover_six_to_full() {
        let p = profiled(ModelKind::Vgg11);
        assert_eq!(p.partition_sms.len(), PARTITIONS);
        assert_eq!(p.partition_sms[0], 6);
        assert_eq!(p.partition_sms[PARTITIONS - 1], 108);
    }

    #[test]
    fn iso_latency_decreases_with_more_sms() {
        let p = profiled(ModelKind::ResNet50);
        for w in p.iso_latency.windows(2) {
            assert!(w[0] >= w[1], "more SMs cannot be slower: {w:?}");
        }
        // Full partition should be close to the calibrated solo latency
        // (8.7 ms plus the 3 µs first-launch overhead).
        let full = p.iso_latency[PARTITIONS - 1].as_millis_f64();
        assert!((full - 8.7).abs() < 0.2, "full-GPU latency {full:.2} ms");
    }

    #[test]
    fn small_partitions_are_much_slower() {
        let p = profiled(ModelKind::Vgg11);
        let t6 = p.iso_latency[0].as_millis_f64();
        let t108 = p.iso_latency[PARTITIONS - 1].as_millis_f64();
        // VGG's busy SM·time is ~81% of 108 SMs; on 6 SMs it must be
        // roughly busy/6, i.e. ~14x the full-GPU latency.
        assert!(t6 / t108 > 8.0, "t6 {t6:.1} ms, t108 {t108:.1} ms");
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_total() {
        let p = profiled(ModelKind::ResNet50);
        for part in 0..PARTITIONS {
            let cums = &p.cumulative[part];
            assert!(cums.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(*cums.last().unwrap(), p.iso_latency[part]);
        }
    }

    #[test]
    fn partition_for_quota_rounds_sensibly() {
        let p = profiled(ModelKind::Vgg11);
        assert_eq!(p.partition_for_quota(1.0), PARTITIONS - 1);
        assert_eq!(p.partition_for_quota(0.5), 8); // 9th partition = 54 SMs
        assert_eq!(p.partition_sms[p.partition_for_quota(0.5)], 54);
        assert_eq!(p.partition_for_quota(1.0 / 3.0), 5); // 36 SMs
        assert_eq!(p.partition_for_quota(0.0), 0); // clamps to smallest
        assert_eq!(p.partition_for_quota(2.0 / 3.0), 11); // 72 SMs
    }

    #[test]
    fn duration_interpolation_brackets() {
        let p = profiled(ModelKind::Vgg11);
        // Pick a compute kernel (index 1; index 0 is the H2D copy).
        let k = 1;
        let d54 = p.kernel_duration(8, k); // 54 SMs
        let d60 = p.kernel_duration(9, k); // 60 SMs
        let mid = p.duration_at_sms(k, 57.0);
        assert!(mid <= d54 && mid >= d60, "{d54:?} {mid:?} {d60:?}");
        // Beyond the top partition: clamps to the fastest measurement.
        assert_eq!(p.duration_at_sms(k, 500.0), p.kernel_duration(17, k));
        // Below the smallest: strictly slower than the 6-SM measurement.
        assert!(p.duration_at_sms(k, 3.0) > p.kernel_duration(0, k));
    }

    #[test]
    fn profile_cost_matches_table1_magnitude() {
        // Table 1 reports 0.56 s for VGG inference and 0.38 s for R50.
        let vgg = profiled(ModelKind::Vgg11);
        let cost = vgg.profile_cost.as_secs_f64();
        assert!((0.3..1.0).contains(&cost), "VGG profile cost {cost:.2} s");
    }

    #[test]
    fn d_frac_reflects_kernel_parallelism() {
        let p = profiled(ModelKind::ResNet50);
        for (i, k) in p.kernels.iter().enumerate() {
            if k.kind.is_compute() {
                assert!((p.d_frac[i] - k.max_sms as f64 / 108.0).abs() < 1e-9);
            } else {
                assert_eq!(p.d_frac[i], 0.0);
            }
        }
    }

    #[test]
    fn mean_and_max_kernel_durations() {
        let p = profiled(ModelKind::Vgg11);
        assert!(p.mean_kernel_duration() > SimDuration::ZERO);
        assert!(p.max_kernel_duration() >= p.mean_kernel_duration());
    }
}
