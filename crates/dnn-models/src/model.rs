//! Application model definitions and the Table 1 calibration constants.

use std::sync::Arc;

use gpu_sim::KernelDesc;
use sim_core::SimDuration;

use crate::gen::{generate_kernels, GenSpec};

/// The five DNN architectures the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// VGG-11 image classifier.
    Vgg11,
    /// ResNet-50 image classifier.
    ResNet50,
    /// ResNet-101 image classifier.
    ResNet101,
    /// NasNet (large) image classifier: many small heterogeneous kernels.
    NasNet,
    /// BERT transformer (tensor cores for inference).
    Bert,
    /// AlexNet image classifier (used only in the interference study,
    /// Fig. 9b; not part of Table 1).
    AlexNet,
}

impl ModelKind {
    /// All five model kinds, in the paper's Table 1 order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        ModelKind::NasNet,
        ModelKind::Bert,
    ];

    /// The paper's short column label (Table 1).
    pub fn short_name(self) -> &'static str {
        match self {
            ModelKind::Vgg11 => "VGG",
            ModelKind::ResNet50 => "R50",
            ModelKind::ResNet101 => "R101",
            ModelKind::NasNet => "NAS",
            ModelKind::Bert => "BERT",
            ModelKind::AlexNet => "A",
        }
    }

    /// Full human-readable name.
    pub fn full_name(self) -> &'static str {
        match self {
            ModelKind::Vgg11 => "VGG-11",
            ModelKind::ResNet50 => "ResNet-50",
            ModelKind::ResNet101 => "ResNet-101",
            ModelKind::NasNet => "NasNet",
            ModelKind::Bert => "BERT",
            ModelKind::AlexNet => "AlexNet",
        }
    }
}

/// Whether a request is an inference pass or a training iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One inference request (TVM/nnfusion kernels in the paper).
    Inference,
    /// One training iteration (PyTorch kernels in the paper).
    Training,
}

/// Per-(model, phase) generation parameters, calibrated to Table 1.
fn gen_spec(kind: ModelKind, phase: Phase) -> GenSpec {
    // (kernels, total ms, utilization, sigma, d% range, mem range)
    // Utilization for VGG/R50 inference comes from Fig. 1 (81% / 86%);
    // the others are chosen consistently with the architectures: NasNet's
    // many small kernels underutilize the GPU, BERT's tensor-core GEMMs
    // are wide, training kernels are generally wider than inference.
    let (kernels, total_ms, util, sigma, d_lo, d_hi, m_lo, m_hi) = match (kind, phase) {
        (ModelKind::Vgg11, Phase::Inference) => (31, 10.2, 0.81, 0.9, 0.35, 1.0, 0.05, 0.45),
        (ModelKind::ResNet50, Phase::Inference) => (80, 8.7, 0.86, 0.8, 0.40, 1.0, 0.05, 0.40),
        (ModelKind::ResNet101, Phase::Inference) => (148, 17.2, 0.84, 0.8, 0.40, 1.0, 0.05, 0.40),
        (ModelKind::NasNet, Phase::Inference) => (458, 32.7, 0.62, 1.1, 0.15, 0.9, 0.05, 0.50),
        (ModelKind::Bert, Phase::Inference) => (382, 12.8, 0.78, 0.7, 0.45, 1.0, 0.10, 0.55),
        (ModelKind::Vgg11, Phase::Training) => (80, 11.2, 0.85, 0.9, 0.40, 1.0, 0.05, 0.45),
        (ModelKind::ResNet50, Phase::Training) => (306, 25.2, 0.84, 0.8, 0.40, 1.0, 0.05, 0.45),
        (ModelKind::ResNet101, Phase::Training) => (598, 40.1, 0.84, 0.8, 0.40, 1.0, 0.05, 0.45),
        (ModelKind::NasNet, Phase::Training) => (2824, 157.8, 0.66, 1.0, 0.15, 0.9, 0.05, 0.50),
        (ModelKind::Bert, Phase::Training) => (5035, 186.1, 0.80, 0.7, 0.40, 1.0, 0.10, 0.55),
        // AlexNet is not in Table 1; its parameters follow its
        // architecture: few, fairly wide kernels and a short request.
        (ModelKind::AlexNet, Phase::Inference) => (21, 3.1, 0.72, 0.8, 0.30, 1.0, 0.05, 0.45),
        (ModelKind::AlexNet, Phase::Training) => (58, 7.4, 0.78, 0.8, 0.35, 1.0, 0.05, 0.45),
    };
    // Input/output transfer sizes (bytes): image batch for CNNs, token ids
    // for BERT; training uses a larger batch.
    let (input_bytes, output_bytes) = match (kind, phase) {
        (ModelKind::Bert, Phase::Inference) => (64 * 1024, 32 * 1024),
        (ModelKind::Bert, Phase::Training) => (512 * 1024, 16 * 1024),
        (_, Phase::Inference) => (4_800_000, 32 * 1024), // batch 8 of 224^2 RGB f32
        (_, Phase::Training) => (19_200_000, 16 * 1024), // batch 32
    };
    // Approximate resident memory (weights + activations + workspace).
    let memory_mib = match (kind, phase) {
        (ModelKind::Vgg11, Phase::Inference) => 1_250,
        (ModelKind::ResNet50, Phase::Inference) => 850,
        (ModelKind::ResNet101, Phase::Inference) => 1_150,
        (ModelKind::NasNet, Phase::Inference) => 950,
        (ModelKind::Bert, Phase::Inference) => 1_500,
        (ModelKind::Vgg11, Phase::Training) => 3_100,
        (ModelKind::ResNet50, Phase::Training) => 2_400,
        (ModelKind::ResNet101, Phase::Training) => 3_300,
        (ModelKind::NasNet, Phase::Training) => 2_900,
        (ModelKind::Bert, Phase::Training) => 4_600,
        (ModelKind::AlexNet, Phase::Inference) => 700,
        (ModelKind::AlexNet, Phase::Training) => 1_900,
    };
    let tensor_core = kind == ModelKind::Bert && phase == Phase::Inference;
    // Seed derived from the identity so every (kind, phase) is stable.
    let seed = 0xB1E5_5000 + (kind as u64) * 16 + (phase as u64);

    GenSpec {
        name: format!(
            "{}-{}",
            kind.short_name().to_ascii_lowercase(),
            match phase {
                Phase::Inference => "inf",
                Phase::Training => "train",
            }
        ),
        kernels,
        total: SimDuration::from_millis_f64(total_ms),
        utilization: util,
        dur_sigma: sigma,
        d_frac_range: (d_lo, d_hi),
        mem_range: (m_lo, m_hi),
        tensor_core,
        input_bytes,
        output_bytes,
        memory_mib,
        seed,
    }
}

/// One deployable application: a model in a phase, with its kernel trace.
#[derive(Clone, Debug)]
pub struct AppModel {
    /// Architecture.
    pub kind: ModelKind,
    /// Inference or training.
    pub phase: Phase,
    /// Stable generated name, e.g. `"r50-inf"`.
    pub name: String,
    /// The kernel sequence of one request (H2D, compute kernels, D2H).
    /// Generated once per model; every clone of the model, its profile
    /// and the engine's kernel tables share this one allocation.
    pub kernels: Arc<[KernelDesc]>,
    /// Device memory the application needs resident, in MiB.
    pub memory_mib: u64,
}

impl AppModel {
    /// Builds the calibrated synthetic model for `(kind, phase)`.
    pub fn build(kind: ModelKind, phase: Phase) -> AppModel {
        let spec = gen_spec(kind, phase);
        let name = spec.name.clone();
        let memory_mib = spec.memory_mib;
        AppModel {
            kind,
            phase,
            name,
            kernels: generate_kernels(&spec).into(),
            memory_mib,
        }
    }

    /// All five inference applications, Table 1 order.
    pub fn all_inference() -> Vec<AppModel> {
        ModelKind::ALL
            .iter()
            .map(|&k| AppModel::build(k, Phase::Inference))
            .collect()
    }

    /// All five training applications, Table 1 order.
    pub fn all_training() -> Vec<AppModel> {
        ModelKind::ALL
            .iter()
            .map(|&k| AppModel::build(k, Phase::Training))
            .collect()
    }

    /// Number of kernels per request (compute + memcpy).
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Number of computational kernels per request.
    pub fn compute_kernel_count(&self) -> usize {
        self.kernels.iter().filter(|k| k.kind.is_compute()).count()
    }

    /// The solo-run duration on an unrestricted GPU: every kernel at full
    /// speed, executed back-to-back on one queue.
    pub fn solo_duration(&self, pcie_bytes_per_sec: f64) -> SimDuration {
        self.kernels
            .iter()
            .map(|k| k.full_speed_duration(pcie_bytes_per_sec))
            .sum()
    }

    /// Mean computational kernel duration at full speed.
    pub fn mean_kernel_duration(&self, pcie_bytes_per_sec: f64) -> SimDuration {
        let n = self.compute_kernel_count().max(1) as u64;
        let total: SimDuration = self
            .kernels
            .iter()
            .filter(|k| k.kind.is_compute())
            .map(|k| k.full_speed_duration(pcie_bytes_per_sec))
            .sum();
        total / n
    }

    /// Solo GPU utilization: SM·time demanded over `num_sms ×` solo time.
    pub fn solo_utilization(&self, num_sms: u32, pcie_bytes_per_sec: f64) -> f64 {
        let total = self.solo_duration(pcie_bytes_per_sec).as_nanos() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .kernels
            .iter()
            .filter(|k| k.kind.is_compute())
            .map(|k| {
                k.full_speed_duration(pcie_bytes_per_sec).as_nanos() as f64
                    * k.max_sms.min(num_sms) as f64
            })
            .sum();
        busy / (num_sms as f64 * total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PCIE: f64 = 25.0e9;

    /// Table 1's inference row: (kind, kernels, duration ms).
    const TABLE1_INFERENCE: [(ModelKind, usize, f64); 5] = [
        (ModelKind::Vgg11, 31, 10.2),
        (ModelKind::ResNet50, 80, 8.7),
        (ModelKind::ResNet101, 148, 17.2),
        (ModelKind::NasNet, 458, 32.7),
        (ModelKind::Bert, 382, 12.8),
    ];

    /// Table 1's training row.
    const TABLE1_TRAINING: [(ModelKind, usize, f64); 5] = [
        (ModelKind::Vgg11, 80, 11.2),
        (ModelKind::ResNet50, 306, 25.2),
        (ModelKind::ResNet101, 598, 40.1),
        (ModelKind::NasNet, 2824, 157.8),
        (ModelKind::Bert, 5035, 186.1),
    ];

    #[test]
    fn inference_calibration_matches_table1() {
        for (kind, kernels, ms) in TABLE1_INFERENCE {
            let m = AppModel::build(kind, Phase::Inference);
            assert_eq!(m.compute_kernel_count(), kernels, "{kind:?} kernel count");
            let solo = m.solo_duration(PCIE).as_millis_f64();
            assert!(
                (solo - ms).abs() / ms < 0.02,
                "{kind:?}: solo {solo:.2} ms vs Table 1 {ms} ms"
            );
        }
    }

    #[test]
    fn training_calibration_matches_table1() {
        for (kind, kernels, ms) in TABLE1_TRAINING {
            let m = AppModel::build(kind, Phase::Training);
            assert_eq!(m.compute_kernel_count(), kernels, "{kind:?} kernel count");
            let solo = m.solo_duration(PCIE).as_millis_f64();
            assert!(
                (solo - ms).abs() / ms < 0.02,
                "{kind:?}: solo {solo:.2} ms vs Table 1 {ms} ms"
            );
        }
    }

    #[test]
    fn utilization_matches_figure1() {
        let vgg = AppModel::build(ModelKind::Vgg11, Phase::Inference);
        let r50 = AppModel::build(ModelKind::ResNet50, Phase::Inference);
        let u_vgg = vgg.solo_utilization(108, PCIE);
        let u_r50 = r50.solo_utilization(108, PCIE);
        assert!((u_vgg - 0.81).abs() < 0.03, "VGG util {u_vgg:.3}");
        assert!((u_r50 - 0.86).abs() < 0.03, "R50 util {u_r50:.3}");
    }

    #[test]
    fn kernel_durations_span_paper_range() {
        // Across all applications, kernel durations vary from ~3 µs to ~3 ms.
        let mut min_us = f64::MAX;
        let mut max_us: f64 = 0.0;
        for m in AppModel::all_inference()
            .iter()
            .chain(&AppModel::all_training())
        {
            for k in m.kernels.iter().filter(|k| k.kind.is_compute()) {
                let d = k.full_speed_duration(PCIE).as_micros_f64();
                min_us = min_us.min(d);
                max_us = max_us.max(d);
            }
        }
        assert!((2.0..=10.0).contains(&min_us), "min kernel {min_us:.1} µs");
        assert!(
            (1_000.0..=3_500.0).contains(&max_us),
            "max kernel {max_us:.1} µs"
        );
    }

    #[test]
    fn bert_inference_uses_tensor_cores() {
        let bert = AppModel::build(ModelKind::Bert, Phase::Inference);
        let tensor = bert
            .kernels
            .iter()
            .filter(|k| matches!(k.kind, gpu_sim::KernelKind::Compute { tensor_core: true }))
            .count();
        assert!(tensor > bert.compute_kernel_count() / 2);
        let r50 = AppModel::build(ModelKind::ResNet50, Phase::Inference);
        let tensor_r50 = r50
            .kernels
            .iter()
            .filter(|k| matches!(k.kind, gpu_sim::KernelKind::Compute { tensor_core: true }))
            .count();
        assert_eq!(tensor_r50, 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AppModel::build(ModelKind::NasNet, Phase::Inference);
        let b = AppModel::build(ModelKind::NasNet, Phase::Inference);
        assert_eq!(a.kernels.len(), b.kernels.len());
        for (ka, kb) in a.kernels.iter().zip(b.kernels.iter()) {
            assert_eq!(ka.work, kb.work);
            assert_eq!(ka.max_sms, kb.max_sms);
            assert_eq!(ka.mem_intensity, kb.mem_intensity);
        }
    }

    #[test]
    fn requests_start_with_h2d_and_end_with_d2h() {
        for m in AppModel::all_inference() {
            assert!(matches!(
                m.kernels.first().unwrap().kind,
                gpu_sim::KernelKind::MemcpyH2D { .. }
            ));
            assert!(matches!(
                m.kernels.last().unwrap().kind,
                gpu_sim::KernelKind::MemcpyD2H { .. }
            ));
        }
    }

    #[test]
    fn names_and_labels() {
        assert_eq!(ModelKind::Vgg11.short_name(), "VGG");
        assert_eq!(ModelKind::Bert.full_name(), "BERT");
        let m = AppModel::build(ModelKind::ResNet101, Phase::Training);
        assert_eq!(m.name, "r101-train");
        assert!(m.memory_mib > 0);
    }

    #[test]
    fn mean_kernel_durations_are_in_paper_band() {
        // §4.2.2: BLESS co-locates applications with average kernel
        // durations from 10 µs to 300 µs (inference); training can be denser.
        for m in AppModel::all_inference() {
            let mean = m.mean_kernel_duration(PCIE).as_micros_f64();
            assert!((10.0..=350.0).contains(&mean), "{}: {mean:.1} µs", m.name);
        }
    }
}
