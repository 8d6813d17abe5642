//! Fig. 12: latency charts — per-app average latencies of pair
//! deployments across the seven Table 2 quota assignments.
//!
//! The paper's headline: under BLESS every point lies inside the ISO
//! region (both apps at or below their isolated latencies) across all
//! quota assignments, and lower load moves points closer to the origin.

use bless::BlessParams;
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload, TWO_MODEL_QUOTAS};

use crate::cache;
use crate::par::par_map;
use crate::runner::{run_system, System};

/// The four panels of Fig. 12: (a)/(b) a symmetric pair under medium and
/// low load, (c) a homogeneous-kernel pair, (d) a heterogeneous pair.
const PANELS: [(&str, ModelKind, ModelKind, PaperWorkload); 4] = [
    (
        "(a) VGG+R50, medium load",
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        PaperWorkload::MediumLoad,
    ),
    (
        "(b) VGG+R50, low load",
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        PaperWorkload::LowLoad,
    ),
    (
        "(c) R50+R101 (homogeneous kernels), low load",
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        PaperWorkload::LowLoad,
    ),
    (
        "(d) NAS+BERT (heterogeneous kernels), low load",
        ModelKind::NasNet,
        ModelKind::Bert,
        PaperWorkload::LowLoad,
    ),
];

/// Runs one panel; returns (quota label, lat0, lat1, iso0, iso1) rows.
pub fn panel(
    a: ModelKind,
    b: ModelKind,
    load: PaperWorkload,
    requests: usize,
) -> Vec<(String, f64, f64, f64, f64)> {
    let spec = GpuSpec::a100();
    par_map(&TWO_MODEL_QUOTAS, |&(qa, qb)| {
        let ws = pair_workload(
            cache::model(a, Phase::Inference),
            cache::model(b, Phase::Inference),
            (qa, qb),
            load,
            requests,
            SimTime::from_secs(10),
            7,
        );
        let r = run_system(
            &System::Bless(BlessParams::default()),
            &ws,
            &spec,
            SimTime::from_secs(120),
            None,
        );
        let means = r.app_means();
        (
            format!("{:.2}/{:.2}", qa, qb),
            means[0].as_millis_f64(),
            means[1].as_millis_f64(),
            r.iso_targets[0].as_millis_f64(),
            r.iso_targets[1].as_millis_f64(),
        )
    })
}

/// Regenerates Fig. 12.
pub fn run() -> Vec<Table> {
    let mut out = Vec::new();
    for (label, a, b, load) in PANELS {
        let mut t = Table::new(
            format!("Fig. 12 {label} — BLESS latencies across quota assignments"),
            &[
                "quota a/b",
                "app A ms",
                "app B ms",
                "ISO A ms",
                "ISO B ms",
                "inside ISO region",
            ],
        );
        for (q, la, lb, ia, ib) in panel(a, b, load, 12) {
            let inside = la <= ia * 1.02 && lb <= ib * 1.02;
            t.row(&[
                q,
                format!("{la:.2}"),
                format!("{lb:.2}"),
                format!("{ia:.2}"),
                format!("{ib:.2}"),
                inside.to_string(),
            ]);
        }
        t.note("paper: all BLESS points lie inside the mint-green ISO region");
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_points_stay_inside_iso_region() {
        // Panel (b): low load leaves bubbles, so both apps must be at or
        // below their ISO latencies for every quota assignment.
        let rows = panel(
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            PaperWorkload::LowLoad,
            8,
        );
        assert_eq!(rows.len(), 7);
        for (q, la, lb, ia, ib) in rows {
            assert!(la <= ia * 1.05, "{q}: app A {la:.2} vs ISO {ia:.2}");
            assert!(lb <= ib * 1.05, "{q}: app B {lb:.2} vs ISO {ib:.2}");
        }
    }

    #[test]
    fn lower_load_is_closer_to_origin() {
        let med = panel(
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            PaperWorkload::MediumLoad,
            8,
        );
        let low = panel(
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            PaperWorkload::LowLoad,
            8,
        );
        // Compare the even-quota point: lower load must give lower
        // latencies for both apps.
        let m = &med[3];
        let l = &low[3];
        assert!(
            l.1 <= m.1 * 1.02 && l.2 <= m.2 * 1.02,
            "low {l:?} vs med {m:?}"
        );
    }
}
