//! Fig. 13: average latency of two symmetric applications (same model,
//! even quotas) across workloads A/B/C, for every system — inference and
//! training.
//!
//! Paper: BLESS reduces inference latency on average by 37.3% vs TEMPORAL,
//! 34.2% vs MIG, 21.1% vs GSLICE, 16.5% vs UNBOUND and 13.5% vs REEF+.
//! For training: 26.5% vs TEMPORAL, 7.5% vs MIG, 12.5% vs UNBOUND, 9.9%
//! vs ZICO.

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

use super::{mean, product};
use crate::cache;
use crate::par::par_map;
use crate::runner::{run_system, System};

const INFER_MODELS: [ModelKind; 5] = [
    ModelKind::Vgg11,
    ModelKind::ResNet50,
    ModelKind::ResNet101,
    ModelKind::NasNet,
    ModelKind::Bert,
];

/// Training uses the three faster models (NasNet/BERT training iterations
/// are 158/186 ms; three pairs keep the suite responsive while preserving
/// the comparison).
const TRAIN_MODELS: [ModelKind; 3] = [ModelKind::Vgg11, ModelKind::ResNet50, ModelKind::ResNet101];

/// One sweep: models, phase, load, systems and requests per client.
type Sweep<'a> = (&'a [ModelKind], Phase, PaperWorkload, &'a [System], usize);

/// Mean latency (ms) of a symmetric pair of `model` under `load` for each
/// system in `systems`, averaged over the model set.
#[cfg(test)]
fn sweep(
    models: &[ModelKind],
    phase: Phase,
    load: PaperWorkload,
    systems: &[System],
    requests: usize,
) -> Vec<(String, f64)> {
    sweeps(&[(models, phase, load, systems, requests)]).remove(0)
}

/// Mean latency (ms) per system for several sweeps at once: every sweep ×
/// system × model run goes into one parallel grid, folded per system in
/// model order.
fn sweeps(sweeps: &[Sweep]) -> Vec<Vec<(String, f64)>> {
    let spec = GpuSpec::a100();
    let grid: Vec<(&Sweep, &System, ModelKind)> = sweeps
        .iter()
        .flat_map(|sw| {
            product(sw.3, sw.0)
                .into_iter()
                .map(move |(sys, &m)| (sw, sys, m))
        })
        .collect();
    let runs = par_map(&grid, |&(&(_, phase, load, _, requests), sys, m)| {
        let ws = pair_workload(
            cache::model(m, phase),
            cache::model(m, phase),
            (0.5, 0.5),
            load,
            requests,
            SimTime::from_secs(20),
            11,
        );
        run_system(sys, &ws, &spec, SimTime::from_secs(300), None).mean_ms()
    });
    let mut runs = runs.into_iter();
    sweeps
        .iter()
        .map(|&(models, _, _, systems, _)| {
            systems
                .iter()
                .map(|sys| {
                    let ms = mean(runs.by_ref().take(models.len()));
                    (sys.name().to_string(), ms)
                })
                .collect()
        })
        .collect()
}

/// Builds a "system / latency / BLESS reduction" table from sweep rows
/// (the last row must be BLESS).
fn reduction_table(title: String, rows: &[(String, f64)], paper_note: &str) -> Table {
    let bless = crate::require(rows.last(), "BLESS last").1;
    let mut t = Table::new(title, &["system", "avg latency ms", "BLESS reduction %"]);
    for (name, ms) in rows {
        let red = if name == "BLESS" || *ms <= 0.0 {
            "-".to_string()
        } else {
            format!("{:.1}", (1.0 - bless / ms) * 100.0)
        };
        t.row(&[name.clone(), format!("{ms:.2}"), red]);
    }
    t.note(paper_note);
    t
}

/// Regenerates Fig. 13.
pub fn run() -> Vec<Table> {
    let loads = [
        (PaperWorkload::HighLoad, "A (high load)"),
        (PaperWorkload::MediumLoad, "B (medium load)"),
        (PaperWorkload::LowLoad, "C (low load)"),
    ];
    let mut infer_systems = vec![System::Iso];
    infer_systems.extend(System::inference_set());
    // Training: even sharing of two identical training jobs. Training
    // iterations run back-to-back (continuous epochs), unlike the
    // closed-loop inference clients.
    let mut train_systems = System::training_set();
    train_systems.insert(0, System::Iso);
    let mut all: Vec<Sweep> = loads
        .iter()
        .map(|&(wl, _)| {
            (
                &INFER_MODELS[..],
                Phase::Inference,
                wl,
                &infer_systems[..],
                12,
            )
        })
        .collect();
    all.push((
        &TRAIN_MODELS,
        Phase::Training,
        PaperWorkload::BiasedDense,
        &train_systems,
        6,
    ));
    let mut rows = sweeps(&all).into_iter();

    let mut out = Vec::new();
    for ((_, label), rows) in loads.iter().zip(rows.by_ref()) {
        out.push(reduction_table(
            format!("Fig. 13 inference, workload {label}: mean latency over 5 symmetric pairs"),
            &rows,
            "paper averages: -37.3% TEMPORAL, -34.2% MIG, -21.1% GSLICE, -16.5% UNBOUND, -13.5% REEF+",
        ));
    }
    out.push(reduction_table(
        "Fig. 13 training: mean epoch-iteration latency over symmetric pairs".to_string(),
        &crate::require(rows.next(), "training sweep"),
        "paper averages: -26.5% TEMPORAL, -7.5% MIG, -12.5% UNBOUND, -9.9% ZICO",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bless::BlessParams;

    #[test]
    fn bless_wins_low_load_inference() {
        let systems = vec![
            System::Temporal,
            System::Gslice,
            System::Unbound,
            System::Bless(BlessParams::default()),
        ];
        // One representative model keeps the test fast.
        let rows = sweep(
            &[ModelKind::ResNet50],
            Phase::Inference,
            PaperWorkload::LowLoad,
            &systems,
            8,
        );
        let get = |n: &str| rows.iter().find(|(name, _)| name == n).unwrap().1;
        let bless = get("BLESS");
        assert!(bless < get("TEMPORAL"), "vs TEMPORAL");
        assert!(bless < get("GSLICE"), "vs GSLICE");
        assert!(bless < get("UNBOUND"), "vs UNBOUND");
        // TEMPORAL is the worst baseline, as in the paper.
        assert!(get("TEMPORAL") > get("GSLICE"));
    }

    #[test]
    fn bless_beats_zico_on_training() {
        // Training iterations run continuously; under full overlap
        // ZICO's unbounded (serialized) sharing loses to BLESS's
        // optimized spatial squads (paper: -9.9%).
        let systems = vec![System::Zico, System::Bless(BlessParams::default())];
        let rows = sweep(
            &[ModelKind::Vgg11],
            Phase::Training,
            PaperWorkload::BiasedDense,
            &systems,
            4,
        );
        assert!(
            rows[1].1 < rows[0].1,
            "BLESS {} vs ZICO {}",
            rows[1].1,
            rows[0].1
        );
    }
}
