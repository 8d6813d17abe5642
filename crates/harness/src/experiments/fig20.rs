//! Fig. 20: ablation study.
//!
//! Paper: removing the multi-task scheduler (progress-based selection)
//! extends average latency by 16.5%; additionally removing the execution
//! configuration determiner adds another 7.6%.

use bless::BlessParams;
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

use super::mean;
use crate::cache;
use crate::par::par_map;
use crate::runner::{run_system, System};

const MODELS: [ModelKind; 5] = [
    ModelKind::Vgg11,
    ModelKind::ResNet50,
    ModelKind::ResNet101,
    ModelKind::NasNet,
    ModelKind::Bert,
];

/// An ablation setting: quotas, load and workload seed.
type Setting = ((f64, f64), PaperWorkload, u64);

/// Workload B with even quotas, for the latency ablation.
const EVEN: Setting = ((0.5, 0.5), PaperWorkload::MediumLoad, 101);

/// High load with uneven quotas, for the quota-guarantee ablation.
const UNEVEN: Setting = ((2.0 / 3.0, 1.0 / 3.0), PaperWorkload::HighLoad, 103);

/// The symmetric pairs of the quota-guarantee ablation.
const UNEVEN_MODELS: [ModelKind; 2] = [ModelKind::ResNet50, ModelKind::Bert];

/// Mean latency over the 5 symmetric pairs (workload B, even quotas)
/// under the given parameter set.
pub fn variant_mean(params: BlessParams, models: &[ModelKind], requests: usize) -> f64 {
    ablate(&[(&System::Bless(params), EVEN, models)], requests)[0].0
}

/// Deviation (ms) under an uneven (2/3, 1/3) quota pair for one variant —
/// the setting where the multi-task scheduler's compensation is load
/// bearing.
pub fn variant_deviation(params: BlessParams, requests: usize) -> f64 {
    ablate(
        &[(&System::Bless(params), UNEVEN, &UNEVEN_MODELS)],
        requests,
    )[0]
    .1
}

/// Mean latency and mean deviation (ms) of each (variant, setting) over
/// its symmetric pairs. Every case × model run goes into one parallel
/// grid, folded per case in model order.
fn ablate(cases: &[(&System, Setting, &[ModelKind])], requests: usize) -> Vec<(f64, f64)> {
    let spec = GpuSpec::a100();
    let grid: Vec<(&System, Setting, ModelKind)> = cases
        .iter()
        .flat_map(|&(sys, setting, models)| models.iter().map(move |&m| (sys, setting, m)))
        .collect();
    let runs = par_map(&grid, |&(system, (quotas, load, seed), m)| {
        let ws = pair_workload(
            cache::model(m, Phase::Inference),
            cache::model(m, Phase::Inference),
            quotas,
            load,
            requests,
            SimTime::from_secs(20),
            seed,
        );
        let r = run_system(system, &ws, &spec, SimTime::from_secs(300), None);
        (r.mean_ms(), r.deviation().as_millis_f64())
    });
    let mut start = 0;
    cases
        .iter()
        .map(|&(_, _, models)| {
            let case = &runs[start..start + models.len()];
            start += models.len();
            (
                mean(case.iter().map(|r| r.0)),
                mean(case.iter().map(|r| r.1)),
            )
        })
        .collect()
}

/// Regenerates Fig. 20.
pub fn run() -> Vec<Table> {
    let variants = [
        System::Bless(BlessParams::default()),
        System::Bless(BlessParams {
            disable_multitask: true,
            ..BlessParams::default()
        }),
        System::Bless(BlessParams {
            disable_multitask: true,
            disable_determiner: true,
            ..BlessParams::default()
        }),
    ];
    let mut cases: Vec<(&System, Setting, &[ModelKind])> =
        variants.iter().map(|v| (v, EVEN, &MODELS[..])).collect();
    cases.extend(variants.iter().map(|v| (v, UNEVEN, &UNEVEN_MODELS[..])));
    let results = ablate(&cases, 10);
    let (even, uneven) = results.split_at(variants.len());
    let [full, no_mt, no_det] = [even[0].0, even[1].0, even[2].0];
    let [dev_full, dev_no_mt, dev_no_det] = [uneven[0].1, uneven[1].1, uneven[2].1];

    let mut t = Table::new(
        "Fig. 20: ablation (5 symmetric pairs, workload B, even quotas)",
        &["variant", "avg latency ms", "vs full %"],
    );
    t.row(&[
        "BLESS (full)".to_string(),
        format!("{full:.2}"),
        "-".to_string(),
    ]);
    t.row(&[
        "w/o multi-task scheduler".to_string(),
        format!("{no_mt:.2}"),
        format!("{:+.1}", (no_mt / full - 1.0) * 100.0),
    ]);
    t.row(&[
        "w/o scheduler + determiner".to_string(),
        format!("{no_det:.2}"),
        format!("{:+.1}", (no_det / full - 1.0) * 100.0),
    ]);
    t.note("paper: +16.5% without the multi-task scheduler, +7.6% more without the determiner");
    t.note("in our substrate the even-quota latency effect is small; the components carry the quota guarantee (below)");

    // The components' load-bearing role in this reproduction: the quota
    // guarantee under uneven quotas.
    let mut t2 = Table::new(
        "Fig. 20 (cont.): quota-guarantee ablation, uneven (2/3, 1/3) quotas, high load",
        &["variant", "avg deviation ms"],
    );
    t2.row(&["BLESS (full)".to_string(), format!("{dev_full:.2}")]);
    t2.row(&[
        "w/o multi-task scheduler".to_string(),
        format!("{dev_no_mt:.2}"),
    ]);
    t2.row(&[
        "w/o scheduler + determiner".to_string(),
        format!("{dev_no_det:.2}"),
    ]);
    t2.note("round-robin selection ignores quotas: the 2/3 tenant misses its target");
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multitask_scheduler_carries_the_quota_guarantee() {
        let full = variant_deviation(BlessParams::default(), 8);
        let no_mt = variant_deviation(
            BlessParams {
                disable_multitask: true,
                ..BlessParams::default()
            },
            8,
        );
        assert!(
            no_mt > full + 0.5,
            "without progress-based selection the 2/3 tenant must miss its              target: full {full:.2} ms vs ablated {no_mt:.2} ms"
        );
    }
}
