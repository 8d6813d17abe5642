//! Fig. 14: average latency deviation of 9 pair-wise deployments under the
//! seven uneven quota assignments.
//!
//! Paper: average deviations TEMPORAL 14.3 ms, GSLICE 2.1 ms, BLESS
//! 0.6 ms; MIG cannot express the quota configurations at all; UNBOUND and
//! REEF+ deviate heavily under uneven quotas because they cannot
//! apportion resources.

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload, TWO_MODEL_QUOTAS};

use super::{mean, product};
use crate::cache;
use crate::par::par_map;
use crate::runner::{run_system, System};

/// The nine pairs: five symmetric (m, m) plus R50 × the four others.
pub fn pairs() -> Vec<(ModelKind, ModelKind)> {
    let mut v: Vec<(ModelKind, ModelKind)> = [
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        ModelKind::NasNet,
        ModelKind::Bert,
    ]
    .iter()
    .map(|&m| (m, m))
    .collect();
    for m in [
        ModelKind::Vgg11,
        ModelKind::ResNet101,
        ModelKind::NasNet,
        ModelKind::Bert,
    ] {
        v.push((ModelKind::ResNet50, m));
    }
    v
}

/// Mean latency deviation (ms) of `system` over the given pairs × the
/// seven quota assignments, under medium load.
#[cfg(test)]
fn mean_deviation(system: &System, pairs: &[(ModelKind, ModelKind)], requests: usize) -> f64 {
    mean(deviations(std::slice::from_ref(system), pairs, requests).into_iter())
}

/// Latency deviation (ms) of every system × pair × quota assignment, in
/// that order, each run on its own seeded workload.
fn deviations(systems: &[System], pairs: &[(ModelKind, ModelKind)], requests: usize) -> Vec<f64> {
    let spec = GpuSpec::a100();
    let system_pairs = product(systems, pairs);
    let grid = product(&system_pairs, &TWO_MODEL_QUOTAS);
    par_map(&grid, |&(&(system, &(a, b)), &quotas)| {
        let ws = pair_workload(
            cache::model(a, Phase::Inference),
            cache::model(b, Phase::Inference),
            quotas,
            PaperWorkload::MediumLoad,
            requests,
            SimTime::from_secs(10),
            23,
        );
        let r = run_system(system, &ws, &spec, SimTime::from_secs(120), None);
        r.deviation().as_millis_f64()
    })
}

/// Regenerates Fig. 14.
pub fn run() -> Vec<Table> {
    let all_pairs = pairs();
    let mut t = Table::new(
        "Fig. 14: mean latency deviation over 9 pairs x 7 uneven quota configs",
        &["system", "avg deviation ms", "paper ms"],
    );
    let (systems, papers): (Vec<System>, Vec<&str>) = [
        (System::Temporal, "14.3"),
        (System::Gslice, "2.1"),
        (System::Unbound, "large"),
        (System::ReefPlus, "large"),
        (System::Bless(bless::BlessParams::default()), "0.6"),
    ]
    .into_iter()
    .unzip();
    let devs = deviations(&systems, &all_pairs, 10);
    let per_system = all_pairs.len() * TWO_MODEL_QUOTAS.len();
    for ((sys, paper), devs) in systems.iter().zip(papers).zip(devs.chunks(per_system)) {
        t.row(&[
            sys.name().to_string(),
            format!("{:.2}", mean(devs.iter().copied())),
            paper.to_string(),
        ]);
    }
    t.note("MIG omitted: its GPC slices cannot express the 7 quota configurations (paper)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bless::BlessParams;

    #[test]
    fn bless_deviation_is_smallest() {
        // One representative pair keeps the test quick; the ordering must
        // match the paper: BLESS < GSLICE < TEMPORAL.
        let pair = [(ModelKind::ResNet50, ModelKind::Vgg11)];
        let bless = mean_deviation(&System::Bless(BlessParams::default()), &pair, 6);
        let gslice = mean_deviation(&System::Gslice, &pair, 6);
        let temporal = mean_deviation(&System::Temporal, &pair, 6);
        assert!(
            bless <= gslice + 0.05,
            "BLESS {bless:.2} vs GSLICE {gslice:.2}"
        );
        assert!(
            gslice < temporal,
            "GSLICE {gslice:.2} vs TEMPORAL {temporal:.2}"
        );
        assert!(
            bless < 1.0,
            "BLESS deviation should be sub-millisecond: {bless:.2}"
        );
    }
}
