//! §6.5: guaranteeing SLOs.
//!
//! BLESS guarantees QoS targets by replacing the isolated latency in the
//! progress model with the target (§4.3.1). Two settings are evaluated:
//! tight targets (1.2× and 2× the *solo-run* latency) under medium load,
//! and loose targets (1.5× and 3×) under high load. Targets are relative
//! to the solo latency: that is what makes them binding — a 1.2× solo
//! target is *below* the 50%-quota isolated latency, so a static
//! partition (GSLICE) can never meet it and uncontrolled sharing
//! (UNBOUND) misses it whenever requests collide.
//!
//! Paper: UNBOUND violates 38.8% and GSLICE 50.1% of requests on average;
//! BLESS violates only 0.6%.

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::{SimDuration, SimTime};
use workloads::{pair_workload, PaperWorkload};

use super::product;
use crate::cache;
use crate::par::par_map;
use crate::runner::{deployment, run_system, System};

const MODELS: [ModelKind; 5] = [
    ModelKind::Vgg11,
    ModelKind::ResNet50,
    ModelKind::ResNet101,
    ModelKind::NasNet,
    ModelKind::Bert,
];

/// Runs one SLO setting over symmetric pairs; returns (system, violation
/// rate) rows.
pub fn setting(
    factors: (f64, f64),
    load: PaperWorkload,
    models: &[ModelKind],
    requests: usize,
) -> Vec<(String, f64)> {
    let spec = GpuSpec::a100();
    let systems = [
        System::Unbound,
        System::Gslice,
        System::Bless(bless::BlessParams::default()),
    ];
    let rates = par_map(&product(&systems, models), |&(sys, &m)| {
        let ws = pair_workload(
            cache::model(m, Phase::Inference),
            cache::model(m, Phase::Inference),
            (0.5, 0.5),
            load,
            requests,
            SimTime::from_secs(10),
            61,
        );
        // QoS targets are multiples of the *solo* (full-GPU) latency —
        // tighter than the quota partition can deliver.
        let apps = deployment(&ws, &spec, None);
        let solo = apps[0].profile.iso_latency[profiler::PARTITIONS - 1];
        let targets: Vec<SimDuration> = vec![solo.mul_f64(factors.0), solo.mul_f64(factors.1)];
        let r = run_system(sys, &ws, &spec, SimTime::from_secs(120), Some(&targets));
        targets
            .iter()
            .enumerate()
            .map(|(app, target)| r.log.violation_rate(app, *target))
            .collect::<Vec<f64>>()
    });
    systems
        .iter()
        .zip(rates.chunks(models.len()))
        .map(|(sys, runs)| {
            let mut violations = 0.0;
            let mut n = 0.0;
            for rate in runs.iter().flatten() {
                violations += rate;
                n += 1.0;
            }
            (sys.name().to_string(), violations / n)
        })
        .collect()
}

/// Regenerates the §6.5 results.
pub fn run() -> Vec<Table> {
    let mut out = Vec::new();
    for (label, factors, load) in [
        (
            "(a) tight QoS (1.2x, 2.0x solo), medium load",
            (1.2, 2.0),
            PaperWorkload::MediumLoad,
        ),
        (
            "(b) loose QoS (1.5x, 3.0x solo), high load",
            (1.5, 3.0),
            PaperWorkload::HighLoad,
        ),
    ] {
        let mut t = Table::new(format!("§6.5 {label}"), &["system", "QoS violation %"]);
        for (name, v) in setting(factors, load, &MODELS, 10) {
            t.row(&[name, format!("{:.1}", v * 100.0)]);
        }
        t.note("paper averages over both settings: UNBOUND 38.8%, GSLICE 50.1%, BLESS 0.6%");
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_meets_slos_where_baselines_fail() {
        // Loose targets (1.5x, 3x solo) under high load: the baselines
        // violate heavily, BLESS essentially never (paper: 38.8% / 50.1%
        // vs 0.6%).
        let rows = setting(
            (1.5, 3.0),
            PaperWorkload::HighLoad,
            &[ModelKind::ResNet50, ModelKind::Vgg11],
            8,
        );
        let get = |n: &str| rows.iter().find(|(name, _)| name == n).unwrap().1;
        let bless = get("BLESS");
        assert!(bless < 0.05, "BLESS violation rate {:.3}", bless);
        assert!(get("GSLICE") > 0.2, "GSLICE must violate: {rows:?}");
        assert!(get("UNBOUND") > 0.1, "UNBOUND must violate: {rows:?}");
    }

    #[test]
    fn tight_targets_keep_bless_ahead() {
        // Tight targets (1.2x solo) sit below what static partitioning can
        // ever deliver; BLESS still violates least.
        let rows = setting(
            (1.2, 2.0),
            PaperWorkload::MediumLoad,
            &[ModelKind::ResNet50],
            8,
        );
        let get = |n: &str| rows.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(
            get("BLESS") <= get("GSLICE"),
            "BLESS must violate no more than GSLICE: {rows:?}"
        );
    }
}
