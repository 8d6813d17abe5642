//! §6.3 "Performance with real-world traces": 10 mutual pairs replaying
//! the Twitter-like (dense) and Azure-like (sparse, bursty) synthetic
//! traces.
//!
//! Paper: with the Twitter trace at 50/50 quotas BLESS reduces latency by
//! 18.4% / 20.5% / 7.3% vs TEMPORAL / MIG / GSLICE; with the Azure trace
//! by 49.3% / 41.2% / 32.1% — the sparse trace leaves far more bubbles.

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

use super::{mean, product};
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

/// The ten unordered mutual pairs of the five models.
pub fn mutual_pairs() -> Vec<(ModelKind, ModelKind)> {
    let mut v = Vec::new();
    for (i, &a) in MODELS.iter().enumerate() {
        for &b in &MODELS[i + 1..] {
            v.push((a, b));
        }
    }
    v
}

/// One replay setting: the system, the trace and the quota pair.
type Case<'a> = (&'a System, PaperWorkload, (f64, f64));

/// Mean latency (ms) of `system` over the mutual pairs under `trace`.
#[cfg(test)]
fn trace_mean(
    system: &System,
    trace: PaperWorkload,
    quotas: (f64, f64),
    pairs: &[(ModelKind, ModelKind)],
) -> f64 {
    replay_means(&[(system, trace, quotas)], pairs)[0].0
}

/// Mean latency and mean deviation (ms) over `pairs` for each case. Every
/// case × pair replay is independent, so the whole grid runs in one
/// parallel map and is folded per case in pair order.
fn replay_means(cases: &[Case], pairs: &[(ModelKind, ModelKind)]) -> Vec<(f64, f64)> {
    let spec = GpuSpec::a100();
    let grid = product(cases, pairs);
    let runs = par_map(&grid, |&(&(system, trace, quotas), &(a, b))| {
        let ws = pair_workload(
            cache::model(a, Phase::Inference),
            cache::model(b, Phase::Inference),
            quotas,
            trace,
            0,
            SimTime::from_secs(2),
            31,
        );
        let r = run_system(system, &ws, &spec, SimTime::from_secs(60), None);
        (r.mean_ms(), r.deviation().as_millis_f64())
    });
    runs.chunks(pairs.len())
        .map(|case| {
            (
                mean(case.iter().map(|r| r.0)),
                mean(case.iter().map(|r| r.1)),
            )
        })
        .collect()
}

/// Regenerates the §6.3 trace results.
pub fn run() -> Vec<Table> {
    let pairs = mutual_pairs();
    let bless = System::Bless(bless::BlessParams::default());
    let even = [System::Temporal, System::Mig, System::Gslice, bless.clone()];
    let uneven = [System::Gslice, bless];
    let traces = [
        (
            PaperWorkload::TraceTwitter,
            "Twitter-like trace (dense), 50/50 quotas",
            "-18.4% TEMPORAL, -20.5% MIG, -7.3% GSLICE",
        ),
        (
            PaperWorkload::TraceAzure,
            "Azure-like trace (sparse/bursty), 50/50 quotas",
            "-49.3% TEMPORAL, -41.2% MIG, -32.1% GSLICE",
        ),
    ];
    let mut cases: Vec<Case> = traces
        .iter()
        .flat_map(|&(trace, _, _)| even.iter().map(move |s| (s, trace, (0.5, 0.5))))
        .collect();
    cases.extend(
        uneven
            .iter()
            .map(|s| (s, PaperWorkload::TraceTwitter, (1.0 / 3.0, 2.0 / 3.0))),
    );
    let means = replay_means(&cases, &pairs);
    let (even_means, uneven_means) = means.split_at(traces.len() * even.len());

    let mut out = Vec::new();
    for ((_, label, paper), means) in traces.iter().zip(even_means.chunks(even.len())) {
        let mut t = Table::new(
            format!("§6.3: {label}"),
            &["system", "avg latency ms", "BLESS reduction %"],
        );
        let bless = crate::require(means.last(), "BLESS last").0;
        for (sys, (ms, _)) in even.iter().zip(means) {
            let red = if sys.name() == "BLESS" {
                "-".to_string()
            } else {
                format!("{:.1}", (1.0 - bless / ms) * 100.0)
            };
            t.row(&[sys.name().to_string(), format!("{ms:.2}"), red]);
        }
        t.note(format!("paper: {paper}"));
        out.push(t);
    }

    // Uneven quotas with the Twitter-like trace: BLESS vs GSLICE and ISO.
    let mut t = Table::new(
        "§6.3: Twitter-like trace, uneven quotas (1/3, 2/3)",
        &["system", "avg latency ms", "avg deviation ms"],
    );
    for (sys, (ms, dev)) in uneven.iter().zip(uneven_means) {
        t.row(&[
            sys.name().to_string(),
            format!("{ms:.2}"),
            format!("{dev:.2}"),
        ]);
    }
    t.note("paper: -14% latency vs GSLICE and no deviation vs ISO at (1/3, 2/3)");
    out.push(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bless::BlessParams;

    #[test]
    fn azure_gains_exceed_twitter_gains() {
        // The sparse trace has more bubbles, so BLESS's edge over GSLICE
        // must be larger there — the paper's crossover structure.
        let pairs = [(ModelKind::Vgg11, ModelKind::ResNet50)];
        let reduction = |trace| {
            let g = trace_mean(&System::Gslice, trace, (0.5, 0.5), &pairs);
            let b = trace_mean(
                &System::Bless(BlessParams::default()),
                trace,
                (0.5, 0.5),
                &pairs,
            );
            1.0 - b / g
        };
        let twitter = reduction(PaperWorkload::TraceTwitter);
        let azure = reduction(PaperWorkload::TraceAzure);
        assert!(azure > twitter, "azure {azure:.3} vs twitter {twitter:.3}");
        assert!(
            azure > 0.10,
            "sparse-trace gains should be large: {azure:.3}"
        );
    }
}
