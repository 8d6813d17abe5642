//! §6.10 extension: CUDA-graph scheduling granularity.
//!
//! The paper notes that applications built with CUDA/HIP graphs launch
//! sequences of kernels with a single API call, and that BLESS "can be
//! adapted by switching the scheduling granularity from kernels to
//! graphs". This experiment sweeps the graph size for a BERT-inference
//! pair — the workload with the shortest kernels (33 µs mean), where the
//! §6.9 per-kernel scheduling cost (6.7 µs) and launch overhead (3 µs)
//! bite hardest — and reports the latency and the scheduling-cost
//! amortization.

use bless::BlessParams;
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

use crate::cache;
use crate::runner::{run_system, System};

/// Mean latency (ms) of a symmetric BERT pair at the given graph size.
fn bert_pair_at(granularity: usize, requests: usize) -> f64 {
    let spec = GpuSpec::a100();
    let ws = pair_workload(
        cache::model(ModelKind::Bert, Phase::Inference),
        cache::model(ModelKind::Bert, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::MediumLoad,
        requests,
        SimTime::from_secs(10),
        121,
    );
    let params = BlessParams {
        graph_granularity: granularity,
        ..BlessParams::default()
    };
    run_system(
        &System::Bless(params),
        &ws,
        &spec,
        SimTime::from_secs(300),
        None,
    )
    .mean_ms()
}

/// Regenerates the graph-granularity sweep.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "§6.10 extension: CUDA-graph scheduling granularity (BERT pair, workload B)",
        &[
            "graph size (kernels)",
            "avg latency ms",
            "host cost per kernel",
        ],
    );
    for g in [1usize, 2, 4, 8, 16] {
        let ms = bert_pair_at(g, 10);
        // Scheduling (6.7 µs) amortizes per graph; launching (3 µs) too.
        let per_kernel = (6.7 + 3.0) / g as f64;
        t.row(&[
            g.to_string(),
            format!("{ms:.2}"),
            format!("{per_kernel:.2} us"),
        ]);
    }
    t.note("graphs amortize the 6.7 us/kernel scheduling and 3 us/kernel launch costs (§6.9)");
    t.note("larger graphs coarsen the squad's control granularity, like larger squads in Fig. 19a");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_do_not_hurt_short_kernel_workloads() {
        // BERT kernels average 33 µs; amortizing ~10 µs of per-kernel host
        // cost across 8-kernel graphs must not slow the pair down.
        let single = bert_pair_at(1, 6);
        let graphs = bert_pair_at(8, 6);
        assert!(
            graphs <= single * 1.05,
            "graph mode {graphs:.2} ms vs kernel mode {single:.2} ms"
        );
    }

    #[test]
    fn extreme_granularity_still_completes() {
        let ms = bert_pair_at(64, 3);
        assert!(ms.is_finite() && ms > 0.0);
    }
}
