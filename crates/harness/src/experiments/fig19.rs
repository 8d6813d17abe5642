//! Fig. 19: hyper-parameter studies.
//!
//! (a) kernel-squad granularity: larger squads amortize switching (average
//!     latency drops from 24.2 to 20.6 ms in the paper) but sacrifice the
//!     flexibility to support large quotas (8/9 achievable at 20
//!     kernels/squad, only ≤3/4 at 100).
//! (b) split ratio: the semi-SP optimum sits at c% = 50%.
//! (c) SM count: with fewer SMs applications saturate the GPU and BLESS's
//!     reduction over GSLICE grows (54.4% at the smallest instance,
//!     40.2% at the largest in the paper).

use bless::{determine_config, BlessParams, DeployedApp, ExecConfig};
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

use crate::cache;
use crate::runner::{run_system, System};
use crate::squadlab::{run_squad, slice_squad, SquadScheme};

/// Mean latency (ms) and 8/9-quota deviation (ms) for one squad size.
fn squad_size_point(max_kernels: usize, requests: usize) -> (f64, f64) {
    let spec = GpuSpec::a100();
    let params = BlessParams {
        max_kernels_per_squad: max_kernels,
        ..BlessParams::default()
    };
    // Average latency: symmetric R50 pair under high load.
    let ws = pair_workload(
        cache::model(ModelKind::ResNet50, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::HighLoad,
        requests,
        SimTime::from_secs(10),
        91,
    );
    let r = run_system(
        &System::Bless(params.clone()),
        &ws,
        &spec,
        SimTime::from_secs(120),
        None,
    );
    let mean = r.mean_ms();

    // Quota flexibility: can an 8/9-quota app still hit its ISO target
    // while a 1/9 app hammers the GPU?
    let ws = pair_workload(
        cache::model(ModelKind::ResNet50, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (8.0 / 9.0, 1.0 / 9.0),
        PaperWorkload::HighLoad,
        requests,
        SimTime::from_secs(10),
        92,
    );
    let r = run_system(
        &System::Bless(params),
        &ws,
        &spec,
        SimTime::from_secs(120),
        None,
    );
    let lat = crate::require(r.log.stats(0).mean, "app ran").as_millis_f64();
    let iso = r.iso_targets[0].as_millis_f64();
    (mean, (lat - iso).max(0.0))
}

/// 8/9-quota deviation at one squad size with drain-on-arrival disabled
/// (squads run to completion, as in the paper's original design).
pub fn squad_size_deviation_no_drain(max_kernels: usize, requests: usize) -> f64 {
    let spec = GpuSpec::a100();
    let params = BlessParams {
        max_kernels_per_squad: max_kernels,
        drain_on_arrival: false,
        ..BlessParams::default()
    };
    let ws = pair_workload(
        cache::model(ModelKind::ResNet50, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (8.0 / 9.0, 1.0 / 9.0),
        PaperWorkload::HighLoad,
        requests,
        SimTime::from_secs(10),
        92,
    );
    let r = run_system(
        &System::Bless(params),
        &ws,
        &spec,
        SimTime::from_secs(120),
        None,
    );
    let lat = crate::require(r.log.stats(0).mean, "app ran").as_millis_f64();
    (lat - r.iso_targets[0].as_millis_f64()).max(0.0)
}

/// Regenerates Fig. 19(a).
pub fn run_a() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 19(a): kernel-squad granularity",
        &[
            "max kernels/squad",
            "avg latency ms",
            "8/9-quota deviation ms",
            "same, no drain",
        ],
    );
    for size in [10, 20, 50, 100, 200] {
        let (mean, dev) = squad_size_point(size, 10);
        let dev_nd = squad_size_deviation_no_drain(size, 10);
        t.row(&[
            size.to_string(),
            format!("{mean:.2}"),
            format!("{dev:.2}"),
            format!("{dev_nd:.2}"),
        ]);
    }
    t.note("paper: latency 24.2 -> 20.6 ms as squads grow; 8/9 quota feasible at 20, not at 100");
    t.note(
        "without drain-on-arrival, large squads block the big-quota tenant (the paper's tradeoff)",
    );
    vec![t]
}

/// Normalized squad duration at each split ratio, averaged over the
/// Fig. 17 pairs.
fn split_ratio_curve(ratios: &[f64], kernels_each: usize) -> Vec<f64> {
    let spec = GpuSpec::a100();
    let pairs = [
        (ModelKind::NasNet, ModelKind::Bert),
        (ModelKind::Bert, ModelKind::ResNet50),
        (ModelKind::NasNet, ModelKind::ResNet50),
    ];
    let mut sums = vec![0.0; ratios.len()];
    for (a, b) in pairs {
        let apps = vec![
            DeployedApp::new(cache::profile(a, Phase::Inference, &spec), 0.5, None),
            DeployedApp::new(cache::profile(b, Phase::Inference, &spec), 0.5, None),
        ];
        let squad = slice_squad(&apps, &[1, 1], &[kernels_each, kernels_each]);
        let choice = determine_config(&squad, &apps, spec.num_sms, &spec.channel_model);
        let cfg = match &choice.config {
            c @ ExecConfig::Sp { .. } => c.clone(),
            ExecConfig::Nsp => ExecConfig::Sp {
                partitions: vec![9, 9],
            },
        };
        let base = run_squad(&squad, &apps, &spec, SquadScheme::Nsp, &cfg).as_nanos() as f64;
        for (i, &c) in ratios.iter().enumerate() {
            let d = run_squad(&squad, &apps, &spec, SquadScheme::SemiSp(c), &cfg);
            sums[i] += d.as_nanos() as f64 / base;
        }
    }
    sums.iter().map(|s| s / pairs.len() as f64).collect()
}

/// Regenerates Fig. 19(b).
pub fn run_b() -> Vec<Table> {
    let ratios = [0.0, 0.25, 0.5, 0.75, 1.0];
    let curve = split_ratio_curve(&ratios, 40);
    let mut t = Table::new(
        "Fig. 19(b): split ratio c% vs normalized squad duration",
        &["c%", "duration (normalized to NSP)"],
    );
    for (&c, &d) in ratios.iter().zip(&curve) {
        t.row(&[format!("{:.0}", c * 100.0), format!("{d:.3}")]);
    }
    t.note("paper: the optimum sits at c% = 50%");
    vec![t]
}

/// BLESS-vs-GSLICE latency reduction for a symmetric R50 pair at low load
/// on a GPU with `num_sms` SMs. The closed-loop think time is the solo
/// latency *on that GPU instance* (a smaller instance serves requests more
/// slowly, so its clients naturally issue more slowly too).
fn sm_count_point(num_sms: u32, requests: usize) -> f64 {
    let spec = GpuSpec::a100_with_sms(num_sms);
    let solo = cache::profile(ModelKind::ResNet50, Phase::Inference, &spec).iso_latency
        [profiler::PARTITIONS - 1];
    let pattern = workloads::ArrivalPattern::ClosedLoop {
        think: solo,
        count: requests,
    };
    let mk = |q| {
        workloads::TenantSpec::new(
            cache::model(ModelKind::ResNet50, Phase::Inference),
            q,
            pattern.clone(),
        )
    };
    let ws = workloads::WorkloadSet::new(vec![mk(0.5), mk(0.5)], 93);
    let g = run_system(&System::Gslice, &ws, &spec, SimTime::from_secs(600), None);
    let b = run_system(
        &System::Bless(BlessParams::default()),
        &ws,
        &spec,
        SimTime::from_secs(600),
        None,
    );
    1.0 - b.mean_ms() / g.mean_ms()
}

/// Regenerates Fig. 19(c).
pub fn run_c() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 19(c): SM count vs BLESS latency reduction over GSLICE",
        &["SMs", "reduction %"],
    );
    for sms in [27, 54, 81, 108] {
        let red = sm_count_point(sms, 8);
        t.row(&[sms.to_string(), format!("{:.1}", red * 100.0)]);
    }
    t.note("paper: reduction falls from 54.4% to 40.2% as SMs grow (MIG-carved instances)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_squads_reduce_latency() {
        // The paper additionally reports that very large squads cannot
        // serve an 8/9 quota precisely; our runtime's drain-on-arrival
        // neutralizes most of that effect (see EXPERIMENTS.md), so only
        // the latency direction is asserted here.
        let (lat_small, _) = squad_size_point(10, 6);
        let (lat_large, dev_large) = squad_size_point(200, 6);
        assert!(
            lat_large < lat_small,
            "large squads amortize switching: {lat_large:.2} vs {lat_small:.2}"
        );
        assert!(
            dev_large < 5.0,
            "quota deviation stays bounded: {dev_large:.2}"
        );
    }

    #[test]
    fn without_drain_large_squads_lose_quota_precision() {
        // The paper's Fig. 19(a) flexibility tradeoff: with squads running
        // to completion, a 200-kernel squad blocks the 8/9-quota tenant
        // far longer than a 20-kernel one.
        let small = squad_size_deviation_no_drain(20, 6);
        let large = squad_size_deviation_no_drain(200, 6);
        assert!(
            large > small,
            "no-drain deviation must grow with squad size: {large:.2} vs {small:.2}"
        );
    }

    #[test]
    fn split_ratio_favors_spatial_restriction() {
        let curve = split_ratio_curve(&[0.0, 0.5, 1.0], 30);
        // The paper's U-shape has its optimum at c=50%; in our substrate
        // the deltas are flatter and keep improving toward strict SP, but
        // the paper's default c=50% must still beat no restriction
        // (see EXPERIMENTS.md).
        assert!(curve[1] < curve[0], "{curve:?}");
        assert!(curve[2] <= curve[1] + 0.10, "{curve:?}");
    }

    #[test]
    fn fewer_sms_mean_bigger_gains() {
        let small = sm_count_point(27, 5);
        let large = sm_count_point(108, 5);
        assert!(
            small > large,
            "reduction at 27 SMs ({small:.3}) must exceed 108 SMs ({large:.3})"
        );
        assert!(large > 0.0, "BLESS still wins at full size: {large:.3}");
    }
}
