//! Fig. 16: the extremely biased workload (E) — App1 (ResNet-50) holds an
//! 8/9 quota but issues requests at low load, while App2 holds 1/9 and
//! hammers the GPU continuously.
//!
//! Paper: GSLICE extends App1's latency by ~6% (interference), BLESS by
//! ~9% (lazy squad-boundary waits) — and in exchange BLESS gives App2 an
//! average 2.2× throughput improvement over GSLICE.

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;
use sim_core::SimTime;
use workloads::{ArrivalPattern, PaperWorkload, TenantSpec, WorkloadSet};

use crate::cache;
use crate::par::par_map;
use crate::runner::{run_system, System};
use dnn_models::gen::CALIBRATION_PCIE;

/// Builds workload E: R50 at 8/9 low load + `other` at 1/9 dense.
pub fn workload_e(other: ModelKind, requests: usize) -> WorkloadSet {
    let r50 = cache::model(ModelKind::ResNet50, Phase::Inference);
    let app2 = cache::model(other, Phase::Inference);
    let p1 = PaperWorkload::LowLoad.pattern(
        r50.solo_duration(CALIBRATION_PCIE),
        requests,
        SimTime::from_secs(10),
    );
    let p2 = ArrivalPattern::ClosedLoop {
        think: sim_core::SimDuration::ZERO,
        count: requests * 12,
    };
    WorkloadSet::new(
        vec![
            TenantSpec::new(r50, 8.0 / 9.0, p1),
            TenantSpec::new(app2, 1.0 / 9.0, p2),
        ],
        53,
    )
}

/// Runs one App2 choice; returns (system, app1 slowdown vs ISO, app2
/// throughput rps).
pub fn biased_case(other: ModelKind, requests: usize) -> Vec<(String, f64, f64)> {
    let spec = GpuSpec::a100();
    let systems = [System::Gslice, System::Bless(bless::BlessParams::default())];
    par_map(&systems, |sys| {
        let ws = workload_e(other, requests);
        let r = run_system(sys, &ws, &spec, SimTime::from_secs(120), None);
        let lat1 = crate::require(r.log.stats(0).mean, "app1 ran").as_nanos() as f64;
        let iso1 = r.iso_targets[0].as_nanos() as f64;
        let tput2 = r.log.throughput(1, sim_core::SimTime::ZERO, r.makespan);
        (sys.name().to_string(), lat1 / iso1 - 1.0, tput2)
    })
}

/// Regenerates Fig. 16.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 16: workload E — App1 (R50, 8/9, low load) + App2 (1/9, dense)",
        &[
            "app2 model",
            "system",
            "app1 latency vs ISO %",
            "app2 throughput rps",
        ],
    );
    let mut ratio_sum = 0.0;
    let mut ratio_n = 0;
    for other in [
        ModelKind::Vgg11,
        ModelKind::ResNet101,
        ModelKind::NasNet,
        ModelKind::Bert,
    ] {
        let rows = biased_case(other, 10);
        let g_tput = rows[0].2;
        let b_tput = rows[1].2;
        if g_tput > 0.0 {
            ratio_sum += b_tput / g_tput;
            ratio_n += 1;
        }
        for (name, slow, tput) in rows {
            t.row(&[
                other.short_name().to_string(),
                name,
                format!("{:+.1}", slow * 100.0),
                format!("{tput:.1}"),
            ]);
        }
    }
    t.note(format!(
        "mean BLESS/GSLICE throughput ratio for App2: {:.2}x (paper: 2.2x)",
        ratio_sum / ratio_n.max(1) as f64
    ));
    t.note("paper: App1 +6% with GSLICE, +9% with BLESS");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_trades_slight_app1_latency_for_app2_throughput() {
        let rows = biased_case(ModelKind::Vgg11, 8);
        let (g, b) = (&rows[0], &rows[1]);
        // App2 gets much more throughput under BLESS (GSLICE pins it to
        // 1/9 of the GPU; BLESS lets it fill App1's bubbles).
        assert!(
            b.2 > g.2 * 1.3,
            "BLESS app2 throughput {:.1} vs GSLICE {:.1}",
            b.2,
            g.2
        );
        // App1's latency stays within a modest envelope of ISO.
        assert!(
            b.1 < 0.25,
            "App1 slowdown under BLESS: {:+.1}%",
            b.1 * 100.0
        );
    }
}
