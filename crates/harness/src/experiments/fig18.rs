//! Fig. 18: fine-grained analysis.
//!
//! (a) Two ResNet-50 requests (quotas 70% / 30%) arriving simultaneously:
//! the multi-task scheduler selects more kernels from the 70% request per
//! squad, and the configuration determiner spatially isolates squads
//! (the paper observes a 78 SMs / 30 SMs split in one squad).
//!
//! (b) BLESS on top of ZICO's workload: the squad-level SP policy removes
//! the bubbles that unbounded tick-tock sharing leaves, reducing the
//! training iteration latency by ~8.5%.

use bless::{BlessDriver, BlessParams, DeployedApp};
use dnn_models::{ModelKind, Phase};
use gpu_sim::{BufferSink, Gpu, GpuSpec, HostCosts, RequestArrival, Simulation};
use metrics::Table;
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

use crate::runner::{run_system, System};
use crate::{cache, gantt, tracectl};

/// Runs the 70/30 two-R50 scenario once with a trace sink installed and
/// returns the BLESS driver (with squad records) plus an ASCII Gantt of
/// the SM occupancy built from the trace.
pub fn squad_trace() -> (BlessDriver, String) {
    let spec = GpuSpec::a100();
    let apps = [0.7, 0.3]
        .map(|quota| {
            DeployedApp::new(
                cache::profile(ModelKind::ResNet50, Phase::Inference, &spec),
                quota,
                None,
            )
        })
        .to_vec();
    let mut driver = BlessDriver::new(apps, BlessParams::default());
    driver.record_squads = true;
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    let trace = BufferSink::new();
    gpu.set_trace_sink(Box::new(trace.clone()));
    let arrivals = (0..2)
        .map(|app| RequestArrival {
            app,
            req: 0,
            at: SimTime::ZERO,
        })
        .collect();
    let mut sim = Simulation::new(gpu, driver, arrivals);
    sim.run(SimTime::from_secs(10));
    let events = trace.take();
    if tracectl::enabled() {
        tracectl::export_and_validate("custom", spec.num_sms, None, &events);
    }
    let chart = gantt::render(
        &events,
        &[(0, "req1 (70%)"), (1, "req2 (30%)")],
        spec.num_sms,
        SimTime::ZERO,
        sim.gpu.now(),
        72,
    );
    (sim.driver, chart)
}

/// Regenerates Fig. 18.
pub fn run() -> Vec<Table> {
    let mut out = Vec::new();

    // (a) squad-by-squad trace.
    let (driver, chart) = squad_trace();
    let mut t = Table::new(
        "Fig. 18(a): two R50 requests (70%/30%), squad-by-squad",
        &[
            "squad",
            "start ms",
            "duration ms",
            "req1 kernels",
            "req2 kernels",
            "SP caps",
        ],
    );
    for (i, s) in driver.squad_log.iter().enumerate() {
        let count = |app: usize| {
            s.per_app_kernels
                .iter()
                .find(|&&(a, _)| a == app)
                .map_or(0, |&(_, n)| n)
        };
        let caps = if s.sm_caps.is_empty() {
            "NSP".to_string()
        } else {
            s.sm_caps
                .iter()
                .map(|&(a, c)| format!("app{a}:{c}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        t.row(&[
            i.to_string(),
            format!("{:.3}", s.launched_at.as_millis_f64()),
            format!(
                "{:.3}",
                s.finished_at.duration_since(s.launched_at).as_millis_f64()
            ),
            count(0).to_string(),
            count(1).to_string(),
            caps,
        ]);
    }
    let l0 = driver
        .log
        .stats(0)
        .mean
        .map_or(f64::NAN, |d| d.as_millis_f64());
    let l1 = driver
        .log
        .stats(1)
        .mean
        .map_or(f64::NAN, |d| d.as_millis_f64());
    t.note(format!(
        "request latencies: req1 (70%) {l0:.2} ms, req2 (30%) {l1:.2} ms"
    ));
    t.note("paper: the scheduler selects more kernels from request 1; one squad runs 78/30 SMs");
    t.note(format!(
        "SM occupancy (one row per request):
{chart}"
    ));
    out.push(t);

    // (b) ZICO vs BLESS on a training pair.
    let spec = GpuSpec::a100();
    // Training iterations run back-to-back (continuous epochs).
    let ws = pair_workload(
        cache::model(ModelKind::ResNet50, Phase::Training),
        cache::model(ModelKind::ResNet50, Phase::Training),
        (0.5, 0.5),
        PaperWorkload::BiasedDense,
        5,
        SimTime::from_secs(20),
        73,
    );
    let zico = run_system(&System::Zico, &ws, &spec, SimTime::from_secs(120), None);
    let bless = run_system(
        &System::Bless(BlessParams::default()),
        &ws,
        &spec,
        SimTime::from_secs(120),
        None,
    );
    let mut t = Table::new(
        "Fig. 18(b): training iteration latency, ZICO vs BLESS",
        &["system", "iteration latency ms"],
    );
    t.row(&["ZICO".to_string(), format!("{:.2}", zico.mean_ms())]);
    t.row(&["BLESS".to_string(), format!("{:.2}", bless.mean_ms())]);
    t.note(format!(
        "reduction: {:.1}% (paper: 8.5%)",
        (1.0 - bless.mean_ms() / zico.mean_ms()) * 100.0
    ));
    out.push(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_quota_request_dominates_early_squads() {
        let (driver, _) = squad_trace();
        assert!(driver.squads_launched >= 2);
        // Over the whole run, request 1 (70%) must receive more kernels in
        // the squads where both requests are live.
        let mut req1 = 0usize;
        let mut req2 = 0usize;
        for s in &driver.squad_log {
            let both = s.per_app_kernels.len() == 2;
            if both {
                for &(a, n) in &s.per_app_kernels {
                    if a == 0 {
                        req1 += n;
                    } else {
                        req2 += n;
                    }
                }
            }
        }
        assert!(req1 > req2, "req1 {req1} vs req2 {req2}");
        // And the 70% request finishes earlier.
        let c0 = driver.log.records(0)[0].completion.unwrap();
        let c1 = driver.log.records(1)[0].completion.unwrap();
        assert!(c0 < c1, "{c0:?} vs {c1:?}");
    }

    #[test]
    fn bless_improves_on_zico() {
        let spec = GpuSpec::a100();
        let ws = pair_workload(
            cache::model(ModelKind::Vgg11, Phase::Training),
            cache::model(ModelKind::Vgg11, Phase::Training),
            (0.5, 0.5),
            PaperWorkload::BiasedDense,
            4,
            SimTime::from_secs(20),
            73,
        );
        let zico = run_system(&System::Zico, &ws, &spec, SimTime::from_secs(120), None);
        let bless = run_system(
            &System::Bless(BlessParams::default()),
            &ws,
            &spec,
            SimTime::from_secs(120),
            None,
        );
        assert!(
            bless.mean_ms() < zico.mean_ms(),
            "BLESS {:.2} vs ZICO {:.2}",
            bless.mean_ms(),
            zico.mean_ms()
        );
    }
}
