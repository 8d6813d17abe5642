//! Cross-system integration: the paper's headline orderings hold on a
//! shared workload, and every system conserves requests.

use dnn_models::{ModelKind, Phase};
use gpu_sim::{GpuSpec, RunOutcome};
use harness::cache;
use harness::runner::{run_validated, System};
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload};

fn workload(seed: u64) -> workloads::WorkloadSet {
    pair_workload(
        cache::model(ModelKind::Vgg11, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (1.0 / 3.0, 2.0 / 3.0),
        PaperWorkload::LowLoad,
        12,
        SimTime::from_secs(10),
        seed,
    )
}

#[test]
fn every_system_conserves_requests() {
    let spec = GpuSpec::a100();
    let mut systems = vec![System::Iso, System::Zico, System::Tally];
    systems.extend(System::inference_set());
    for sys in systems {
        let r = run_validated(&sys, &workload(1), &spec, SimTime::from_secs(300), None);
        assert_eq!(r.outcome, RunOutcome::Completed, "{}", sys.name());
        for app in 0..2 {
            assert_eq!(r.log.completed_count(app), 12, "{} app {app}", sys.name());
        }
        assert!(
            r.utilization > 0.0 && r.utilization <= 1.0,
            "{}",
            sys.name()
        );
    }
}

#[test]
fn figure_4b_ordering() {
    // BLESS < UNBOUND-ish < REEF+ < GSLICE ~ ISO < MIG, TEMPORAL worst-ish:
    // we assert the paper's load-bearing relations rather than the full
    // chain (absolute positions shift with the simulator's calibration).
    let spec = GpuSpec::a100();
    let horizon = SimTime::from_secs(300);
    let get = |sys: &System| run_validated(sys, &workload(2), &spec, horizon, None).mean_ms();

    let bless = get(&System::Bless(bless::BlessParams::default()));
    let gslice = get(&System::Gslice);
    let temporal = get(&System::Temporal);
    let mig = get(&System::Mig);
    let reef = get(&System::ReefPlus);
    let iso = get(&System::Iso);

    assert!(bless < gslice, "BLESS {bless:.2} vs GSLICE {gslice:.2}");
    assert!(
        bless < temporal,
        "BLESS {bless:.2} vs TEMPORAL {temporal:.2}"
    );
    assert!(bless < mig, "BLESS {bless:.2} vs MIG {mig:.2}");
    // REEF+ rides batch-blocking time separation at low load in our
    // substrate and can land slightly ahead on raw latency (the paper
    // measures it 27% behind); it loses decisively on quota deviation
    // (see `deviation_ordering_under_uneven_quotas`) and at higher loads.
    assert!(bless < reef * 1.25, "BLESS {bless:.2} vs REEF+ {reef:.2}");
    assert!(
        bless < iso,
        "bubble squeezing beats the ISO targets: {bless:.2} vs {iso:.2}"
    );
    // MIG rounds 1/3 down to 2 GPCs: strictly worse than GSLICE's exact cap.
    assert!(mig > gslice, "MIG {mig:.2} vs GSLICE {gslice:.2}");
}

#[test]
fn deviation_ordering_under_uneven_quotas() {
    let spec = GpuSpec::a100();
    let horizon = SimTime::from_secs(300);
    let dev = |sys: &System| {
        run_validated(sys, &workload(3), &spec, horizon, None)
            .deviation()
            .as_millis_f64()
    };
    let bless = dev(&System::Bless(bless::BlessParams::default()));
    let temporal = dev(&System::Temporal);
    let reef = dev(&System::ReefPlus);
    assert!(bless < 1.0, "BLESS deviation {bless:.2} ms");
    assert!(temporal > bless, "TEMPORAL {temporal:.2} deviates more");
    assert!(reef > bless, "REEF+ {reef:.2} cannot honor uneven quotas");
}

#[test]
fn iso_matches_profiled_targets() {
    let spec = GpuSpec::a100();
    let r = run_validated(
        &System::Iso,
        &workload(4),
        &spec,
        SimTime::from_secs(300),
        None,
    );
    for app in 0..2 {
        let mean = r.log.stats(app).mean.unwrap().as_nanos() as f64;
        let target = r.iso_targets[app].as_nanos() as f64;
        assert!(
            (mean - target).abs() / target < 0.1,
            "ISO run must reproduce the profiled isolated latency"
        );
    }
}

#[test]
fn bless_vs_gslice_is_seed_robust() {
    // The headline win must not be a seed artifact.
    let spec = GpuSpec::a100();
    let horizon = SimTime::from_secs(300);
    let mut wins = 0;
    for seed in 10..15 {
        let b = run_validated(
            &System::Bless(bless::BlessParams::default()),
            &workload(seed),
            &spec,
            horizon,
            None,
        )
        .mean_ms();
        let g = run_validated(&System::Gslice, &workload(seed), &spec, horizon, None).mean_ms();
        if b < g {
            wins += 1;
        }
    }
    assert_eq!(wins, 5, "BLESS must beat GSLICE on every seed");
}

/// The Azure-like burst mix: sparse arrivals with bursts, the shape where
/// priority isolation matters most (and where temporal slicing makes the
/// priority tenant wait out whole slices).
fn burst_workload(seed: u64) -> workloads::WorkloadSet {
    pair_workload(
        cache::model(ModelKind::Vgg11, Phase::Inference),
        cache::model(ModelKind::ResNet50, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::TraceAzure,
        0,
        SimTime::from_secs(2),
        seed,
    )
}

#[test]
fn tally_priority_tail_beats_temporal_on_bursts() {
    // Tally's contract: the priority tenant (app 0) never waits on
    // best-effort work beyond the throttled slice, so its tail latency is
    // no worse than under round-robin temporal slicing. `run_validated`
    // also machine-checks both traces against the scheduler invariants.
    let spec = GpuSpec::a100();
    let horizon = SimTime::from_secs(300);
    let tally = run_validated(&System::Tally, &burst_workload(7), &spec, horizon, None);
    let temporal = run_validated(&System::Temporal, &burst_workload(7), &spec, horizon, None);
    assert_eq!(tally.outcome, RunOutcome::Completed);
    let p99 = |r: &harness::runner::RunResult| r.log.stats(0).p99.expect("priority app ran");
    assert!(
        p99(&tally) <= p99(&temporal),
        "priority p99 {:?} vs temporal {:?}",
        p99(&tally),
        p99(&temporal)
    );
}

#[test]
fn tally_loses_no_best_effort_request() {
    // Throttling is not starvation: every best-effort request arriving
    // during priority bursts still completes.
    let spec = GpuSpec::a100();
    for seed in [8, 9] {
        let ws = burst_workload(seed);
        let arrived: Vec<usize> = (0..2)
            .map(|app| {
                ws.initial_arrivals()
                    .iter()
                    .filter(|a| a.app == app)
                    .count()
            })
            .collect();
        let r = run_validated(&System::Tally, &ws, &spec, SimTime::from_secs(300), None);
        assert_eq!(r.outcome, RunOutcome::Completed, "seed {seed}");
        for (app, &initial) in arrived.iter().enumerate() {
            assert!(
                r.log.completed_count(app) >= initial,
                "seed {seed} app {app}: {} completed of {initial} initial arrivals",
                r.log.completed_count(app),
            );
        }
    }
}

#[test]
fn graph_mode_preserves_results() {
    // §6.10: scheduling at CUDA-graph granularity must serve the same
    // workload correctly with comparable latency.
    let spec = GpuSpec::a100();
    let horizon = SimTime::from_secs(300);
    let kernel_mode = run_validated(
        &System::Bless(bless::BlessParams::default()),
        &workload(6),
        &spec,
        horizon,
        None,
    );
    let graph_mode = run_validated(
        &System::Bless(bless::BlessParams {
            graph_granularity: 8,
            ..bless::BlessParams::default()
        }),
        &workload(6),
        &spec,
        horizon,
        None,
    );
    assert_eq!(graph_mode.outcome, RunOutcome::Completed);
    for app in 0..2 {
        assert_eq!(graph_mode.log.completed_count(app), 12);
    }
    assert!(
        graph_mode.mean_ms() < kernel_mode.mean_ms() * 1.15,
        "graphs {:.2} vs kernels {:.2}",
        graph_mode.mean_ms(),
        kernel_mode.mean_ms()
    );
}
