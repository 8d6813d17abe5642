//! Property tests on the multi-task scheduler's squad generation.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use bless::{
    determine_config, determine_config_memo_model, generate_squad, ActiveRequest, BlessParams,
    ConfigMemo, DeployedApp, ExecConfig,
};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::{ChannelModel, GpuSpec};
use profiler::ProfiledApp;
use proptest::prelude::*;
use sim_core::SimTime;
use std::sync::OnceLock;

fn deployments() -> &'static Vec<ProfiledApp> {
    static CACHE: OnceLock<Vec<ProfiledApp>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let spec = GpuSpec::a100();
        [ModelKind::Vgg11, ModelKind::ResNet50, ModelKind::Bert]
            .iter()
            .map(|&k| ProfiledApp::profile(&AppModel::build(k, Phase::Inference), &spec))
            .collect()
    })
}

fn apps_for(quotas: &[f64]) -> Vec<DeployedApp> {
    let profiles = deployments();
    quotas
        .iter()
        .enumerate()
        .map(|(i, &q)| DeployedApp::new(profiles[i % profiles.len()].clone(), q, None))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Squads never exceed the size cap, select each app's kernels in
    /// order without duplicates, and never select beyond the trace.
    #[test]
    fn prop_squads_are_well_formed(
        max in 1usize..120,
        starts in proptest::collection::vec(0usize..80, 1..3),
        now_ms in 0u64..50,
    ) {
        let quotas: Vec<f64> = vec![1.0 / starts.len() as f64; starts.len()];
        let apps = apps_for(&quotas);
        let active: Vec<ActiveRequest> = starts
            .iter()
            .enumerate()
            .map(|(i, &s)| ActiveRequest {
                app: i,
                arrival: SimTime::ZERO,
                next_kernel: s.min(apps[i].profile.kernel_count() - 1),
            })
            .collect();
        let params = BlessParams { max_kernels_per_squad: max, ..BlessParams::default() };
        let squad = generate_squad(SimTime::from_millis(now_ms), &active, &apps, &params);

        prop_assert!(squad.len() <= max);
        for e in &squad.entries {
            let total = apps[e.app].profile.kernel_count();
            // Consecutive, starting at the request pointer.
            let start = active.iter().find(|r| r.app == e.app).unwrap().next_kernel;
            for (i, &k) in e.kernels.iter().enumerate() {
                prop_assert_eq!(k, start + i);
                prop_assert!(k < total);
            }
        }
    }

    /// The determiner's SP configurations always use every partition and
    /// give each participant at least one slice; its prediction is never
    /// worse than the best strict split it evaluated.
    #[test]
    fn prop_determiner_configs_are_valid(
        counts in proptest::collection::vec(3usize..25, 2..4),
    ) {
        let quotas: Vec<f64> = vec![1.0 / counts.len() as f64; counts.len()];
        let apps = apps_for(&quotas);
        let active: Vec<ActiveRequest> = counts
            .iter()
            .enumerate()
            .map(|(i, _)| ActiveRequest { app: i, arrival: SimTime::ZERO, next_kernel: 1 })
            .collect();
        let params = BlessParams::default();
        let squad = generate_squad(SimTime::from_millis(5), &active, &apps, &params);
        prop_assume!(squad.entries.len() >= 2);
        let choice = determine_config(&squad, &apps, 108, &ChannelModel::Scalar);
        match &choice.config {
            ExecConfig::Sp { partitions } => {
                prop_assert_eq!(partitions.len(), squad.entries.len());
                prop_assert_eq!(partitions.iter().sum::<u32>(), 18);
                prop_assert!(partitions.iter().all(|&p| p >= 1));
            }
            ExecConfig::Nsp => {}
        }
        prop_assert!(choice.evaluated >= 1);
    }

    /// Memoized determination is indistinguishable from the plain search
    /// — same config, prediction, and `evaluated` count — and a recurring
    /// squad signature is answered from the memo.
    #[test]
    fn prop_memoized_determiner_matches_plain(
        counts in proptest::collection::vec(3usize..25, 2..4),
    ) {
        let quotas: Vec<f64> = vec![1.0 / counts.len() as f64; counts.len()];
        let apps = apps_for(&quotas);
        let active: Vec<ActiveRequest> = counts
            .iter()
            .enumerate()
            .map(|(i, _)| ActiveRequest { app: i, arrival: SimTime::ZERO, next_kernel: 1 })
            .collect();
        let squad = generate_squad(SimTime::from_millis(5), &active, &apps, &BlessParams::default());
        prop_assume!(squad.entries.len() >= 2);
        let plain = determine_config(&squad, &apps, 108, &ChannelModel::Scalar);
        let mut memo = ConfigMemo::new();
        for round in 0..2 {
            let got =
                determine_config_memo_model(&mut memo, &squad, &apps, 108, &ChannelModel::Scalar);
            prop_assert_eq!(&got.config, &plain.config, "round {}", round);
            prop_assert_eq!(got.predicted, plain.predicted);
            prop_assert_eq!(got.evaluated, plain.evaluated);
        }
        prop_assert_eq!(memo.hits, 1);
        prop_assert_eq!(memo.misses, 1);
    }

    /// The profile's prefix table agrees with the naive per-kernel sum on
    /// every partition and every contiguous kernel range — the exactness
    /// guarantee behind the determiner's O(1) stacked-duration lookups.
    #[test]
    fn prop_prefix_range_sums_match_naive_stacking(
        app_idx in 0usize..3,
        partition in 0usize..18,
        start in 0usize..40,
        len in 0usize..40,
    ) {
        let apps = apps_for(&[1.0 / 3.0; 3]);
        let app = &apps[app_idx];
        let total = app.profile.kernel_count();
        let start = start.min(total);
        let end = (start + len).min(total);
        let naive: sim_core::SimDuration = (start..end)
            .map(|k| app.profile.kernel_duration(partition, k))
            .sum();
        prop_assert_eq!(app.stacked_duration(partition, start, end), naive);
        prop_assert_eq!(app.profile.duration_range_sum(partition, start, end), naive);
    }

    /// A lagging request (old arrival, little progress) always receives
    /// at least as many kernels as an identical fresh one — the §4.3.2
    /// compensation property.
    #[test]
    fn prop_lagging_requests_are_compensated(
        wait_ms in 5u64..200,
    ) {
        let apps = apps_for(&[0.5, 0.5]);
        let now = SimTime::from_millis(wait_ms + 1);
        let reqs = [
            ActiveRequest { app: 0, arrival: SimTime::from_millis(wait_ms), next_kernel: 0 },
            ActiveRequest { app: 1, arrival: SimTime::ZERO, next_kernel: 0 },
        ];
        let squad = generate_squad(now, &reqs, &apps, &BlessParams::default());
        let count = |app: usize| {
            squad.entries.iter().find(|e| e.app == app).map_or(0, |e| e.kernels.len())
        };
        // App 1 has waited `wait_ms` longer with zero progress: it must
        // not be starved below its peer.
        prop_assert!(count(1) >= count(0), "{} vs {}", count(1), count(0));
    }
}
