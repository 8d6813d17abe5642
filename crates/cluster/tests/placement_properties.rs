//! Property tests on the placement controller.

use cluster::{place, place_with, PlacementPolicy, PlacementRequest};
use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use profiler::{AdmissionPolicy, ProfiledApp, SharedProfile};
use proptest::prelude::*;
use std::sync::OnceLock;

fn profiles() -> &'static Vec<SharedProfile> {
    static CACHE: OnceLock<Vec<SharedProfile>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let spec = GpuSpec::a100();
        [
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            ModelKind::ResNet101,
            ModelKind::Bert,
        ]
        .iter()
        .map(|&k| ProfiledApp::profile_shared(&AppModel::build(k, Phase::Inference), &spec))
        .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A successful placement assigns every request exactly once, never
    /// oversubscribes a GPU's quota, and never exceeds device memory
    /// (including the per-tenant MPS contexts).
    #[test]
    fn prop_placements_are_sound(
        specs in proptest::collection::vec((0usize..4, 1u32..=10), 1..10),
    ) {
        let reqs: Vec<PlacementRequest> = specs
            .iter()
            .map(|&(m, q)| PlacementRequest {
                profile: profiles()[m].clone(),
                quota: q as f64 / 10.0,
            })
            .collect();
        let policy = AdmissionPolicy::default();
        let Ok(p) = place(&reqs, 16, 40 * 1024, &policy) else {
            // Rejections are allowed; soundness is about acceptances.
            return Ok(());
        };
        prop_assert!(p.assignments.iter().all(|&g| g < p.gpus_used));
        for g in 0..p.gpus_used {
            let members = p.tenants_of(g);
            prop_assert!(!members.is_empty(), "no empty GPUs in the packing");
            let quota: f64 = members.iter().map(|&i| reqs[i].quota).sum();
            prop_assert!(quota <= 1.0 + 1e-9, "GPU {g} quota {quota}");
            let mem: u64 = members
                .iter()
                .map(|&i| {
                    reqs[i].profile.memory_mib
                        + policy.contexts_per_app * policy.mib_per_context
                })
                .sum();
            prop_assert!(mem <= 40 * 1024, "GPU {g} memory {mem}");
        }
    }

    /// Placement is monotone in fleet size: if it fits on N GPUs it fits
    /// on N+1, with an identical packing.
    #[test]
    fn prop_fleet_size_monotone(
        specs in proptest::collection::vec((0usize..4, 1u32..=10), 1..8),
        fleet in 1usize..6,
    ) {
        let reqs: Vec<PlacementRequest> = specs
            .iter()
            .map(|&(m, q)| PlacementRequest {
                profile: profiles()[m].clone(),
                quota: q as f64 / 10.0,
            })
            .collect();
        let policy = AdmissionPolicy::default();
        if let Ok(p1) = place(&reqs, fleet, 40 * 1024, &policy) {
            let p2 = place(&reqs, fleet + 1, 40 * 1024, &policy).expect("larger fleet fits");
            prop_assert_eq!(p1, p2);
        }
    }

    /// Contention-aware placement is a pure function of its inputs
    /// (identical packing on repeated runs — the scoring loop has no
    /// hidden iteration-order dependence) and every packing it accepts is
    /// sound under the same quota rule first-fit obeys.
    #[test]
    fn prop_contention_aware_is_deterministic_and_sound(
        specs in proptest::collection::vec((0usize..4, 1u32..=10), 1..24),
        fleet in 1usize..16,
    ) {
        let reqs: Vec<PlacementRequest> = specs
            .iter()
            .map(|&(m, q)| PlacementRequest {
                profile: profiles()[m].clone(),
                quota: q as f64 / 10.0,
            })
            .collect();
        let policy = AdmissionPolicy::default();
        let ca = PlacementPolicy::contention_aware();
        let p1 = place_with(&reqs, fleet, 40 * 1024, &policy, &ca);
        let p2 = place_with(&reqs, fleet, 40 * 1024, &policy, &ca);
        prop_assert_eq!(&p1, &p2);
        let Ok(p) = p1 else { return Ok(()) };
        prop_assert!(p.assignments.iter().all(|&g| g < p.gpus_used));
        for g in 0..p.gpus_used {
            let quota: f64 = p.tenants_of(g).iter().map(|&i| reqs[i].quota).sum();
            prop_assert!(quota <= 1.0 + 1e-9, "GPU {g} quota {quota}");
        }
    }
}
