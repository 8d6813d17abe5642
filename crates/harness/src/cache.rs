//! Process-wide model and profile caches.
//!
//! Model generation and offline profiling (19 simulated runs per
//! application) are deterministic, so experiments share one generated
//! model per `(model, phase)` and one profile per `(model, phase,
//! num_sms)`. Every profile is taken of the cached model, so the profile
//! and every experiment's tenants share one kernel table.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use profiler::ProfiledApp;

/// One entry, filled once; concurrent callers for the same key wait for
/// the first one's value instead of computing it again.
type Slot<V> = Arc<OnceLock<V>>;

type Map<K, V> = Mutex<HashMap<K, Slot<V>>>;

/// Returns `map[key]`, filling it with `init` on first use.
fn memo<K: Eq + Hash, V: Clone>(map: &Map<K, V>, key: K, init: impl FnOnce() -> V) -> V {
    // The caches are shared by parallel experiments and grid workers. A
    // panicking experiment (e.g. a failing assertion in one table) poisons
    // the mutex; the map only ever gains slots, so recover the guard
    // instead of cascading the panic into every other experiment. The
    // lock is held only to find the slot, never while filling it.
    let slot = Arc::clone(
        map.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default(),
    );
    slot.get_or_init(init).clone()
}

/// Returns the profile of `(kind, phase)` on a GPU with `spec`'s SM count,
/// profiling it on first use. The returned handle shares the cached data
/// (no per-call deep copy of the 19-run duration tables).
pub fn profile(kind: ModelKind, phase: Phase, spec: &GpuSpec) -> Arc<ProfiledApp> {
    static CACHE: OnceLock<Map<(ModelKind, Phase, u32), Arc<ProfiledApp>>> = OnceLock::new();
    memo(
        CACHE.get_or_init(Map::default),
        (kind, phase, spec.num_sms),
        || Arc::new(ProfiledApp::profile(&model(kind, phase), spec)),
    )
}

/// Returns the generated application model of `(kind, phase)`, generating
/// it on first use. Clones share the cached kernel table.
pub fn model(kind: ModelKind, phase: Phase) -> AppModel {
    static CACHE: OnceLock<Map<(ModelKind, Phase), AppModel>> = OnceLock::new();
    memo(CACHE.get_or_init(Map::default), (kind, phase), || {
        AppModel::build(kind, phase)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trips() {
        let spec = GpuSpec::a100();
        let a = profile(ModelKind::Vgg11, Phase::Inference, &spec);
        let b = profile(ModelKind::Vgg11, Phase::Inference, &spec);
        assert_eq!(a.iso_latency, b.iso_latency);
        assert_eq!(a.kernel_count(), b.kernel_count());
    }

    #[test]
    fn models_and_profiles_share_one_kernel_table() {
        let spec = GpuSpec::a100();
        let a = model(ModelKind::ResNet50, Phase::Inference);
        let b = model(ModelKind::ResNet50, Phase::Inference);
        let p = profile(ModelKind::ResNet50, Phase::Inference, &spec);
        assert!(Arc::ptr_eq(&a.kernels, &b.kernels));
        assert!(Arc::ptr_eq(&a.kernels, &p.kernels));
    }

    #[test]
    fn concurrent_first_calls_share_one_profile() {
        // An SM count no experiment uses, so both calls find the key cold.
        let spec = GpuSpec::a100_with_sms(36);
        let barrier = std::sync::Barrier::new(2);
        let call = || {
            barrier.wait();
            profile(ModelKind::Vgg11, Phase::Inference, &spec)
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(call), s.spawn(call));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "both callers must get the one profile");
    }

    #[test]
    fn different_sm_counts_are_distinct_entries() {
        let a = profile(ModelKind::ResNet50, Phase::Inference, &GpuSpec::a100());
        let b = profile(
            ModelKind::ResNet50,
            Phase::Inference,
            &GpuSpec::a100_with_sms(54),
        );
        assert!(b.iso_latency[profiler::PARTITIONS - 1] > a.iso_latency[profiler::PARTITIONS - 1]);
    }
}
