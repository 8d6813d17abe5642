//! Process-wide profile cache.
//!
//! Offline profiling (19 simulated runs per application) is deterministic,
//! so experiments share one cache keyed by `(model, phase, num_sms)`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use profiler::ProfiledApp;

type Key = (ModelKind, Phase, u32);

/// One entry, filled once; concurrent callers for the same key wait for
/// the first one's profile instead of profiling again.
type Slot = Arc<OnceLock<Arc<ProfiledApp>>>;

fn cache() -> &'static Mutex<HashMap<Key, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the profile of `(kind, phase)` on a GPU with `spec`'s SM count,
/// profiling it on first use. The returned handle shares the cached data
/// (no per-call deep copy of the 19-run duration tables).
pub fn profile(kind: ModelKind, phase: Phase, spec: &GpuSpec) -> Arc<ProfiledApp> {
    let key = (kind, phase, spec.num_sms);
    // The cache is shared by parallel experiments and grid workers. A
    // panicking experiment (e.g. a failing assertion in one table) poisons
    // the mutex; the map only ever gains slots, so recover the guard
    // instead of cascading the panic into every other experiment. The
    // lock is held only to find the slot, never while profiling.
    let slot = Arc::clone(
        cache()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default(),
    );
    let profiled =
        slot.get_or_init(|| Arc::new(ProfiledApp::profile(&AppModel::build(kind, phase), spec)));
    Arc::clone(profiled)
}

/// Returns the generated application model (cheap; not cached).
pub fn model(kind: ModelKind, phase: Phase) -> AppModel {
    AppModel::build(kind, phase)
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
