//! Support shared by the five gated benches (`alloc_stats`,
//! `cluster_scale`, `engine_scale`, `interference`, `serve_throughput`):
//! quick-mode detection, the committed `BENCH_*.json` snapshot paths and
//! their number lookup, the host CPU count, a best-of-N timing loop, the
//! counting allocator and a few scaled-down scenario runners.
//!
//! Each bench runs its full sweep and rewrites its snapshot when invoked
//! plainly; with `BENCH_QUICK=1` it runs a smaller sweep, checks its
//! gates (against the committed snapshot where the gate has a baseline)
//! and writes no file. Per-experiment and per-layer timings live in the
//! `benchmark` package, not here.

use std::time::Instant;

use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use harness::cache;
use harness::runner::{run_system, RunResult, System};
use sim_core::SimTime;
use workloads::{pair_workload, PaperWorkload, WorkloadSet};

/// True when `BENCH_QUICK` is set: the CI gate variant, which runs a
/// smaller sweep and never rewrites a committed snapshot.
pub fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// Path of the committed snapshot `BENCH_<name>.json` at the repo root.
pub fn snapshot_path(name: &str) -> String {
    format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"))
}

/// Extracts the number following `"key":` from a flat JSON snapshot.
/// (No JSON dependency in this workspace; the snapshots are
/// machine-written with known formatting.)
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// CPUs available to this process, recorded as `host_cpus` in every
/// snapshot so a number is never read against a different host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Calls `routine` once to warm caches and then `samples` more times,
/// each on a fresh input from `setup` built outside the timed region;
/// the input and the routine's result are dropped outside it too. Prints
/// the fastest of all `samples + 1` calls under `label` and returns it in
/// milliseconds.
pub fn min_ms<I, R>(
    label: &str,
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(&mut I) -> R,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..=samples {
        let mut input = setup();
        let start = Instant::now();
        let out = std::hint::black_box(routine(&mut input));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        drop(out);
    }
    println!("{label:<40} min {best:>10.3} ms ({} runs)", samples + 1);
    best
}

/// Counting global allocator for the allocation-regression gate
/// (`cargo bench --bench alloc_stats --features count-alloc`). Every heap
/// allocation bumps a relaxed atomic; the `alloc_stats` bench reads the
/// counter around a steady-state window to compute allocations per
/// simulated kernel. Behind a feature so ordinary builds and benches keep
/// the system allocator untouched.
#[cfg(feature = "count-alloc")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counter is
    // observational and touches no allocator state.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A grow-in-place still traverses the allocator; count it.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// True when the counting allocator is installed (`count-alloc` feature).
pub fn alloc_counting_enabled() -> bool {
    cfg!(feature = "count-alloc")
}

/// Total heap allocations since process start (0 without `count-alloc`).
pub fn alloc_count() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// A small two-tenant inference workload at even quotas.
pub fn small_pair(a: ModelKind, b: ModelKind, load: PaperWorkload, requests: usize) -> WorkloadSet {
    pair_workload(
        cache::model(a, Phase::Inference),
        cache::model(b, Phase::Inference),
        (0.5, 0.5),
        load,
        requests,
        SimTime::from_secs(5),
        1,
    )
}

/// Runs one system on a workload with the standard horizon.
pub fn run(sys: &System, ws: &WorkloadSet) -> RunResult {
    run_system(sys, ws, &GpuSpec::a100(), SimTime::from_secs(120), None)
}

/// Pre-warms the profile cache so benches measure scheduling, not
/// profiling.
pub fn warm_profiles() {
    let spec = GpuSpec::a100();
    for kind in [
        ModelKind::Vgg11,
        ModelKind::ResNet50,
        ModelKind::ResNet101,
        ModelKind::NasNet,
        ModelKind::Bert,
    ] {
        let _ = cache::profile(kind, Phase::Inference, &spec);
    }
}
