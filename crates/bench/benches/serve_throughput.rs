//! Serving fast-path gate: measures the lock-free ingest pipeline (SPSC
//! rings → batched drain → admission) against a counting sink, then
//! writes `BENCH_serve.json` at the repo root.
//!
//! Run with `cargo bench -p bench --bench serve_throughput` (add
//! `--features count-alloc` for the allocation gate); set `BENCH_QUICK=1`
//! for the CI smoke variant, which gates against the checked-in snapshot
//! and never rewrites it.
//!
//! Three gates, all hard-asserted:
//!
//! * **throughput** — the single-threaded pump must sustain at least
//!   [`GATE_ARRIVALS_PER_SEC`] arrivals/s (ISSUE: ≥1M on one core);
//! * **allocations** — the steady-state pump path performs 0 heap
//!   allocations per arrival (counting allocator, after warmup);
//! * **shed monotonicity** — against a fixed token-bucket rate limit, the
//!   shed fraction never decreases as the offered load grows.
//!
//! The counting sink isolates the ingest stage itself; the `serve`
//! experiment measures the same pipeline in front of the live BLESS
//! simulation.

use std::time::Instant;

use bless::{IngestConfig, IngestSink, IngestStage, RateLimit, TenantStream};
use gpu_sim::RequestArrival;
use sim_core::trace::TraceEvent;
use sim_core::SimTime;

/// Hard floor on sustained single-core ingest throughput.
const GATE_ARRIVALS_PER_SEC: f64 = 1_000_000.0;

/// Offered-load multipliers for the shed sweep (1.0 = the rate limit).
const SHED_LOADS: &[f64] = &[0.5, 1.0, 2.0, 4.0, 8.0];

/// An [`IngestSink`] that completes every request instantly: admitted
/// arrivals only bump a per-tenant counter, so the measurement isolates
/// the ring drain + merge + admission hot path.
struct CountingSink {
    accepted: Vec<u64>,
    clock: u64,
}

impl CountingSink {
    fn new(tenants: usize) -> Self {
        CountingSink {
            accepted: vec![0; tenants],
            clock: 0,
        }
    }

    fn total(&self) -> u64 {
        self.accepted.iter().sum()
    }
}

impl IngestSink for CountingSink {
    fn run_until_before(&mut self, t: SimTime) {
        self.clock = self.clock.max(t.as_nanos().saturating_sub(1));
    }
    fn accept(&mut self, arrival: RequestArrival) {
        self.accepted[arrival.app] += 1;
    }
    fn completed_prefix(&mut self, app: usize) -> u64 {
        // Instant completion: the backpressure bound never engages.
        self.accepted[app]
    }
    fn emit(&mut self, _ev: TraceEvent) {}
}

/// Pushes `chunk` arrivals per tenant then pumps, `rounds` times, on one
/// thread. Returns the wall-clock seconds and heap allocations of the
/// measured window (warmup excluded).
fn ingest_run(
    tenants: usize,
    chunk: usize,
    rounds: usize,
    warmup_rounds: usize,
) -> (f64, u64, u64) {
    let cfg = IngestConfig::default();
    assert!(
        chunk * 2 <= cfg.ring_capacity,
        "chunk must fit the ring between pumps"
    );
    let (mut stage, mut streams) = IngestStage::new(tenants, &cfg);
    let mut sink = CountingSink::new(tenants);
    // Distinct per-tenant phases so the global merge actually interleaves.
    let mut next: Vec<u64> = (0..tenants as u64).collect();

    let push_round = |streams: &mut [TenantStream],
                      stage: &mut IngestStage,
                      sink: &mut CountingSink,
                      next: &mut [u64]| {
        for (app, s) in streams.iter_mut().enumerate() {
            for _ in 0..chunk {
                s.offer(SimTime::from_nanos(next[app]))
                    .expect("ring cannot fill: pump drains between chunks");
                next[app] += 1000; // 1 µs virtual inter-arrival
            }
        }
        stage.pump(sink);
    };

    for _ in 0..warmup_rounds {
        push_round(&mut streams, &mut stage, &mut sink, &mut next);
    }

    let allocs_before = bench::alloc_count();
    let t0 = Instant::now();
    for _ in 0..rounds {
        push_round(&mut streams, &mut stage, &mut sink, &mut next);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let allocs = bench::alloc_count() - allocs_before;

    // Drain the tail (the last arrival per lane sits at the watermark and
    // needs the terminal mark to become provably minimal).
    for s in streams {
        s.close();
    }
    while !stage.pump(&mut sink).drained {
        std::hint::spin_loop();
    }
    let offered = (tenants * chunk * (rounds + warmup_rounds)) as u64;
    assert_eq!(sink.total(), offered, "no limits configured: all admitted");
    for app in 0..tenants {
        let st = stage.tenant_stats(app);
        assert_eq!(st.admitted + st.shed(), st.offered, "conservation");
    }
    ((tenants * chunk * rounds) as f64 / elapsed, allocs, offered)
}

/// Shed fraction for one tenant offering `n` arrivals at `load` times the
/// fixed rate limit.
fn shed_fraction(load: f64, n: u64) -> f64 {
    let cfg = IngestConfig {
        rate: Some(RateLimit {
            tokens_per_sec: 1000,
            burst: 4,
        }),
        ..IngestConfig::default()
    };
    let (mut stage, mut streams) = IngestStage::new(1, &cfg);
    let mut sink = CountingSink::new(1);
    // Offered rate = load × 1000/s → inter-arrival 1e6/load ns.
    let gap = (1e6 / load) as u64;
    let mut t = 0u64;
    for _ in 0..n {
        streams[0].offer_blocking(SimTime::from_nanos(t));
        t += gap;
        stage.pump(&mut sink);
    }
    for s in streams {
        s.close();
    }
    while !stage.pump(&mut sink).drained {
        std::hint::spin_loop();
    }
    let st = stage.tenant_stats(0);
    assert_eq!(st.offered, n);
    assert_eq!(st.admitted + st.shed(), st.offered, "conservation");
    st.shed() as f64 / st.offered as f64
}

fn main() {
    let counting = bench::alloc_counting_enabled();
    println!("alloc counter active: {counting}");

    let tenants = 4;
    let (chunk, rounds, warmup) = if bench::quick() {
        (256, 2_000, 50)
    } else {
        (256, 20_000, 200)
    };
    // Best of 3 passes: the gate measures the pipeline, not scheduler
    // jitter on a shared CI core.
    let mut best_rate = 0f64;
    let mut best_allocs = u64::MAX;
    let mut arrivals = 0u64;
    for _ in 0..3 {
        let (rate, allocs, offered) = ingest_run(tenants, chunk, rounds, warmup);
        best_rate = best_rate.max(rate);
        best_allocs = best_allocs.min(allocs);
        arrivals = offered;
    }
    let measured = (tenants * chunk * rounds) as u64;
    let allocs_per_arrival = best_allocs as f64 / measured as f64;
    println!(
        "ingest sustained: {:.2}M arrivals/s ({tenants} tenants, one core), \
         {allocs_per_arrival:.6} allocs/arrival over {measured} arrivals",
        best_rate / 1e6
    );
    assert!(
        best_rate >= GATE_ARRIVALS_PER_SEC,
        "ingest pipeline below the 1M arrivals/s floor: {best_rate:.0}/s"
    );
    if counting {
        assert!(
            allocs_per_arrival == 0.0,
            "ingest steady state must be allocation-free (got {allocs_per_arrival:.6}/arrival)"
        );
    }

    let shed_n = if bench::quick() { 4_000 } else { 20_000 };
    let sheds: Vec<f64> = SHED_LOADS
        .iter()
        .map(|&l| shed_fraction(l, shed_n))
        .collect();
    for (i, w) in sheds.windows(2).enumerate() {
        assert!(
            w[1] >= w[0] - 1e-9,
            "shed fraction must be monotone in offered load: {:.4} at {}x then {:.4} at {}x",
            w[0],
            SHED_LOADS[i],
            w[1],
            SHED_LOADS[i + 1]
        );
    }
    let shed_str: Vec<String> = sheds.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "shed sweep (loads {SHED_LOADS:?}): [{}] — monotone",
        shed_str.join(", ")
    );

    let path = bench::snapshot_path("serve");
    if bench::quick() {
        // CI smoke: gate against the checked-in snapshot; never rewrite it.
        let Ok(snapshot) = std::fs::read_to_string(&path) else {
            panic!("BENCH_serve.json missing; regenerate with `cargo bench -p bench --bench serve_throughput`");
        };
        let gate = bench::json_number(&snapshot, "gate_min_arrivals_per_sec")
            .expect("gate_min_arrivals_per_sec in BENCH_serve.json");
        assert!(
            best_rate >= gate,
            "throughput regression: {best_rate:.0} arrivals/s vs gated floor {gate:.0}"
        );
        println!("serve gate passed: {best_rate:.0} >= {gate:.0} arrivals/s, shed sweep monotone");
        return;
    }

    let host_cpus = bench::host_cpus();
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"regenerate\": \"cargo bench -p bench --bench serve_throughput --features count-alloc\",\n  \"host_cpus\": {host_cpus},\n  \"gate_min_arrivals_per_sec\": {GATE_ARRIVALS_PER_SEC:.0},\n  \"ingest\": {{\n    \"tenants\": {tenants},\n    \"arrivals\": {arrivals},\n    \"arrivals_per_sec\": {best_rate:.0},\n    \"allocs_per_arrival\": {allocs_per_arrival:.6},\n    \"count_alloc\": {counting}\n  }},\n  \"shed_sweep\": {{\n    \"rate_tokens_per_sec\": 1000,\n    \"burst\": 4,\n    \"loads\": {SHED_LOADS:?},\n    \"shed_frac\": [{}]\n  }}\n}}\n",
        shed_str.join(", ")
    );
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
