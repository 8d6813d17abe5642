//! Host-time accounting from outside the library: per-layer `(ns, calls)`
//! accumulators, a timing [`HostDriver`] wrapper, a counting trace sink,
//! determiner replay and coarse spans.
//!
//! Every number here is measured around calls into the library's public
//! functions; nothing inside the library is instrumented.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use bless::{determine_config_memo_model, ConfigMemo, DeployedApp, Squad, SquadEntry};
use gpu_sim::{
    FailedKernel, Gpu, GpuSpec, HostDriver, KernelDone, NoticeHandler, RequestArrival, TraceEvent,
    TraceSink,
};

use crate::json::{num, obj, text, Json};

/// The layers a traced run attributes host time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `workloads`: arrival generation and the closed-loop controller.
    Arrivals,
    /// `profiler`: profiling and deployment admission.
    Profiler,
    /// `gpu_sim`: engine and simulation loop, minus the driver callbacks.
    Engine,
    /// `bless::runtime`: time inside the `HostDriver` callbacks.
    Runtime,
    /// `bless::ingest`: pump rounds minus the simulation they advance.
    Ingest,
    /// `cluster::placement`.
    Placement,
    /// Fleet aggregation: per-GPU log digest and fold.
    Aggregate,
    /// `harness`: whole experiments.
    Harness,
}

const LAYERS: usize = 8;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Arrivals,
        Layer::Profiler,
        Layer::Engine,
        Layer::Runtime,
        Layer::Ingest,
        Layer::Placement,
        Layer::Aggregate,
        Layer::Harness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Arrivals => "workloads.arrivals",
            Layer::Profiler => "profiler",
            Layer::Engine => "gpu_sim.engine",
            Layer::Runtime => "bless.runtime",
            Layer::Ingest => "bless.ingest",
            Layer::Placement => "cluster.placement",
            Layer::Aggregate => "cluster.aggregate",
            Layer::Harness => "harness",
        }
    }
}

/// Per-layer host nanoseconds and call counts of one thread; threads sum
/// theirs at join.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Acc {
    pub fn add(&mut self, layer: Layer, ns: u64, calls: u64) {
        self.ns[layer as usize] += ns;
        self.calls[layer as usize] += calls;
    }

    /// Runs `f`, charging its wall time and one call to `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(layer, elapsed_ns(t), 1);
        r
    }

    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Host time attributed to any layer.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn merge(&mut self, other: &Acc) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

pub fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A [`HostDriver`] that times every callback into the wrapped driver and
/// counts completed kernels. Behaviour is the wrapped driver's, unchanged.
pub struct TimedDriver<D> {
    pub inner: D,
    /// Host nanoseconds spent inside the wrapped driver's callbacks.
    pub ns: u64,
    pub calls: u64,
    pub kernels: u64,
}

impl<D> TimedDriver<D> {
    pub fn new(inner: D) -> Self {
        TimedDriver {
            inner,
            ns: 0,
            calls: 0,
            kernels: 0,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut D)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.ns += elapsed_ns(t);
        self.calls += 1;
    }
}

impl<D: HostDriver> HostDriver for TimedDriver<D> {
    fn on_start(&mut self, gpu: &mut Gpu) {
        self.timed(|d| d.on_start(gpu));
    }

    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        self.timed(|d| d.on_request(gpu, req));
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        self.kernels += 1;
        self.timed(|d| d.on_kernel_done(gpu, done));
    }

    fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
        self.timed(|d| d.on_wake(gpu, token));
    }

    fn on_crash(&mut self, gpu: &mut Gpu, app: u32, failed: &[FailedKernel]) {
        self.timed(|d| d.on_crash(gpu, app, failed));
    }
}

/// Wraps a closed-loop controller so the time spent in it can be charged
/// to the `workloads` layer; `ns` accumulates it.
pub fn timed_notices(mut inner: NoticeHandler, ns: Arc<AtomicU64>) -> NoticeHandler {
    Box::new(move |notice, now| {
        let t = Instant::now();
        let next = inner(notice, now);
        // A statistic read after the run; it publishes nothing else.
        ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        next
    })
}

/// What the counting sink saw: engine reallocations and the squads the
/// runtime formed, with the multi-tenant ones kept for determiner replay.
#[derive(Debug, Default)]
pub struct SquadCounts {
    pub sm_allocs: u64,
    pub squads: u64,
    pub entries: u64,
    pub kernels: u64,
    pub spatial: u64,
    /// Squads with two or more entries (the determiner ran for these).
    pub multi: u64,
    /// Sum of `ConfigChosen.evaluated` over multi-tenant squads.
    pub evaluated: u64,
    /// Entries `(app, first kernel, count)` of the multi-tenant squads,
    /// squad `i` spanning `replay[ends[i-1]..ends[i]]`.
    replay: Vec<[u32; 3]>,
    ends: Vec<usize>,
}

impl SquadCounts {
    fn absorb(&mut self, other: SquadCounts) {
        self.sm_allocs += other.sm_allocs;
        self.squads += other.squads;
        self.entries += other.entries;
        self.kernels += other.kernels;
        self.spatial += other.spatial;
        self.multi += other.multi;
        self.evaluated += other.evaluated;
        let base = self.replay.len();
        self.replay.extend(other.replay);
        self.ends.extend(other.ends.into_iter().map(|e| e + base));
    }

    /// The recorded multi-tenant squads. Entries are as launched, i.e.
    /// after the runtime trimmed them to the chosen configuration.
    fn squads(&self) -> Vec<Squad> {
        let mut start = 0;
        self.ends
            .iter()
            .map(|&end| {
                let entries = self.replay[start..end]
                    .iter()
                    .map(|&[app, first, count]| SquadEntry {
                        app: app as usize,
                        kernels: (first as usize..(first + count) as usize).collect(),
                    })
                    .collect();
                start = end;
                Squad { entries }
            })
            .collect()
    }
}

/// A [`TraceSink`] that only counts. It publishes its counts into the
/// shared slot on `flush`, which [`Gpu::take_trace_sink`] calls, so the
/// per-event path takes no lock.
pub struct CountingSink {
    local: SquadCounts,
    /// `evaluated` of the latest `ConfigChosen`, which precedes its squad.
    pending_evaluated: u64,
    out: Arc<Mutex<SquadCounts>>,
}

impl CountingSink {
    pub fn new() -> (CountingSink, Arc<Mutex<SquadCounts>>) {
        let out = Arc::new(Mutex::new(SquadCounts::default()));
        let sink = CountingSink {
            local: SquadCounts::default(),
            pending_evaluated: 0,
            out: Arc::clone(&out),
        };
        (sink, out)
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let c = &mut self.local;
        match ev {
            TraceEvent::SmAlloc { .. } => c.sm_allocs += 1,
            TraceEvent::ConfigChosen { evaluated, .. } => {
                self.pending_evaluated = u64::from(*evaluated);
            }
            TraceEvent::SquadFormed {
                spatial, entries, ..
            } => {
                c.squads += 1;
                c.entries += entries.len() as u64;
                c.kernels += entries.iter().map(|e| u64::from(e.count)).sum::<u64>();
                c.spatial += u64::from(*spatial);
                if entries.len() >= 2 {
                    c.multi += 1;
                    c.evaluated += self.pending_evaluated;
                    c.replay
                        .extend(entries.iter().map(|e| [e.app, e.first_kernel, e.count]));
                    c.ends.push(c.replay.len());
                }
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        // Counts stay consistent at every step, so a poisoned slot is usable.
        self.out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(std::mem::take(&mut self.local));
    }
}

/// Takes the counts a [`CountingSink`] published.
pub fn take_counts(slot: &Mutex<SquadCounts>) -> SquadCounts {
    std::mem::take(&mut *slot.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Totals of the simulation-facing layers over one traced run.
#[derive(Debug, Default)]
pub struct SimTotals {
    pub kernels: u64,
    pub callbacks: u64,
    pub run_calls: u64,
    /// Requests the `workloads` layer generated.
    pub requests: u64,
    pub counts: SquadCounts,
    pub replay_squads: u64,
    pub replay_ns: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

impl SimTotals {
    /// Folds one simulation's driver and sink totals in.
    pub fn add_sim<D>(&mut self, driver: &TimedDriver<D>, counts: SquadCounts) {
        self.kernels += driver.kernels;
        self.callbacks += driver.calls;
        self.counts.absorb(counts);
    }

    /// Replays the multi-tenant squads recorded so far through the
    /// determiner with a fresh memo (one per deployment, as the runtime
    /// keeps one), then drops them.
    pub fn replay(&mut self, apps: &[DeployedApp], spec: &GpuSpec) {
        let squads = self.counts.squads();
        self.counts.replay.clear();
        self.counts.ends.clear();
        let mut memo = ConfigMemo::new();
        let t = Instant::now();
        for s in &squads {
            std::hint::black_box(determine_config_memo_model(
                &mut memo,
                s,
                apps,
                spec.num_sms,
                &spec.channel_model,
            ));
        }
        self.replay_ns += elapsed_ns(t);
        self.replay_squads += squads.len() as u64;
        self.memo_hits += memo.hits;
        self.memo_misses += memo.misses;
    }

    pub fn merge(&mut self, other: SimTotals) {
        self.kernels += other.kernels;
        self.callbacks += other.callbacks;
        self.run_calls += other.run_calls;
        self.requests += other.requests;
        self.counts.absorb(other.counts);
        self.replay_squads += other.replay_squads;
        self.replay_ns += other.replay_ns;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }

    /// The engine, runtime, squad, determiner and arrival metrics.
    /// `thread_ns` is the host time of every thread of the traced run,
    /// the base of each `share`.
    pub fn layer_metrics(&self, acc: &Acc, thread_ns: u64) -> Vec<(&'static str, f64)> {
        let t = thread_ns as f64;
        let c = &self.counts;
        let engine = acc.ns(Layer::Engine) as f64;
        let runtime = acc.ns(Layer::Runtime) as f64;
        vec![
            (
                "gpu_sim.engine.ns_per_kernel",
                ratio(engine, self.kernels as f64),
            ),
            ("gpu_sim.engine.kernels", self.kernels as f64),
            (
                "gpu_sim.engine.realloc_per_kernel",
                ratio(c.sm_allocs as f64, self.kernels as f64),
            ),
            ("gpu_sim.engine.share", ratio(engine, t)),
            ("gpu_sim.sim.run_calls", self.run_calls as f64),
            (
                "bless.runtime.ns_per_callback",
                ratio(runtime, self.callbacks as f64),
            ),
            ("bless.runtime.callbacks", self.callbacks as f64),
            ("bless.runtime.share", ratio(runtime, t)),
            ("bless.squad.squads", c.squads as f64),
            (
                "bless.squad.entries_per_squad",
                ratio(c.entries as f64, c.squads as f64),
            ),
            (
                "bless.squad.kernels_per_squad",
                ratio(c.kernels as f64, c.squads as f64),
            ),
            (
                "bless.squad.sp_frac",
                ratio(c.spatial as f64, c.squads as f64),
            ),
            (
                "bless.predict.evaluated_per_squad",
                ratio(c.evaluated as f64, c.multi as f64),
            ),
            (
                "bless.predict.replay_ns_per_squad",
                ratio(self.replay_ns as f64, self.replay_squads as f64),
            ),
            (
                "bless.predict.memo_hit_frac",
                ratio(
                    self.memo_hits as f64,
                    (self.memo_hits + self.memo_misses) as f64,
                ),
            ),
            ("bless.predict.share", ratio(self.replay_ns as f64, t)),
            (
                "workloads.arrivals.ns_per_request",
                ratio(acc.ns(Layer::Arrivals) as f64, self.requests as f64),
            ),
        ]
    }
}

/// Coarse host-time spans (one per GPU, pass or pump round), kept in
/// memory and written as Chrome-trace JSON at exit. Recording is off
/// unless a path was given.
pub struct Spans {
    origin: Instant,
    on: bool,
    list: Vec<(String, usize, f64, f64)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            on,
            list: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's time origin.
    pub fn fork(&self) -> Spans {
        Spans {
            origin: self.origin,
            on: self.on,
            list: Vec::new(),
        }
    }

    pub fn record(&mut self, name: impl FnOnce() -> String, tid: usize, start: Instant) {
        if self.on {
            let from = start.duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = start.elapsed().as_secs_f64() * 1e6;
            self.list.push((name(), tid, from, dur));
        }
    }

    pub fn merge(&mut self, other: Spans) {
        self.list.extend(other.list);
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.to_json().to_line().as_bytes())?;
        f.flush()
    }

    /// The spans as a Chrome-trace document (complete `X` events, in µs).
    fn to_json(&self) -> Json {
        let events = self
            .list
            .iter()
            .map(|(name, tid, ts, dur)| {
                obj([
                    ("name", text(name.as_str())),
                    ("ph", text("X")),
                    ("pid", num(1)),
                    ("tid", num(*tid as f64)),
                    ("ts", num(*ts)),
                    ("dur", num(*dur)),
                ])
            })
            .collect();
        obj([("traceEvents", Json::Arr(events))])
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bless::{BlessDriver, BlessParams};
    use dnn_models::{AppModel, ModelKind, Phase};
    use gpu_sim::{HostCosts, Simulation};
    use profiler::ProfiledApp;
    use sim_core::{SimDuration, SimTime};
    use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

    fn pair() -> (GpuSpec, WorkloadSet, Vec<DeployedApp>) {
        let spec = GpuSpec::a100_per_resource();
        let kinds = [ModelKind::Vgg11, ModelKind::ResNet50];
        let tenants = kinds
            .iter()
            .map(|&k| {
                TenantSpec::new(
                    AppModel::build(k, Phase::Inference),
                    0.5,
                    ArrivalPattern::ClosedLoop {
                        think: SimDuration::from_millis(2),
                        count: 6,
                    },
                )
            })
            .collect();
        let ws = WorkloadSet::new(tenants, 11);
        let apps = ws
            .tenants
            .iter()
            .map(|t| DeployedApp::new(ProfiledApp::profile_shared(&t.model, &spec), 0.5, None))
            .collect();
        (spec, ws, apps)
    }

    #[test]
    fn timing_driver_and_counting_sink_leave_the_log_unchanged() {
        let (spec, ws, apps) = pair();
        let horizon = SimTime::from_secs(60);
        let mut plain = Simulation::new(
            Gpu::new(spec.clone(), HostCosts::paper()),
            BlessDriver::new(apps.clone(), BlessParams::default()),
            ws.initial_arrivals(),
        )
        .with_notice_handler(ws.notice_handler());
        plain.run(horizon);

        let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
        let (sink, slot) = CountingSink::new();
        gpu.set_trace_sink(Box::new(sink));
        let ns = Arc::new(AtomicU64::new(0));
        let mut timed = Simulation::new(
            gpu,
            TimedDriver::new(BlessDriver::new(apps.clone(), BlessParams::default())),
            ws.initial_arrivals(),
        )
        .with_notice_handler(timed_notices(ws.notice_handler(), Arc::clone(&ns)));
        timed.run(horizon);
        drop(timed.gpu.take_trace_sink());

        assert_eq!(timed.driver.inner.log.digest(), plain.driver.log.digest());
        assert_eq!(timed.driver.inner.log.completed_count(0), 6);
        assert!(timed.driver.kernels > 0 && timed.driver.calls >= timed.driver.kernels);
        assert!(timed.driver.ns > 0 && ns.load(Ordering::Relaxed) > 0);

        let mut totals = SimTotals::default();
        totals.add_sim(&timed.driver, take_counts(&slot));
        let c = &totals.counts;
        assert_eq!(c.squads, timed.driver.inner.squads_launched as u64);
        assert_eq!(c.spatial, timed.driver.inner.sp_squads as u64);
        assert!(c.multi > 0 && c.multi as usize == c.ends.len());
        let multi = c.multi;
        totals.replay(&apps, &spec);
        assert_eq!(totals.replay_squads, multi);
        assert_eq!(totals.memo_hits + totals.memo_misses, multi);
    }

    #[test]
    fn spans_record_only_when_on_and_export_chrome_events() {
        let t = Instant::now();
        let mut off = Spans::new(false);
        off.record(|| unreachable!("names are built only when recording"), 0, t);
        assert!(off.to_json().get("traceEvents").unwrap().items().is_empty());
        let mut on = Spans::new(true);
        let mut other = on.fork();
        on.record(|| "a".to_string(), 0, t);
        other.record(|| "b".to_string(), 1, t);
        on.merge(other);
        let doc = on.to_json();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("b"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert!(events[0].get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn accumulators_merge_per_layer() {
        let mut a = Acc::default();
        a.add(Layer::Engine, 10, 1);
        let mut b = Acc::default();
        b.add(Layer::Engine, 5, 2);
        b.add(Layer::Runtime, 7, 1);
        a.merge(&b);
        assert_eq!((a.ns(Layer::Engine), a.calls(Layer::Engine)), (15, 3));
        assert_eq!(a.total_ns(), 22);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
