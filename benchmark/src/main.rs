//! The repository benchmark: four workloads through the simulator's layers,
//! end-to-end metrics with tracing off, per-layer metrics with it on, and a
//! `compare` verdict over alternating parent/change runs. See README.md.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! benchmark compare <parent.out> <change.out> [--bench <BENCHMARK.json>]
//! ```
//!
//! A run prints two lines on stdout: a detail object (workload, seed,
//! quartiles, sample counts, virtual-time results, gates), then the result
//! object `{"correct", "attempted", "failed", "metrics"}`. A human table
//! goes to stderr. The exit code is non-zero when any correctness gate
//! fails.

mod colocate;
mod compare;
mod fleet;
mod heap;
mod json;
mod prof;
mod serve;
mod stats;
mod suite;

use std::path::PathBuf;
use std::time::Instant;

use json::{num, obj, text, Json};
use prof::{Acc, Layer, Spans};
use stats::Summary;

#[global_allocator]
static HEAP: heap::PeakAlloc = heap::PeakAlloc;

const USAGE: &str = "usage: benchmark --workload <fleet_diurnal|colocate_dense|serve_open|paper_suite> \
--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n       benchmark compare <parent.out> <change.out> [--bench <BENCHMARK.json>]";

/// End-to-end metrics, in `BENCHMARK.json` order: every run reports each.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_heap_mib", "MiB")];

/// Per-layer metrics, in `BENCHMARK.json` order: every traced run reports
/// each, with 0 where the workload does not reach the layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 29] = [
        ("gpu_sim.engine.ns_per_kernel", "ns"),
        ("gpu_sim.engine.kernels", "count"),
        ("gpu_sim.engine.realloc_per_kernel", "ratio"),
        ("gpu_sim.engine.share", "ratio"),
        ("gpu_sim.sim.run_calls", "count"),
        ("bless.runtime.ns_per_callback", "ns"),
        ("bless.runtime.callbacks", "count"),
        ("bless.runtime.share", "ratio"),
        ("bless.squad.squads", "count"),
        ("bless.squad.entries_per_squad", "ratio"),
        ("bless.squad.kernels_per_squad", "ratio"),
        ("bless.squad.sp_frac", "ratio"),
        ("bless.predict.evaluated_per_squad", "ratio"),
        ("bless.predict.replay_ns_per_squad", "ns"),
        ("bless.predict.memo_hit_frac", "ratio"),
        ("bless.predict.share", "ratio"),
        ("bless.ingest.ns_per_arrival", "ns"),
        ("bless.ingest.admit_frac", "ratio"),
        ("bless.ingest.arrivals_per_pump", "ratio"),
        ("sim_core.spsc.full_rejects", "count"),
        ("sim_core.spsc.producer_wait_ns", "ns"),
        ("cluster.placement.us_per_tenant", "us"),
        ("cluster.placement.contention_us_per_tenant", "us"),
        ("cluster.run.parallel_speedup", "ratio"),
        ("cluster.aggregate.ns_per_gpu", "ns"),
        ("workloads.arrivals.ns_per_request", "ns"),
        ("profiler.profile_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
    ];
    let mut all: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(suite::layer_names().into_iter().map(|n| (n, "ms")));
    all
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    FleetDiurnal,
    ColocateDense,
    ServeOpen,
    PaperSuite,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FleetDiurnal,
        Workload::ColocateDense,
        Workload::ServeOpen,
        Workload::PaperSuite,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetDiurnal => "fleet_diurnal",
            Workload::ColocateDense => "colocate_dense",
            Workload::ServeOpen => "serve_open",
            Workload::PaperSuite => "paper_suite",
        }
    }
}

/// What a workload needs from the command line.
pub struct Opts {
    pub seed: u64,
    /// How long the timed reps run, in seconds.
    pub seconds: f64,
    /// Whether traced runs record spans.
    pub spans: bool,
}

struct Args {
    workload: Workload,
    opts: Opts,
    trace: bool,
    spans: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut spans = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    });
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            opts: Opts {
                seed: seed.ok_or("--seed is required")?,
                seconds: seconds.ok_or("--seconds is required")?,
                spans: spans.is_some(),
            },
            trace: trace.ok_or("--trace is required")?,
            spans,
        })
    }
}

/// One correctness check on the program's outputs.
pub struct Gate {
    pub name: String,
    pub ok: bool,
}

pub fn gate(name: impl Into<String>, ok: bool) -> Gate {
    let name = name.into();
    if !ok {
        eprintln!("[benchmark] GATE FAILED: {name}");
    }
    Gate { name, ok }
}

/// A reported number with its unit; repeated measurements carry their
/// quartiles, and every metric its sample count.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
}

impl Metric {
    /// The median of `samples`, with quartiles.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let s = Summary::of(samples);
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            quartiles: Some((s.q1, s.q3)),
            n: s.n,
        }
    }

    pub fn single(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            quartiles: None,
            n,
        }
    }

    fn detail_json(&self) -> Json {
        let mut m = vec![("value", num(self.value)), ("unit", text(self.unit))];
        if let Some((q1, q3)) = self.quartiles {
            m.push(("q1", num(q1)));
            m.push(("q3", num(q3)));
        }
        m.push(("n", num(self.n as f64)));
        obj(m)
    }
}

/// What a workload's untraced run produced.
pub struct RunOut {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed rep.
    pub wall_s: Vec<f64>,
    /// Peak live heap of each timed rep, in MiB.
    pub heap_mib: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Further host-time results (throughputs).
    pub host: Vec<Metric>,
    /// Simulated-time results: deterministic for a seed.
    pub virt: Vec<Metric>,
    /// Request-log digests: any behavioural drift changes them.
    pub digests: Vec<(String, u64)>,
}

/// What a workload's traced run produced.
pub struct TraceOut {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Per-layer metrics by name; names missing here report 0.
    pub layers: Vec<(String, f64)>,
    /// Raw per-layer host time and calls behind them.
    pub acc: Acc,
    pub spans: Spans,
}

/// Minimum timed reps, however long each takes.
const MIN_REPS: usize = 3;

/// Repeats `rep` until `seconds` of timed reps have run (and at least
/// [`MIN_REPS`]), calling `between` untimed after each; returns each rep's
/// host seconds, peak live heap in MiB, and result.
pub fn timed_reps<T>(
    seconds: f64,
    mut rep: impl FnMut() -> T,
    mut between: impl FnMut(),
) -> (Vec<f64>, Vec<f64>, Vec<T>) {
    let mut walls = Vec::new();
    let mut heaps = Vec::new();
    let mut outs = Vec::new();
    let mut total = 0.0;
    while walls.len() < MIN_REPS || total < seconds {
        heap::reset_peak();
        let t = Instant::now();
        outs.push(rep());
        let s = t.elapsed().as_secs_f64();
        heaps.push(heap::peak_mib());
        walls.push(s);
        total += s;
        between();
    }
    (walls, heaps, outs)
}

/// Times one call of `setup` into `walls`.
pub fn timed_setup<T>(walls: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = setup();
    walls.push(t.elapsed().as_secs_f64());
    out
}

/// Set-up is timed once before the reps and this many times after each,
/// so its median samples the host over the whole run, as the reps do.
const SETUP_PER_REP: usize = 2;

/// Times [`SETUP_PER_REP`] more set-ups into `walls`, dropping what they build.
pub fn more_setups<T>(walls: &mut Vec<f64>, mut setup: impl FnMut() -> T) {
    for _ in 0..SETUP_PER_REP {
        drop(timed_setup(walls, &mut setup));
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        match Args::parse(&args) {
            Ok(a) => bench(&a),
            Err(e) => {
                eprintln!("benchmark: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// What one run prints.
struct Report {
    attempted: u64,
    failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    metrics: Vec<Metric>,
    gates: Vec<Gate>,
    /// Further sections of the detail line.
    extra: Vec<(&'static str, Json)>,
}

fn untraced(a: &Args) -> Result<Report, String> {
    let out = match a.workload {
        Workload::FleetDiurnal => fleet::run(&a.opts),
        Workload::ColocateDense => colocate::run(&a.opts),
        Workload::ServeOpen => serve::run(&a.opts),
        Workload::PaperSuite => suite::run(&a.opts),
    };
    let metrics = vec![
        Metric::median_of("setup_s", "s", &out.setup_s),
        Metric::median_of("wall_s", "s", &out.wall_s),
        Metric::median_of("peak_heap_mib", "MiB", &out.heap_mib),
    ];
    let mut host = out.host;
    host.push(Metric::single(
        "peak_rss_mib",
        "MiB",
        prof::peak_rss_mib()?,
        1,
    ));
    let digests = obj(out
        .digests
        .iter()
        .map(|(n, d)| (n.as_str(), text(format!("{d:#018x}")))));
    Ok(Report {
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        gates: out.gates,
        extra: vec![
            ("host", section(&host)),
            ("virtual", section(&out.virt)),
            ("digests", digests),
        ],
    })
}

fn traced(a: &Args) -> Result<Report, String> {
    let out = match a.workload {
        Workload::FleetDiurnal => fleet::trace(&a.opts),
        Workload::ColocateDense => colocate::trace(&a.opts),
        Workload::ServeOpen => serve::trace(&a.opts),
        Workload::PaperSuite => suite::trace(&a.opts),
    };
    if let Some(path) = &a.spans {
        out.spans
            .write(path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        eprintln!("[benchmark] spans written to {}", path.display());
    }
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = out
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            Metric::single(name, unit, value, 1)
        })
        .collect();
    let raw = obj(Layer::ALL.map(|l| {
        let entry = obj([
            ("ns", num(out.acc.ns(l) as f64)),
            ("calls", num(out.acc.calls(l) as f64)),
        ]);
        (l.name(), entry)
    }));
    Ok(Report {
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        gates: out.gates,
        extra: vec![("layers", raw)],
    })
}

fn bench(a: &Args) -> i32 {
    let w = a.workload;
    eprintln!(
        "[benchmark] {} seed={} seconds={} trace={} host_cpus={}",
        w.name(),
        a.opts.seed,
        a.opts.seconds,
        u8::from(a.trace),
        host_cpus()
    );
    let r = match if a.trace { traced(a) } else { untraced(a) } {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    let correct = r.gates.iter().all(|g| g.ok) && r.failed == 0;

    for m in &r.metrics {
        let q = m.quartiles.map_or(String::new(), |(q1, q3)| {
            format!("  [q1 {q1:.6}, q3 {q3:.6}]")
        });
        eprintln!(
            "  {:<46} {:>16.6} {:<6} n={}{q}",
            m.name, m.value, m.unit, m.n
        );
    }

    let mut detail = vec![
        ("workload", text(w.name())),
        ("seed", num(a.opts.seed as f64)),
        ("mode", text(if a.trace { "trace" } else { "run" })),
        ("seconds", num(a.opts.seconds)),
        ("host_cpus", num(host_cpus() as f64)),
        ("metrics", section(&r.metrics)),
    ];
    detail.extend(r.extra);
    detail.push((
        "gates",
        obj(r.gates.iter().map(|g| (g.name.as_str(), Json::Bool(g.ok)))),
    ));
    println!("{}", obj(detail).to_line());

    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
        (
            "metrics",
            obj(r.metrics.iter().map(|m| {
                (
                    m.name.as_str(),
                    obj([("value", num(m.value)), ("unit", text(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", result.to_line());
    if correct {
        0
    } else {
        eprintln!("[benchmark] {}: correctness gates failed", w.name());
        1
    }
}

fn section(metrics: &[Metric]) -> Json {
    obj(metrics.iter().map(|m| (m.name.as_str(), m.detail_json())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.items()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let b = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_and_units(b.get("end_to_end").unwrap()), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_and_units(b.get("per_layer").unwrap()), layers);
        let workloads: Vec<&str> = b
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_are_checked_where_they_enter() {
        let parse = |s: &str| Args::parse(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = parse("--workload serve_open --seed 7 --seconds 5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeOpen);
        assert_eq!((a.opts.seed, a.opts.seconds, a.trace), (7, 5.0, true));
        assert!(parse("--workload nope --seed 7 --seconds 5 --trace 1").is_err());
        assert!(parse("--workload serve_open --seed 7 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload serve_open --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload serve_open --seed 7 --trace 0").is_err());
    }

    #[test]
    fn timed_reps_run_at_least_the_minimum() {
        let mut between = 0;
        let (walls, heaps, outs) = timed_reps(0.0, || vec![0u8; 1 << 20], || between += 1);
        assert_eq!(
            (walls.len(), outs.len(), between),
            (MIN_REPS, MIN_REPS, MIN_REPS)
        );
        assert!(
            heaps.iter().all(|&h| h >= 1.0),
            "each rep's peak covers its MiB"
        );
    }
}
