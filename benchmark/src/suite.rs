//! `paper_suite`: every registered paper experiment but `fleet10k`, run
//! serially in process, as a researcher reproducing the paper runs them.
//! Its inputs are the paper's fixed configurations, so it ignores the seed.

use std::time::Instant;

use dnn_models::{AppModel, ModelKind, Phase};
use gpu_sim::GpuSpec;
use harness::experiments::{registry, Experiment};
use profiler::ProfiledApp;

use crate::prof::{ratio, Acc, Layer, Spans};
use crate::stats::Summary;
use crate::{gate, more_setups, timed_reps, timed_setup, Gate, Metric, Opts, RunOut, TraceOut};

/// Covered by `fleet_diurnal` at 1/10 scale.
const SKIPPED: &str = "fleet10k";

/// Experiments with a per-layer metric of their own. An experiment
/// registered later runs in every pass but is left out of the per-layer
/// breakdown, so its time shows as unattributed.
const IDS: [&str; 28] = [
    "table1",
    "fig4b",
    "fig9a",
    "fig9b",
    "fig9c",
    "system_comparison",
    "fig10",
    "predictor",
    "fig12",
    "fig13",
    "fig14",
    "traces",
    "fig15",
    "fig16",
    "slo",
    "fig17",
    "fig18",
    "fig19a",
    "fig19b",
    "fig19c",
    "fig20",
    "overhead",
    "substrate",
    "graphs",
    "faults",
    "chaos",
    "fleet",
    "serve",
];

/// The per-experiment metric names, in registry order.
pub fn layer_names() -> Vec<String> {
    IDS.iter().map(|id| format!("harness.{id}.ms")).collect()
}

fn experiments() -> Vec<Experiment> {
    registry().into_iter().filter(|e| e.id != SKIPPED).collect()
}

/// The committed output of `experiments all`: every table the suite
/// renders must appear in it verbatim.
fn golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../experiments_output.txt");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Profiles the five Table 1 models, inference and training, on the A100
/// the suite mostly simulates: the work a cold pass starts with.
fn setup() {
    let spec = GpuSpec::a100();
    for kind in ModelKind::ALL {
        for phase in [Phase::Inference, Phase::Training] {
            std::hint::black_box(ProfiledApp::profile_shared(
                &AppModel::build(kind, phase),
                &spec,
            ));
        }
    }
}

/// One pass: `(id, seconds, rendered tables)` per experiment, with a span
/// per experiment when `spans` records.
fn pass(exps: &[Experiment], spans: &mut Spans) -> Vec<(&'static str, f64, Vec<String>)> {
    exps.iter()
        .map(|e| {
            let t = Instant::now();
            let tables: Vec<String> = (e.run)().iter().map(|t| t.render()).collect();
            spans.record(|| e.id.to_string(), 0, t);
            (e.id, t.elapsed().as_secs_f64(), tables)
        })
        .collect()
}

/// Tables checked and tables missing from the golden output.
fn check(out: &[(&'static str, f64, Vec<String>)], golden: &str) -> (u64, u64) {
    let mut tables = 0;
    let mut missing = 0;
    for (id, _, rendered) in out {
        for t in rendered {
            tables += 1;
            if !golden.contains(t.as_str()) {
                missing += 1;
                eprintln!("[benchmark] {id}: a table differs from experiments_output.txt");
            }
        }
    }
    (tables, missing)
}

fn tables_gate(missing: u64) -> Gate {
    gate("every_table_matches_experiments_output", missing == 0)
}

pub fn run(o: &Opts) -> RunOut {
    let mut setup_s = Vec::new();
    timed_setup(&mut setup_s, setup);
    let golden = golden();
    let exps = experiments();
    let mut off = Spans::new(false);
    let (cold_tables, cold_missing) = check(&pass(&exps, &mut off), &golden);
    let (wall_s, heap_mib, passes) = timed_reps(
        o.seconds,
        || pass(&exps, &mut off),
        || more_setups(&mut setup_s, setup),
    );
    let (mut tables, mut missing) = (0, 0);
    for p in &passes {
        let (t, m) = check(p, &golden);
        tables += t;
        missing += m;
    }
    RunOut {
        setup_s,
        attempted: tables,
        failed: missing,
        gates: vec![tables_gate(cold_missing + missing)],
        host: vec![
            Metric::single("experiments_per_pass", "count", exps.len() as f64, 1),
            Metric::single("tables_per_pass", "count", cold_tables as f64, 1),
        ],
        wall_s,
        heap_mib,
        virt: Vec::new(),
        digests: Vec::new(),
    }
}

/// Untraced passes, then traced passes timing each experiment, each for
/// half of `--seconds`.
pub fn trace(o: &Opts) -> TraceOut {
    let t = Instant::now();
    setup();
    let profile_ms = t.elapsed().as_secs_f64() * 1e3;
    let golden = golden();
    let exps = experiments();
    let mut off = Spans::new(false);
    let mut missing = check(&pass(&exps, &mut off), &golden).1;
    let (walls, _, _) = timed_reps(o.seconds / 2.0, || pass(&exps, &mut off), || {});
    let untraced_s = Summary::of(&walls).median;

    let mut spans = Spans::new(o.spans);
    let mut acc = Acc::default();
    let mut tables = 0;
    let (traced_walls, _, passes) = timed_reps(
        o.seconds / 2.0,
        || {
            let out = pass(&exps, &mut spans);
            for (_, secs, _) in out.iter().filter(|(id, _, _)| IDS.contains(id)) {
                acc.add(Layer::Harness, (secs * 1e9) as u64, 1);
            }
            out
        },
        || {},
    );
    for out in &passes {
        let (t, m) = check(out, &golden);
        tables += t;
        missing += m;
    }
    let mut layers: Vec<(String, f64)> = IDS
        .iter()
        .map(|&id| {
            let ms: Vec<f64> = passes
                .iter()
                .flat_map(|out| out.iter().filter(|(i, _, _)| *i == id))
                .map(|(_, secs, _)| secs * 1e3)
                .collect();
            let median = if ms.is_empty() {
                0.0
            } else {
                Summary::of(&ms).median
            };
            (format!("harness.{id}.ms"), median)
        })
        .collect();
    let traced_s: f64 = traced_walls.iter().sum();
    layers.extend([
        ("profiler.profile_ms".to_string(), profile_ms),
        (
            "trace.overhead_frac".to_string(),
            Summary::of(&traced_walls).median / untraced_s - 1.0,
        ),
        (
            "trace.unattributed_frac".to_string(),
            1.0 - ratio(acc.ns(Layer::Harness) as f64 / 1e9, traced_s),
        ),
    ]);
    TraceOut {
        attempted: tables,
        failed: missing,
        gates: vec![tables_gate(missing)],
        layers,
        acc,
        spans,
    }
}
