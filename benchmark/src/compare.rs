//! `compare`: verdicts for a change against its parent over alternating
//! runs of the benchmark.
//!
//! Each input file holds the standard output of many runs (the detail
//! lines are used). The i-th run of a workload in the parent file pairs
//! with the i-th run of that workload in the change file; run the pairs
//! alternately, each pair at one seed. Per workload and end-to-end metric
//! (bounds from `BENCHMARK.json`):
//!
//! * **improved** — the change wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than the parent's
//!   interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **unresolved** — either side's spread (interquartile range over the
//!   median) is wider than the bound, unless every change run beats every
//!   parent run;
//! * **unchanged** — otherwise.
//!
//! Virtual-time results and request-log digests are deterministic for a
//! seed: any difference within a pair is flagged **changed**.

use crate::json::Json;
use crate::stats::Summary;

/// Fewest pairs a verdict rests on.
const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Improved,
    Worse,
    Unresolved,
    Unchanged,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(bench: &Json) -> Result<Vec<Declared>, String> {
    bench
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Declared {
                    name: n.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry: {}", m.to_line())),
            }
        })
        .collect()
}

fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let p = Summary::of(parent);
    let c = Summary::of(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| better(cv, pv))
        .count();
    let diff = (c.median - p.median).abs();
    if better(c.median, p.median) && wins * 10 >= pairs * 9 && diff > p.q3 - p.q1 {
        return Verdict::Improved;
    }
    if better(p.median, c.median) && diff > bound * p.median.abs() {
        return Verdict::Worse;
    }
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    if p.spread().max(c.spread()) > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The detail lines of untraced runs in `text`, grouped by workload in
/// order of first appearance.
fn runs(text: &str) -> Vec<(String, Vec<Json>)> {
    let mut out: Vec<(String, Vec<Json>)> = Vec::new();
    for line in text.lines() {
        let Ok(v) = Json::parse(line.trim()) else {
            continue;
        };
        if v.get("mode").and_then(Json::as_str) != Some("run") {
            continue;
        }
        let Some(w) = v.get("workload").and_then(Json::as_str).map(str::to_string) else {
            continue;
        };
        match out.iter_mut().find(|(n, _)| *n == w) {
            Some((_, list)) => list.push(v),
            None => out.push((w, vec![v])),
        }
    }
    out
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Names of the deterministic results one run carries.
fn exact_keys(run: &Json) -> Vec<(&'static str, String)> {
    ["virtual", "digests"]
        .into_iter()
        .flat_map(|section| {
            run.get(section)
                .map(Json::members)
                .unwrap_or_default()
                .iter()
                .map(move |(k, _)| (section, k.clone()))
        })
        .collect()
}

fn exact_value(run: &Json, section: &str, key: &str) -> Option<Json> {
    let v = run.get(section)?.get(key)?;
    Some(v.get("value").unwrap_or(v).clone())
}

fn fmt_summary(xs: &[f64]) -> String {
    let s = Summary::of(xs);
    format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3)
}

pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            match it.next() {
                Some(p) => bench_path = p.clone(),
                None => {
                    eprintln!("compare: --bench needs a path");
                    return 2;
                }
            }
        } else {
            files.push(a.clone());
        }
    }
    let [parent_path, change_path] = files.as_slice() else {
        eprintln!("usage: benchmark compare <parent.out> <change.out> [--bench <BENCHMARK.json>]");
        return 2;
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let loaded = (|| -> Result<_, String> {
        let bench = Json::parse(&read(&bench_path)?).map_err(|e| format!("{bench_path}: {e}"))?;
        Ok((
            declared(&bench)?,
            runs(&read(parent_path)?),
            runs(&read(change_path)?),
        ))
    })();
    let (metrics, parent, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };

    let mut regressions = 0;
    println!(
        "{:<16} {:<28} {:>42} {:>42} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (w, p_runs) in &parent {
        let c_runs = change
            .iter()
            .find(|(n, _)| n == w)
            .map_or(&[][..], |(_, r)| r.as_slice());
        let pairs = p_runs.len().min(c_runs.len());
        if pairs < MIN_PAIRS {
            println!("{w:<16} only {pairs} pairs; a verdict needs {MIN_PAIRS}");
            regressions += 1;
            continue;
        }
        let (p_runs, c_runs) = (&p_runs[..pairs], &c_runs[..pairs]);
        for m in &metrics {
            let (pv, cv) = (values(p_runs, &m.name), values(c_runs, &m.name));
            if pv.len() != pairs || cv.len() != pairs {
                println!("{w:<16} {:<28} missing from some runs", m.name);
                regressions += 1;
                continue;
            }
            let v = verdict(&pv, &cv, m.lower_is_better, m.bound);
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|&(&p, &c)| if m.lower_is_better { c < p } else { c > p })
                .count();
            regressions += usize::from(v == Verdict::Worse);
            println!(
                "{w:<16} {:<28} {:>42} {:>42} {:>7}  {v:?}",
                m.name,
                fmt_summary(&pv),
                fmt_summary(&cv),
                format!("{wins}/{pairs}"),
            );
        }
        for (section, key) in exact_keys(&p_runs[0]) {
            let mut changed = 0;
            let mut seed_mismatch = false;
            for (p, c) in p_runs.iter().zip(c_runs) {
                seed_mismatch |= p.get("seed") != c.get("seed");
                changed +=
                    usize::from(exact_value(p, section, &key) != exact_value(c, section, &key));
            }
            let verdict = if seed_mismatch {
                "pairs ran at different seeds".to_string()
            } else if changed > 0 {
                format!("Changed in {changed}/{pairs} pairs")
            } else {
                "Identical".to_string()
            };
            regressions += usize::from(seed_mismatch || changed > 0);
            println!(
                "{w:<16} {:<28} {:>42} {:>42} {:>7}  {verdict}",
                key,
                format!("({section}, exact)"),
                "",
                "",
            );
        }
    }
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize, step: f64) -> Vec<f64> {
        (0..n)
            .map(|i| center + step * (i as f64 - n as f64 / 2.0))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        let parent = around(10.0, 10, 0.02);
        // 20% faster everywhere: improved when lower is better.
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Improved);
        // The same numbers for a higher-is-better metric are a regression.
        assert_eq!(verdict(&parent, &faster, false, 0.1), Verdict::Worse);
        // 3% slower with a 10% bound: within the bound.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.03).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.1), Verdict::Unchanged);
        // 15% slower: worse.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.15).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.1), Verdict::Worse);
        // Spread wider than the bound and no clear win: unresolved.
        let noisy = around(10.0, 10, 0.5);
        assert_eq!(verdict(&parent, &noisy, true, 0.1), Verdict::Unresolved);
        // A win in 8 of 10 pairs is not an improvement, even by the median.
        let mut mostly = faster.clone();
        mostly[0] = parent[0] + 1.0;
        mostly[1] = parent[1] + 1.0;
        assert_ne!(verdict(&parent, &mostly, true, 0.1), Verdict::Improved);
        // Identical runs are unchanged.
        assert_eq!(verdict(&parent, &parent, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn runs_group_detail_lines_by_workload() {
        let text = "noise\n\
            {\"workload\":\"a\",\"mode\":\"run\",\"seed\":1,\"metrics\":{\"wall_s\":{\"value\":1.0}}}\n\
            {\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n\
            {\"workload\":\"a\",\"mode\":\"trace\",\"seed\":1}\n\
            {\"workload\":\"b\",\"mode\":\"run\",\"seed\":1,\"metrics\":{\"wall_s\":{\"value\":2.0}}}\n\
            {\"workload\":\"a\",\"mode\":\"run\",\"seed\":2,\"metrics\":{\"wall_s\":{\"value\":3.0}}}\n";
        let r = runs(text);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, "a");
        assert_eq!(values(&r[0].1, "wall_s"), vec![1.0, 3.0]);
        assert_eq!(values(&r[1].1, "wall_s"), vec![2.0]);
    }
}
