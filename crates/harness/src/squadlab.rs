//! Isolated kernel-squad execution: run one squad on a fresh GPU under a
//! chosen execution scheme and measure its actual duration.
//!
//! Used by the predictor-validation experiments (Fig. 10, §4.4.2), the
//! squad-optimization study (Fig. 17), and the split-ratio sweep
//! (Fig. 19b).

use std::ops::Range;

use bless::{DeployedApp, ExecConfig, Squad, SquadEntry};
use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, QueueId, StepOutput};
use sim_core::{SimDuration, SimTime};

use crate::require_ok;

/// How a squad is executed in the lab (Fig. 17's four schemes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SquadScheme {
    /// All kernels from one device queue, strictly sequential.
    Seq,
    /// One queue per request, no spatial restriction (Fig. 7a).
    Nsp,
    /// Strict spatial partitioning with the given per-entry SM caps
    /// (Fig. 7b).
    Sp,
    /// Spatial partitioning for the first `c%` of each request's kernels,
    /// unrestricted for the rear (Fig. 7c). The `f64` is the split ratio.
    SemiSp(f64),
}

/// Events a squad run may pop per kernel before it is idle: it takes a
/// few, so running out means a kernel that never finishes.
const EVENTS_PER_KERNEL: u64 = 1_000;

/// Runs `squad` on a fresh GPU under `scheme` and returns the measured
/// squad duration (launch of the first kernel to completion of the last).
///
/// For [`SquadScheme::Sp`] and [`SquadScheme::SemiSp`], `config` must be
/// an [`ExecConfig::Sp`]; its caps are applied per entry.
pub fn run_squad(
    squad: &Squad,
    apps: &[DeployedApp],
    spec: &GpuSpec,
    scheme: SquadScheme,
    config: &ExecConfig,
) -> SimDuration {
    let mut gpu = Gpu::new(spec.clone(), HostCosts::paper());
    // Each app's profiled kernels, launched by index.
    let tables: Vec<_> = apps
        .iter()
        .map(|a| gpu.register_kernel_table(a.profile.kernels.clone()))
        .collect();
    let num_sms = spec.num_sms;
    let kernels: usize = squad.entries.iter().map(|e| e.kernels.len()).sum();
    // (queue to launch the tail on, tail kernels, the head's handles: its
    // launch numbers, which are consecutive) per entry.
    type TailEntry = (QueueId, Vec<(usize, usize)>, Range<u64>);
    let mut tails: Vec<TailEntry> = Vec::new();

    match scheme {
        SquadScheme::Seq => {
            let ctx = require_ok(gpu.create_context(CtxKind::Default), "create context");
            let q = require_ok(gpu.create_queue(ctx), "create queue");
            for e in &squad.entries {
                for &k in &e.kernels {
                    require_ok(gpu.launch(q, tables[e.app], k, 0), "launch");
                }
            }
        }
        SquadScheme::Nsp => {
            for e in &squad.entries {
                let ctx = require_ok(gpu.create_context(CtxKind::Default), "create context");
                let q = require_ok(gpu.create_queue(ctx), "create queue");
                for &k in &e.kernels {
                    require_ok(gpu.launch(q, tables[e.app], k, 0), "launch");
                }
            }
        }
        SquadScheme::Sp | SquadScheme::SemiSp(_) => {
            let split = match scheme {
                SquadScheme::Sp => 1.0,
                SquadScheme::SemiSp(c) => c,
                _ => unreachable!(),
            };
            for (i, e) in squad.entries.iter().enumerate() {
                let cap = crate::require(config.sm_cap(i, num_sms), "SP schemes need an SP config")
                    .max(1);
                let rctx = require_ok(
                    gpu.create_context(CtxKind::MpsAffinity { sm_cap: cap }),
                    "create context",
                );
                let rq = require_ok(gpu.create_queue(rctx), "create queue");
                let fctx = require_ok(gpu.create_context(CtxKind::Default), "create context");
                let fq = require_ok(gpu.create_queue(fctx), "create queue");
                let split_at =
                    ((e.kernels.len() as f64 * split).ceil() as usize).min(e.kernels.len());
                let mut heads = 0..0;
                for (n, &k) in e.kernels[..split_at].iter().enumerate() {
                    let h = require_ok(gpu.launch(rq, tables[e.app], k, 0), "launch");
                    if n == 0 {
                        heads.start = h.0;
                    }
                    heads.end = h.0 + 1;
                }
                let tail: Vec<(usize, usize)> =
                    e.kernels[split_at..].iter().map(|&k| (e.app, k)).collect();
                tails.push((fq, tail, heads));
            }
        }
    }

    // Drive to completion; for semi-SP, release each entry's tail when its
    // restricted head drains.
    let mut released = vec![false; tails.len()];
    let mut heads_left: Vec<u64> = tails.iter().map(|t| t.2.end - t.2.start).collect();
    let mut end = SimTime::ZERO;
    let budget = EVENTS_PER_KERNEL * (kernels as u64 + 1);
    for _ in 0..budget {
        let out = gpu.step();
        if let Some(StepOutput::KernelDone { handle, .. }) = out {
            end = end.max(gpu.now());
            if let Some(ti) = tails.iter().position(|t| t.2.contains(&handle.0)) {
                heads_left[ti] -= 1;
            }
        }
        // Release tails whose heads are done.
        for (ti, (fq, tail, _)) in tails.iter().enumerate() {
            if released[ti] || tail.is_empty() {
                released[ti] = true;
                continue;
            }
            if heads_left[ti] == 0 {
                released[ti] = true;
                let vacuum = gpu.costs().context_switch;
                for &(app, k) in tail {
                    let h = gpu.launch_delayed(*fq, tables[app], k, 0, vacuum);
                    require_ok(h, "launch");
                }
            }
        }
        if out.is_none() && gpu.peek_event_time().is_none() {
            return end.duration_since(SimTime::ZERO);
        }
    }
    panic!("squad still running after {budget} events")
}

/// Builds a squad slicing `count` consecutive kernels per app starting at
/// each app's `offset` (skipping index 0, the H2D copy, when possible).
pub fn slice_squad(apps: &[DeployedApp], offsets: &[usize], counts: &[usize]) -> Squad {
    assert_eq!(apps.len(), offsets.len());
    assert_eq!(apps.len(), counts.len());
    Squad {
        entries: apps
            .iter()
            .enumerate()
            .filter(|(i, _)| counts[*i] > 0)
            .map(|(i, a)| {
                let total = a.profile.kernel_count();
                let start = offsets[i].min(total.saturating_sub(1)).max(1);
                let end = (start + counts[i]).min(total);
                SquadEntry {
                    app: i,
                    kernels: (start..end).collect(),
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache;
    use bless::determine_config;
    use dnn_models::{ModelKind, Phase};

    fn apps() -> Vec<DeployedApp> {
        let spec = GpuSpec::a100();
        vec![
            DeployedApp::new(
                cache::profile(ModelKind::NasNet, Phase::Inference, &spec),
                0.5,
                None,
            ),
            DeployedApp::new(
                cache::profile(ModelKind::ResNet50, Phase::Inference, &spec),
                0.5,
                None,
            ),
        ]
    }

    #[test]
    fn schemes_order_like_figure_17() {
        let spec = GpuSpec::a100();
        let apps = apps();
        let squad = slice_squad(&apps, &[1, 1], &[30, 30]);
        let choice = determine_config(&squad, &apps, spec.num_sms, &spec.channel_model);
        let cfg = match &choice.config {
            c @ bless::ExecConfig::Sp { .. } => c.clone(),
            bless::ExecConfig::Nsp => bless::ExecConfig::Sp {
                partitions: vec![9, 9],
            },
        };
        let seq = run_squad(&squad, &apps, &spec, SquadScheme::Seq, &cfg);
        let nsp = run_squad(&squad, &apps, &spec, SquadScheme::Nsp, &cfg);
        let sp = run_squad(&squad, &apps, &spec, SquadScheme::Sp, &cfg);
        let semi = run_squad(&squad, &apps, &spec, SquadScheme::SemiSp(0.5), &cfg);
        // Fig. 17's ordering: SEQ slowest; concurrency helps; semi-SP is
        // at least as good as strict SP.
        assert!(nsp < seq, "NSP {nsp} vs SEQ {seq}");
        assert!(sp < seq, "SP {sp} vs SEQ {seq}");
        assert!(sp < nsp, "SP {sp} vs NSP {nsp} (Fig. 7's core ordering)");
        // Semi-SP tracks strict SP closely in our substrate (the paper
        // measures it slightly ahead; see EXPERIMENTS.md).
        assert!(semi <= sp.mul_f64(1.10), "Semi-SP {semi} vs SP {sp}");
    }

    #[test]
    fn slice_squad_respects_bounds() {
        let apps = apps();
        let squad = slice_squad(&apps, &[1, 400], &[10, 100]);
        assert_eq!(squad.entries[0].kernels.len(), 10);
        // App 1 (R50, 82 kernels) clamps: start at 81 max.
        assert!(!squad.entries[1].kernels.is_empty());
        assert!(*squad.entries[1].kernels.last().unwrap() < apps[1].profile.kernel_count());
    }
}
