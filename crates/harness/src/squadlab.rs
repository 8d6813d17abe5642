//! Isolated kernel-squad execution: run one squad on a fresh GPU under a
//! chosen execution scheme and measure its actual duration.
//!
//! Used by the predictor-validation experiments (Fig. 10, §4.4.2), the
//! squad-optimization study (Fig. 17), and the split-ratio sweep
//! (Fig. 19b).

use bless::{DeployedApp, ExecConfig, Squad, SquadEntry};
use gpu_sim::{CtxKind, Gpu, GpuSpec, HostCosts, InstState, KernelHandle};
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
    let mut all_handles: Vec<KernelHandle> = Vec::new();
    // (queue to re-launch tail on, tail kernels, handles of head) per entry.
    type TailEntry = (gpu_sim::QueueId, Vec<(usize, usize)>, usize);
    let mut tails: Vec<TailEntry> = Vec::new();

    match scheme {
        SquadScheme::Seq => {
            let ctx = require_ok(gpu.create_context(CtxKind::Default), "create context");
            let q = require_ok(gpu.create_queue(ctx), "create queue");
            for e in &squad.entries {
                for &k in &e.kernels {
                    let h = gpu.launch(q, tables[e.app], k, 0);
                    all_handles.push(require_ok(h, "launch"));
                }
            }
        }
        SquadScheme::Nsp => {
            for e in &squad.entries {
                let ctx = require_ok(gpu.create_context(CtxKind::Default), "create context");
                let q = require_ok(gpu.create_queue(ctx), "create queue");
                for &k in &e.kernels {
                    let h = gpu.launch(q, tables[e.app], k, 0);
                    all_handles.push(require_ok(h, "launch"));
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
                for &k in &e.kernels[..split_at] {
                    let h = gpu.launch(rq, tables[e.app], k, 0);
                    all_handles.push(require_ok(h, "launch"));
                }
                let tail: Vec<(usize, usize)> =
                    e.kernels[split_at..].iter().map(|&k| (e.app, k)).collect();
                tails.push((fq, tail, all_handles.len()));
            }
        }
    }

    // Drive to completion; for semi-SP, release each entry's tail when its
    // restricted head drains.
    let mut released = vec![false; tails.len()];
    loop {
        let progressed = gpu.step().is_some();
        // Release tails whose heads are done.
        for (ti, (fq, tail, _)) in tails.iter().enumerate() {
            if released[ti] || tail.is_empty() {
                if !released[ti] && tail.is_empty() {
                    released[ti] = true;
                }
                continue;
            }
            // Head of this entry = handles launched before the tail marker
            // belonging to this entry's restricted queue. Track by simply
            // checking all handles so far: the entry's head handles are the
            // slice preceding its marker that we launched for it.
            let (_, _, marker) = tails[ti];
            let head_start = if ti == 0 { 0 } else { tails[ti - 1].2 };
            let head_done = all_handles[head_start..marker]
                .iter()
                .all(|&h| gpu.kernel_state(h) == InstState::Done);
            if head_done {
                released[ti] = true;
                let vacuum = gpu.costs().context_switch;
                for &(app, k) in tail {
                    let h = gpu.launch_delayed(*fq, tables[app], k, 0, vacuum);
                    all_handles.push(require_ok(h, "launch"));
                }
            }
        }
        if !progressed && gpu.peek_event_time().is_none() {
            break;
        }
    }

    let end = all_handles
        .iter()
        .filter_map(|&h| gpu.kernel_finished_at(h))
        .max()
        .unwrap_or(SimTime::ZERO);
    end.duration_since(SimTime::ZERO)
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
