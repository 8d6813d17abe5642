//! Fig. 9: the interference study.
//!
//! (a) kernel-level slowdown of victims under co-located memory pressure —
//! the paper observes slowdown ratios that stay below 2× even against a
//! highly memory-intensive aggressor.
//!
//! (b) application-level slowdown when co-locating mutual pairs of
//! ResNet-50, VGG-11, AlexNet, and BERT — the paper measures ≈7% average.

use std::sync::Arc;

use dnn_models::micro;
use dnn_models::{ModelKind, Phase};
use gpu_sim::{Channel, ChannelDemand, CtxKind, Gpu, GpuSpec, HostCosts, KernelDesc, StepOutput};
use metrics::Table;
use sim_core::{SimDuration, SimTime};
use workloads::{pair_workload, PaperWorkload};

use crate::cache;
use crate::runner::{run_system, System};

/// Events a victim/aggressor run may pop before the victim finishes: it
/// takes a handful, so running out means a kernel that never finishes.
const PAIR_EVENT_BUDGET: u64 = 1_000;

/// Runs `pair` (victim, aggressor) on two queues of one context and returns
/// the victim's completion instant over `base`, its solo duration.
fn victim_slowdown(spec: &GpuSpec, pair: [KernelDesc; 2], base: SimDuration) -> f64 {
    let mut gpu = Gpu::new(spec.clone(), HostCosts::free());
    let ctx = crate::require_ok(gpu.create_context(CtxKind::Default), "create context");
    let q1 = crate::require_ok(gpu.create_queue(ctx), "create queue");
    let q2 = crate::require_ok(gpu.create_queue(ctx), "create queue");
    let table = gpu.register_kernel_table(Arc::from(pair));
    let v = crate::require_ok(gpu.launch(q1, table, 0, 0), "launch");
    crate::require_ok(gpu.launch(q2, table, 1, 1), "launch");
    for _ in 0..PAIR_EVENT_BUDGET {
        match gpu.step() {
            Some(StepOutput::KernelDone { handle, .. }) if handle == v => {
                let t = gpu.now().duration_since(SimTime::ZERO);
                return t.as_nanos() as f64 / base.as_nanos() as f64;
            }
            None if gpu.peek_event_time().is_none() => panic!("victim never finished"),
            _ => {}
        }
    }
    panic!("victim still running after {PAIR_EVENT_BUDGET} events")
}

/// Runs a victim kernel against an aggressor and returns the slowdown.
fn kernel_slowdown(victim_mem: f64, aggressor_mem: f64, spec: &GpuSpec) -> f64 {
    let base = SimDuration::from_micros(500);
    let half = spec.num_sms / 2;
    let pair = [
        micro::victim(base, half, victim_mem),
        micro::aggressor(half, aggressor_mem),
    ];
    victim_slowdown(spec, pair, base)
}

/// Regenerates Fig. 9(a).
pub fn run_a() -> Vec<Table> {
    let spec = GpuSpec::a100();
    let mut t = Table::new(
        "Fig. 9(a): victim kernel slowdown vs aggressor memory pressure",
        &[
            "aggressor mem",
            "compute victim (mem 0.0)",
            "mixed victim (mem 0.5)",
            "memory victim (mem 1.0)",
        ],
    );
    for aggr in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        t.row(&[
            format!("{aggr:.1}"),
            format!("{:.3}", kernel_slowdown(0.0, aggr, &spec)),
            format!("{:.3}", kernel_slowdown(0.5, aggr, &spec)),
            format!("{:.3}", kernel_slowdown(1.0, aggr, &spec)),
        ]);
    }
    t.note("paper: slowdown ratio no larger than 2 even against a highly memory-intensive kernel");
    vec![t]
}

/// Per-channel pair slowdown: victim and aggressor press with explicit
/// demand vectors under whatever channel model `spec` carries.
pub fn channel_kernel_slowdown(
    victim: ChannelDemand,
    aggressor: ChannelDemand,
    spec: &GpuSpec,
) -> f64 {
    let base = SimDuration::from_micros(500);
    let half = spec.num_sms / 2;
    let pair = [
        micro::channel_victim(base, half, victim),
        micro::channel_aggressor(half, aggressor),
    ];
    victim_slowdown(spec, pair, base)
}

/// Regenerates Fig. 9(c): the per-resource decomposition of Fig. 9(a).
/// Each cell co-locates a victim pressing 0.5 on one channel with an
/// aggressor pressing 1.0 on another, under the calibrated
/// [`GpuSpec::a100_per_resource`] model; the diagonal (same channel)
/// dominates every off-diagonal cell of its row, which only feels the
/// base-floor coupling.
pub fn run_c() -> Vec<Table> {
    let spec = GpuSpec::a100_per_resource();
    let mut t = Table::new(
        "Fig. 9(c): per-channel interference decomposition (victim 0.5 vs aggressor 1.0)",
        &[
            "aggressor channel",
            "compute victim",
            "l2 victim",
            "dram victim",
            "pcie victim",
        ],
    );
    for aggr_ch in Channel::ALL {
        let mut row = vec![aggr_ch.name().to_string()];
        for victim_ch in Channel::ALL {
            let s = channel_kernel_slowdown(
                ChannelDemand::collapsed(victim_ch, 0.5),
                ChannelDemand::collapsed(aggr_ch, 1.0),
                &spec,
            );
            row.push(format!("{s:.3}"));
        }
        t.row(&row);
    }
    t.note("diagonal = same-channel contention; off-diagonal = base-floor coupling only");

    // Collapse equality: the per-resource model with all demand on one
    // channel carrying the scalar curve reproduces the scalar model to the
    // last bit (the differential-twin invariant, DESIGN.md §5j).
    let scalar = GpuSpec::a100();
    let twin = scalar.collapse_twin(Channel::DramBw);
    let mut eq = Table::new(
        "Fig. 9(c) cont.: collapse-twin equality against the scalar model",
        &["victim mem", "scalar slowdown", "twin slowdown", "equal"],
    );
    for mem in [0.0, 0.5, 1.0] {
        let s = kernel_slowdown(mem, 1.0, &scalar);
        let c = channel_kernel_slowdown(
            ChannelDemand::collapsed(Channel::DramBw, mem),
            ChannelDemand::collapsed(Channel::DramBw, 1.0),
            &twin,
        );
        eq.row(&[
            format!("{mem:.1}"),
            format!("{s:.6}"),
            format!("{c:.6}"),
            if s == c { "yes" } else { "NO" }.to_string(),
        ]);
    }
    eq.note("equality is exact (bit-identical float sequences), not a tolerance");
    vec![t, eq]
}

/// The Fig. 9(b) model set: R50, VGG, AlexNet, BERT.
const PAIR_MODELS: [ModelKind; 4] = [
    ModelKind::ResNet50,
    ModelKind::Vgg11,
    ModelKind::AlexNet,
    ModelKind::Bert,
];

/// Application-level slowdown of a 50/50 MPS co-location of (a, b)
/// relative to each app's isolated 50% latency. Returns the mean of both
/// apps' slowdowns.
fn app_pair_slowdown(a: ModelKind, b: ModelKind, spec: &GpuSpec) -> f64 {
    let ws = pair_workload(
        cache::model(a, Phase::Inference),
        cache::model(b, Phase::Inference),
        (0.5, 0.5),
        PaperWorkload::HighLoad,
        8,
        SimTime::from_secs(5),
        3,
    );
    let r = run_system(&System::Gslice, &ws, spec, SimTime::from_secs(60), None);
    let mut total = 0.0;
    for app in 0..2 {
        let lat = crate::require(r.log.stats(app).mean, "app ran").as_nanos() as f64;
        let iso = r.iso_targets[app].as_nanos() as f64;
        total += lat / iso - 1.0;
    }
    total / 2.0
}

/// Regenerates Fig. 9(b).
pub fn run_b() -> Vec<Table> {
    let spec = GpuSpec::a100();
    let mut t = Table::new(
        "Fig. 9(b): application-level interference (mutual pairs, 50/50 MPS)",
        &["pair", "mean slowdown %"],
    );
    let mut total = 0.0;
    let mut n = 0;
    for (i, &a) in PAIR_MODELS.iter().enumerate() {
        for &b in &PAIR_MODELS[i..] {
            let s = app_pair_slowdown(a, b, &spec);
            total += s;
            n += 1;
            t.row(&[
                format!("{}+{}", a.short_name(), b.short_name()),
                format!("{:.1}", s * 100.0),
            ]);
        }
    }
    t.row(&[
        "AVERAGE".to_string(),
        format!("{:.1}", total / n as f64 * 100.0),
    ]);
    t.note("paper: average slowdown caused by interference is 7%");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9a_slowdown_capped_at_two_and_monotone() {
        let spec = GpuSpec::a100();
        let mut prev = 0.0;
        for aggr in [0.0, 0.5, 1.0] {
            let s = kernel_slowdown(1.0, aggr, &spec);
            assert!(s >= prev - 1e-9, "monotone in aggressor pressure");
            assert!(s <= 2.0 + 1e-9, "capped at 2x, got {s}");
            prev = s;
        }
        assert!(prev > 1.2, "worst case should be substantial: {prev}");
    }

    #[test]
    fn fig9c_same_channel_dominates_cross_channel() {
        let spec = GpuSpec::a100_per_resource();
        for ch in [Channel::L2, Channel::DramBw] {
            let same = channel_kernel_slowdown(
                ChannelDemand::collapsed(ch, 0.5),
                ChannelDemand::collapsed(ch, 1.0),
                &spec,
            );
            let cross_ch = if ch == Channel::L2 {
                Channel::DramBw
            } else {
                Channel::L2
            };
            let cross = channel_kernel_slowdown(
                ChannelDemand::collapsed(cross_ch, 0.5),
                ChannelDemand::collapsed(ch, 1.0),
                &spec,
            );
            assert!(same > cross, "{ch:?}: same {same:.3} vs cross {cross:.3}");
            assert!(cross > 1.0, "base floor still couples: {cross:.3}");
        }
    }

    /// Satellite of the per-resource model: on the Fig. 9(a) calibration
    /// grid with demand *split* across L2 and DRAM-BW, the channel-aware
    /// closed form predicts the engine-measured slowdown at least as well
    /// as the scalar closed form (which only sees the lumped intensity
    /// and cannot tell the channels apart).
    #[test]
    fn fig9c_channel_predictor_error_no_worse_than_scalar() {
        use gpu_sim::{ChannelParams, NUM_CHANNELS};
        let spec = GpuSpec::a100_per_resource();
        let params = ChannelParams::a100();
        let split = |m: f64| ChannelDemand::new(0.0, m / 2.0, m / 2.0, 0.0);
        for victim_mem in [0.3, 0.5, 0.7, 0.9] {
            for aggr_mem in [0.5, 1.0] {
                let vd = split(victim_mem);
                let ad = split(aggr_mem);
                let measured = channel_kernel_slowdown(vd, ad, &spec);

                // Channel closed form: the same per-channel pressure math
                // the engine runs (both kernels at half the device).
                let mut traffic = [0.0f64; NUM_CHANNELS];
                for d in [&vd, &ad] {
                    for (t, dv) in traffic.iter_mut().zip(&d.0) {
                        *t += dv * 0.5;
                    }
                }
                let chan_pred = params.slowdown(&vd, 0.5, &traffic);

                // Scalar closed form on the lumped intensities.
                let total = victim_mem * 0.5 + aggr_mem * 0.5;
                let pressure = (total - victim_mem * 0.5).max(0.0);
                let sens = spec.interference_base + (1.0 - spec.interference_base) * victim_mem;
                let scalar_pred =
                    (1.0 + spec.interference_alpha * pressure * sens).min(spec.interference_cap);

                let chan_err = (chan_pred - measured).abs();
                let scalar_err = (scalar_pred - measured).abs();
                assert!(
                    chan_err <= scalar_err + 1e-9,
                    "victim {victim_mem} aggr {aggr_mem}: channel err {chan_err:.4} \
                     (pred {chan_pred:.4}) vs scalar err {scalar_err:.4} \
                     (pred {scalar_pred:.4}), measured {measured:.4}"
                );
            }
        }
    }

    #[test]
    fn fig9c_collapse_twin_matches_scalar_exactly() {
        let scalar = GpuSpec::a100();
        let twin = scalar.collapse_twin(Channel::DramBw);
        for mem in [0.0, 0.5, 1.0] {
            let s = kernel_slowdown(mem, 1.0, &scalar);
            let c = channel_kernel_slowdown(
                ChannelDemand::collapsed(Channel::DramBw, mem),
                ChannelDemand::collapsed(Channel::DramBw, 1.0),
                &twin,
            );
            assert_eq!(s.to_bits(), c.to_bits(), "mem {mem}: {s} vs {c}");
        }
    }

    #[test]
    fn fig9b_average_is_single_digit_percent() {
        let spec = GpuSpec::a100();
        let s = app_pair_slowdown(ModelKind::ResNet50, ModelKind::Vgg11, &spec);
        assert!(
            (0.0..0.20).contains(&s),
            "pair slowdown should be a modest positive percentage: {s}"
        );
    }
}
