//! Fig. 17: kernel-squad duration under the four execution schemes, for
//! the pairs {NAS+BERT}, {BERT+R50} and {NAS+R50}.
//!
//! Paper: relative to SEQ, the squads run 6.5% faster with NSP, 12.9%
//! faster with strict SP and 17.6% faster with Semi-SP on average.

use bless::{determine_config, DeployedApp, ExecConfig};
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;

use crate::cache;
use crate::squadlab::{run_squad, slice_squad, SquadScheme};

/// The three application pairs of Fig. 17.
pub const PAIRS: [(ModelKind, ModelKind); 3] = [
    (ModelKind::NasNet, ModelKind::Bert),
    (ModelKind::Bert, ModelKind::ResNet50),
    (ModelKind::NasNet, ModelKind::ResNet50),
];

/// Measures one pair's squad under all four schemes; returns
/// (seq, nsp, sp, semi) in milliseconds.
fn pair_durations(a: ModelKind, b: ModelKind, kernels_each: usize) -> (f64, f64, f64, f64) {
    let spec = GpuSpec::a100();
    let apps = vec![
        DeployedApp::new(cache::profile(a, Phase::Inference, &spec), 0.5, None),
        DeployedApp::new(cache::profile(b, Phase::Inference, &spec), 0.5, None),
    ];
    let squad = slice_squad(&apps, &[1, 1], &[kernels_each, kernels_each]);
    let choice = determine_config(&squad, &apps, spec.num_sms, &spec.channel_model);
    let sp_cfg = match &choice.config {
        c @ ExecConfig::Sp { .. } => c.clone(),
        // If NSP predicted best, use the best strict split found by a
        // quick scan for the SP/Semi-SP columns (Fig. 17 always shows SP).
        ExecConfig::Nsp => {
            let mut best = (vec![9u32, 9u32], f64::MAX);
            for p in 1..=17u32 {
                let parts = vec![p, 18 - p];
                let d =
                    bless::predict_interference_free(&squad, &apps, &parts, &spec.channel_model)
                        .as_millis_f64();
                if d < best.1 {
                    best = (parts, d);
                }
            }
            ExecConfig::Sp { partitions: best.0 }
        }
    };
    let ms = |scheme| run_squad(&squad, &apps, &spec, scheme, &sp_cfg).as_millis_f64();
    (
        ms(SquadScheme::Seq),
        ms(SquadScheme::Nsp),
        ms(SquadScheme::Sp),
        ms(SquadScheme::SemiSp(0.5)),
    )
}

/// Regenerates Fig. 17.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 17: kernel-squad duration by execution scheme (ms)",
        &["pair", "SEQ", "NSP", "SP", "Semi-SP"],
    );
    let mut sums = [0.0f64; 4];
    for (a, b) in PAIRS {
        let (seq, nsp, sp, semi) = pair_durations(a, b, 40);
        sums[0] += seq;
        sums[1] += nsp;
        sums[2] += sp;
        sums[3] += semi;
        t.row(&[
            format!("{}+{}", a.short_name(), b.short_name()),
            format!("{seq:.2}"),
            format!("{nsp:.2}"),
            format!("{sp:.2}"),
            format!("{semi:.2}"),
        ]);
    }
    let red = |i: usize| (1.0 - sums[i] / sums[0]) * 100.0;
    t.note(format!(
        "mean reduction vs SEQ: NSP {:.1}%, SP {:.1}%, Semi-SP {:.1}% (paper: 6.5/12.9/17.6%)",
        red(1),
        red(2),
        red(3)
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_ordering_matches_figure_17() {
        for (a, b) in PAIRS {
            let (seq, nsp, sp, semi) = pair_durations(a, b, 30);
            assert!(nsp < seq, "{a:?}+{b:?}: NSP {nsp:.2} vs SEQ {seq:.2}");
            assert!(sp < seq, "{a:?}+{b:?}: SP {sp:.2} vs SEQ {seq:.2}");
            // In our substrate the rear free-for-all pays dispatch
            // contention, so Semi-SP lands within a few percent of strict
            // SP rather than beating it (see EXPERIMENTS.md).
            assert!(
                semi <= sp * 1.10,
                "{a:?}+{b:?}: Semi-SP {semi:.2} vs SP {sp:.2}"
            );
        }
    }
}
