//! Fig. 10: the two performance estimators across the full configuration
//! space of one {NasNet + ResNet-50} kernel squad.
//!
//! For each of the 17 strict SP configurations the interference-free
//! predictor (Eq. 1) is compared against the measured squad duration; the
//! NSP configuration is predicted by the workload-equivalence predictor
//! (Eq. 2). The determiner must identify the true optimum (the paper finds
//! 54 SMs / 54 SMs for its example squad).

use bless::{predict_interference_free, predict_workload_equivalence, DeployedApp, ExecConfig};
use dnn_models::{ModelKind, Phase};
use gpu_sim::GpuSpec;
use metrics::Table;

use crate::cache;
use crate::squadlab::{run_squad, slice_squad, SquadScheme};

/// Regenerates Fig. 10.
pub fn run() -> Vec<Table> {
    let spec = GpuSpec::a100();
    let apps = vec![
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
    ];
    // The paper's example squad: 58 NasNet kernels + a comparable R50 slice.
    let squad = slice_squad(&apps, &[1, 1], &[58, 60]);

    let mut t = Table::new(
        "Fig. 10: {NasNet+R50} squad duration per configuration",
        &["config (SMs)", "predicted ms", "actual ms", "predictor"],
    );

    let mut best_pred: Option<(String, f64)> = None;
    let mut best_actual: Option<(String, f64)> = None;
    let upd = |slot: &mut Option<(String, f64)>, label: &str, v: f64| {
        if slot.as_ref().is_none_or(|(_, b)| v < *b) {
            *slot = Some((label.to_string(), v));
        }
    };

    for p in 1..=17u32 {
        let parts = vec![p, 18 - p];
        let label = format!("{}/{}", p * 6, (18 - p) * 6);
        let cfg = ExecConfig::Sp {
            partitions: parts.clone(),
        };
        let predicted =
            predict_interference_free(&squad, &apps, &parts, &spec.channel_model).as_millis_f64();
        let actual = run_squad(&squad, &apps, &spec, SquadScheme::Sp, &cfg).as_millis_f64();
        upd(&mut best_pred, &label, predicted);
        upd(&mut best_actual, &label, actual);
        t.row(&[
            label,
            format!("{predicted:.2}"),
            format!("{actual:.2}"),
            "interference-free".to_string(),
        ]);
    }
    let nsp_pred = predict_workload_equivalence(&squad, &apps, spec.num_sms, &spec.channel_model)
        .as_millis_f64();
    let nsp_actual =
        run_squad(&squad, &apps, &spec, SquadScheme::Nsp, &ExecConfig::Nsp).as_millis_f64();
    upd(&mut best_pred, "NSP", nsp_pred);
    upd(&mut best_actual, "NSP", nsp_actual);
    t.row(&[
        "NSP".to_string(),
        format!("{nsp_pred:.2}"),
        format!("{nsp_actual:.2}"),
        "workload-equivalence".to_string(),
    ]);

    let (pred_cfg, _) = crate::require(best_pred, "configs evaluated");
    let (act_cfg, _) = crate::require(best_actual, "configs evaluated");
    t.note(format!(
        "predicted optimum: {pred_cfg}; actual optimum: {act_cfg}; match: {}",
        pred_cfg == act_cfg
    ));
    t.note("paper: predicted optimum 54SMs/54SMs matches the actual optimal split");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_optimum_matches_actual() {
        let tables = run();
        let t = &tables[0];
        assert_eq!(t.row_count(), 18, "17 SP configs + NSP");
        // Parse mins from the table and verify the determiner's pick.
        let mut best_pred = (String::new(), f64::MAX);
        let mut best_act = (String::new(), f64::MAX);
        for r in 0..t.row_count() {
            let pred: f64 = t.cell(r, 1).parse().unwrap();
            let act: f64 = t.cell(r, 2).parse().unwrap();
            if pred < best_pred.1 {
                best_pred = (t.cell(r, 0).to_string(), pred);
            }
            if act < best_act.1 {
                best_act = (t.cell(r, 0).to_string(), act);
            }
        }
        assert_eq!(
            best_pred.0, best_act.0,
            "predicted optimum must match the measured optimum"
        );
    }

    #[test]
    fn predictions_track_actuals() {
        // Average relative error of the interference-free predictor should
        // be in the paper's single-digit-percent regime.
        let tables = run();
        let t = &tables[0];
        let mut err = 0.0;
        let mut n = 0;
        for r in 0..t.row_count() - 1 {
            let pred: f64 = t.cell(r, 1).parse().unwrap();
            let act: f64 = t.cell(r, 2).parse().unwrap();
            err += (pred - act).abs() / act;
            n += 1;
        }
        let mean = err / n as f64;
        assert!(mean < 0.15, "mean IF predictor error {:.1}%", mean * 100.0);
    }
}
