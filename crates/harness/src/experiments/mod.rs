//! One module per paper artifact; the registry maps experiment ids to
//! runner functions.

pub mod chaos;
pub mod faults;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig4b;
pub mod fig9;
pub mod fleet;
pub mod fleet10k;
pub mod graphs;
pub mod overhead;
pub mod predictor;
pub mod serve;
pub mod slo;
pub mod substrate;
pub mod system_comparison;
pub mod table1;
pub mod traces;

use metrics::Table;

/// A runnable experiment.
pub struct Experiment {
    /// Command-line id (e.g. `"fig13"`).
    pub id: &'static str,
    /// What paper artifact it regenerates.
    pub describes: &'static str,
    /// Runner.
    pub run: fn() -> Vec<Table>,
}

/// All experiments, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            describes: "Table 1: application properties (duration, kernels, profile cost)",
            run: table1::run,
        },
        Experiment {
            id: "fig4b",
            describes: "Fig. 4(b): VGG11+R50 latency under each scheduling scheme",
            run: fig4b::run,
        },
        Experiment {
            id: "fig9a",
            describes: "Fig. 9(a): kernel-level interference vs memory pressure",
            run: fig9::run_a,
        },
        Experiment {
            id: "fig9b",
            describes: "Fig. 9(b): application-level interference in mutual pairs",
            run: fig9::run_b,
        },
        Experiment {
            id: "fig9c",
            describes: "Fig. 9(c): per-channel interference decomposition + collapse-twin equality",
            run: fig9::run_c,
        },
        Experiment {
            id: "system_comparison",
            describes: "§6.1: all systems (incl. Tally) on the Azure-like trace, validator-checked",
            run: system_comparison::run,
        },
        Experiment {
            id: "fig10",
            describes: "Fig. 10: predictor sweep over a NasNet+R50 squad's 18 configs",
            run: fig10::run,
        },
        Experiment {
            id: "predictor",
            describes: "§4.4.2: predictor accuracy and optimal-config hit rate",
            run: predictor::run,
        },
        Experiment {
            id: "fig12",
            describes: "Fig. 12: pair latency charts across quota assignments",
            run: fig12::run,
        },
        Experiment {
            id: "fig13",
            describes: "Fig. 13: symmetric co-location across workloads A/B/C (+training)",
            run: fig13::run,
        },
        Experiment {
            id: "fig14",
            describes: "Fig. 14: latency deviation of 9 pairs under 7 uneven quota configs",
            run: fig14::run,
        },
        Experiment {
            id: "traces",
            describes: "§6.3: real-world-trace workloads (Twitter-like, Azure-like)",
            run: traces::run,
        },
        Experiment {
            id: "fig15",
            describes: "Fig. 15: 4 and 8 co-located applications",
            run: fig15::run,
        },
        Experiment {
            id: "fig16",
            describes: "Fig. 16: extremely biased workload (E)",
            run: fig16::run,
        },
        Experiment {
            id: "slo",
            describes: "§6.5: SLO guarantees (QoS violation rates)",
            run: slo::run,
        },
        Experiment {
            id: "fig17",
            describes: "Fig. 17: kernel-squad duration under SEQ/NSP/SP/Semi-SP",
            run: fig17::run,
        },
        Experiment {
            id: "fig18",
            describes: "Fig. 18: fine-grained squad analysis + ZICO comparison",
            run: fig18::run,
        },
        Experiment {
            id: "fig19a",
            describes: "Fig. 19(a): kernel-squad granularity sweep",
            run: fig19::run_a,
        },
        Experiment {
            id: "fig19b",
            describes: "Fig. 19(b): split-ratio sweep",
            run: fig19::run_b,
        },
        Experiment {
            id: "fig19c",
            describes: "Fig. 19(c): SM-count sweep",
            run: fig19::run_c,
        },
        Experiment {
            id: "fig20",
            describes: "Fig. 20: ablation study",
            run: fig20::run,
        },
        Experiment {
            id: "overhead",
            describes: "§6.9: scheduling overheads",
            run: overhead::run,
        },
        Experiment {
            id: "substrate",
            describes: "substrate ablation: hardware-model knobs vs the headline results",
            run: substrate::run,
        },
        Experiment {
            id: "graphs",
            describes: "§6.10 extension: CUDA-graph scheduling granularity sweep",
            run: graphs::run,
        },
        Experiment {
            id: "faults",
            describes: "robustness: deterministic fault matrix (stragglers, drift, crashes, DMA)",
            run: faults::run,
        },
        Experiment {
            id: "chaos",
            describes: "robustness: seeded GPU kill/hang matrix with live migration (4-64 GPUs)",
            run: chaos::run,
        },
        Experiment {
            id: "fleet",
            describes:
                "§4.2.2: multi-GPU fleet (placement + replicated runtimes, parallel simulation)",
            run: fleet::run,
        },
        Experiment {
            id: "serve",
            describes:
                "DESIGN §5l: open-loop serving daemon (lock-free ingest, admission, shed sweep)",
            run: serve::run,
        },
        Experiment {
            id: "fleet10k",
            describes:
                "ROADMAP 2: 10k-GPU diurnal fleet via the sharded streaming runner (BENCH_QUICK shrinks it)",
            run: fleet10k::run,
        },
    ]
}

/// Looks up one experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

/// Every `(a, b)` pair, `a`-major: the flat input of a parallel grid.
fn product<'a, A, B>(a: &'a [A], b: &'a [B]) -> Vec<(&'a A, &'a B)> {
    a.iter()
        .flat_map(|x| b.iter().map(move |y| (x, y)))
        .collect()
}

/// Mean of `xs`, summed in order from 0.0 as the serial loops did, so a
/// grid folded in index order reproduces their floats bit for bit.
fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len();
    xs.fold(0.0, |total, x| total + x) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
    }

    #[test]
    fn find_works() {
        assert!(find("table1").is_some());
        assert!(find("nope").is_none());
    }
}
