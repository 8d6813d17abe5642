//! Kernel squads and the multi-task scheduler's selection logic (§4.3).
//!
//! A *kernel squad* is a group of kernels drawn from the concurrently
//! active requests of different applications. In each generation step the
//! scheduler picks the next kernel of the request with the smallest
//! relative progress — the request that is furthest behind its
//! quota-proportional schedule — so that all co-located requests approach
//! (and beat) their isolated-latency targets together.
//!
//! ## Progress model
//!
//! The scheduler's objective (§4.3) is to *approach the isolated latency
//! target* of every request — the quota guarantee is the deadline
//! `D_j = arrival_j + target_j` (with `target_j = T[n%]`, or the QoS
//! target in SLO mode, §6.5) — and, subject to that, to reduce latency
//! unbiasedly. Each generation step therefore applies **laxity-guarded
//! earliest-deadline-first**:
//!
//! * For each active request, the *laxity* is the slack left if the rest
//!   of the request ran at its quota pace:
//!   `L_j = D_j − now − (τ[n][last] − τ[n][next]) · safety`.
//! * If any request's laxity is negative it is falling behind its quota
//!   schedule (the paper's `P̃ = P_r/P_e < 1`); among the lagging
//!   requests, the one with the **earliest deadline** is served first
//!   (the tightest guarantee wins — laxity magnitude only breaks exact
//!   ties). This is §4.3.2's fine-grained compensation with EDF inside
//!   the at-risk tier, which also drives SLO mode (§6.5).
//! * Otherwise everyone's guarantee is safe, and the request with the
//!   earliest deadline takes the kernels: leaders finish early at full
//!   speed, vacating the GPU (creating the very bubbles BLESS exploits)
//!   while later requests ride their quota schedule and still meet their
//!   targets.
//!
//! This reproduces the paper's Fig. 18(a) dynamics exactly: with 70%/30%
//! quotas the 70% request has the earlier deadline, receives more kernels
//! per squad, and completes first, while the 30% request is compensated
//! whenever its laxity dips.

use sim_core::{SimDuration, SimTime};

use crate::deploy::DeployedApp;
use crate::params::BlessParams;

/// One application's share of a kernel squad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SquadEntry {
    /// Application index.
    pub app: usize,
    /// Kernel indices (into the app's kernel trace), in execution order.
    pub kernels: Vec<usize>,
}

/// A generated kernel squad.
#[derive(Clone, Debug, Default)]
pub struct Squad {
    /// Per-application kernel selections (apps with no kernels selected do
    /// not appear).
    pub entries: Vec<SquadEntry>,
}

impl Squad {
    /// Total number of kernels in the squad.
    pub fn len(&self) -> usize {
        self.entries.iter().map(|e| e.kernels.len()).sum()
    }

    /// True if no kernels were selected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The applications participating in this squad.
    pub fn apps(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.app).collect()
    }
}

/// The scheduler's view of one active request during squad generation.
#[derive(Clone, Debug)]
pub struct ActiveRequest {
    /// Application index.
    pub app: usize,
    /// Arrival time of the request.
    pub arrival: SimTime,
    /// Index of the next unscheduled kernel.
    pub next_kernel: usize,
}

/// The scheduler's working view of one candidate request during squad
/// generation. Selections are always consecutive (`start..next`), so the
/// candidate carries a range, not a kernel list.
struct Cand {
    app: usize,
    /// First kernel selected this round (the request's `next_kernel`).
    start: usize,
    next: usize,
    total: usize,
    /// Absolute quota deadline (arrival + target), ns.
    deadline_ns: f64,
    /// Remaining time at quota pace for the unscheduled suffix, ns
    /// (updated tentatively as kernels are selected).
    remaining_quota_ns: f64,
}

impl Cand {
    /// The slack left at `now_ns` if the rest ran at quota pace; negative
    /// when the request is at risk.
    fn laxity(&self, now_ns: f64) -> f64 {
        self.deadline_ns - now_ns - self.remaining_quota_ns * LAXITY_SAFETY
    }
}

/// Reusable buffers for [`generate_squad_into`]: the candidate pool plus a
/// spare-list of kernel `Vec`s recycled from previously emitted squads, so
/// a driver that passes the same scratch every round generates squads with
/// zero steady-state heap allocation.
#[derive(Default)]
pub struct SquadScratch {
    cands: Vec<Cand>,
    spare: Vec<Vec<usize>>,
    /// Test-only twin switch: a lone candidate takes the general loop
    /// instead of the closed form.
    #[cfg(test)]
    general_only: bool,
}

/// Generates a kernel squad from the active requests (§4.3.2).
///
/// `apps[i]` must hold the deployment data for application `i`. Generation
/// stops when the squad reaches `params.max_kernels_per_squad` kernels or
/// when the selected kernel is the last kernel of a request (the paper's
/// two termination conditions).
pub fn generate_squad(
    now: SimTime,
    active: &[ActiveRequest],
    apps: &[DeployedApp],
    params: &BlessParams,
) -> Squad {
    let mut scratch = SquadScratch::default();
    let mut out = Squad::default();
    generate_squad_into(now, active, apps, params, &mut scratch, &mut out);
    out
}

/// [`generate_squad`] writing into `out` and reusing `scratch`: `out`'s
/// previous entries are recycled through the scratch's spare list, so the
/// steady-state scheduling round allocates nothing. `active` must hold at
/// most one request per application (the driver's invariant; entries are
/// emitted in ascending application order either way).
pub fn generate_squad_into(
    now: SimTime,
    active: &[ActiveRequest],
    apps: &[DeployedApp],
    params: &BlessParams,
    scratch: &mut SquadScratch,
    out: &mut Squad,
) {
    for mut e in out.entries.drain(..) {
        e.kernels.clear();
        scratch.spare.push(e.kernels);
    }

    #[cfg(test)]
    let closed_form = !scratch.general_only;
    #[cfg(not(test))]
    let closed_form = true;
    let cands = &mut scratch.cands;
    cands.clear();
    for r in active {
        let d = &apps[r.app];
        let total = d.profile.kernel_count();
        // Degenerate deployments (empty kernel trace) and requests past
        // their last kernel have nothing to schedule.
        if total == 0 || r.next_kernel >= total {
            continue;
        }
        let stretch = d.schedule_stretch();
        let tau_end = d.quota_tau(total - 1).as_nanos() as f64;
        let tau_done = if r.next_kernel == 0 {
            0.0
        } else {
            d.quota_tau(r.next_kernel - 1).as_nanos() as f64
        };
        cands.push(Cand {
            app: r.app,
            start: r.next_kernel,
            next: r.next_kernel,
            total,
            deadline_ns: r.arrival.as_nanos() as f64 + d.target_latency().as_nanos() as f64,
            remaining_quota_ns: (tau_end - tau_done) * stretch,
        });
    }

    match cands.as_mut_slice() {
        // One candidate: deadlines, laxities and remaining quota time only
        // order candidates against each other, so the loop would take
        // whole units of this one until the squad is full or the request
        // ends.
        [c] if closed_form => {
            let unit = params.graph_granularity.max(1);
            let taken = params
                .max_kernels_per_squad
                .div_ceil(unit)
                .saturating_mul(unit);
            c.next = c.total.min(c.start.saturating_add(taken));
        }
        cands => select_units(now.as_nanos() as f64, cands, apps, params),
    }

    // Emit non-empty selections in ascending app order (as the former
    // per-app selection table did), recycling spare kernel Vecs.
    for app in 0..apps.len() {
        for c in cands.iter().filter(|c| c.app == app && c.next > c.start) {
            let mut kernels = scratch.spare.pop().unwrap_or_default();
            kernels.clear();
            kernels.extend(c.start..c.next);
            out.entries.push(SquadEntry { app, kernels });
        }
    }
}

/// Safety factor on the quota-pace estimate: leaves headroom for
/// interference and squad-boundary granularity so that deprioritized
/// requests still land within their targets.
const LAXITY_SAFETY: f64 = 1.10;

/// How long a pick of [`select_units`] provably stays the scan's pick.
#[derive(Clone, Copy)]
enum Hold {
    /// Rescan before the next unit (round-robin, or a deadline tie).
    Rescan,
    /// Nobody is at risk: a unit only raises the pick's laxity, so nobody
    /// becomes at risk and the earliest deadline keeps winning until the
    /// pick's request ends, which ends the squad.
    UntilEnd(usize),
    /// The pick is at risk and alone at its deadline among those at risk:
    /// only its own laxity moves, so it stays the at-risk argmin for as
    /// long as it stays at risk.
    WhileAtRisk(usize),
}

/// The general selection loop of [`generate_squad_into`]: advances each
/// candidate's `next` past the units it is given. A pick is reused
/// without a rescan while it provably stays the argmin (see [`Hold`]), so
/// it gives the units a scan per unit gives (`select_units_rescan`).
fn select_units(now_ns: f64, cands: &mut [Cand], apps: &[DeployedApp], params: &BlessParams) {
    let laxity = |c: &Cand| c.laxity(now_ns);
    let mut count = 0usize;
    let mut rr_cursor = 0usize;
    let mut hold = Hold::Rescan;
    while count < params.max_kernels_per_squad {
        let pick = match hold {
            Hold::UntilEnd(pick) => pick,
            Hold::WhileAtRisk(pick) if laxity(&cands[pick]) < 0.0 => pick,
            _ => {
                let Some(pick) = scan_pick(now_ns, cands, params, &mut rr_cursor) else {
                    break;
                };
                let c = &cands[pick];
                hold = if params.disable_multitask {
                    Hold::Rescan
                } else if laxity(c) >= 0.0 {
                    // The scan's tier 2: nobody was at risk.
                    Hold::UntilEnd(pick)
                } else if cands.iter().enumerate().any(|(i, o)| {
                    i != pick
                        && o.next < o.total
                        && laxity(o) < 0.0
                        && o.deadline_ns.total_cmp(&c.deadline_ns).is_eq()
                }) {
                    Hold::Rescan
                } else {
                    Hold::WhileAtRisk(pick)
                };
                pick
            }
        };
        if take_unit(&mut cands[pick], apps, params, &mut count) {
            // Termination (2): the selected unit completed a request.
            break;
        }
    }
}

/// The candidate the next unit goes to, or `None` when none is live.
fn scan_pick(
    now_ns: f64,
    cands: &[Cand],
    params: &BlessParams,
    rr_cursor: &mut usize,
) -> Option<usize> {
    // The live candidates are scanned in place, in candidate order — the
    // same order the former materialized `live` list had, and `min_by`
    // keeps the first minimum — so every pick below is identical to the
    // list-building implementation.
    let is_live = |c: &Cand| c.next < c.total;
    let live_count = cands.iter().filter(|c| is_live(c)).count();
    if live_count == 0 {
        return None;
    }
    if params.disable_multitask {
        // Ablation: plain round-robin over live candidates.
        let j = *rr_cursor % live_count;
        *rr_cursor += 1;
        return cands
            .iter()
            .enumerate()
            .filter(|(_, c)| is_live(c))
            .nth(j)
            .map(|(i, _)| i);
    }
    let laxity = |c: &Cand| c.laxity(now_ns);
    // Tier 1: lagging requests (negative laxity) first, the one with the
    // earliest deadline leading — the tightest guarantee wins when
    // several are behind schedule.
    let at_risk = (0..cands.len())
        .filter(|&i| is_live(&cands[i]) && laxity(&cands[i]) < 0.0)
        .min_by(|&a, &b| {
            cands[a]
                .deadline_ns
                .total_cmp(&cands[b].deadline_ns)
                .then(laxity(&cands[a]).total_cmp(&laxity(&cands[b])))
                .then(cands[a].app.cmp(&cands[b].app))
        });
    // Tier 2: everyone safe — earliest deadline finishes first.
    at_risk.or_else(|| {
        (0..cands.len())
            .filter(|&i| is_live(&cands[i]))
            .min_by(|&a, &b| {
                cands[a]
                    .deadline_ns
                    .total_cmp(&cands[b].deadline_ns)
                    .then(cands[a].app.cmp(&cands[b].app))
            })
    })
}

/// Selects one scheduling unit of `c`: a single kernel, or a whole
/// CUDA-graph run of `graph_granularity` consecutive kernels (§6.10 —
/// graphs are atomic scheduling units). Returns whether it completed the
/// request.
fn take_unit(c: &mut Cand, apps: &[DeployedApp], params: &BlessParams, count: &mut usize) -> bool {
    let unit = params.graph_granularity.max(1);
    let mut completed_request = false;
    for _ in 0..unit {
        if c.next >= c.total {
            break;
        }
        c.remaining_quota_ns -= apps[c.app].quota_kernel_duration(c.next).as_nanos() as f64
            * apps[c.app].schedule_stretch();
        c.next += 1;
        *count += 1;
        if c.next >= c.total {
            completed_request = true;
        }
    }
    completed_request
}

/// Host-side cost of generating and configuring a squad (§6.9: 3.7 µs
/// multi-task scheduling + 2 µs configuration search + 1 µs squad
/// generation, per scheduling unit). At graph granularity `G > 1` the
/// per-unit cost is paid once per graph instead of once per kernel
/// (§6.10).
pub fn scheduling_cost(
    squad_len: usize,
    graph_granularity: usize,
    costs: &gpu_sim::HostCosts,
) -> SimDuration {
    let units = squad_len.div_ceil(graph_granularity.max(1));
    (costs.sched_per_kernel + costs.config_search_per_kernel + costs.squad_gen_per_kernel)
        * units as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeployedApp;
    use dnn_models::{AppModel, ModelKind, Phase};
    use gpu_sim::GpuSpec;
    use profiler::ProfiledApp;

    fn deploy(kind: ModelKind, quota: f64) -> DeployedApp {
        let profile =
            ProfiledApp::profile(&AppModel::build(kind, Phase::Inference), &GpuSpec::a100());
        DeployedApp::new(profile, quota, None)
    }

    fn active(app: usize, next: usize) -> ActiveRequest {
        ActiveRequest {
            app,
            arrival: SimTime::ZERO,
            next_kernel: next,
        }
    }

    #[test]
    fn squad_respects_max_size() {
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let params = BlessParams {
            max_kernels_per_squad: 6,
            ..BlessParams::default()
        };
        let squad = generate_squad(SimTime::ZERO, &[active(0, 0), active(1, 0)], &apps, &params);
        assert_eq!(squad.len(), 6);
        assert_eq!(squad.apps().len(), 2);
    }

    #[test]
    fn higher_quota_app_gets_more_kernels_when_both_lag() {
        // Fig. 18: two R50s with 70%/30% quotas arriving simultaneously.
        // After some wall time has passed, the 70% app's schedule is
        // tighter, so it should receive more kernels per squad.
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.7),
            deploy(ModelKind::ResNet50, 0.3),
        ];
        let params = BlessParams {
            max_kernels_per_squad: 20,
            ..BlessParams::default()
        };
        // Both requests arrived 5 ms ago and have executed 10 kernels.
        let now = SimTime::from_millis(5);
        let squad = generate_squad(now, &[active(0, 10), active(1, 10)], &apps, &params);
        let count = |app: usize| {
            squad
                .entries
                .iter()
                .find(|e| e.app == app)
                .map_or(0, |e| e.kernels.len())
        };
        assert!(
            count(0) > count(1),
            "70% quota should get more kernels: {} vs {}",
            count(0),
            count(1)
        );
    }

    #[test]
    fn lagging_request_is_compensated() {
        // Same model, same quota, but app 1's request has been waiting far
        // longer relative to its progress -> it should dominate the squad.
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let params = BlessParams {
            max_kernels_per_squad: 20,
            ..BlessParams::default()
        };
        let reqs = [
            ActiveRequest {
                app: 0,
                arrival: SimTime::from_millis(99),
                next_kernel: 20,
            },
            ActiveRequest {
                app: 1,
                arrival: SimTime::ZERO, // waiting 100 ms, no progress
                next_kernel: 0,
            },
        ];
        let squad = generate_squad(SimTime::from_millis(100), &reqs, &apps, &params);
        let count = |app: usize| {
            squad
                .entries
                .iter()
                .find(|e| e.app == app)
                .map_or(0, |e| e.kernels.len())
        };
        assert!(count(1) > count(0), "{} vs {}", count(1), count(0));
    }

    #[test]
    fn squad_ends_at_request_completion() {
        let apps = vec![deploy(ModelKind::Vgg11, 1.0)];
        let total = apps[0].profile.kernel_count();
        let params = BlessParams {
            max_kernels_per_squad: 1000,
            ..BlessParams::default()
        };
        let squad = generate_squad(SimTime::ZERO, &[active(0, total - 3)], &apps, &params);
        // Only the last three kernels fit before termination condition (2).
        assert_eq!(squad.len(), 3);
        let ks = &squad.entries[0].kernels;
        assert_eq!(*ks.last().unwrap(), total - 1);
    }

    #[test]
    fn kernels_are_selected_in_order_per_app() {
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.5),
            deploy(ModelKind::Vgg11, 0.5),
        ];
        let squad = generate_squad(
            SimTime::from_millis(1),
            &[active(0, 5), active(1, 2)],
            &apps,
            &BlessParams::default(),
        );
        for e in &squad.entries {
            assert!(e.kernels.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn round_robin_ablation_splits_evenly() {
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.7),
            deploy(ModelKind::ResNet50, 0.3),
        ];
        let params = BlessParams {
            max_kernels_per_squad: 20,
            disable_multitask: true,
            ..BlessParams::default()
        };
        let squad = generate_squad(
            SimTime::from_millis(5),
            &[active(0, 10), active(1, 10)],
            &apps,
            &params,
        );
        let count = |app: usize| {
            squad
                .entries
                .iter()
                .find(|e| e.app == app)
                .map_or(0, |e| e.kernels.len())
        };
        assert_eq!(count(0), count(1), "round-robin ignores quotas");
    }

    #[test]
    fn empty_active_set_gives_empty_squad() {
        let apps = vec![deploy(ModelKind::Vgg11, 1.0)];
        let squad = generate_squad(SimTime::ZERO, &[], &apps, &BlessParams::default());
        assert!(squad.is_empty());
        assert_eq!(squad.len(), 0);
    }

    #[test]
    fn exhausted_request_is_skipped_not_panicked() {
        // A request whose kernels are all scheduled (next == total) must
        // be filtered out, not underflow the quota-schedule lookup.
        let apps = vec![
            deploy(ModelKind::Vgg11, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let total = apps[0].profile.kernel_count();
        let squad = generate_squad(
            SimTime::ZERO,
            &[active(0, total), active(1, 0)],
            &apps,
            &BlessParams::default(),
        );
        assert_eq!(squad.apps(), vec![1], "only the live request schedules");

        // All requests exhausted -> empty squad, no panic.
        let squad = generate_squad(
            SimTime::ZERO,
            &[active(0, total)],
            &apps,
            &BlessParams::default(),
        );
        assert!(squad.is_empty());
    }

    /// The reference twin of [`select_units`]: a full scan before every unit.
    fn select_units_rescan(
        now_ns: f64,
        cands: &mut [Cand],
        apps: &[DeployedApp],
        params: &BlessParams,
    ) {
        let mut count = 0usize;
        let mut rr_cursor = 0usize;
        while count < params.max_kernels_per_squad {
            let Some(pick) = scan_pick(now_ns, cands, params, &mut rr_cursor) else {
                break;
            };
            if take_unit(&mut cands[pick], apps, params, &mut count) {
                break;
            }
        }
    }

    /// A short and a long model, profiled once for every case.
    fn two_apps() -> &'static [DeployedApp] {
        static APPS: std::sync::OnceLock<Vec<DeployedApp>> = std::sync::OnceLock::new();
        APPS.get_or_init(|| {
            vec![
                deploy(ModelKind::Vgg11, 0.4),
                deploy(ModelKind::ResNet50, 0.6),
            ]
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Differential twin: with one live request, the closed form cuts
        /// the same squad as the general loop, whatever the squad size,
        /// the unit size, the request's position and length, the arrival
        /// and the scheduling mode. A second request past its last kernel
        /// sometimes rides along, so one candidate can come from two
        /// active requests.
        #[test]
        fn prop_one_candidate_closed_form_matches_general_loop(
            app in 0usize..2,
            next_frac in 0.0f64..1.1,
            max_kernels in 0usize..48,
            graph in 0usize..7,
            disable_multitask in proptest::prelude::any::<bool>(),
            exhausted_peer in proptest::prelude::any::<bool>(),
            times in (0u64..40_000, 0u64..40_000),
        ) {
            let apps = two_apps();
            let total = apps[app].profile.kernel_count();
            let params = BlessParams {
                max_kernels_per_squad: max_kernels,
                graph_granularity: graph,
                disable_multitask,
                ..BlessParams::default()
            };
            let mut requests = vec![ActiveRequest {
                app,
                arrival: SimTime::from_micros(times.0),
                next_kernel: (total as f64 * next_frac) as usize,
            }];
            if exhausted_peer {
                let peer = 1 - app;
                requests.push(active(peer, apps[peer].profile.kernel_count()));
            }
            let now = SimTime::from_micros(times.0 + times.1);
            let squads = [false, true].map(|general_only| {
                let mut scratch = SquadScratch { general_only, ..SquadScratch::default() };
                let mut out = Squad::default();
                generate_squad_into(now, &requests, apps, &params, &mut scratch, &mut out);
                out.entries
            });
            proptest::prop_assert_eq!(&squads[0], &squads[1]);
        }

        /// Differential twin: reusing a pick gives the units a scan per
        /// unit gives. Up to five candidates, some exhausted, with
        /// deadlines often tied, `now` set so that a candidate's laxity
        /// starts a little below 0 and crosses it within the squad,
        /// `graph_granularity` 1 to 4 and round-robin.
        #[test]
        fn prop_held_picks_match_a_rescan_per_unit(
            specs in proptest::collection::vec((0usize..2, 0.0f64..1.2, 0u64..4), 1..6),
            lag_us in 0u64..3_000,
            anchor in 0usize..5,
            max_kernels in 0usize..64,
            graph in 1usize..5,
            disable_multitask in proptest::prelude::any::<bool>(),
        ) {
            let apps = two_apps();
            let cands = || -> Vec<Cand> {
                specs
                    .iter()
                    .map(|&(app, next_frac, slot)| {
                        let d = &apps[app];
                        let total = d.profile.kernel_count();
                        let next = ((total as f64 * next_frac) as usize).min(total);
                        let tau = |k: usize| d.quota_tau(k).as_nanos() as f64;
                        let done = if next == 0 { 0.0 } else { tau(next - 1) };
                        Cand {
                            app,
                            start: next,
                            next,
                            total,
                            // Four deadline slots, so ties are common.
                            deadline_ns: 1e7 + slot as f64 * 5e5,
                            remaining_quota_ns: (tau(total - 1) - done) * d.schedule_stretch(),
                        }
                    })
                    .collect()
            };
            // The anchor candidate starts `lag_us` behind its quota pace.
            let a = &cands()[anchor % specs.len()];
            let now_ns = a.deadline_ns - a.remaining_quota_ns * LAXITY_SAFETY + lag_us as f64 * 1e3;
            let params = BlessParams {
                max_kernels_per_squad: max_kernels,
                graph_granularity: graph,
                disable_multitask,
                ..BlessParams::default()
            };
            let (mut held, mut rescanned) = (cands(), cands());
            select_units(now_ns, &mut held, apps, &params);
            select_units_rescan(now_ns, &mut rescanned, apps, &params);
            let state = |cands: &[Cand]| -> Vec<(usize, u64)> {
                cands.iter().map(|c| (c.next, c.remaining_quota_ns.to_bits())).collect()
            };
            proptest::prop_assert_eq!(state(&held), state(&rescanned));
        }
    }
}
