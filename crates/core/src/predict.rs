//! The execution configuration determiner (§4.4): the configuration
//! space, the two kernel-squad performance estimators, and the search for
//! the fastest configuration.
//!
//! For a squad with `K` participating requests on a GPU profiled at `N`
//! partitions, the space is:
//!
//! * **NSP** — no spatial restriction; predicted with the
//!   *workload-equivalence* estimator (Eq. 2), and
//! * **SP** — every composition of the `N` partitions into `K` positive
//!   parts (`C(N−1, K−1)` configurations); each predicted with the
//!   *interference-free* estimator (Eq. 1).
//!
//! With `N = 18` and two active requests that is `17 + 1 = 18` candidates,
//! matching the paper.

use sim_core::SimDuration;

use crate::deploy::DeployedApp;
use crate::squad::Squad;
use gpu_sim::{Channel, ChannelDemand, ChannelModel, ChannelParams, NUM_CHANNELS};
use profiler::PARTITIONS;

/// The execution configuration selected for one squad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecConfig {
    /// No spatial restriction: all kernels contend freely (Fig. 7a).
    Nsp,
    /// Spatial partitioning: `partitions[i]` is the number of 1/N GPU
    /// slices assigned to the squad's `i`-th entry (Fig. 7b); the runtime
    /// upgrades this to semi-SP with the split ratio (Fig. 7c).
    Sp {
        /// Per-entry partition counts, aligned with `Squad::entries`;
        /// each ≥ 1 and summing to the total partition count.
        partitions: Vec<u32>,
    },
}

impl ExecConfig {
    /// The SM cap for entry `i` under this config, or `None` for NSP.
    ///
    /// Caps round to the nearest SM, mirroring how the profiler lays out
    /// its partition grid (so runtime caps land on profiled points even
    /// when `num_sms` is not a multiple of the partition count).
    pub fn sm_cap(&self, entry: usize, num_sms: u32) -> Option<u32> {
        match self {
            ExecConfig::Nsp => None,
            ExecConfig::Sp { partitions } => {
                // Degenerate inputs (entry beyond the partition vector, a
                // zero-SM device) fall back to "no cap" / 1 SM instead of
                // panicking: the runtime treats both as unrestricted-ish.
                let parts = *partitions.get(entry)?;
                let total: u32 = partitions.iter().sum::<u32>().max(1);
                let num_sms = num_sms.max(1);
                let exact = parts as f64 * num_sms as f64 / total as f64;
                Some((exact.round() as u32).clamp(1, num_sms))
            }
        }
    }
}

/// Eq. 1 — the interference-free predictor for strictly partitioned
/// squads: the squad lasts as long as the slowest request's stacked-up
/// kernel durations at its partition.
pub fn predict_interference_free(
    squad: &Squad,
    apps: &[DeployedApp],
    partitions: &[u32],
) -> SimDuration {
    assert_eq!(
        squad.entries.len(),
        partitions.len(),
        "one partition count per squad entry"
    );
    let mut worst = SimDuration::ZERO;
    for (entry, &parts) in squad.entries.iter().zip(partitions) {
        assert!(parts >= 1 && (parts as usize) <= PARTITIONS);
        let part_idx = parts as usize - 1;
        let total = stacked_duration(&apps[entry.app], part_idx, &entry.kernels);
        worst = worst.max(total);
    }
    worst
}

/// The contiguous ascending range `[first, last+1)` covered by `kernels`,
/// or `None` when the selection has gaps or is out of order. Squads select
/// kernels as in-order contiguous ranges, so the fast path is the norm.
fn contiguous_range(kernels: &[usize]) -> Option<(usize, usize)> {
    let first = *kernels.first()?;
    kernels
        .windows(2)
        .all(|w| w[1] == w[0] + 1)
        .then_some((first, first + kernels.len()))
}

/// `Σ t[partition][k]` over `kernels`: O(1) via the profile's prefix table
/// when the selection is contiguous, the naive per-kernel sum otherwise.
/// Both paths are u64-nanosecond additions and agree bit-for-bit.
fn stacked_duration(app: &DeployedApp, partition: usize, kernels: &[usize]) -> SimDuration {
    match contiguous_range(kernels) {
        Some((start, end)) => app.stacked_duration(partition, start, end),
        None => kernels
            .iter()
            .map(|&k| app.profile.kernel_duration(partition, k))
            .sum(),
    }
}

/// Eq. 2 — the workload-equivalence predictor for unrestricted squads:
/// kernels are walked breadth-first over requests; each overlap row is
/// modelled as sequential execution where every kernel runs at the speed
/// it would have given the row's total natural SM demand `Σ_j d_i^j`.
pub fn predict_workload_equivalence(
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
) -> SimDuration {
    let q = squad
        .entries
        .iter()
        .map(|e| e.kernels.len())
        .max()
        .unwrap_or(0);
    let mut total = SimDuration::ZERO;
    for i in 0..q {
        // The row's aggregate natural SM demand (as a fraction of the GPU).
        let mut demand_frac = 0.0;
        for e in &squad.entries {
            if let Some(&k) = e.kernels.get(i) {
                demand_frac += apps[e.app].profile.d_frac[k];
            }
        }
        // `max(1)` guards the zero-SM degenerate device (clamp panics when
        // its bounds invert).
        let demand_sms = (demand_frac * num_sms as f64).clamp(1.0, num_sms.max(1) as f64);
        for e in &squad.entries {
            if let Some(&k) = e.kernels.get(i) {
                let profile = &apps[e.app].profile;
                let d = if profile.kernels[k].kind.is_compute() {
                    profile.duration_at_sms(k, demand_sms)
                } else {
                    // Memory-management kernels are added at their profiled
                    // duration regardless of the SM demand.
                    profile.kernel_duration(PARTITIONS - 1, k)
                };
                total += d;
            }
        }
    }
    total
}

/// The determiner's verdict for one squad.
#[derive(Clone, Debug)]
pub struct ConfigChoice {
    /// The winning configuration.
    pub config: ExecConfig,
    /// Its predicted squad duration.
    pub predicted: SimDuration,
    /// Number of candidate configurations evaluated: NSP, every SP
    /// composition the search reached, and (per-resource path only) the
    /// hill-climb seed's candidates.
    pub evaluated: usize,
    /// Number of SP compositions skipped by the branch-and-bound cut
    /// (0 on the exhaustive and hill-climbing paths). On the scalar path
    /// `evaluated + pruned` equals the exhaustive candidate count; on the
    /// per-resource path it exceeds it by exactly the seed's evaluations.
    /// Either way the chosen configuration is identical to the exhaustive
    /// search's.
    pub pruned: usize,
}

/// Searches the configuration space for the fastest execution (§4.4.2).
///
/// For up to [`EXACT_SEARCH_MAX_APPS`] participating requests the SP space
/// is searched exactly with a branch-and-bound cut (see
/// [`determine_config_exhaustive`] for the uncut twin — both return the
/// same configuration); beyond that a quota-proportional seed plus
/// hill-climbing is used (the paper only determines optimal partitions at
/// runtime for small squads; REEF+ cannot do this at all, §6.4).
pub fn determine_config(squad: &Squad, apps: &[DeployedApp], num_sms: u32) -> ConfigChoice {
    determine(squad, apps, num_sms, None, true)
}

/// [`determine_config`] with the branch-and-bound cut disabled: every SP
/// composition is evaluated. Exists as the differential twin proving the
/// pruned search exact (`same config, same prediction, evaluated + pruned
/// = exhaustive evaluated`), and as the baseline for the
/// `determiner_search` benchmark.
pub fn determine_config_exhaustive(
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
) -> ConfigChoice {
    determine(squad, apps, num_sms, None, false)
}

/// `stacked[i][p-1]`: entry `i`'s stacked kernel duration on `p` slices.
type Stacked = [SimDuration; PARTITIONS];

/// The one determiner behind every entry point: `channels` selects the
/// per-resource estimators (`None` is the scalar model) and `prune` the
/// branch-and-bound cut.
fn determine(
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
    channels: Option<&ChannelParams>,
    prune: bool,
) -> ConfigChoice {
    let k = squad.entries.len();
    assert!(
        k <= PARTITIONS,
        "a squad cannot have more participants ({k}) than SM partitions ({PARTITIONS})"
    );
    if k == 0 {
        return ConfigChoice {
            config: ExecConfig::Nsp,
            predicted: SimDuration::ZERO,
            evaluated: 0,
            pruned: 0,
        };
    }

    let nsp = match channels {
        None => predict_workload_equivalence(squad, apps, num_sms),
        Some(params) => predict_workload_equivalence_channels(squad, apps, num_sms, params),
    };
    if k == 1 {
        // A solo squad always runs unrestricted on the whole GPU.
        return ConfigChoice {
            config: ExecConfig::Nsp,
            predicted: nsp,
            evaluated: 1,
            pruned: 0,
        };
    }

    // Precompute per-entry stacked durations at every partition size so
    // each SP candidate costs O(K). Each cell is an O(1) prefix-table
    // range sum for the usual contiguous kernel selections.
    let stacked: Vec<Stacked> = squad
        .entries
        .iter()
        .map(|e| std::array::from_fn(|p| stacked_duration(&apps[e.app], p, &e.kernels)))
        .collect();
    let means: Vec<ChannelDemand> = match channels {
        None => Vec::new(),
        Some(_) => squad
            .entries
            .iter()
            .map(|e| entry_mean_demand(&apps[e.app], &e.kernels))
            .collect(),
    };
    let channels = channels.map(|params| Channels {
        params,
        means: &means,
    });
    let eval_sp = |parts: &[u32]| -> SimDuration {
        match channels {
            None => parts
                .iter()
                .enumerate()
                .map(|(i, &p)| stacked[i][p as usize - 1])
                .max()
                .unwrap_or(SimDuration::ZERO),
            Some(ch) => ch.eval(&stacked, parts),
        }
    };
    let quotas = || -> Vec<f64> { squad.entries.iter().map(|e| apps[e.app].quota).collect() };

    let mut evaluated = 1; // NSP
    let mut pruned = 0usize;
    let best_sp = if k <= EXACT_SEARCH_MAX_APPS {
        // Exact search over all compositions of PARTITIONS into k parts
        // in lexicographic order, cutting subtrees that provably hold no
        // argmin (see [`SpSearch::descend`]). Per-resource squads also
        // cut against NSP (SP only wins strictly below it) and strictly
        // above a hill-climbed seed (an upper bound on the optimum).
        let mut limit = None;
        if prune && channels.is_some() {
            let seed = hill_climb(&stacked, &quotas(), eval_sp);
            evaluated += seed.evaluated;
            limit = Some(nsp.min(seed.dur + SimDuration::from_nanos(1)));
        }
        let mut search = SpSearch::new(&stacked, channels, prune, limit);
        search.descend(0, PARTITIONS as u32, SimDuration::ZERO, [0.0; NUM_CHANNELS]);
        evaluated += search.evaluated;
        pruned = search.pruned;
        search.best
    } else {
        let climb = hill_climb(&stacked, &quotas(), eval_sp);
        evaluated += climb.evaluated;
        Some((climb.parts, climb.dur))
    };

    match best_sp {
        Some((parts, dur)) if dur < nsp => ConfigChoice {
            config: ExecConfig::Sp { partitions: parts },
            predicted: dur,
            evaluated,
            pruned,
        },
        _ => ConfigChoice {
            config: ExecConfig::Nsp,
            predicted: nsp,
            evaluated,
            pruned,
        },
    }
}

/// A hill-climbed SP composition, its prediction, and the number of
/// candidates evaluated to reach it.
struct Climb {
    parts: Vec<u32>,
    dur: SimDuration,
    evaluated: usize,
}

/// Quota-proportional seed + greedy hill climbing: repeatedly move one
/// slice from the entry with the most slack to the bottleneck while `eval`
/// keeps strictly improving.
fn hill_climb(stacked: &[Stacked], quotas: &[f64], eval: impl Fn(&[u32]) -> SimDuration) -> Climb {
    let mut parts = proportional_partitions(quotas, PARTITIONS as u32);
    let mut dur = eval(&parts);
    let mut evaluated = 1;
    // Find the bottleneck entry (max stacked duration) each round; an
    // empty `parts` (degenerate squad) simply never enters the loop.
    while let Some((bottleneck, _)) = parts
        .iter()
        .enumerate()
        .map(|(i, &p)| (i, stacked[i][p as usize - 1]))
        .max_by_key(|&(_, d)| d)
    {
        // Take a slice from the entry whose duration is smallest after
        // losing one (and that has a slice to spare).
        let donor = (0..parts.len())
            .filter(|&i| i != bottleneck && parts[i] > 1)
            .min_by_key(|&i| stacked[i][parts[i] as usize - 2]);
        let Some(donor) = donor else { break };
        parts[donor] -= 1;
        parts[bottleneck] += 1;
        let new_dur = eval(&parts);
        evaluated += 1;
        if new_dur >= dur {
            parts[donor] += 1;
            parts[bottleneck] -= 1;
            break;
        }
        dur = new_dur;
    }
    Climb {
        parts,
        dur,
        evaluated,
    }
}

/// Per-entry prefix minima of the duration floors:
/// `best_at_most[i][s-1]` is the fastest entry `i` can possibly run when
/// granted *at most* `s` partition slices. This is the branch-and-bound
/// lower bound for entries the composition prefix has not assigned yet —
/// exact without assuming the profiled tables are monotone in SMs.
fn best_at_most(floor: &[Stacked]) -> Vec<Stacked> {
    floor
        .iter()
        .map(|row| {
            let mut best = SimDuration::MAX;
            row.map(|d| {
                best = best.min(d);
                best
            })
        })
        .collect()
}

/// Per-channel traffic totals, indexed by [`Channel`].
type Traffic = [f64; NUM_CHANNELS];

/// The per-resource SP evaluator: channel curves plus each squad entry's
/// mean demand vector.
#[derive(Clone, Copy)]
struct Channels<'a> {
    params: &'a ChannelParams,
    means: &'a [ChannelDemand],
}

impl Channels<'_> {
    /// Entry share of the GPU on `p` slices of a full composition.
    fn share(p: u32) -> f64 {
        p as f64 / PARTITIONS as f64
    }

    /// `traffic` plus entry `i`'s mean demand at `p` slices: one step of
    /// the in-order traffic sum of [`predict_interference_free_channels`].
    fn add(&self, mut traffic: Traffic, i: usize, p: u32) -> Traffic {
        let share = Self::share(p);
        for (t, d) in traffic.iter_mut().zip(&self.means[i].0) {
            *t += d * share;
        }
        traffic
    }

    /// The slowest of entries `0..parts.len()` at their assigned slices,
    /// each inflated by its slowdown under `traffic` with the compute
    /// channel isolated (Eq. 1 with channels).
    fn worst(&self, stacked: &[Stacked], parts: &[u32], mut traffic: Traffic) -> SimDuration {
        traffic[Channel::Compute as usize] = 0.0;
        parts
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let slow = self
                    .params
                    .slowdown(&self.means[i], Self::share(p), &traffic);
                stacked[i][p as usize - 1].mul_f64(slow)
            })
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The prediction for a full composition, bit-identical to
    /// [`predict_interference_free_channels`] on it.
    fn eval(&self, stacked: &[Stacked], parts: &[u32]) -> SimDuration {
        let traffic = (0..parts.len()).fold([0.0; NUM_CHANNELS], |t, i| self.add(t, i, parts[i]));
        self.worst(stacked, parts, traffic)
    }

    /// Lower bound on the assigned entries' durations in any completion
    /// of the prefix `assigned`, whose in-order traffic is `traffic`:
    /// every unassigned entry joins at its minimum share of one slice, in
    /// the same entry order. Each real share is at least that, the float
    /// sums run the same operations on no larger terms, the slowdown is
    /// monotone in traffic, and `mul_f64` is monotone in its factor — so
    /// no completion can predict an assigned entry faster.
    fn prefix_bound(&self, stacked: &[Stacked], assigned: &[u32], traffic: Traffic) -> SimDuration {
        let floor = (assigned.len()..self.means.len()).fold(traffic, |t, j| self.add(t, j, 1));
        self.worst(stacked, assigned, floor)
    }
}

/// Number of compositions of `total` into `slots` positive parts:
/// `C(total − 1, slots − 1)`. Used to account for every candidate a
/// branch-and-bound cut skips.
fn compositions(total: u32, slots: u32) -> usize {
    let (n, mut r) = ((total - 1) as u64, (slots - 1) as u64);
    r = r.min(n - r);
    let mut c = 1u64;
    for i in 0..r {
        c = c * (n - i) / (i + 1);
    }
    c as usize
}

/// Depth-first branch-and-bound over SP compositions, for both channel
/// models.
struct SpSearch<'a> {
    stacked: &'a [Stacked],
    /// Lower bounds on each entry's predicted duration per slice count:
    /// the stacks themselves for the scalar model; under per-resource
    /// inflation (every slowdown ≥ 1) the stacks times 1.0, rounded as
    /// `mul_f64` rounds.
    floor: Vec<Stacked>,
    /// Prefix minima of `floor` (see [`best_at_most`]).
    best_at_most: Vec<Stacked>,
    /// Per-resource evaluator; `None` is the scalar model.
    channels: Option<Channels<'a>>,
    /// A cut limit besides the incumbent: subtrees whose bound reaches it
    /// are cut too.
    limit: Option<SimDuration>,
    k: usize,
    prune: bool,
    evaluated: usize,
    pruned: usize,
    best: Option<(Vec<u32>, SimDuration)>,
    parts: Vec<u32>,
}

impl<'a> SpSearch<'a> {
    fn new(
        stacked: &'a [Stacked],
        channels: Option<Channels<'a>>,
        prune: bool,
        limit: Option<SimDuration>,
    ) -> Self {
        let floor: Vec<Stacked> = match channels {
            None => stacked.to_vec(),
            Some(_) => stacked
                .iter()
                .map(|row| row.map(|d| d.mul_f64(1.0)))
                .collect(),
        };
        SpSearch {
            stacked,
            best_at_most: best_at_most(&floor),
            floor,
            channels,
            limit,
            k: stacked.len(),
            prune,
            evaluated: 0,
            pruned: 0,
            best: None,
            parts: vec![1u32; stacked.len()],
        }
    }

    /// Assigns slices to entry `idx` given `remaining` unassigned slices;
    /// `partial_max` is the largest `floor` of entries `0..idx` and
    /// `traffic` their in-order per-resource traffic.
    fn descend(&mut self, idx: usize, remaining: u32, partial_max: SimDuration, traffic: Traffic) {
        if idx == self.k - 1 {
            self.parts[idx] = remaining;
            let dur = match self.channels {
                None => partial_max.max(self.stacked[idx][remaining as usize - 1]),
                Some(ch) => ch.worst(self.stacked, &self.parts, ch.add(traffic, idx, remaining)),
            };
            self.evaluated += 1;
            match &self.best {
                Some((_, d)) if *d <= dur => {}
                _ => self.best = Some((self.parts.clone(), dur)),
            }
            return;
        }
        let slots_after = (self.k - idx - 1) as u32;
        let last = remaining - slots_after;
        for p in 1..=last {
            self.parts[idx] = p;
            let new_max = partial_max.max(self.floor[idx][p as usize - 1]);
            let new_traffic = match self.channels {
                None => traffic,
                Some(ch) => ch.add(traffic, idx, p),
            };
            let incumbent = self.best.as_ref().map(|(_, d)| *d);
            let limit = [incumbent, self.limit].into_iter().flatten().min();
            if let Some(limit) = limit.filter(|_| self.prune) {
                // Lower-bound any completion of this prefix, cheapest
                // term first. Each unassigned entry runs at best with
                // every spare slice granted to it...
                let rem = remaining - p;
                let max_share = (rem - (slots_after - 1)) as usize;
                let unassigned = self.best_at_most[idx + 1..]
                    .iter()
                    .map(|row| row[max_share - 1])
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                if unassigned >= limit {
                    // ...and a larger share for entry `idx` leaves them
                    // fewer spare slices, so this term only rises while
                    // the limit cannot fall: no later subtree can pass.
                    self.pruned += (p..=last)
                        .map(|q| compositions(remaining - q, slots_after))
                        .sum::<usize>();
                    break;
                }
                // Assigned entries run no faster than their floors, and
                // per-resource ones no faster than the inflated prefix
                // bound (which dominates the floors).
                if new_max >= limit
                    || self.channels.is_some_and(|ch| {
                        ch.prefix_bound(self.stacked, &self.parts[..=idx], new_traffic) >= limit
                    })
                {
                    self.pruned += compositions(rem, slots_after);
                    continue;
                }
            }
            self.descend(idx + 1, remaining - p, new_max, new_traffic);
        }
    }
}

/// Exact SP enumeration is used up to this many participating requests;
/// `C(17, 5) = 6188` candidates is still cheap.
pub const EXACT_SEARCH_MAX_APPS: usize = 6;

/// Memo key: SM count plus one `(app, first_kernel, kernel_count)` triple
/// per entry. Only valid for contiguous in-order kernel selections, where
/// the triple pins the selection exactly.
type MemoKey = (u32, Vec<(usize, usize, usize)>);

/// Entry cap for [`ConfigMemo`]; reaching it clears the map (recurring
/// squads repopulate it immediately, and an unbounded map could grow
/// without limit under adversarial workloads).
const MEMO_CAPACITY: usize = 4096;

/// Memoizes [`determine_config`] on the squad signature.
///
/// Steady-state workloads regenerate identical squads (same apps, same
/// kernel ranges) over and over; the determiner is a pure function of that
/// signature and the deployment, so recurring squads can skip the search
/// entirely. The cached [`ConfigChoice`] is returned verbatim — including
/// its `evaluated` count — so memoized and unmemoized runs are
/// indistinguishable from the outside.
///
/// A memo is only sound for a fixed deployment: it must not outlive the
/// `apps` slice it was populated against (each [`crate::BlessDriver`]
/// owns its own).
#[derive(Debug, Default)]
pub struct ConfigMemo {
    map: std::collections::HashMap<MemoKey, ConfigChoice>,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the full search (including unmemoizable squads).
    pub misses: u64,
}

impl ConfigMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`determine_config`] with memoization: answers recurring squad
/// signatures from `memo` and falls back to the full search (caching the
/// result) otherwise. Non-contiguous kernel selections are never cached.
pub fn determine_config_memo(
    memo: &mut ConfigMemo,
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
) -> ConfigChoice {
    determine_config_memo_model(memo, squad, apps, num_sms, &ChannelModel::Scalar)
}

// ---------------------------------------------------------------------------
// Channel-aware estimators (DESIGN.md §5j).
//
// Under `ChannelModel::PerResource` the engine slows co-running kernels by
// the bottleneck max of per-channel contention curves; the two estimators
// below feed that same signal into the determiner so `determine_config`
// sees channel-aware estimates. Under `ChannelModel::Scalar` every
// `_model` entry point delegates to the original function, bit-for-bit —
// so scalar deployments (the default) are untouched.
// ---------------------------------------------------------------------------

/// Mean per-channel demand of one squad entry's *compute* kernels (the
/// demand vector the entry presses on shared channels while its squad
/// runs). Entries with no compute kernels press on nothing.
fn entry_mean_demand(app: &DeployedApp, kernels: &[usize]) -> ChannelDemand {
    let mut sum = [0.0f64; NUM_CHANNELS];
    let mut n = 0u32;
    for &k in kernels {
        let desc = &app.profile.kernels[k];
        if desc.kind.is_compute() {
            for (s, d) in sum.iter_mut().zip(&desc.demand.0) {
                *s += d;
            }
            n += 1;
        }
    }
    if n > 0 {
        for s in &mut sum {
            *s /= n as f64;
        }
    }
    ChannelDemand(sum)
}

/// Eq. 1 with per-resource channels: each entry's stacked duration is
/// inflated by the cross-partition contention it suffers on *shared*
/// channels (L2, DRAM-BW, PCIe). The compute channel is zeroed: SM
/// partitioning is exactly the mechanism that removes compute-issue
/// contention, which is why SP squads exist at all.
pub fn predict_interference_free_channels(
    squad: &Squad,
    apps: &[DeployedApp],
    partitions: &[u32],
    params: &ChannelParams,
) -> SimDuration {
    assert_eq!(
        squad.entries.len(),
        partitions.len(),
        "one partition count per squad entry"
    );
    let total_parts: u32 = partitions.iter().sum::<u32>().max(1);
    let mut traffic = [0.0f64; NUM_CHANNELS];
    let mut worst = SimDuration::ZERO;
    // First pass: aggregate traffic from every entry's mean demand,
    // weighted by its share of the GPU.
    for (entry, &parts) in squad.entries.iter().zip(partitions) {
        let share = parts as f64 / total_parts as f64;
        let mean = entry_mean_demand(&apps[entry.app], &entry.kernels);
        for (t, d) in traffic.iter_mut().zip(&mean.0) {
            *t += d * share;
        }
    }
    // Hard SM partitions isolate the compute channel.
    traffic[Channel::Compute as usize] = 0.0;
    for (entry, &parts) in squad.entries.iter().zip(partitions) {
        assert!(parts >= 1 && (parts as usize) <= PARTITIONS);
        let part_idx = parts as usize - 1;
        let share = parts as f64 / total_parts as f64;
        let mean = entry_mean_demand(&apps[entry.app], &entry.kernels);
        let slow = params.slowdown(&mean, share, &traffic);
        let total = stacked_duration(&apps[entry.app], part_idx, &entry.kernels).mul_f64(slow);
        worst = worst.max(total);
    }
    worst
}

/// Eq. 2 with per-resource channels: each overlap row accumulates
/// per-channel traffic from its kernels' demand vectors (shares from the
/// profiled natural demand, normalized down when the row oversubscribes
/// the GPU) and every kernel's row duration is inflated by its own
/// bottleneck-channel slowdown.
pub fn predict_workload_equivalence_channels(
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
    params: &ChannelParams,
) -> SimDuration {
    let q = squad
        .entries
        .iter()
        .map(|e| e.kernels.len())
        .max()
        .unwrap_or(0);
    let mut total = SimDuration::ZERO;
    for i in 0..q {
        let mut demand_frac = 0.0;
        for e in &squad.entries {
            if let Some(&k) = e.kernels.get(i) {
                demand_frac += apps[e.app].profile.d_frac[k];
            }
        }
        // When the row wants more than the whole GPU, shares shrink
        // proportionally (the hardware cannot grant more than 100%).
        let scale = if demand_frac > 1.0 {
            1.0 / demand_frac
        } else {
            1.0
        };
        let mut traffic = [0.0f64; NUM_CHANNELS];
        for e in &squad.entries {
            if let Some(&k) = e.kernels.get(i) {
                let profile = &apps[e.app].profile;
                if profile.kernels[k].kind.is_compute() {
                    let share = profile.d_frac[k] * scale;
                    for (t, d) in traffic.iter_mut().zip(&profile.kernels[k].demand.0) {
                        *t += d * share;
                    }
                }
            }
        }
        let demand_sms = (demand_frac * num_sms as f64).clamp(1.0, num_sms.max(1) as f64);
        for e in &squad.entries {
            if let Some(&k) = e.kernels.get(i) {
                let profile = &apps[e.app].profile;
                let d = if profile.kernels[k].kind.is_compute() {
                    let share = profile.d_frac[k] * scale;
                    let slow = params.slowdown(&profile.kernels[k].demand, share, &traffic);
                    profile.duration_at_sms(k, demand_sms).mul_f64(slow)
                } else {
                    profile.kernel_duration(PARTITIONS - 1, k)
                };
                total += d;
            }
        }
    }
    total
}

/// Model-dispatching Eq. 1: scalar delegates to
/// [`predict_interference_free`] unchanged.
pub fn predict_interference_free_model(
    squad: &Squad,
    apps: &[DeployedApp],
    partitions: &[u32],
    model: &ChannelModel,
) -> SimDuration {
    match model {
        ChannelModel::Scalar => predict_interference_free(squad, apps, partitions),
        ChannelModel::PerResource(p) => {
            predict_interference_free_channels(squad, apps, partitions, p)
        }
    }
}

/// Model-dispatching Eq. 2: scalar delegates to
/// [`predict_workload_equivalence`] unchanged.
pub fn predict_workload_equivalence_model(
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
    model: &ChannelModel,
) -> SimDuration {
    match model {
        ChannelModel::Scalar => predict_workload_equivalence(squad, apps, num_sms),
        ChannelModel::PerResource(p) => {
            predict_workload_equivalence_channels(squad, apps, num_sms, p)
        }
    }
}

/// [`determine_config`] under an explicit interference model: scalar
/// delegates to the original search (bit-identical, pruning intact);
/// per-resource evaluates candidates with the channel-aware estimators.
///
/// Both models share one branch-and-bound SP search up to
/// [`EXACT_SEARCH_MAX_APPS`] and the proportional-seed hill climb beyond
/// it. The stacked-duration bound stays admissible under per-resource
/// inflation: every channel slowdown is ≥ 1 and monotone in traffic,
/// `mul_f64` is monotone, and the prefix bound sums traffic in the same
/// order as the full prediction with every unassigned share at its
/// one-slice minimum (see `Channels::prefix_bound`). The per-resource
/// search additionally cuts subtrees bounded at or above NSP and strictly
/// above a hill-climbed seed; the argmin is still the exhaustive one.
pub fn determine_config_model(
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
    model: &ChannelModel,
) -> ConfigChoice {
    match model {
        ChannelModel::Scalar => determine_config(squad, apps, num_sms),
        ChannelModel::PerResource(p) => determine(squad, apps, num_sms, Some(p), true),
    }
}

/// [`determine_config_memo`] under an explicit interference model. The
/// memo key does not encode the model: a memo belongs to one driver on
/// one deployment, whose spec (and thus model) is fixed for its lifetime,
/// so entries cannot collide across models.
pub fn determine_config_memo_model(
    memo: &mut ConfigMemo,
    squad: &Squad,
    apps: &[DeployedApp],
    num_sms: u32,
    model: &ChannelModel,
) -> ConfigChoice {
    let signature = squad
        .entries
        .iter()
        .map(|e| contiguous_range(&e.kernels).map(|(start, end)| (e.app, start, end - start)))
        .collect::<Option<Vec<_>>>();
    let Some(sig) = signature else {
        memo.misses += 1;
        return determine_config_model(squad, apps, num_sms, model);
    };
    let key: MemoKey = (num_sms, sig);
    if let Some(choice) = memo.map.get(&key) {
        memo.hits += 1;
        return choice.clone();
    }
    memo.misses += 1;
    let choice = determine_config_model(squad, apps, num_sms, model);
    if memo.map.len() >= MEMO_CAPACITY {
        memo.map.clear();
    }
    memo.map.insert(key, choice.clone());
    choice
}

/// Reference enumerator of compositions of `total` into `k` positive
/// parts, in the lexicographic order [`SpSearch`] visits them: the
/// exhaustive walk of the per-resource differential twin.
#[cfg(test)]
fn enumerate_compositions(
    total: u32,
    k: usize,
    parts: &mut Vec<u32>,
    idx: usize,
    f: &mut impl FnMut(&[u32]),
) {
    let remaining_slots = (k - idx - 1) as u32;
    if idx == k - 1 {
        parts[idx] = total;
        f(parts);
        return;
    }
    for p in 1..=(total - remaining_slots) {
        parts[idx] = p;
        enumerate_compositions(total - p, k, parts, idx + 1, f);
    }
}

/// Divides `total` slices proportionally to the quotas, each entry ≥ 1.
fn proportional_partitions(quotas: &[f64], total: u32) -> Vec<u32> {
    if quotas.is_empty() {
        return Vec::new();
    }
    let k = quotas.len() as u32;
    let sum: f64 = quotas.iter().sum();
    // A zero/NaN quota sum (degenerate deployment) degrades to an equal
    // split rather than dividing by it.
    let share = |q: f64| if sum > 0.0 { q / sum } else { 1.0 / k as f64 };
    let mut parts: Vec<u32> = quotas
        .iter()
        .map(|&q| ((share(q) * total as f64).floor() as u32).max(1))
        .collect();
    // Fix up rounding drift.
    loop {
        let s: u32 = parts.iter().sum();
        if s == total {
            break;
        }
        if s < total {
            // Give the remainder to the largest-quota entry.
            let i = (0..quotas.len())
                .max_by(|&a, &b| quotas[a].total_cmp(&quotas[b]))
                .unwrap_or(0);
            parts[i] += 1;
        } else {
            let i = (0..quotas.len())
                .filter(|&i| parts[i] > 1)
                .max_by_key(|&i| parts[i])
                .unwrap_or(0);
            if parts[i] <= 1 {
                break;
            }
            parts[i] -= 1;
        }
    }
    debug_assert_eq!(parts.iter().sum::<u32>(), total.max(k));
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squad::SquadEntry;
    use dnn_models::{AppModel, ModelKind, Phase};
    use gpu_sim::GpuSpec;
    use profiler::ProfiledApp;

    fn deploy(kind: ModelKind, quota: f64) -> DeployedApp {
        let profile =
            ProfiledApp::profile(&AppModel::build(kind, Phase::Inference), &GpuSpec::a100());
        DeployedApp::new(profile, quota, None)
    }

    fn squad_of(apps: &[DeployedApp], per_app: usize) -> Squad {
        Squad {
            entries: apps
                .iter()
                .enumerate()
                .map(|(i, _)| SquadEntry {
                    app: i,
                    // Skip kernel 0 (the H2D copy) for clean compute squads.
                    kernels: (1..=per_app).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn composition_count_matches_formula() {
        // C(N-1, K-1) compositions for K parts of N.
        let mut parts = vec![1u32; 2];
        let mut n = 0;
        enumerate_compositions(18, 2, &mut parts, 0, &mut |_| n += 1);
        assert_eq!(n, 17); // C(17,1)
        let mut parts = vec![1u32; 3];
        let mut n = 0;
        enumerate_compositions(18, 3, &mut parts, 0, &mut |_| n += 1);
        assert_eq!(n, 136); // C(17,2)
    }

    #[test]
    fn two_app_space_is_eighteen() {
        // Paper §4.4.1: with N=18 and 2 active requests, 17 SP + 1 NSP.
        let apps = vec![
            deploy(ModelKind::NasNet, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let squad = squad_of(&apps, 10);
        let exhaustive = determine_config_exhaustive(&squad, &apps, 108);
        assert_eq!(exhaustive.evaluated, 18);
        assert_eq!(exhaustive.pruned, 0);
        // The branch-and-bound cut must cover the same space: every
        // candidate is either evaluated or accounted for as pruned.
        let choice = determine_config(&squad, &apps, 108);
        assert_eq!(choice.evaluated + choice.pruned, 18);
        assert_eq!(choice.config, exhaustive.config);
        assert_eq!(choice.predicted, exhaustive.predicted);
    }

    /// The pruned determiner is a pure speedup: across a spread of squad
    /// shapes and sizes it returns the exhaustive argmin (same config,
    /// same prediction) while covering the full space via
    /// `evaluated + pruned` — and actually cuts work on the larger spaces.
    #[test]
    fn pruned_search_matches_exhaustive() {
        let kinds = [
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            ModelKind::NasNet,
            ModelKind::Bert,
            ModelKind::ResNet101,
            ModelKind::AlexNet,
        ];
        let mut saved_anywhere = false;
        for k in 2..=5usize {
            let apps: Vec<DeployedApp> = kinds[..k]
                .iter()
                .map(|&m| deploy(m, 1.0 / k as f64))
                .collect();
            for per_app in [3, 8, 14] {
                let squad = squad_of(&apps, per_app);
                let fast = determine_config(&squad, &apps, 108);
                let slow = determine_config_exhaustive(&squad, &apps, 108);
                assert_eq!(fast.config, slow.config, "k={k} per_app={per_app}");
                assert_eq!(fast.predicted, slow.predicted, "k={k} per_app={per_app}");
                assert_eq!(
                    fast.evaluated + fast.pruned,
                    slow.evaluated,
                    "k={k} per_app={per_app}: candidate accounting"
                );
                saved_anywhere |= fast.evaluated < slow.evaluated;
            }
        }
        assert!(saved_anywhere, "the cut never fired on any squad shape");
    }

    #[test]
    fn interference_free_is_max_of_stacks() {
        let apps = vec![
            deploy(ModelKind::Vgg11, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let squad = squad_of(&apps, 5);
        // Full GPU each (impossible config, but the math is the point):
        let d_both = predict_interference_free(&squad, &apps, &[9, 9]);
        let stack = |app: usize| -> SimDuration {
            (1..=5)
                .map(|k| apps[app].profile.kernel_duration(8, k))
                .sum()
        };
        assert_eq!(d_both, stack(0).max(stack(1)));
    }

    #[test]
    fn more_sms_for_bottleneck_reduces_prediction() {
        let apps = vec![
            deploy(ModelKind::NasNet, 0.5),
            deploy(ModelKind::Vgg11, 0.5),
        ];
        // NasNet gets 30 kernels, VGG gets 2: NasNet is the bottleneck.
        let squad = Squad {
            entries: vec![
                SquadEntry {
                    app: 0,
                    kernels: (1..=30).collect(),
                },
                SquadEntry {
                    app: 1,
                    kernels: vec![1, 2],
                },
            ],
        };
        let even = predict_interference_free(&squad, &apps, &[9, 9]);
        let skewed = predict_interference_free(&squad, &apps, &[14, 4]);
        assert!(skewed < even, "{skewed:?} vs {even:?}");
    }

    #[test]
    fn determiner_prefers_sp_for_balanced_compute_squads() {
        // Two compute-heavy requests: strict partitioning avoids the
        // sequentializing penalty of the hardware scheduler (Fig. 7).
        let apps = vec![deploy(ModelKind::NasNet, 0.5), deploy(ModelKind::Bert, 0.5)];
        let squad = squad_of(&apps, 25);
        let choice = determine_config(&squad, &apps, 108);
        match &choice.config {
            ExecConfig::Sp { partitions } => {
                assert_eq!(partitions.iter().sum::<u32>(), 18);
                assert!(partitions.iter().all(|&p| p >= 1));
            }
            ExecConfig::Nsp => panic!("expected SP for balanced squads"),
        }
    }

    #[test]
    fn solo_squads_run_nsp() {
        let apps = vec![deploy(ModelKind::ResNet50, 0.5)];
        let squad = squad_of(&apps, 10);
        let choice = determine_config(&squad, &apps, 108);
        assert_eq!(choice.config, ExecConfig::Nsp);
        assert_eq!(choice.evaluated, 1);
    }

    #[test]
    fn sm_cap_computation() {
        let cfg = ExecConfig::Sp {
            partitions: vec![9, 9],
        };
        assert_eq!(cfg.sm_cap(0, 108), Some(54));
        assert_eq!(ExecConfig::Nsp.sm_cap(0, 108), None);
        let cfg = ExecConfig::Sp {
            partitions: vec![13, 5],
        };
        assert_eq!(cfg.sm_cap(0, 108), Some(78));
        assert_eq!(cfg.sm_cap(1, 108), Some(30));
    }

    #[test]
    fn hill_climb_handles_many_apps() {
        let apps: Vec<DeployedApp> = (0..8)
            .map(|i| {
                deploy(
                    if i % 2 == 0 {
                        ModelKind::ResNet50
                    } else {
                        ModelKind::Vgg11
                    },
                    0.125,
                )
            })
            .collect();
        let squad = squad_of(&apps, 4);
        let choice = determine_config(&squad, &apps, 108);
        if let ExecConfig::Sp { partitions } = &choice.config {
            assert_eq!(partitions.len(), 8);
            assert_eq!(partitions.iter().sum::<u32>(), 18);
        }
        assert!(choice.evaluated < 1000, "hill climbing stays cheap");
    }

    #[test]
    fn workload_equivalence_sums_rows() {
        let apps = vec![deploy(ModelKind::Vgg11, 0.5)];
        let squad = Squad {
            entries: vec![SquadEntry {
                app: 0,
                kernels: vec![1, 2, 3],
            }],
        };
        let d = predict_workload_equivalence(&squad, &apps, 108);
        // A single request at its own demand: close to its full-speed sum.
        let full: SimDuration = (1..=3)
            .map(|k| apps[0].profile.kernel_duration(PARTITIONS - 1, k))
            .sum();
        let ratio = d.as_nanos() as f64 / full.as_nanos() as f64;
        assert!((1.0..1.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn proportional_partitions_respect_quotas() {
        let parts = proportional_partitions(&[0.1, 0.2, 0.3, 0.4], 18);
        assert_eq!(parts.iter().sum::<u32>(), 18);
        assert!(parts[3] > parts[0]);
        assert!(parts.iter().all(|&p| p >= 1));
    }

    #[test]
    fn proportional_partitions_survive_degenerate_quotas() {
        // Zero quota sum degrades to an equal split instead of dividing
        // by zero (NaN floors to 0 and would violate the >= 1 invariant).
        let parts = proportional_partitions(&[0.0, 0.0, 0.0], 18);
        assert_eq!(parts.iter().sum::<u32>(), 18);
        assert!(parts.iter().all(|&p| p >= 1));
        assert!(proportional_partitions(&[], 18).is_empty());
    }

    #[test]
    fn sm_cap_guards_degenerate_inputs() {
        let cfg = ExecConfig::Sp {
            partitions: vec![9, 9],
        };
        // Entry index beyond the partition vector: no cap, no panic.
        assert_eq!(cfg.sm_cap(5, 108), None);
        // A zero-SM device still yields a positive cap.
        assert_eq!(cfg.sm_cap(0, 0), Some(1));
    }

    #[test]
    fn workload_equivalence_tolerates_zero_sm_device() {
        let apps = vec![deploy(ModelKind::Vgg11, 0.5)];
        let squad = squad_of(&apps, 3);
        // Must not panic on the inverted clamp bounds; exact value is
        // meaningless on a zero-SM device.
        let _ = predict_workload_equivalence(&squad, &apps, 0);
    }

    #[test]
    fn empty_squad_determines_nsp() {
        let apps = vec![deploy(ModelKind::Vgg11, 1.0)];
        let choice = determine_config(&Squad::default(), &apps, 108);
        assert_eq!(choice.config, ExecConfig::Nsp);
        assert_eq!(choice.evaluated, 0);
    }

    // -- channel-aware estimators (DESIGN.md §5j) ---------------------------

    /// Every `_model` entry point under `ChannelModel::Scalar` is a pure
    /// passthrough: identical results, identical search accounting.
    #[test]
    fn scalar_model_dispatch_is_bit_exact() {
        let apps = vec![
            deploy(ModelKind::NasNet, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let squad = squad_of(&apps, 10);
        let model = ChannelModel::Scalar;
        assert_eq!(
            predict_interference_free_model(&squad, &apps, &[9, 9], &model),
            predict_interference_free(&squad, &apps, &[9, 9]),
        );
        assert_eq!(
            predict_workload_equivalence_model(&squad, &apps, 108, &model),
            predict_workload_equivalence(&squad, &apps, 108),
        );
        let dispatched = determine_config_model(&squad, &apps, 108, &model);
        let direct = determine_config(&squad, &apps, 108);
        assert_eq!(dispatched.config, direct.config);
        assert_eq!(dispatched.predicted, direct.predicted);
        assert_eq!(dispatched.evaluated, direct.evaluated);
        assert_eq!(dispatched.pruned, direct.pruned);
    }

    /// Eq. 1 zeroes the compute channel (SM partitioning is exactly the
    /// mechanism that removes compute-issue contention), so a parameter
    /// set whose only live channel is Compute reduces to the plain
    /// max-of-stacks — while the calibrated A100 curves, which press on
    /// DRAM-BW where profiled kernels actually have demand, inflate it.
    #[test]
    fn sp_prediction_isolates_compute_channel() {
        let apps = vec![
            deploy(ModelKind::Vgg11, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let squad = squad_of(&apps, 5);
        let compute_only = ChannelParams::matched_scalar(1.5, 0.30, 2.0, Channel::Compute);
        let plain = predict_interference_free(&squad, &apps, &[9, 9]);
        assert_eq!(
            predict_interference_free_channels(&squad, &apps, &[9, 9], &compute_only),
            plain,
        );
        let calibrated =
            predict_interference_free_channels(&squad, &apps, &[9, 9], &ChannelParams::a100());
        assert!(calibrated > plain, "{calibrated:?} vs {plain:?}");
    }

    /// Channel-aware Eq. 2 only ever *adds* contention inflation on top of
    /// the scalar row model (per-kernel slowdown is >= 1), so it dominates
    /// the scalar estimate on every squad shape.
    #[test]
    fn channel_workload_equivalence_dominates_scalar() {
        let kinds = [ModelKind::NasNet, ModelKind::Bert, ModelKind::Vgg11];
        let apps: Vec<DeployedApp> = kinds.iter().map(|&m| deploy(m, 1.0 / 3.0)).collect();
        for per_app in [3, 8, 14] {
            let squad = squad_of(&apps, per_app);
            let chan =
                predict_workload_equivalence_channels(&squad, &apps, 108, &ChannelParams::a100());
            let scalar = predict_workload_equivalence(&squad, &apps, 108);
            assert!(chan >= scalar, "per_app={per_app}: {chan:?} < {scalar:?}");
        }
    }

    /// The per-resource exhaustive twin: NSP plus every SP composition,
    /// each predicted by the per-resource Eq. 1, keeping the first strict
    /// minimum in lexicographic order. The per-entry mean demands and
    /// stacks are hoisted out of the walk; the winner is re-checked
    /// against the public [`predict_interference_free_channels`].
    fn determine_config_channels_exhaustive(
        squad: &Squad,
        apps: &[DeployedApp],
        num_sms: u32,
        params: &ChannelParams,
    ) -> ConfigChoice {
        let k = squad.entries.len();
        assert!((2..=EXACT_SEARCH_MAX_APPS).contains(&k));
        let nsp = predict_workload_equivalence_channels(squad, apps, num_sms, params);
        let means: Vec<ChannelDemand> = squad
            .entries
            .iter()
            .map(|e| entry_mean_demand(&apps[e.app], &e.kernels))
            .collect();
        let stacks: Vec<Vec<SimDuration>> = squad
            .entries
            .iter()
            .map(|e| {
                (0..PARTITIONS)
                    .map(|p| stacked_duration(&apps[e.app], p, &e.kernels))
                    .collect()
            })
            .collect();
        let mut evaluated = 1;
        let mut best: Option<(Vec<u32>, SimDuration)> = None;
        let mut parts = vec![1u32; k];
        enumerate_compositions(PARTITIONS as u32, k, &mut parts, 0, &mut |parts| {
            evaluated += 1;
            let mut traffic = [0.0f64; NUM_CHANNELS];
            for (mean, &p) in means.iter().zip(parts) {
                let share = p as f64 / PARTITIONS as f64;
                for (t, d) in traffic.iter_mut().zip(&mean.0) {
                    *t += d * share;
                }
            }
            traffic[Channel::Compute as usize] = 0.0;
            let mut dur = SimDuration::ZERO;
            for (i, &p) in parts.iter().enumerate() {
                let share = p as f64 / PARTITIONS as f64;
                let slow = params.slowdown(&means[i], share, &traffic);
                dur = dur.max(stacks[i][p as usize - 1].mul_f64(slow));
            }
            if best.as_ref().is_none_or(|(_, d)| dur < *d) {
                best = Some((parts.to_vec(), dur));
            }
        });
        if let Some((parts, dur)) = &best {
            assert_eq!(
                predict_interference_free_channels(squad, apps, parts, params),
                *dur
            );
        }
        match best {
            Some((partitions, dur)) if dur < nsp => ConfigChoice {
                config: ExecConfig::Sp { partitions },
                predicted: dur,
                evaluated,
                pruned: 0,
            },
            _ => ConfigChoice {
                config: ExecConfig::Nsp,
                predicted: nsp,
                evaluated,
                pruned: 0,
            },
        }
    }

    /// Candidates the per-resource search's hill-climb seed evaluates.
    fn seed_evaluations(squad: &Squad, apps: &[DeployedApp], params: &ChannelParams) -> usize {
        let stacked: Vec<Stacked> = squad
            .entries
            .iter()
            .map(|e| std::array::from_fn(|p| stacked_duration(&apps[e.app], p, &e.kernels)))
            .collect();
        let means: Vec<ChannelDemand> = squad
            .entries
            .iter()
            .map(|e| entry_mean_demand(&apps[e.app], &e.kernels))
            .collect();
        let quotas: Vec<f64> = squad.entries.iter().map(|e| apps[e.app].quota).collect();
        let ch = Channels {
            params,
            means: &means,
        };
        hill_climb(&stacked, &quotas, |parts| ch.eval(&stacked, parts)).evaluated
    }

    /// The per-resource determiner returns a well-formed choice and
    /// accounts for its whole candidate space: `evaluated` counts NSP,
    /// the hill-climb seed's candidates and every SP leaf reached,
    /// `pruned` every SP composition cut, so `evaluated + pruned` is the
    /// exhaustive count (NSP + C(17, 1) splits) plus the seed's work.
    #[test]
    fn channel_determiner_is_well_formed() {
        let apps = vec![deploy(ModelKind::NasNet, 0.5), deploy(ModelKind::Bert, 0.5)];
        let squad = squad_of(&apps, 25);
        let params = ChannelParams::a100();
        let model = ChannelModel::PerResource(params);
        let choice = determine_config_model(&squad, &apps, 108, &model);
        assert!(choice.predicted > SimDuration::ZERO);
        let seed = seed_evaluations(&squad, &apps, &params);
        assert!(seed >= 1);
        assert_eq!(choice.evaluated + choice.pruned, 18 + seed);
        assert!(choice.evaluated < 18 + seed, "the cut never fired");
        if let ExecConfig::Sp { partitions } = &choice.config {
            assert_eq!(partitions.len(), 2);
            assert_eq!(partitions.iter().sum::<u32>(), 18);
            assert!(partitions.iter().all(|&p| p >= 1));
        }
    }

    fn table1_profiles() -> &'static [std::sync::Arc<ProfiledApp>] {
        static CACHE: std::sync::OnceLock<Vec<std::sync::Arc<ProfiledApp>>> =
            std::sync::OnceLock::new();
        CACHE.get_or_init(|| {
            ModelKind::ALL
                .iter()
                .map(|&m| {
                    std::sync::Arc::new(ProfiledApp::profile(
                        &AppModel::build(m, Phase::Inference),
                        &GpuSpec::a100(),
                    ))
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

        /// The pruned per-resource search is exact: on random squads of
        /// 2-6 Table 1 models with random contiguous kernel ranges and
        /// quotas, under both the calibrated A100 curves and a scalar
        /// collapse, it returns the exhaustive twin's config and
        /// prediction, accounts for every composition, and the memoized
        /// path agrees.
        #[test]
        fn prop_channel_search_matches_exhaustive(
            entries in proptest::collection::vec(
                (0usize..5, 0.0f64..1.0, 1usize..=40, 1u32..=100),
                2..=6,
            ),
            collapse: bool,
        ) {
            let profiles = table1_profiles();
            let apps: Vec<DeployedApp> = entries
                .iter()
                .map(|&(m, _, _, q)| DeployedApp::new(profiles[m].clone(), q as f64 / 100.0, None))
                .collect();
            let squad = Squad {
                entries: entries
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, start, len, _))| {
                        let n = apps[i].profile.kernel_count();
                        let len = len.min(n);
                        let first = ((start * (n - len + 1) as f64) as usize).min(n - len);
                        SquadEntry { app: i, kernels: (first..first + len).collect() }
                    })
                    .collect(),
            };
            let params = if collapse {
                ChannelParams::matched_scalar(1.5, 0.30, 2.0, Channel::DramBw)
            } else {
                ChannelParams::a100()
            };
            let model = ChannelModel::PerResource(params);
            let fast = determine_config_model(&squad, &apps, 108, &model);
            let slow = determine_config_channels_exhaustive(&squad, &apps, 108, &params);
            proptest::prop_assert_eq!(&fast.config, &slow.config);
            proptest::prop_assert_eq!(fast.predicted, slow.predicted);
            proptest::prop_assert_eq!(
                fast.evaluated + fast.pruned,
                slow.evaluated + seed_evaluations(&squad, &apps, &params)
            );
            let mut memo = ConfigMemo::new();
            for _ in 0..2 {
                let memoized = determine_config_memo_model(&mut memo, &squad, &apps, 108, &model);
                proptest::prop_assert_eq!(&memoized.config, &fast.config);
                proptest::prop_assert_eq!(memoized.predicted, fast.predicted);
                proptest::prop_assert_eq!(memoized.evaluated, fast.evaluated);
            }
            proptest::prop_assert_eq!((memo.hits, memo.misses), (1, 1));
        }
    }

    /// The channel determiner hill-climbs past `EXACT_SEARCH_MAX_APPS`
    /// instead of enumerating, mirroring the scalar path's shape.
    #[test]
    fn channel_determiner_hill_climbs_many_apps() {
        let apps: Vec<DeployedApp> = (0..8)
            .map(|i| {
                deploy(
                    if i % 2 == 0 {
                        ModelKind::ResNet50
                    } else {
                        ModelKind::Vgg11
                    },
                    0.125,
                )
            })
            .collect();
        let squad = squad_of(&apps, 4);
        let model = ChannelModel::PerResource(ChannelParams::a100());
        let choice = determine_config_model(&squad, &apps, 108, &model);
        if let ExecConfig::Sp { partitions } = &choice.config {
            assert_eq!(partitions.len(), 8);
            assert_eq!(partitions.iter().sum::<u32>(), 18);
        }
        assert!(choice.evaluated < 1000, "hill climbing stays cheap");
    }

    /// The memoized model dispatcher caches per-resource choices and
    /// returns them verbatim on recurring squad signatures.
    #[test]
    fn memo_model_caches_channel_choices() {
        let apps = vec![deploy(ModelKind::NasNet, 0.5), deploy(ModelKind::Bert, 0.5)];
        let squad = squad_of(&apps, 10);
        let model = ChannelModel::PerResource(ChannelParams::a100());
        let mut memo = ConfigMemo::new();
        let first = determine_config_memo_model(&mut memo, &squad, &apps, 108, &model);
        assert_eq!(memo.misses, 1);
        assert_eq!(memo.hits, 0);
        let second = determine_config_memo_model(&mut memo, &squad, &apps, 108, &model);
        assert_eq!(memo.hits, 1);
        assert_eq!(first.config, second.config);
        assert_eq!(first.predicted, second.predicted);
        // And the uncached search agrees with what the memo stored.
        let direct = determine_config_model(&squad, &apps, 108, &model);
        assert_eq!(first.config, direct.config);
        assert_eq!(first.predicted, direct.predicted);
    }
}
