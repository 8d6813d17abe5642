//! The BLESS runtime: multi-task scheduler + concurrent kernel manager
//! (§4.3, §4.5) as a [`HostDriver`].
//!
//! Each deployed application owns two device queues: one bound to an
//! unrestricted (default) context and one bound to a resizable MPS
//! SM-affinity context. The runtime proceeds squad by squad:
//!
//! 1. When requests are active and no squad is in flight, the multi-task
//!    scheduler generates a squad ([`crate::squad::generate_squad`]) and
//!    the configuration determiner picks NSP or an SM partitioning
//!    ([`crate::predict::determine_config`]).
//! 2. Under SP, the first `c%` of each entry's kernels (the split ratio)
//!    are launched into the app's restricted context; when they finish,
//!    the rear kernels are launched into the unrestricted context after a
//!    50 µs context-switch vacuum — the paper's semi-SP sharing (Fig. 7c).
//!    Under NSP everything goes to the unrestricted contexts.
//! 3. When the squad's last kernel finishes, a 20 µs squad-switch
//!    synchronization is charged and the next squad is scheduled.
//!
//! Scheduling work (6.7 µs per kernel, §6.9) is pipelined with the
//! previous squad's device execution: the next squad can only launch once
//! the background scheduler has had enough host time since the previous
//! launch — reproducing the paper's "overspending" hazard when kernels
//! are shorter than the per-kernel scheduling cost.

use std::collections::VecDeque;

use gpu_sim::{CtxId, CtxKind, FailedKernel, Gpu, HostDriver, KernelDone, QueueId, RequestArrival};
use metrics::{DegradeTransition, RequestLog, RobustnessReport, ShareMode};
use sim_core::trace::{TraceEvent, TraceSquadEntry};
use sim_core::{SimDuration, SimTime};

use crate::deploy::DeployedApp;
use crate::error::SchedError;
use crate::params::BlessParams;
use crate::predict::{determine_config_memo_model, ConfigChoice, ConfigMemo, ExecConfig};
use crate::squad::{generate_squad_into, scheduling_cost, ActiveRequest, Squad, SquadScratch};
use gpu_sim::KernelTableId;

// `PendingReq`/`ActiveReq` mirror `baselines::common`'s request-lifecycle
// types. They cannot be shared: `baselines` depends on this crate, and the
// BLESS lifecycle is interwoven with squad state in ways the baseline
// drivers' is not.
/// A request waiting in an application's task queue.
#[derive(Clone, Copy, Debug)]
struct PendingReq {
    req: usize,
    arrival: SimTime,
}

/// The request currently being served for one application.
#[derive(Clone, Copy, Debug)]
struct ActiveReq {
    req: usize,
    arrival: SimTime,
    next_kernel: usize,
}

/// Per-application execution state of the in-flight squad.
///
/// Kernels are fed to the device progressively, a small window at a time,
/// so that the squad can *drain* (stop feeding and end early) the moment a
/// new tenant's request arrives — the paper's "shrink instantly, lazily
/// wait for [launched kernels'] completion rather than preempting" (§3.3).
/// Selected kernels are always a consecutive run of the app's trace
/// (`first..first + count`), so the entry is a plain `Copy` range — no
/// per-squad kernel list is allocated or cloned.
#[derive(Clone, Copy, Debug)]
struct EntryRun {
    /// First selected kernel index (into the app's kernel trace).
    first: usize,
    /// Number of selected kernels.
    count: usize,
    /// Kernels `[0, split_at)` (relative to `first`) go to the restricted
    /// context, the rest to the unrestricted one (semi-SP).
    split_at: usize,
    /// Next offset in `first..first + count` to launch.
    next_to_launch: usize,
    /// Launched but unfinished kernels.
    inflight: usize,
    /// Head (restricted) kernels still unfinished.
    head_remaining: usize,
    /// Whether the context-switch vacuum for the tail was already charged.
    tail_started: bool,
    /// Predicted entry duration at the chosen configuration (recorded
    /// only when the watchdog is enabled; ZERO otherwise).
    predicted: SimDuration,
    /// When the entry's last kernel finished (for the drift watchdog).
    finished_at: Option<SimTime>,
    /// The queue whose launch program feeds the current phase, if one
    /// does, and the offset its launches end at. The fields above then lag
    /// the engine: they count only what the driver launched and saw
    /// complete, until the program reports its last kernel, is truncated
    /// or is cancelled.
    program: Option<(QueueId, usize)>,
}

/// One record of a completed squad (for the fine-grained analyses of
/// §6.6/Fig. 18).
#[derive(Clone, Debug)]
pub struct SquadRecord {
    /// When the squad's kernels were launched.
    pub launched_at: SimTime,
    /// When its last kernel finished.
    pub finished_at: SimTime,
    /// Participating apps and their kernel counts.
    pub per_app_kernels: Vec<(usize, usize)>,
    /// Whether the determiner chose spatial partitioning.
    pub spatial: bool,
    /// The SM caps per participating app under SP (empty for NSP).
    pub sm_caps: Vec<(usize, u32)>,
}

/// One request preserved in a tenant checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointReq {
    /// Per-driver request id (dense from 0 on the source driver).
    pub req: usize,
    /// Original arrival instant.
    pub arrival: SimTime,
}

/// Portable per-tenant snapshot of a quiesced driver's pending request
/// work, exported by [`BlessDriver::export_checkpoint`] — the driver half
/// of the drain-and-snapshot migration path (the engine half is
/// [`gpu_sim::DeviceCheckpoint`]; see DESIGN.md §5i).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantCheckpoint {
    /// App id on the source driver.
    pub app: usize,
    /// The request in flight at the barrier, if any. Its launched squads
    /// were abandoned with typed errors on the device; the request must
    /// be re-run from scratch wherever the tenant lands.
    pub in_flight: Option<CheckpointReq>,
    /// Requests still waiting in the task queue, FIFO order preserved.
    pub queued: Vec<CheckpointReq>,
    /// Degradation-ladder position at the barrier, carried so a migrated
    /// tenant resumes mid-ladder instead of resetting to semi-spatial.
    pub mode: ShareMode,
    /// Consecutive clean squads toward re-promotion at the barrier.
    pub clean_squads: u32,
}

impl TenantCheckpoint {
    /// Total requests preserved (in-flight plus queued).
    pub fn outstanding(&self) -> usize {
        usize::from(self.in_flight.is_some()) + self.queued.len()
    }
}

/// The BLESS scheduler, driving one GPU on behalf of its tenants.
pub struct BlessDriver {
    /// Deployment data, indexed by app id.
    pub apps: Vec<DeployedApp>,
    /// Runtime parameters.
    pub params: BlessParams,
    /// Arrival/completion log for metrics.
    pub log: RequestLog,
    /// Completed squads (recorded when `record_squads` is set).
    pub squad_log: Vec<SquadRecord>,
    /// Record per-squad details (off by default; costs memory).
    pub record_squads: bool,

    queue_free: Vec<QueueId>,
    queue_restricted: Vec<QueueId>,
    ctx_restricted: Vec<CtxId>,
    /// Per-app engine kernel table (the app's profiled trace, registered
    /// in `on_start`); all steady-state launches go by `(table, index)`.
    tables: Vec<KernelTableId>,
    task_queues: Vec<VecDeque<PendingReq>>,
    active: Vec<Option<ActiveReq>>,
    squad: Option<SquadState>,
    /// Retired squad state recycled into the next launch (its `per_app`
    /// and `sm_caps` buffers keep their capacity).
    squad_pool: Option<SquadState>,
    /// Scratch: active-request snapshot reused every scheduling round.
    actives_buf: Vec<ActiveRequest>,
    /// Scratch: squad generation buffers (candidates + spare kernel Vecs).
    squad_scratch: SquadScratch,
    /// Scratch: the squad being built/launched this round.
    squad_buf: Squad,
    /// Scratch: per-entry predicted totals for squad trimming.
    totals_buf: Vec<f64>,
    /// Scratch: crash-retry drain buffer (swapped with `pending_retry`).
    retry_buf: Vec<(usize, QueueId)>,
    sched_pending: bool,
    last_squad_launch: SimTime,
    /// Total squads launched.
    pub squads_launched: usize,
    /// Squads that ran with spatial partitioning.
    pub sp_squads: usize,
    /// Memoized determiner results for recurring squad signatures.
    memo: ConfigMemo,

    /// Recoverable anomalies observed while scheduling (capped at
    /// `MAX_RECORDED_ERRORS`; the count keeps running in
    /// `robustness.sched_errors`).
    pub errors: Vec<SchedError>,
    /// Fault/recovery accounting for the robustness report.
    pub robustness: RobustnessReport,
    /// Crashed kernels awaiting re-submission, per app: `(kernel, queue)`.
    pending_retry: Vec<Vec<(usize, QueueId)>>,
    /// Re-submitted kernels that have not completed yet, per app.
    outstanding_retried: Vec<Vec<usize>>,
    /// Consecutive crash/retry rounds per app (drives the backoff).
    retry_streak: Vec<u32>,
    /// Current sharing mode per app on the degradation ladder.
    degrade: Vec<ShareMode>,
    /// Consecutive clean squads per app (drives re-promotion).
    clean_squads: Vec<u32>,
    /// Test-only twin switch: feed every kernel from its completion
    /// callback, with no launch programs.
    #[cfg(test)]
    per_kernel_feed: bool,
}

struct SquadState {
    per_app: Vec<Option<EntryRun>>,
    /// Launched-but-unfinished kernels across entries.
    inflight_total: usize,
    /// Selected-but-unlaunched kernels across entries.
    pending_total: usize,
    /// When set, no further kernels are fed; the squad ends as soon as the
    /// in-flight ones finish (a new tenant's request arrived).
    draining: bool,
    launched_at: SimTime,
    spatial: bool,
    sm_caps: Vec<(usize, u32)>,
}

use gpu_sim::{decode_tag as untag, encode_tag as tag_of};
use workloads::encode_notice as workload_notice;

impl BlessDriver {
    /// Creates a BLESS driver for the given deployment.
    pub fn new(apps: Vec<DeployedApp>, params: BlessParams) -> Self {
        params.validate();
        let n = apps.len();
        BlessDriver {
            log: RequestLog::new(n),
            squad_log: Vec::new(),
            record_squads: false,
            queue_free: Vec::new(),
            queue_restricted: Vec::new(),
            ctx_restricted: Vec::new(),
            tables: Vec::new(),
            task_queues: vec![VecDeque::new(); n],
            active: vec![None; n],
            squad: None,
            squad_pool: None,
            actives_buf: Vec::new(),
            squad_scratch: SquadScratch::default(),
            squad_buf: Squad::default(),
            totals_buf: Vec::new(),
            retry_buf: Vec::new(),
            sched_pending: false,
            last_squad_launch: SimTime::ZERO,
            squads_launched: 0,
            sp_squads: 0,
            memo: ConfigMemo::new(),
            errors: Vec::new(),
            robustness: RobustnessReport::new(),
            pending_retry: vec![Vec::new(); n],
            outstanding_retried: vec![Vec::new(); n],
            retry_streak: vec![0; n],
            degrade: vec![ShareMode::SemiSpatial; n],
            clean_squads: vec![0; n],
            #[cfg(test)]
            per_kernel_feed: false,
            apps,
            params,
        }
    }

    /// Current sharing mode of `app` on the degradation ladder.
    pub fn share_mode(&self, app: usize) -> ShareMode {
        self.degrade[app]
    }

    /// Lane hints for the current degradation state: which tenants are
    /// structurally isolated from each other given their present share
    /// modes and quotas, on a device with `num_sms` SMs.
    ///
    /// The grouping is structural (SM-allocator reachability; see
    /// [`crate::lanes`]). Recompute after degradation transitions — mode
    /// shifts move tenants between the shared-pool lane and partition
    /// lanes.
    pub fn lane_hints(&self, num_sms: u32) -> crate::lanes::LaneHints {
        let quotas: Vec<f64> = self.apps.iter().map(|a| a.quota).collect();
        crate::lanes::LaneHints::from_share_modes(&self.degrade, &quotas, num_sms)
    }

    /// Exports the driver's pending request work as a portable per-tenant
    /// checkpoint: the in-flight request (whose device squads the caller
    /// abandons via [`Gpu::drain_snapshot`]) plus the task queue in FIFO
    /// order, with the degradation-ladder position carried along.
    ///
    /// Pure read: the driver is left untouched, so the caller decides
    /// whether the source keeps running (planned migration) or is retired
    /// (device failure). Undelivered future arrivals live in the
    /// simulation loop, not the driver — collect them separately with
    /// `Simulation::take_pending_arrivals`.
    pub fn export_checkpoint(&self) -> Vec<TenantCheckpoint> {
        (0..self.apps.len())
            .map(|app| TenantCheckpoint {
                app,
                in_flight: self.active[app].map(|a| CheckpointReq {
                    req: a.req,
                    arrival: a.arrival,
                }),
                queued: self.task_queues[app]
                    .iter()
                    .map(|p| CheckpointReq {
                        req: p.req,
                        arrival: p.arrival,
                    })
                    .collect(),
                mode: self.degrade[app],
                clean_squads: self.clean_squads[app],
            })
            .collect()
    }

    /// Restores a migrated tenant's degradation-ladder position from its
    /// checkpoint: the tenant keeps its rung and its re-promotion progress,
    /// so a migration landing mid-ladder re-promotes through the same
    /// remaining rungs as an uninterrupted run.
    ///
    /// Call before the first arrival is delivered (fresh drivers start
    /// every tenant at semi-spatial with zero clean squads).
    pub fn restore_share_mode(&mut self, app: usize, mode: ShareMode, clean_squads: u32) {
        self.degrade[app] = mode;
        self.clean_squads[app] = clean_squads;
    }

    /// Records a recoverable anomaly without letting the error log grow
    /// unboundedly under a pathological fault storm.
    fn record_error(&mut self, e: SchedError) {
        self.robustness.sched_errors += 1;
        if self.errors.len() < MAX_RECORDED_ERRORS {
            self.errors.push(e);
        }
    }

    /// Moves `app` one step down (demote) or up (promote) the degradation
    /// ladder and records the transition.
    fn shift_mode(&mut self, gpu: &mut Gpu, app: usize, at: SimTime, demote: bool) {
        let from = self.degrade[app];
        let to = match (from, demote) {
            (ShareMode::SemiSpatial, true) => ShareMode::StrictSpatial,
            (ShareMode::StrictSpatial, true) => ShareMode::Temporal,
            (ShareMode::Temporal, false) => ShareMode::StrictSpatial,
            (ShareMode::StrictSpatial, false) => ShareMode::SemiSpatial,
            _ => return,
        };
        self.degrade[app] = to;
        if gpu.tracing_enabled() {
            gpu.trace_emit(TraceEvent::ModeShift {
                at,
                app: app as u32,
                from: mode_code(from),
                to: mode_code(to),
            });
        }
        self.robustness
            .degradations
            .push(DegradeTransition { at, app, from, to });
    }

    /// Fills `out` (cleared first) with a snapshot of the active requests.
    fn fill_active_requests(&self, out: &mut Vec<ActiveRequest>) {
        out.clear();
        out.extend(self.active.iter().enumerate().filter_map(|(app, a)| {
            a.map(|a| ActiveRequest {
                app,
                arrival: a.arrival,
                next_kernel: a.next_kernel,
            })
        }));
    }

    /// Requests squad scheduling at the current instant, deferred through
    /// a host wakeup so that all same-timestamp request arrivals are seen
    /// before the squad is generated.
    fn request_schedule(&mut self, gpu: &mut Gpu) {
        if self.sched_pending || self.squad.is_some() {
            return;
        }
        self.sched_pending = true;
        gpu.wake_at(gpu.now(), SCHED_WAKE_TOKEN);
    }

    /// Fills `out` with the active requests the next squad may draw from,
    /// honouring the degradation ladder: an app demoted to pure temporal
    /// sharing only runs solo, and only when it holds the earliest
    /// deadline (arrival + SLO-or-ISO target) among all active requests.
    fn fill_schedulable_actives(&self, out: &mut Vec<ActiveRequest>) {
        self.fill_active_requests(out);
        if out.is_empty() || !self.degrade.contains(&ShareMode::Temporal) {
            return;
        }
        let urgent = out
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.arrival + self.apps[r.app].target_latency())
            .map(|(i, _)| i);
        let Some(urgent) = urgent else { return };
        let urgent = out[urgent].clone();
        if self.degrade[urgent.app] == ShareMode::Temporal {
            out.clear();
            out.push(urgent);
            return;
        }
        out.retain(|r| self.degrade[r.app] != ShareMode::Temporal);
        if out.is_empty() {
            // Everyone is temporal-degraded: still serve the most urgent.
            out.push(urgent);
        }
    }

    fn schedule_squad(&mut self, gpu: &mut Gpu) {
        debug_assert!(self.squad.is_none());
        // Scratch buffers are moved out for the duration of the round
        // (`Vec::new`/`Default` placeholders allocate nothing) so `self`
        // stays borrowable, and restored — with their capacity — at the
        // end, making the whole round allocation-free in steady state.
        let mut active = std::mem::take(&mut self.actives_buf);
        self.fill_schedulable_actives(&mut active);
        if active.is_empty() {
            self.actives_buf = active;
            return;
        }
        let mut squad = std::mem::take(&mut self.squad_buf);
        let mut scratch = std::mem::take(&mut self.squad_scratch);
        generate_squad_into(
            gpu.now(),
            &active,
            &self.apps,
            &self.params,
            &mut scratch,
            &mut squad,
        );
        self.squad_scratch = scratch;
        self.actives_buf = active;
        if squad.is_empty() {
            self.squad_buf = squad;
            return;
        }

        let choice = if self.params.disable_determiner || squad.entries.len() < 2 {
            crate::predict::ConfigChoice {
                config: ExecConfig::Nsp,
                predicted: SimDuration::ZERO,
                evaluated: 0,
                pruned: 0,
            }
        } else {
            determine_config_memo_model(
                &mut self.memo,
                &squad,
                &self.apps,
                gpu.spec().num_sms,
                &gpu.spec().channel_model,
            )
        };

        // Balance the squad: trim trailing kernels from entries whose
        // predicted duration under the chosen configuration overshoots the
        // shortest entry — they would only straggle past the squad barrier
        // and are re-selected next squad. (The multi-task scheduler
        // compensates at fine granularity, §4.3.2; ending squads balanced
        // is what keeps the 20 µs squad switch the only boundary cost.)
        self.trim_squad(&mut squad, &choice.config, gpu.spec().num_sms);

        // Pipeline the scheduling cost with the previous squad: the squad
        // may not launch before the background scheduler has spent its
        // per-kernel time since the previous launch.
        let cost = scheduling_cost(squad.len(), self.params.graph_granularity, gpu.costs());
        let sched_ready = self.last_squad_launch + cost;
        let host_free = gpu.host_free_at();
        if sched_ready > host_free {
            gpu.charge_host(sched_ready.duration_since(host_free));
        }

        self.launch_squad(gpu, &squad, &choice);
        self.squad_buf = squad;
    }

    /// Trims each entry to roughly the predicted duration of the squad's
    /// shortest entry (+[`TRIM_TOLERANCE`]), so all entries finish
    /// near-simultaneously.
    fn trim_squad(&mut self, squad: &mut Squad, config: &ExecConfig, num_sms: u32) {
        if squad.entries.len() < 2 {
            return;
        }
        // Predicted per-kernel durations at the chosen configuration.
        let kernel_dur = |apps: &[DeployedApp], entry_idx: usize, app: usize, k: usize| -> f64 {
            apps[app]
                .predicted_kernel_duration(k, config.sm_cap(entry_idx, num_sms))
                .as_nanos() as f64
        };
        let mut totals = std::mem::take(&mut self.totals_buf);
        totals.clear();
        totals.extend(squad.entries.iter().enumerate().map(|(i, e)| {
            e.kernels
                .iter()
                .map(|&k| kernel_dur(&self.apps, i, e.app, k))
                .sum::<f64>()
        }));
        let target = totals.iter().cloned().fold(f64::MAX, f64::min) * TRIM_TOLERANCE;
        for (i, e) in squad.entries.iter_mut().enumerate() {
            if totals[i] <= target {
                continue;
            }
            let mut cum = 0.0;
            let mut keep = 0;
            for &k in &e.kernels {
                cum += kernel_dur(&self.apps, i, e.app, k);
                keep += 1;
                if cum > target {
                    break;
                }
            }
            e.kernels.truncate(keep.max(1));
        }
        totals.clear();
        self.totals_buf = totals;
    }

    fn launch_squad(&mut self, gpu: &mut Gpu, squad: &Squad, choice: &ConfigChoice) {
        let config = &choice.config;
        let num_sms = gpu.spec().num_sms;
        // Recycle the retired squad's buffers instead of reallocating.
        let mut state = self.squad_pool.take().unwrap_or_else(|| SquadState {
            per_app: Vec::new(),
            inflight_total: 0,
            pending_total: 0,
            draining: false,
            launched_at: SimTime::ZERO,
            spatial: false,
            sm_caps: Vec::new(),
        });
        state.per_app.clear();
        state.per_app.resize(self.apps.len(), None);
        state.sm_caps.clear();
        let mut pending_total = 0usize;
        let spatial = matches!(config, ExecConfig::Sp { .. });
        let squad_id = self.squads_launched as u64;
        let mut trace_entries: Vec<TraceSquadEntry> = Vec::new();

        for (entry_idx, entry) in squad.entries.iter().enumerate() {
            let app = entry.app;
            // A strict-spatial app keeps the SM restriction for its whole
            // entry; in a shared NSP squad it is forced under a
            // quota-proportional cap it would otherwise not have.
            let strict = self.degrade[app] == ShareMode::StrictSpatial && squad.entries.len() >= 2;
            let mut cap = config.sm_cap(entry_idx, num_sms);
            if strict && cap.is_none() {
                let quota_sms = (self.apps[app].quota * num_sms as f64).round() as u32;
                cap = Some(quota_sms.clamp(1, num_sms));
            }
            let cap = cap.map(|c| c.max(1));
            let mut applied_cap = 0u32;
            let split_at = match cap {
                Some(cap_sms) => match gpu.set_mps_cap(self.ctx_restricted[app], cap_sms) {
                    Ok(()) => {
                        state.sm_caps.push((app, cap_sms));
                        applied_cap = cap_sms;
                        if strict {
                            entry.kernels.len()
                        } else {
                            let c = self.params.split_ratio;
                            ((entry.kernels.len() as f64 * c).ceil() as usize)
                                .min(entry.kernels.len())
                        }
                    }
                    Err(e) => {
                        // A dead/unresizable restricted context must not
                        // abort the squad: run this entry unrestricted.
                        self.record_error(e.into());
                        0
                    }
                },
                None => 0,
            };
            if gpu.tracing_enabled() {
                trace_entries.push(TraceSquadEntry {
                    app: app as u32,
                    first_kernel: entry.kernels.first().copied().unwrap_or(0) as u32,
                    count: entry.kernels.len() as u32,
                    split_at: split_at as u32,
                    sm_cap: applied_cap,
                    mode: if applied_cap == 0 {
                        2
                    } else if strict {
                        1
                    } else {
                        0
                    },
                });
            }
            let predicted = if self.params.watchdog.is_some() {
                let ns: f64 = entry
                    .kernels
                    .iter()
                    .map(|&k| self.apps[app].predicted_kernel_duration(k, cap).as_nanos() as f64)
                    .sum();
                SimDuration::from_nanos(ns as u64)
            } else {
                SimDuration::ZERO
            };
            pending_total += entry.kernels.len();
            // Squad selections are a consecutive run of the app's trace
            // (the generator advances `next` one at a time), so a
            // `(first, count)` range captures them without cloning.
            let first = entry.kernels.first().copied().unwrap_or(0);
            debug_assert!(
                entry
                    .kernels
                    .iter()
                    .enumerate()
                    .all(|(i, &k)| k == first + i),
                "squad entry kernels must be consecutive"
            );
            state.per_app[app] = Some(EntryRun {
                head_remaining: split_at,
                next_to_launch: 0,
                inflight: 0,
                tail_started: split_at == 0,
                first,
                count: entry.kernels.len(),
                split_at,
                predicted,
                finished_at: None,
                program: None,
            });
        }

        self.squads_launched += 1;
        if spatial {
            self.sp_squads += 1;
        }
        self.last_squad_launch = gpu.now();
        state.inflight_total = 0;
        state.pending_total = pending_total;
        state.draining = false;
        state.launched_at = gpu.now();
        state.spatial = spatial;
        self.squad = Some(state);

        if gpu.tracing_enabled() {
            gpu.trace_emit(TraceEvent::ConfigChosen {
                at: gpu.now(),
                squad: squad_id,
                spatial,
                predicted_ns: choice.predicted.as_nanos(),
                evaluated: choice.evaluated as u32,
            });
            gpu.trace_emit(TraceEvent::SquadFormed {
                at: gpu.now(),
                id: squad_id,
                spatial,
                split_ratio: self.params.split_ratio,
                entries: trace_entries,
            });
        }

        // Prime the launch windows. (`squad` is the caller's buffer, not a
        // borrow of `self`, so no app list needs collecting.)
        for entry in &squad.entries {
            self.feed_entry(gpu, entry.app);
        }
    }

    /// Feeds the device with this entry's next kernels, up to the launch
    /// window, respecting the semi-SP barrier (tail kernels only launch
    /// once the restricted head finished, after the context-switch
    /// vacuum). Then hands the rest of the phase to the engine as a launch
    /// program, which refills the window itself and reports only the
    /// phase's last kernel.
    fn feed_entry(&mut self, gpu: &mut Gpu, app: usize) {
        let window = self.params.launch_window;
        // A launch failure is collected here and handled after the squad
        // borrow ends (`record_error` needs `&mut self`).
        let mut launch_failed: Option<SchedError> = None;
        let Some(squad) = &mut self.squad else { return };
        if squad.draining {
            return;
        }
        let Some(entry) = squad.per_app[app].as_mut() else {
            return;
        };
        debug_assert!(entry.program.is_none(), "a program feeds this entry");
        let graph = self.params.graph_granularity.max(1);
        let table = self.tables[app];
        while entry.inflight < window && entry.next_to_launch < entry.count {
            let idx = entry.next_to_launch;
            let in_head = idx < entry.split_at;
            // Semi-SP barrier: hold tail kernels until the head drains.
            if !in_head && entry.split_at > 0 && entry.head_remaining > 0 {
                break;
            }
            let (queue, extra) = if in_head {
                (self.queue_restricted[app], SimDuration::ZERO)
            } else if entry.split_at > 0 && !entry.tail_started {
                entry.tail_started = true;
                (self.queue_free[app], gpu.costs().context_switch)
            } else {
                (self.queue_free[app], SimDuration::ZERO)
            };
            // One scheduling unit: a single kernel, or a CUDA graph of up
            // to `graph` consecutive kernels on the same queue side
            // (launched with one API call, §6.10). The unit is a range of
            // the app's registered kernel table — no descriptor list is
            // built or cloned.
            let phase_end = if in_head { entry.split_at } else { entry.count };
            let unit_end = (idx + graph).min(phase_end);
            let launched = unit_end - idx;
            let base = entry.first;
            // The unit launches atomically: the only failure mode here is
            // a dead queue/context, which fails every call on it alike.
            let result: Result<(), gpu_sim::GpuError> = if launched == 1 {
                let k = base + idx;
                gpu.launch_delayed(queue, table, k, tag_of(app, k), extra)
                    .map(|_| ())
            } else if extra.is_zero() {
                gpu.launch_graph(queue, table, base + idx..base + unit_end, |k| {
                    tag_of(app, k)
                })
            } else {
                // The context-switch vacuum stalls only this queue: apply
                // it to the unit's first kernel; the rest of the graph
                // follows in FIFO order behind it.
                let k = base + idx;
                gpu.launch_delayed(queue, table, k, tag_of(app, k), extra)
                    .map(|_| ())
                    .and_then(|()| {
                        gpu.launch_graph(queue, table, base + idx + 1..base + unit_end, |k| {
                            tag_of(app, k)
                        })
                    })
            };
            if let Err(e) = result {
                launch_failed = Some(e.into());
                break;
            }
            entry.next_to_launch += launched;
            entry.inflight += launched;
            squad.inflight_total += launched;
            squad.pending_total -= launched;
        }
        // The kernels in flight all belong to one phase on one queue
        // (the head drains before the tail launches), so the program
        // takes over from them. Crash retries share those queues, so an
        // app with retries outstanding stays on the per-kernel path.
        #[cfg(test)]
        let per_kernel = self.per_kernel_feed;
        #[cfg(not(test))]
        let per_kernel = false;
        if launch_failed.is_none()
            && !per_kernel
            && entry.inflight > 0
            && self.pending_retry[app].is_empty()
            && self.outstanding_retried[app].is_empty()
        {
            let (queue, end) = if entry.next_to_launch <= entry.split_at {
                (self.queue_restricted[app], entry.split_at)
            } else {
                (self.queue_free[app], entry.count)
            };
            let program = gpu_sim::LaunchProgram {
                table,
                range: entry.first + entry.next_to_launch..entry.first + end,
                in_flight: entry.inflight,
                window,
                graph,
                app,
            };
            match gpu.install_program(queue, program) {
                Ok(()) => entry.program = Some((queue, end)),
                Err(e) => launch_failed = Some(e.into()),
            }
        }
        if let Some(e) = launch_failed {
            self.record_error(e);
            // Try feeding again after a short backoff instead of wedging
            // the squad.
            gpu.wake_at(
                gpu.now() + SimDuration::from_nanos(RETRY_BACKOFF_BASE_NS),
                RETRY_WAKE_BASE + app as u64,
            );
        }
    }

    /// Accounts in bulk for what `app`'s launch program did without a
    /// callback: `launched` kernels the engine launched and `completed`
    /// kernel completions, in kernel order. This is the bookkeeping the
    /// per-kernel completion callbacks would have done; none of those
    /// completions ends the entry or the request.
    fn fold_program(&mut self, app: usize, launched: usize, completed: usize) {
        if let Some(act) = &mut self.active[app] {
            act.next_kernel += completed;
        }
        let Some(squad) = &mut self.squad else { return };
        let Some(entry) = squad.per_app[app].as_mut() else {
            return;
        };
        entry.next_to_launch += launched;
        entry.inflight = entry.inflight + launched - completed;
        entry.head_remaining = entry.head_remaining.saturating_sub(completed);
        squad.inflight_total = squad.inflight_total + launched - completed;
        squad.pending_total -= launched;
    }

    /// Cancels `app`'s launch program, if one runs, and accounts for what
    /// it did; the kernels it left in flight are then reported one by one.
    fn cancel_program(&mut self, gpu: &mut Gpu, app: usize) {
        let queue = self
            .squad
            .as_mut()
            .and_then(|s| s.per_app[app].as_mut())
            .and_then(|e| e.program.take());
        if let Some(progress) = queue.and_then(|(q, _)| gpu.cancel_program(q)) {
            self.fold_program(app, progress.launched, progress.completed);
        }
    }

    /// Stops `app`'s launch program, if one runs, from launching more and
    /// accounts for what it did so far. Its kernels in flight still
    /// complete silently, and the last of them is reported.
    fn truncate_program(&mut self, gpu: &mut Gpu, app: usize) {
        let queue = self
            .squad
            .as_ref()
            .and_then(|s| s.per_app[app].as_ref())
            .and_then(|e| e.program);
        let Some(progress) = queue.and_then(|(q, _)| gpu.truncate_program(q)) else {
            return;
        };
        self.fold_program(app, progress.launched, progress.completed);
        if let Some(e) = self.squad.as_mut().and_then(|s| s.per_app[app].as_mut()) {
            if let Some((_, end)) = e.program.as_mut() {
                *end = e.next_to_launch;
            }
        }
    }

    /// Marks the active request of `app` complete and activates the next
    /// queued one, if any.
    fn complete_request(&mut self, gpu: &mut Gpu, app: usize, at: SimTime) {
        let Some(act) = self.active[app].take() else {
            let kernel = self.apps[app].profile.kernel_count();
            self.record_error(SchedError::OrphanCompletion { app, kernel });
            return;
        };
        self.log.completed(app, act.req, at);
        if gpu.tracing_enabled() {
            gpu.trace_emit(TraceEvent::RequestDone {
                at,
                app: app as u32,
                req: act.req as u64,
            });
        }
        gpu.post_notice(workload_notice(app, act.req));
        if let Some(next) = self.task_queues[app].pop_front() {
            self.active[app] = Some(ActiveReq {
                req: next.req,
                arrival: next.arrival,
                next_kernel: 0,
            });
        }
    }

    /// Re-submits `app`'s crashed kernels to their original queues (the
    /// per-queue FIFO order is what keeps completions in kernel order).
    /// Kernels that fail to launch stay pending and another backoff wake
    /// is armed.
    fn flush_retries(&mut self, gpu: &mut Gpu, app: usize) {
        self.cancel_program(gpu, app);
        // Drain into the reusable scratch buffer (both Vecs keep their
        // capacity) so retry rounds allocate nothing in steady state.
        let mut pending = std::mem::take(&mut self.retry_buf);
        pending.clear();
        pending.append(&mut self.pending_retry[app]);
        let table = self.tables[app];
        for &(kernel, queue) in &pending {
            match gpu.launch(queue, table, kernel, tag_of(app, kernel)) {
                Ok(_) => {
                    self.robustness.kernels_retried += 1;
                    self.outstanding_retried[app].push(kernel);
                    if gpu.tracing_enabled() {
                        gpu.trace_emit(TraceEvent::RetrySubmitted {
                            at: gpu.now(),
                            app: app as u32,
                            kernel: kernel as u32,
                        });
                    }
                }
                Err(e) => {
                    self.record_error(e.into());
                    self.pending_retry[app].push((kernel, queue));
                }
            }
        }
        pending.clear();
        self.retry_buf = pending;
        if !self.pending_retry[app].is_empty() {
            let exp = self.retry_streak[app].min(RETRY_BACKOFF_CAP);
            self.retry_streak[app] = self.retry_streak[app].saturating_add(1);
            gpu.wake_at(
                gpu.now() + SimDuration::from_nanos(RETRY_BACKOFF_BASE_NS << exp),
                RETRY_WAKE_BASE + app as u64,
            );
        }
        // Also unstick the feed path in case a transient launch failure
        // stalled it earlier.
        self.feed_entry(gpu, app);
    }

    /// Compares each fully-run entry's observed duration against the
    /// predictor's promise and walks apps along the degradation ladder.
    fn watchdog_eval(&mut self, gpu: &mut Gpu, finished: &SquadState, ended_at: SimTime) {
        let Some(wd) = self.params.watchdog else {
            return;
        };
        for app in 0..self.apps.len() {
            let Some(e) = finished.per_app[app].as_ref() else {
                continue;
            };
            // Drained/partial entries and zero-prediction entries carry no
            // signal about profile drift.
            let fully_ran = e.inflight == 0 && e.next_to_launch == e.count;
            if !fully_ran || e.predicted.is_zero() {
                continue;
            }
            let observed = e
                .finished_at
                .unwrap_or(ended_at)
                .duration_since(finished.launched_at);
            let ratio = observed.as_nanos() as f64 / e.predicted.as_nanos() as f64;
            if ratio > wd.degrade_threshold {
                self.clean_squads[app] = 0;
                self.shift_mode(gpu, app, ended_at, true);
            } else {
                self.clean_squads[app] += 1;
                if self.clean_squads[app] >= wd.promote_after
                    && self.degrade[app] != ShareMode::SemiSpatial
                {
                    self.clean_squads[app] = 0;
                    self.shift_mode(gpu, app, ended_at, false);
                }
            }
        }
    }
}

/// Wake token used for deferred squad scheduling.
const SCHED_WAKE_TOKEN: u64 = u64::MAX;

/// Base of the per-app retry wake tokens: token = base + app. Tags encode
/// the app in 20 bits, so the range `[base, u64::MAX)` cannot collide with
/// [`SCHED_WAKE_TOKEN`] or be exhausted by valid app indices.
const RETRY_WAKE_BASE: u64 = u64::MAX - (1 << 20);

/// First retry backoff after a context crash (50 µs); doubles each
/// consecutive crash round up to `2^RETRY_BACKOFF_CAP` times this.
const RETRY_BACKOFF_BASE_NS: u64 = 50_000;

/// Cap on the backoff exponent (50 µs · 2⁶ = 3.2 ms).
const RETRY_BACKOFF_CAP: u32 = 6;

/// At most this many [`SchedError`] values are kept on the driver.
const MAX_RECORDED_ERRORS: usize = 1024;

/// Trace-stream encoding of the degradation ladder (see DESIGN.md §5e).
fn mode_code(m: ShareMode) -> u8 {
    match m {
        ShareMode::SemiSpatial => 0,
        ShareMode::StrictSpatial => 1,
        ShareMode::Temporal => 2,
    }
}

/// Entries predicted to overshoot the squad's shortest entry by more than
/// this factor are trimmed back (their tail kernels return to the pool).
const TRIM_TOLERANCE: f64 = 1.10;

impl HostDriver for BlessDriver {
    fn on_start(&mut self, gpu: &mut Gpu) {
        // Deployment setup failures are operator errors, not runtime
        // conditions: fail fast with a message instead of degrading.
        fn must<T>(r: Result<T, gpu_sim::GpuError>, what: &str) -> T {
            match r {
                Ok(v) => v,
                Err(e) => panic!("BLESS deployment setup failed ({what}): {e}"),
            }
        }
        for app in &self.apps {
            must(
                gpu.alloc_memory(app.profile.memory_mib),
                "deployment must fit in device memory",
            );
            let free_ctx = must(gpu.create_context(CtxKind::Default), "default context");
            let res_ctx = must(
                gpu.create_context(CtxKind::MpsAffinity {
                    sm_cap: gpu.spec().num_sms,
                }),
                "MPS context",
            );
            self.queue_free
                .push(must(gpu.create_queue(free_ctx), "queue"));
            self.queue_restricted
                .push(must(gpu.create_queue(res_ctx), "queue"));
            self.ctx_restricted.push(res_ctx);
            // Register the app's profiled kernel trace as an engine table:
            // steady-state launches go by (table, index), never cloning
            // descriptors driver-side.
            self.tables
                .push(gpu.register_kernel_table(app.profile.kernels.clone()));
        }
    }

    fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
        self.log.arrived(req.app, req.req, req.at);
        let newly_schedulable = self.active[req.app].is_none();
        if newly_schedulable {
            self.active[req.app] = Some(ActiveReq {
                req: req.req,
                arrival: req.at,
                next_kernel: 0,
            });
        } else {
            // The tenant already has an active request; this one queues
            // behind it (one request at a time per application, §4.3).
            self.task_queues[req.app].push_back(PendingReq {
                req: req.req,
                arrival: req.at,
            });
        }
        // Shrink instantly (§3.3): only a *newly schedulable* tenant
        // changes the next squad's planning input, so only then is
        // draining the in-flight squad worth its cost. A queued follow-up
        // request for an already-active tenant cannot join the next squad
        // anyway.
        let drain = self.params.drain_on_arrival
            && newly_schedulable
            && self
                .squad
                .as_ref()
                .is_some_and(|s| s.per_app[req.app].is_none());
        if drain {
            // A draining squad feeds nothing more: its programs launch no
            // more, and each reports only its last kernel in flight.
            for app in 0..self.apps.len() {
                self.truncate_program(gpu, app);
            }
            if let Some(squad) = &mut self.squad {
                squad.draining = true;
            }
        }
        self.request_schedule(gpu);
    }

    fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
        if token == SCHED_WAKE_TOKEN {
            self.sched_pending = false;
            if self.squad.is_none() {
                self.schedule_squad(gpu);
            }
            return;
        }
        if token >= RETRY_WAKE_BASE {
            let app = (token - RETRY_WAKE_BASE) as usize;
            if app < self.apps.len() {
                self.flush_retries(gpu, app);
            }
        }
    }

    fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
        let (app, kernel) = untag(done.tag);
        if app >= self.apps.len() {
            self.record_error(SchedError::OrphanCompletion { app, kernel });
            return;
        }

        // A launch program reports only its last kernel: first account
        // for every unit it launched and every kernel before this one.
        let program = self.squad.as_mut().and_then(|s| {
            let entry = s.per_app[app].as_mut()?;
            let (_, end) = entry.program.take()?;
            Some(end - entry.next_to_launch)
        });
        if let Some(launched) = program {
            let completed = self.active[app].map_or(0, |a| kernel.saturating_sub(a.next_kernel));
            self.fold_program(app, launched, completed);
        }

        // Retry accounting: a completed re-submission of a crashed kernel.
        if let Some(pos) = self.outstanding_retried[app]
            .iter()
            .position(|&k| k == kernel)
        {
            self.outstanding_retried[app].swap_remove(pos);
            self.robustness.retries_completed += 1;
        }

        // Advance the request pointer; complete the request on its last
        // kernel.
        let total = self.apps[app].profile.kernel_count();
        if let Some(act) = &mut self.active[app] {
            debug_assert_eq!(act.next_kernel, kernel, "kernels complete in order");
            act.next_kernel = kernel + 1;
            if act.next_kernel == total {
                self.complete_request(gpu, app, done.at);
            }
        } else {
            self.record_error(SchedError::OrphanCompletion { app, kernel });
        }

        // Squad bookkeeping.
        let Some(squad) = &mut self.squad else { return };
        let Some(entry) = squad.per_app[app].as_mut() else {
            self.record_error(SchedError::StaleSquadEntry { app });
            return;
        };
        entry.inflight = entry.inflight.saturating_sub(1);
        if entry.head_remaining > 0 {
            entry.head_remaining -= 1;
        }
        if entry.inflight == 0 && entry.next_to_launch == entry.count && entry.finished_at.is_none()
        {
            entry.finished_at = Some(done.at);
        }
        squad.inflight_total = squad.inflight_total.saturating_sub(1);
        let squad_done = squad.inflight_total == 0 && (squad.draining || squad.pending_total == 0);
        if !squad_done {
            self.feed_entry(gpu, app);
            return;
        }
        {
            let Some(finished) = self.squad.take() else {
                self.record_error(SchedError::MissingSquad);
                return;
            };
            if self.record_squads {
                self.squad_log.push(SquadRecord {
                    launched_at: finished.launched_at,
                    finished_at: done.at,
                    per_app_kernels: finished
                        .per_app
                        .iter()
                        .enumerate()
                        .filter_map(|(a, e)| e.as_ref().map(|e| (a, e.count)))
                        .collect(),
                    spatial: finished.spatial,
                    sm_caps: finished.sm_caps.clone(),
                });
            }
            if gpu.tracing_enabled() {
                let id = (self.squads_launched as u64).saturating_sub(1);
                gpu.trace_emit(TraceEvent::SquadRetired { at: done.at, id });
                for &(app, _) in &finished.sm_caps {
                    gpu.trace_emit(TraceEvent::PartitionReleased {
                        at: done.at,
                        ctx: self.ctx_restricted[app].0,
                    });
                }
            }
            self.watchdog_eval(gpu, &finished, done.at);
            // Recycle the retired squad's buffers into the next launch.
            self.squad_pool = Some(finished);
            // A crash-free squad boundary resets the backoff streak of
            // apps with nothing left to retry.
            for a in 0..self.apps.len() {
                if self.outstanding_retried[a].is_empty() && self.pending_retry[a].is_empty() {
                    self.retry_streak[a] = 0;
                }
            }
            // Squad switch: synchronize (20 µs) and schedule the next one
            // (deferred so same-instant arrivals are observed first).
            gpu.charge_host(gpu.costs().squad_sync);
            self.request_schedule(gpu);
        }
    }

    fn on_crash(&mut self, gpu: &mut Gpu, app: u32, failed: &[FailedKernel]) {
        let app = app as usize;
        self.robustness.crashes += 1;
        if app >= self.apps.len() {
            return;
        }
        self.cancel_program(gpu, app);
        // Queue every casualty for re-submission. A kernel we had already
        // re-submitted may be among them (crashed again): it moves from
        // outstanding back to pending.
        for f in failed {
            let (fapp, kernel) = untag(f.tag);
            if fapp != app {
                self.record_error(SchedError::StaleSquadEntry { app: fapp });
                continue;
            }
            if let Some(pos) = self.outstanding_retried[app]
                .iter()
                .position(|&k| k == kernel)
            {
                // A retry that crashed again: void its launch so the
                // failed/retried/completed counts stay in terms of unique
                // kernels (the engine's `FaultCounters` count raw
                // casualties instead).
                self.outstanding_retried[app].swap_remove(pos);
                self.robustness.kernels_retried = self.robustness.kernels_retried.saturating_sub(1);
            } else {
                self.robustness.kernels_failed += 1;
            }
            self.pending_retry[app].push((kernel, f.queue));
        }
        if self.pending_retry[app].is_empty() {
            return;
        }
        // Re-submit in kernel order so per-queue FIFO completion order is
        // preserved for the request pointer.
        self.pending_retry[app].sort_by_key(|&(k, _)| k);
        // Capped exponential backoff: crash storms must not busy-loop the
        // host with relaunches.
        let exp = self.retry_streak[app].min(RETRY_BACKOFF_CAP);
        self.retry_streak[app] = self.retry_streak[app].saturating_add(1);
        gpu.wake_at(
            gpu.now() + SimDuration::from_nanos(RETRY_BACKOFF_BASE_NS << exp),
            RETRY_WAKE_BASE + app as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::{AppModel, ModelKind, Phase};
    use gpu_sim::{GpuSpec, HostCosts, RunOutcome, Simulation};
    use metrics::ShareMode;
    use profiler::ProfiledApp;

    fn deploy(kind: ModelKind, quota: f64) -> DeployedApp {
        let profile =
            ProfiledApp::profile(&AppModel::build(kind, Phase::Inference), &GpuSpec::a100());
        DeployedApp::new(profile, quota, None)
    }

    fn run_pair(
        a: ModelKind,
        b: ModelKind,
        quotas: (f64, f64),
        arrivals: Vec<RequestArrival>,
    ) -> BlessDriver {
        let apps = vec![deploy(a, quotas.0), deploy(b, quotas.1)];
        let driver = BlessDriver::new(apps, BlessParams::default());
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        let outcome = sim.run(SimTime::from_secs(10));
        assert_eq!(outcome, RunOutcome::Completed);
        assert!(sim.gpu.is_device_idle());
        sim.driver
    }

    #[test]
    fn lane_hints_track_the_degradation_ladder() {
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::ZERO,
            },
        ];
        let mut driver = run_pair(
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            (0.25, 0.75),
            arrivals,
        );

        // Default ladder state is semi-spatial: both apps can reach the
        // shared pool, so they must share one lane.
        let hints = driver.lane_hints(108);
        assert_eq!(hints.num_lanes(), 1);
        assert_eq!(hints.groups[0].kind, crate::lanes::LaneKind::SharedPool);
        assert_eq!(hints.lane_of(0), hints.lane_of(1));

        // Degrade app 0 to strict spatial: it becomes shardable onto its
        // own quota-capped lane while app 1 keeps the pool lane.
        driver.degrade[0] = metrics::ShareMode::StrictSpatial;
        let hints = driver.lane_hints(108);
        assert_eq!(hints.num_lanes(), 2);
        assert_eq!(
            hints.groups[1].kind,
            crate::lanes::LaneKind::Partition { sm_cap: 27 }
        );
        assert_ne!(hints.lane_of(0), hints.lane_of(1));
    }

    #[test]
    fn tag_round_trips() {
        for (app, k) in [(0, 0), (7, 5034), (3, 12)] {
            assert_eq!(untag(tag_of(app, k)), (app, k));
        }
    }

    #[test]
    fn solo_request_completes_near_solo_latency() {
        let apps = vec![deploy(ModelKind::Vgg11, 0.5)];
        let driver = BlessDriver::new(apps, BlessParams::default());
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let arrivals = vec![RequestArrival {
            app: 0,
            req: 0,
            at: SimTime::ZERO,
        }];
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(1)), RunOutcome::Completed);
        let lat = sim.driver.log.stats(0).mean.unwrap();
        // BLESS lets a solo request use the whole GPU (bubble usage), so
        // its latency must be near the 10.2 ms full-GPU solo latency even
        // though the quota is only 50%, and far below the 50%-ISO latency.
        let iso50 = sim.driver.apps[0].iso_latency();
        assert!(lat.as_millis_f64() < 11.5, "latency {lat}");
        assert!(lat < iso50, "{lat} should beat the 50% ISO {iso50}");
    }

    #[test]
    fn overlapping_pair_stays_near_iso_targets() {
        // Two requests arriving at the same instant is the worst case:
        // there are no bubbles to squeeze, so the best any system can do
        // is the ISO partitioning plus unavoidable memory interference
        // (~7%, Fig. 9b) and squad overheads. Each app must stay within a
        // small envelope of its quota's isolated latency.
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::ZERO,
            },
        ];
        let driver = run_pair(
            ModelKind::Vgg11,
            ModelKind::ResNet50,
            (1.0 / 3.0, 2.0 / 3.0),
            arrivals,
        );
        for app in 0..2 {
            let lat = driver.log.stats(app).mean.unwrap();
            let iso = driver.apps[app].iso_latency();
            assert!(
                lat.as_nanos() as f64 <= iso.as_nanos() as f64 * 1.25,
                "app {app}: latency {lat} vs ISO {iso}"
            );
        }
        // And the average must beat the ISO average: the fast app reaps
        // the slack the slow app's quota leaves behind.
        let mean = driver.log.mean_of_app_means().unwrap();
        let iso_mean = (driver.apps[0].iso_latency() + driver.apps[1].iso_latency()) / 2;
        assert!(mean < iso_mean, "{mean} vs ISO mean {iso_mean}");
    }

    #[test]
    fn staggered_requests_both_benefit_from_bubbles() {
        // Requests that only partially overlap: both should beat ISO
        // clearly because each can use idle SMs of the other's quota.
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::from_millis(6),
            },
        ];
        let driver = run_pair(ModelKind::Vgg11, ModelKind::ResNet50, (0.5, 0.5), arrivals);
        for app in 0..2 {
            let lat = driver.log.stats(app).mean.unwrap();
            let iso = driver.apps[app].iso_latency();
            assert!(lat < iso, "app {app}: {lat} vs ISO {iso}");
        }
    }

    #[test]
    fn multiple_requests_per_app_run_fifo() {
        let arrivals = (0..3)
            .map(|i| RequestArrival {
                app: 0,
                req: i,
                at: SimTime::ZERO,
            })
            .collect();
        let apps = vec![deploy(ModelKind::ResNet50, 1.0)];
        let driver = BlessDriver::new(apps, BlessParams::default());
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(5)), RunOutcome::Completed);
        let recs = sim.driver.log.records(0);
        assert_eq!(recs.len(), 3);
        // FIFO: completions strictly ordered.
        for w in recs.windows(2) {
            assert!(w[0].completion.unwrap() <= w[1].completion.unwrap());
        }
    }

    #[test]
    fn squads_use_spatial_partitioning_when_beneficial() {
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::ZERO,
            },
        ];
        let apps = vec![deploy(ModelKind::NasNet, 0.5), deploy(ModelKind::Bert, 0.5)];
        let mut driver = BlessDriver::new(apps, BlessParams::default());
        driver.record_squads = true;
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(5)), RunOutcome::Completed);
        assert!(sim.driver.squads_launched > 1);
        assert!(
            sim.driver.sp_squads > 0,
            "overlapped heavy squads should pick SP at least once"
        );
        // Squad records are consistent.
        for r in &sim.driver.squad_log {
            assert!(r.finished_at > r.launched_at);
            let total: usize = r.per_app_kernels.iter().map(|&(_, n)| n).sum();
            assert!(total <= BlessParams::default().max_kernels_per_squad);
        }
    }

    #[test]
    fn crashed_kernels_are_retried_and_no_request_is_lost() {
        use sim_core::{FaultPlan, FaultSpec};
        // Repeated context crashes mid-run: every casualty must be
        // re-submitted and every request must still complete.
        let arrivals: Vec<RequestArrival> = (0..4)
            .flat_map(|i| {
                (0..2).map(move |app| RequestArrival {
                    app,
                    req: i,
                    at: SimTime::from_millis(4 * i as u64),
                })
            })
            .collect();
        let apps = vec![
            deploy(ModelKind::NasNet, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let driver = BlessDriver::new(apps, BlessParams::default());
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let plan = FaultPlan::build(
            7,
            &FaultSpec {
                num_apps: 2,
                crash_count: 3,
                crash_window: (SimTime::from_millis(1), SimTime::from_millis(14)),
                ..FaultSpec::default()
            },
        );
        gpu.set_fault_plan(plan);
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(20)), RunOutcome::Completed);
        let counters = sim.gpu.fault_counters();
        assert_eq!(counters.crashes, 3);
        let rb = &sim.driver.robustness;
        assert_eq!(rb.crashes, 3);
        if counters.kernels_failed > 0 {
            assert!(rb.kernels_failed > 0, "driver saw the casualties");
            assert!(
                rb.all_retries_completed(),
                "failed {} retried {} completed {}",
                rb.kernels_failed,
                rb.kernels_retried,
                rb.retries_completed
            );
        }
        // No lost request: all eight completions are logged.
        for app in 0..2 {
            let recs = sim.driver.log.records(app);
            assert_eq!(recs.len(), 4);
            assert!(recs.iter().all(|r| r.completion.is_some()));
        }
    }

    #[test]
    fn watchdog_degrades_drifting_app_and_promotes_after_clean_squads() {
        use sim_core::{FaultPlan, FaultSpec};
        // App 1's profile drifts far beyond the watchdog threshold: the
        // watchdog must demote it at least one ladder step. The run must
        // still complete every request.
        let arrivals: Vec<RequestArrival> = (0..6)
            .flat_map(|i| {
                (0..2).map(move |app| RequestArrival {
                    app,
                    req: i,
                    at: SimTime::from_millis(5 * i as u64),
                })
            })
            .collect();
        let apps = vec![deploy(ModelKind::NasNet, 0.5), deploy(ModelKind::Bert, 0.5)];
        let params = BlessParams {
            watchdog: Some(crate::params::WatchdogParams {
                degrade_threshold: 1.4,
                promote_after: 3,
            }),
            ..BlessParams::default()
        };
        let driver = BlessDriver::new(apps, params);
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let plan = FaultPlan::build(
            11,
            &FaultSpec {
                num_apps: 2,
                drift_prob: 1.0,
                drift_range: (2.0, 2.5),
                ..FaultSpec::default()
            },
        );
        gpu.set_fault_plan(plan);
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(30)), RunOutcome::Completed);
        let rb = &sim.driver.robustness;
        assert!(
            rb.demotions() > 0,
            "2x drift on every kernel must trip the watchdog"
        );
        for app in 0..2 {
            assert_eq!(sim.driver.log.records(app).len(), 6);
        }
    }

    #[test]
    fn watchdog_stays_quiet_without_faults() {
        // With the watchdog armed but no faults injected, benign squads
        // must not trip it (threshold leaves headroom over model error).
        let arrivals = vec![
            RequestArrival {
                app: 0,
                req: 0,
                at: SimTime::ZERO,
            },
            RequestArrival {
                app: 1,
                req: 0,
                at: SimTime::ZERO,
            },
        ];
        let apps = vec![
            deploy(ModelKind::NasNet, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let params = BlessParams {
            watchdog: Some(crate::params::WatchdogParams::default()),
            ..BlessParams::default()
        };
        let driver = BlessDriver::new(apps, params);
        let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, arrivals);
        assert_eq!(sim.run(SimTime::from_secs(10)), RunOutcome::Completed);
        assert_eq!(sim.driver.robustness.demotions(), 0);
        assert_eq!(sim.driver.robustness.sched_errors, 0);
        assert_eq!(sim.driver.share_mode(0), metrics::ShareMode::SemiSpatial);
    }

    #[test]
    fn ladder_round_trip_repromotes_through_the_same_rungs() {
        use metrics::ShareMode;
        // Walking an app all the way down the ladder and back up must
        // visit exactly the same rungs in reverse, with the saturating
        // steps (demote from temporal, promote from semi-spatial)
        // recording nothing.
        let walk = || {
            let params = BlessParams {
                watchdog: Some(crate::params::WatchdogParams::default()),
                ..BlessParams::default()
            };
            let mut driver = BlessDriver::new(vec![deploy(ModelKind::NasNet, 0.5)], params);
            let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
            for i in 0..3u64 {
                driver.shift_mode(&mut gpu, 0, SimTime::from_millis(i), true);
            }
            assert_eq!(driver.share_mode(0), ShareMode::Temporal);
            for i in 3..6u64 {
                driver.shift_mode(&mut gpu, 0, SimTime::from_millis(i), false);
            }
            assert_eq!(driver.share_mode(0), ShareMode::SemiSpatial);
            driver
                .robustness
                .degradations
                .iter()
                .map(|t| (t.app, t.from, t.to))
                .collect::<Vec<_>>()
        };
        let rungs = walk();
        assert_eq!(
            rungs,
            vec![
                (0, ShareMode::SemiSpatial, ShareMode::StrictSpatial),
                (0, ShareMode::StrictSpatial, ShareMode::Temporal),
                (0, ShareMode::Temporal, ShareMode::StrictSpatial),
                (0, ShareMode::StrictSpatial, ShareMode::SemiSpatial),
            ]
        );
        // Same walk, same rungs — the ladder is a deterministic machine.
        assert_eq!(rungs, walk());
    }

    #[test]
    fn checkpoint_restore_lands_mid_ladder_and_repromotes_identically() {
        use metrics::ShareMode;
        // A migration exports (mode, clean_squads) and restores them on
        // the target driver. The restored tenant must sit on the same
        // rung with the same promotion credit, and from there walk the
        // exact rung sequence the donor walks.
        let params = BlessParams {
            watchdog: Some(crate::params::WatchdogParams {
                degrade_threshold: 1.4,
                promote_after: 3,
            }),
            ..BlessParams::default()
        };
        let mut donor = BlessDriver::new(vec![deploy(ModelKind::NasNet, 0.5)], params.clone());
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        donor.shift_mode(&mut gpu, 0, SimTime::from_millis(1), true);
        donor.shift_mode(&mut gpu, 0, SimTime::from_millis(2), true);
        donor.clean_squads[0] = 2; // promotion credit banked mid-ladder
        let ckpt = donor.export_checkpoint();
        assert_eq!(ckpt[0].mode, ShareMode::Temporal);
        assert_eq!(ckpt[0].clean_squads, 2);

        let mut restored = BlessDriver::new(vec![deploy(ModelKind::NasNet, 0.5)], params);
        restored.restore_share_mode(0, ckpt[0].mode, ckpt[0].clean_squads);
        assert_eq!(restored.share_mode(0), ShareMode::Temporal);
        assert_eq!(restored.clean_squads[0], 2);

        // Promote both in lockstep: every rung matches.
        let mut tgt_gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        for i in 3..6u64 {
            donor.shift_mode(&mut gpu, 0, SimTime::from_millis(i), false);
            restored.shift_mode(&mut tgt_gpu, 0, SimTime::from_millis(i), false);
            assert_eq!(donor.share_mode(0), restored.share_mode(0), "step {i}");
        }
        assert_eq!(restored.share_mode(0), ShareMode::SemiSpatial);
        let donor_up: Vec<_> = donor.robustness.degradations[2..]
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        let restored_up: Vec<_> = restored
            .robustness
            .degradations
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(donor_up, restored_up);
    }

    #[test]
    fn watchdog_repromotes_a_migrated_tenant_through_the_full_ladder() {
        use metrics::ShareMode;
        use sim_core::{FaultPlan, FaultSpec};
        // End-to-end: severe drift walks the tenant down to temporal;
        // a checkpoint restore moves it to a healthy device mid-ladder,
        // where the watchdog itself must re-promote it rung by rung back
        // to semi-spatial — the same rungs, watchdog-driven this time.
        let params = BlessParams {
            watchdog: Some(crate::params::WatchdogParams {
                degrade_threshold: 1.4,
                promote_after: 2,
            }),
            ..BlessParams::default()
        };
        let arrivals = |n: usize| -> Vec<RequestArrival> {
            (0..n)
                .map(|i| RequestArrival {
                    app: 0,
                    req: i,
                    at: SimTime::from_millis(5 * i as u64),
                })
                .collect()
        };
        let driver = BlessDriver::new(vec![deploy(ModelKind::NasNet, 0.5)], params.clone());
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        gpu.set_fault_plan(FaultPlan::build(
            11,
            &FaultSpec {
                num_apps: 1,
                drift_prob: 1.0,
                drift_range: (2.0, 2.5),
                ..FaultSpec::default()
            },
        ));
        let mut sick = Simulation::new(gpu, driver, arrivals(8));
        assert_eq!(sick.run(SimTime::from_secs(30)), RunOutcome::Completed);
        assert_eq!(
            sick.driver.share_mode(0),
            ShareMode::Temporal,
            "persistent 2x drift must walk the tenant to the bottom rung"
        );

        // "Migrate": restore the exported ladder state on a fresh driver
        // and a fault-free device, then serve more requests there.
        let ckpt = sick.driver.export_checkpoint();
        let mut target = BlessDriver::new(vec![deploy(ModelKind::NasNet, 0.5)], params);
        target.restore_share_mode(0, ckpt[0].mode, ckpt[0].clean_squads);
        let healthy = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        let mut sim = Simulation::new(healthy, target, arrivals(8));
        assert_eq!(sim.run(SimTime::from_secs(30)), RunOutcome::Completed);

        assert_eq!(sim.driver.share_mode(0), ShareMode::SemiSpatial);
        let rungs: Vec<_> = sim
            .driver
            .robustness
            .degradations
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(
            rungs,
            vec![
                (ShareMode::Temporal, ShareMode::StrictSpatial),
                (ShareMode::StrictSpatial, ShareMode::SemiSpatial),
            ],
            "recovery must climb the same rungs the degradation descended"
        );
    }

    /// Counts the completions a driver is handed.
    struct CountDone<D> {
        inner: D,
        done: usize,
    }

    impl<D: HostDriver> HostDriver for CountDone<D> {
        fn on_start(&mut self, gpu: &mut Gpu) {
            self.inner.on_start(gpu);
        }
        fn on_request(&mut self, gpu: &mut Gpu, req: RequestArrival) {
            self.inner.on_request(gpu, req);
        }
        fn on_kernel_done(&mut self, gpu: &mut Gpu, done: KernelDone) {
            self.done += 1;
            self.inner.on_kernel_done(gpu, done);
        }
        fn on_wake(&mut self, gpu: &mut Gpu, token: u64) {
            self.inner.on_wake(gpu, token);
        }
        fn on_crash(&mut self, gpu: &mut Gpu, app: u32, failed: &[FailedKernel]) {
            self.inner.on_crash(gpu, app, failed);
        }
    }

    /// Everything a BLESS run exposes, to compare the per-kernel feed
    /// against launch programs.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Per horizon: the outcome, the clock and the busy-time bits.
        runs: Vec<(RunOutcome, SimTime, u64)>,
        log: u64,
        trace: Vec<TraceEvent>,
        robustness: RobustnessReport,
        errors: Vec<SchedError>,
        squads: String,
        modes: Vec<ShareMode>,
        faults: gpu_sim::FaultCounters,
        /// Instance slots the engine allocated: silent completions recycle
        /// theirs as reported ones do.
        slots: usize,
        /// The driver's export, and the device's when the last horizon
        /// left work behind.
        checkpoint: (Vec<TenantCheckpoint>, Option<gpu_sim::DeviceCheckpoint>),
    }

    /// Runs `arrivals` to each horizon in turn, feeding kernels from each
    /// completion callback or through launch programs, with or without a
    /// trace sink; returns what the run exposes and how many completions
    /// the driver was handed.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        apps: &[DeployedApp],
        params: &BlessParams,
        restore: Option<(ShareMode, u32)>,
        plan: &sim_core::FaultPlan,
        arrivals: &[RequestArrival],
        horizons: &[SimTime],
        per_kernel_feed: bool,
        traced: bool,
    ) -> (Observed, usize) {
        let mut driver = BlessDriver::new(apps.to_vec(), params.clone());
        driver.per_kernel_feed = per_kernel_feed;
        driver.record_squads = true;
        if let Some((mode, clean)) = restore {
            driver.restore_share_mode(0, mode, clean);
        }
        let mut gpu = Gpu::new(GpuSpec::a100_per_resource(), HostCosts::paper());
        let sink = gpu_sim::BufferSink::new();
        if traced {
            gpu.set_trace_sink(Box::new(sink.clone()));
        }
        gpu.set_fault_plan(plan.clone());
        let driver = CountDone {
            inner: driver,
            done: 0,
        };
        let mut sim = Simulation::new(gpu, driver, arrivals.to_vec());
        let runs: Vec<_> = horizons
            .iter()
            .map(|&h| {
                (
                    sim.run(h),
                    sim.gpu.now(),
                    sim.gpu.busy_sm_seconds().to_bits(),
                )
            })
            .collect();
        let unfinished = runs
            .last()
            .is_some_and(|r| r.0 == RunOutcome::HorizonReached);
        let device = unfinished.then(|| sim.gpu.drain_snapshot());
        let d = &sim.driver.inner;
        let observed = Observed {
            runs,
            log: d.log.digest(),
            trace: sink.take(),
            robustness: d.robustness.clone(),
            errors: d.errors.clone(),
            squads: format!("{:?}", d.squad_log),
            modes: (0..apps.len()).map(|a| d.share_mode(a)).collect(),
            faults: sim.gpu.fault_counters(),
            slots: sim.gpu.instance_slots(),
            checkpoint: (d.export_checkpoint(), device),
        };
        (observed, sim.driver.done)
    }

    /// [`observe`] both ways, traced: requires identical runs, and returns
    /// the completions handed to the per-kernel and the program driver.
    /// Then the program run untraced: everything but the trace must
    /// match, down to the busy-time bits at each horizon, the slot arena
    /// and the device checkpoint's handles.
    fn assert_program_twin(
        apps: &[DeployedApp],
        params: &BlessParams,
        restore: Option<(ShareMode, u32)>,
        plan: &sim_core::FaultPlan,
        arrivals: &[RequestArrival],
        horizons: &[SimTime],
    ) -> (usize, usize) {
        let run = |per_kernel, traced| {
            observe(
                apps, params, restore, plan, arrivals, horizons, per_kernel, traced,
            )
        };
        let (per_kernel, every) = run(true, true);
        let (programs, fewer) = run(false, true);
        assert_eq!(programs, per_kernel);
        let (mut untraced, untraced_fewer) = run(false, false);
        assert!(untraced.trace.is_empty());
        untraced.trace.clone_from(&programs.trace);
        assert_eq!(untraced, programs, "untraced");
        assert_eq!(untraced_fewer, fewer);
        (every, fewer)
    }

    fn pair_arrivals(requests: usize, gap_ms: u64, offset_ms: u64) -> Vec<RequestArrival> {
        (0..requests)
            .flat_map(|i| {
                (0..2).map(move |app| RequestArrival {
                    app,
                    req: i,
                    at: SimTime::from_millis(gap_ms * i as u64 + offset_ms * app as u64),
                })
            })
            .collect()
    }

    #[test]
    fn launch_programs_match_the_per_kernel_feed() {
        use sim_core::{FaultPlan, FaultSpec};
        let mixed = [
            deploy(ModelKind::NasNet, 0.5),
            deploy(ModelKind::ResNet50, 0.5),
        ];
        let heavy = [deploy(ModelKind::NasNet, 0.5), deploy(ModelKind::Bert, 0.5)];
        let defaults = BlessParams::default();
        let end = [SimTime::MAX];
        // Staggered pairs: squads drain on every newly active tenant.
        let (every, fewer) = assert_program_twin(
            &mixed,
            &defaults,
            None,
            &FaultPlan::none(),
            &pair_arrivals(6, 5, 2),
            &end,
        );
        assert!(fewer * 4 < every, "{fewer} callbacks vs {every}");
        // No draining; CUDA-graph units of three; stopped at horizons.
        for params in [
            BlessParams {
                drain_on_arrival: false,
                ..defaults.clone()
            },
            BlessParams {
                graph_granularity: 3,
                ..defaults.clone()
            },
        ] {
            let horizons = [1, 4, 9].map(SimTime::from_millis);
            let horizons = [&horizons[..], &end].concat();
            assert_program_twin(
                &heavy,
                &params,
                None,
                &FaultPlan::none(),
                &pair_arrivals(5, 4, 1),
                &horizons,
            );
        }
        // Crashes and retries.
        let crashes = FaultPlan::build(
            7,
            &FaultSpec {
                num_apps: 2,
                crash_count: 3,
                crash_window: (SimTime::from_millis(1), SimTime::from_millis(14)),
                ..FaultSpec::default()
            },
        );
        assert_program_twin(
            &mixed,
            &defaults,
            None,
            &crashes,
            &pair_arrivals(4, 4, 0),
            &end,
        );
        // The watchdog ladder under drift, then a checkpoint mid-run.
        let watchdog = BlessParams {
            watchdog: Some(crate::params::WatchdogParams {
                degrade_threshold: 1.4,
                promote_after: 2,
            }),
            ..defaults.clone()
        };
        let drift = FaultPlan::build(
            11,
            &FaultSpec {
                num_apps: 2,
                drift_prob: 1.0,
                drift_range: (2.0, 2.5),
                ..FaultSpec::default()
            },
        );
        for horizons in [&end[..], &[SimTime::from_micros(23_500)]] {
            assert_program_twin(
                &heavy,
                &watchdog,
                None,
                &drift,
                &pair_arrivals(6, 5, 0),
                horizons,
            );
        }
        // A tenant restored mid-ladder climbs back the same way.
        assert_program_twin(
            &heavy[..1],
            &watchdog,
            Some((ShareMode::Temporal, 1)),
            &FaultPlan::none(),
            &pair_arrivals(6, 5, 0)
                .into_iter()
                .filter(|a| a.app == 0)
                .collect::<Vec<_>>(),
            &end,
        );
    }

    /// Greedy-sticky grants whole SMs over whole nanoseconds, so the busy
    /// SM·ns total stays a whole number: the premise of the engine's
    /// closed-form stretches.
    #[test]
    fn greedy_sticky_busy_time_stays_whole() {
        let apps = vec![
            deploy(ModelKind::ResNet50, 0.5),
            deploy(ModelKind::Bert, 0.5),
        ];
        let driver = BlessDriver::new(apps, BlessParams::default());
        let gpu = Gpu::new(GpuSpec::a100_per_resource(), HostCosts::paper());
        let mut sim = Simulation::new(gpu, driver, pair_arrivals(6, 5, 2));
        assert_eq!(sim.run(SimTime::from_secs(5)), RunOutcome::Completed);
        let busy = sim.gpu.busy_sm_ns();
        assert!(busy > 0.0);
        assert_eq!(busy.fract(), 0.0, "{busy}");
    }

    #[test]
    fn ablations_hurt_latency() {
        let arrivals = || {
            vec![
                RequestArrival {
                    app: 0,
                    req: 0,
                    at: SimTime::ZERO,
                },
                RequestArrival {
                    app: 1,
                    req: 0,
                    at: SimTime::ZERO,
                },
                RequestArrival {
                    app: 0,
                    req: 1,
                    at: SimTime::from_millis(4),
                },
                RequestArrival {
                    app: 1,
                    req: 1,
                    at: SimTime::from_millis(7),
                },
            ]
        };
        let run = |params: BlessParams| {
            let apps = vec![
                deploy(ModelKind::ResNet50, 0.7),
                deploy(ModelKind::ResNet50, 0.3),
            ];
            let driver = BlessDriver::new(apps, params);
            let gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
            let mut sim = Simulation::new(gpu, driver, arrivals());
            assert_eq!(sim.run(SimTime::from_secs(5)), RunOutcome::Completed);
            sim.driver.log.mean_of_app_means().unwrap()
        };
        let full = run(BlessParams::default());
        let no_det = run(BlessParams {
            disable_determiner: true,
            ..BlessParams::default()
        });
        // Disabling the configuration determiner cannot make things
        // faster on average (allowing a sliver of noise).
        assert!(
            no_det.as_nanos() as f64 >= full.as_nanos() as f64 * 0.98,
            "full {full}, no determiner {no_det}"
        );
    }
}
