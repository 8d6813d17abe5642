//! Fleet-level fault tolerance: GPU failure injection, tenant live
//! migration, and the deterministic chaos runner.
//!
//! [`run_chaos`] serves a placed multi-GPU deployment exactly like
//! [`crate::run_cluster`], but under a [`FaultPlan`] that can kill
//! devices permanently ([`sim_core::GpuFailEvent`]) or hang them
//! transiently ([`sim_core::GpuHangEvent`]). When a device faults, its
//! runtime is quiesced at a barrier one nanosecond before the fault
//! instant, the in-flight squads are abandoned with typed errors on the
//! device ([`Gpu::drain_snapshot`]), and the pending per-tenant work is
//! exported as a portable checkpoint ([`BlessDriver::export_checkpoint`]
//! plus the undelivered arrival tail from
//! [`Simulation::take_pending_arrivals`]).
//!
//! * **Permanent failure** — every casualty with remaining work is handed
//!   to the [`MigrationPolicy`], which first-fits it onto a surviving
//!   device under the same quota-capacity and §4.2.2 admission rules the
//!   initial placement used. The checkpoint replays on the target after a
//!   modeled [`ChaosOptions::migration_cost`] (checkpoint transfer plus
//!   context re-provisioning, the cross-device analogue of the 50 µs MPS
//!   vacuum). Tenants no device can admit are *stranded*: reported with a
//!   typed [`PlacementError::NoCapacity`] instead of silently dropped.
//! * **Transient hang** — the device's work survives: the same
//!   drain-and-snapshot runs at onset, and the checkpoint replays on the
//!   *same* device once the hang clears, after a modeled
//!   [`ChaosOptions::restart_cost`].
//! * **Planned pinned evacuation** — with
//!   [`ChaosOptions::pinned_evacuation`] set, a periodic fleet-wide check
//!   reads each device's drift watchdog and relocates tenants that have
//!   sat at the bottom of the degradation ladder for too long onto a
//!   *different* surviving device, where they restart at the top of the
//!   ladder (see [`PinnedPolicy`]). This wires the single-GPU watchdog
//!   into fleet-level migration: the same quiesce/checkpoint/replay
//!   machinery a failure uses, but triggered by sustained interference
//!   rather than by a fault.
//!
//! Recovery time is first-class: every interruption produces a
//! [`MigrationRecord`] whose [`MigrationRecord::recovery`] is the gap
//! between fault onset and the instant the tenant's work resumes.
//!
//! # Determinism
//!
//! The fault schedule is a pure function of `(fault_seed, FaultSpec)`;
//! fault events are applied sequentially in time order, and only the
//! final drain of surviving devices runs on the worker pool — each
//! surviving runtime is self-contained by then, so the merged result is
//! byte-identical at any worker count. A [`FaultPlan::none`] chaos run
//! performs no quiesce, no rebuild, and no migration: each GPU executes
//! the identical event sequence as [`crate::run_cluster`].
//!
//! # Scope
//!
//! Only open-loop arrival patterns are supported (closed-loop client
//! state lives in a notice-handler closure that cannot be checkpointed),
//! and only the GPU-level fault classes of the spec are consumed here —
//! device-level faults (context crashes, DMA stalls, drift, stragglers)
//! compose through the single-GPU `run_custom_faulted` harness path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use bless::{BlessDriver, BlessParams, DeployedApp, TenantCheckpoint};
use gpu_sim::{Gpu, GpuSpec, HostCosts, RequestArrival, RunOutcome, Simulation};
use metrics::{RequestLog, ShareMode};
use profiler::{admit, AdmissionPolicy, ProfiledApp, SharedProfile};
use sim_core::trace::TraceEvent;
use sim_core::{FaultPlan, FaultSpec, SimDuration, SimTime};
use workloads::{ArrivalPattern, TenantSpec, WorkloadSet};

use crate::placement::{place, CapacityIndex, Placement, PlacementError, PlacementRequest};

/// The class of device fault that interrupted a tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanent device failure: the tenant moved to another GPU.
    Failure,
    /// Transient device hang: the tenant resumed on the same GPU.
    Hang,
    /// Planned evacuation: the drift watchdog reported the tenant pinned
    /// at the bottom of the degradation ladder, so the fleet relocated it
    /// (see [`PinnedPolicy`]).
    Pinned,
}

/// Same-instant fault ordering: failures quiesce first, then hangs, then
/// the planned pinned checks (which see the post-fault fleet).
fn fault_rank(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::Failure => 0,
        FaultKind::Hang => 1,
        FaultKind::Pinned => 2,
    }
}

/// Watchdog-driven planned evacuation (the fleet-level consequence of the
/// degradation ladder): a tenant the drift watchdog reports pinned at
/// [`ShareMode::Temporal`] for [`PinnedPolicy::after_rounds`] consecutive
/// rounds is moved to a *different* surviving device at the next periodic
/// fleet check — the ladder has given up on sharing there, so relocating
/// is the only remaining lever. Each tenant moves at most once per run; a
/// mover restarts at the top of the ladder on its new device, and a mover
/// no device can admit simply stays put (a planned evacuation never
/// strands work). Requires a watchdog-enabled [`BlessParams`] deployment:
/// [`BlessDriver::temporal_pinned_rounds`] never ticks otherwise.
#[derive(Clone, Copy, Debug)]
pub struct PinnedPolicy {
    /// Consecutive watchdog rounds at [`ShareMode::Temporal`] before a
    /// tenant becomes eligible for evacuation.
    pub after_rounds: u32,
    /// Virtual-time period of the fleet-wide pinned check.
    pub check_every: SimDuration,
}

/// One completed recovery: a tenant relocated after a device failure, or
/// restarted in place after a transient hang.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Fleet tenant id.
    pub tenant: usize,
    /// Source GPU slot (the casualty).
    pub from: usize,
    /// Target GPU slot (`from == to` for hang restarts).
    pub to: usize,
    /// What interrupted the tenant.
    pub kind: FaultKind,
    /// Fault onset (work stops here).
    pub at: SimTime,
    /// Instant the checkpointed work resumes on the target.
    pub resumed_at: SimTime,
    /// Whether a request was in flight at the barrier (re-run from
    /// scratch on the target).
    pub in_flight: bool,
    /// Requests preserved from the task queue, FIFO order kept.
    pub queued: u32,
    /// Undelivered future arrivals carried to the target.
    pub future: u32,
}

impl MigrationRecord {
    /// Time-to-recover: fault onset to work resumption.
    pub fn recovery(&self) -> SimDuration {
        self.resumed_at.duration_since(self.at)
    }
}

/// A casualty no surviving device could admit; its remaining requests are
/// lost and reported instead of silently dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct StrandedTenant {
    /// Fleet tenant id.
    pub tenant: usize,
    /// The dead GPU it was evacuated from.
    pub gpu: usize,
    /// Fault onset.
    pub at: SimTime,
    /// Why re-placement failed (typed, e.g. [`PlacementError::NoCapacity`]).
    pub reason: PlacementError,
    /// Requests lost (in-flight + queued + undelivered arrivals).
    pub lost_requests: usize,
}

/// A scheduled fault that could not be applied: its device is already
/// dead or outside the placed fleet.
#[derive(Clone, Debug, PartialEq)]
pub struct SkippedFault {
    /// Scheduled onset.
    pub at: SimTime,
    /// The referenced GPU slot.
    pub gpu: usize,
    /// The fault class that was scheduled.
    pub kind: FaultKind,
    /// Always [`PlacementError::SourceDead`] today; typed for forward
    /// compatibility.
    pub reason: PlacementError,
}

/// Decides where an evacuated tenant lands after its device dies.
///
/// The policy consumes the same signals the initial placement used —
/// memory footprint, quota capacity, §4.2.2 kernel-granularity
/// admission — plus the degradation-ladder position carried in each
/// tenant's checkpoint: [`run_chaos`] evacuates the most-degraded
/// casualties first, so tenants deepest in the drift-watchdog ladder get
/// first pick of surviving capacity (they are the ones already running
/// with reduced sharing and can least afford to be stranded).
#[derive(Clone, Debug)]
pub struct MigrationPolicy {
    /// Admission rules for co-locating the migrant with a host's tenants.
    pub admission: AdmissionPolicy,
    /// Device memory of every GPU in the fleet (MiB).
    pub memory_mib: u64,
}

impl MigrationPolicy {
    /// Policy with the default admission rules for `memory_mib` devices.
    pub fn new(memory_mib: u64) -> Self {
        MigrationPolicy {
            admission: AdmissionPolicy::default(),
            memory_mib,
        }
    }

    /// First-fits `migrant` (fleet tenant `app`) onto an alive host slot.
    ///
    /// `hosts[h]` is `None` for dead devices, else the placement requests
    /// of the tenants currently provisioned there (including tenants that
    /// already finished — quota is provisioned capacity, not load, and
    /// staying conservative keeps re-placement deterministic). Returns
    /// [`PlacementError::NoCapacity`] when no alive device passes both
    /// the quota-capacity and admission checks.
    pub fn choose_target(
        &self,
        app: usize,
        migrant: &PlacementRequest,
        hosts: &[Option<Vec<PlacementRequest>>],
    ) -> Result<usize, PlacementError> {
        for (h, slot) in hosts.iter().enumerate() {
            let Some(members) = slot else { continue };
            let quota_used: f64 = members.iter().map(|m| m.quota).sum();
            if quota_used + migrant.quota > 1.0 + 1e-9 {
                continue;
            }
            let mut profiles: Vec<&ProfiledApp> = members.iter().map(|m| &*m.profile).collect();
            profiles.push(&migrant.profile);
            if admit(&profiles, self.memory_mib, &self.admission).is_ok() {
                return Ok(h);
            }
        }
        Err(PlacementError::NoCapacity { app })
    }
}

/// Knobs for [`run_chaos`].
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Drain surviving devices on a worker pool (`false` forces the
    /// sequential loop). Output is byte-identical either way.
    pub parallel: bool,
    /// Synthesize the fleet-level trace stream into [`ChaosRun::trace`].
    pub capture_trace: bool,
    /// Worker-pool size; `None` honours `std::thread::available_parallelism`.
    pub workers: Option<usize>,
    /// Modeled cost of moving a tenant checkpoint to another device and
    /// re-provisioning contexts there — the cross-device analogue of the
    /// 50 µs MPS context-switch vacuum, plus checkpoint transfer.
    pub migration_cost: SimDuration,
    /// Modeled device restart time after a transient hang clears.
    pub restart_cost: SimDuration,
    /// Per-fleet-tenant initial degradation-ladder positions, applied to
    /// every runtime before its first arrival (`None` = each tenant starts
    /// at [`ShareMode::SemiSpatial`], like a fresh driver). Lets drills
    /// start tenants mid-ladder deterministically.
    pub initial_modes: Option<Vec<ShareMode>>,
    /// Watchdog-driven planned evacuation of pinned tenants (`None`
    /// disables the periodic check).
    pub pinned_evacuation: Option<PinnedPolicy>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            parallel: true,
            capture_trace: false,
            workers: None,
            migration_cost: SimDuration::from_micros(250),
            restart_cost: SimDuration::from_micros(50),
            initial_modes: None,
            pinned_evacuation: None,
        }
    }
}

/// Result of a chaos run.
#[derive(Debug)]
pub struct ChaosRun {
    /// The initial placement (before any migration).
    pub placement: Placement,
    /// Fleet-level request log indexed by fleet tenant id. Arrival times
    /// are the *original* schedule, so latencies of migrated requests
    /// include the full disruption (quiesce + transfer + re-run).
    pub log: RequestLog,
    /// Every completed recovery, in application order.
    pub migrations: Vec<MigrationRecord>,
    /// Casualties that could not be re-placed, with typed reasons.
    pub stranded: Vec<StrandedTenant>,
    /// Scheduled faults that targeted dead or out-of-range devices.
    pub skipped: Vec<SkippedFault>,
    /// Synthesized fleet trace (empty unless
    /// [`ChaosOptions::capture_trace`]): request arrivals/completions at
    /// fleet tenant ids plus the device-failure/evacuation/restoration
    /// stream, in time order.
    pub trace: Vec<TraceEvent>,
    /// Final-drain outcome per GPU slot (`None` for devices that died).
    pub outcomes: Vec<Option<RunOutcome>>,
}

impl ChaosRun {
    /// Requests that never completed (stranded tenants' losses).
    pub fn lost_requests(&self) -> usize {
        (0..self.log.apps())
            .map(|a| self.log.records(a).len() - self.log.completed_count(a))
            .sum()
    }

    /// True when every request in the fleet completed.
    pub fn all_served(&self) -> bool {
        self.lost_requests() == 0
    }
}

/// One live incarnation of a GPU slot: a self-contained simulation plus
/// the mapping from its driver-local request ids back to fleet ids.
struct Slot {
    /// Fleet tenant ids, in driver app order.
    tenants: Vec<usize>,
    /// `req_map[app][local_req]` = fleet request id.
    req_map: Vec<Vec<usize>>,
    sim: Simulation<BlessDriver>,
}

/// A tenant's portable state between incarnations: ladder position plus
/// the requests to replay, already translated to fleet ids.
struct Evacuee {
    tenant: usize,
    mode: ShareMode,
    clean_squads: u32,
    /// Fleet request ids to re-run at the resume instant (the in-flight
    /// request first, then the task queue, FIFO preserved).
    outstanding: Vec<usize>,
    had_in_flight: bool,
    /// Undelivered arrivals: fleet request id and original time.
    future: Vec<(usize, SimTime)>,
}

impl Evacuee {
    fn has_work(&self) -> bool {
        !self.outstanding.is_empty() || !self.future.is_empty()
    }
}

/// Ladder severity for evacuation ordering: most degraded first.
fn ladder_rank(mode: ShareMode) -> u8 {
    match mode {
        ShareMode::Temporal => 0,
        ShareMode::StrictSpatial => 1,
        ShareMode::SemiSpatial => 2,
    }
}

/// One merged GPU-level fault event.
#[derive(Clone, Copy)]
struct FaultEvent {
    at: SimTime,
    gpu: usize,
    kind: FaultKind,
    /// Hang clear instant (`at` for failures).
    until: SimTime,
}

/// Runs a placed multi-GPU deployment under GPU-level fault injection.
///
/// `fault_seed` and `faults` fully determine the kill/hang schedule (via
/// [`FaultPlan::build`]); a `faults.num_gpus` of zero is defaulted to the
/// number of GPUs the placement actually uses. See the module docs for
/// the recovery model.
///
/// # Panics
///
/// Panics if any tenant uses a closed-loop arrival pattern (closed-loop
/// client state cannot be checkpointed across a migration).
#[allow(clippy::too_many_arguments)]
pub fn run_chaos<P: Into<SharedProfile>>(
    ws: &WorkloadSet,
    profiles: Vec<P>,
    fleet_size: usize,
    spec: &GpuSpec,
    params: &BlessParams,
    horizon: SimTime,
    fault_seed: u64,
    faults: &FaultSpec,
    opts: &ChaosOptions,
) -> Result<ChaosRun, PlacementError> {
    if ws.tenants.is_empty() {
        return Err(PlacementError::EmptyWorkload);
    }
    if ws.len() != profiles.len() {
        return Err(PlacementError::ProfileCountMismatch {
            profiles: profiles.len(),
            tenants: ws.len(),
        });
    }
    for t in &ws.tenants {
        assert!(
            !matches!(t.pattern, ArrivalPattern::ClosedLoop { .. }),
            "run_chaos requires open-loop arrival patterns: closed-loop \
             client state cannot be checkpointed across a migration"
        );
    }
    let requests: Vec<PlacementRequest> = profiles
        .into_iter()
        .zip(&ws.tenants)
        .map(|(p, t)| PlacementRequest {
            profile: p.into(),
            quota: t.quota,
        })
        .collect();
    let placement = place(
        &requests,
        fleet_size,
        spec.memory_mib,
        &profiler::AdmissionPolicy::default(),
    )?;

    // The fault schedule is a pure function of (seed, spec); a zero
    // num_gpus means "size to the placement".
    let mut fspec = faults.clone();
    if fspec.num_gpus == 0 {
        fspec.num_gpus = placement.gpus_used as u32;
    }
    let plan = FaultPlan::build(fault_seed, &fspec);
    let policy = MigrationPolicy::new(spec.memory_mib);

    // Canonical fleet arrival schedule: per-GPU workloads generated
    // exactly as `run_cluster` does (seed + GPU offset, per-local-app
    // fork), remapped to fleet tenant ids. Arrival times in the fleet log
    // always come from this table, never from re-injection times.
    let mut fleet_arrivals: Vec<Vec<SimTime>> = vec![Vec::new(); ws.len()];
    let mut slots: Vec<Option<Slot>> = Vec::with_capacity(placement.gpus_used);
    for g in 0..placement.gpus_used {
        let tenants = placement.tenants_of(g);
        let local_ws = WorkloadSet::new(
            tenants
                .iter()
                .map(|&t| {
                    TenantSpec::new(
                        ws.tenants[t].model.clone(),
                        ws.tenants[t].quota,
                        ws.tenants[t].pattern.clone(),
                    )
                })
                .collect(),
            ws.seed.wrapping_add(g as u64),
        );
        let arrivals = local_ws.initial_arrivals();
        let mut req_map: Vec<Vec<usize>> = vec![Vec::new(); tenants.len()];
        for a in &arrivals {
            debug_assert_eq!(a.req, req_map[a.app].len());
            req_map[a.app].push(a.req);
            fleet_arrivals[tenants[a.app]].push(a.at);
        }
        // Open-loop fleet arrivals are emitted per app in time order, so
        // the per-tenant table above is already req-id ordered.
        let apps: Vec<DeployedApp> = tenants
            .iter()
            .map(|&t| {
                DeployedApp::new(
                    SharedProfile::clone(&requests[t].profile),
                    ws.tenants[t].quota,
                    None,
                )
            })
            .collect();
        let mut driver = BlessDriver::new(apps, params.clone());
        if let Some(modes) = &opts.initial_modes {
            assert_eq!(
                modes.len(),
                ws.len(),
                "initial_modes must cover every fleet tenant"
            );
            for (a, &t) in tenants.iter().enumerate() {
                driver.restore_share_mode(a, modes[t], 0);
            }
        }
        let gpu = Gpu::new(spec.clone(), HostCosts::paper());
        slots.push(Some(Slot {
            tenants,
            req_map,
            sim: Simulation::new(gpu, driver, arrivals),
        }));
    }

    // Completion table, filled as incarnations retire or finish.
    let mut completions: Vec<Vec<Option<SimTime>>> =
        fleet_arrivals.iter().map(|a| vec![None; a.len()]).collect();

    // Merge the kill and hang schedules into one deterministic sequence:
    // time order, failures before hangs on ties, device index last.
    let mut events: Vec<FaultEvent> = plan
        .gpu_failures()
        .iter()
        .map(|f| FaultEvent {
            at: f.at,
            gpu: f.gpu as usize,
            kind: FaultKind::Failure,
            until: f.at,
        })
        .chain(plan.gpu_hangs().iter().map(|h| FaultEvent {
            at: h.at,
            gpu: h.gpu as usize,
            kind: FaultKind::Hang,
            until: h.until,
        }))
        .filter(|e| e.at <= horizon)
        .collect();
    // Periodic pinned checks join the same deterministic sequence.
    if let Some(pp) = &opts.pinned_evacuation {
        assert!(
            pp.check_every.as_nanos() > 0,
            "pinned_evacuation.check_every must be positive"
        );
        let mut at = SimTime::ZERO + pp.check_every;
        while at <= horizon {
            events.push(FaultEvent {
                at,
                gpu: 0, // fleet-wide check; the slot field is unused
                kind: FaultKind::Pinned,
                until: at,
            });
            at += pp.check_every;
        }
    }
    events.sort_by_key(|e| (e.at, fault_rank(e.kind), e.gpu));

    let mut migrations: Vec<MigrationRecord> = Vec::new();
    let mut stranded: Vec<StrandedTenant> = Vec::new();
    let mut skipped: Vec<SkippedFault> = Vec::new();
    let mut fleet_events: Vec<TraceEvent> = Vec::new();
    // One planned move per tenant per run: evacuating a tenant that stays
    // pinned even on its new device would just thrash the fleet.
    let mut pinned_moved = vec![false; ws.len()];

    for ev in events {
        if matches!(ev.kind, FaultKind::Pinned) {
            let Some(pp) = opts.pinned_evacuation.as_ref() else {
                unreachable!("pinned checks are only scheduled with a policy")
            };
            // Advance every surviving device to the check barrier and read
            // the drift watchdog's pinned counter — virtual-time state, so
            // the outcome is independent of wall-clock interleaving and of
            // the final-drain worker count.
            let barrier = SimTime::from_nanos(ev.at.as_nanos().saturating_sub(1));
            let mut sources: Vec<(usize, Vec<usize>)> = Vec::new();
            for (g, s) in slots.iter_mut().enumerate() {
                let Some(slot) = s else { continue };
                slot.sim.run(barrier);
                let eligible: Vec<usize> = slot
                    .tenants
                    .iter()
                    .enumerate()
                    .filter(|&(a, &t)| {
                        !pinned_moved[t]
                            && slot.sim.driver.temporal_pinned_rounds(a) >= pp.after_rounds
                    })
                    .map(|(a, _)| a)
                    .collect();
                if !eligible.is_empty() {
                    sources.push((g, eligible));
                }
            }
            // Devices whose watchdogs report pinned tenants are excluded
            // as targets for this round: they are congested by definition,
            // and targeting a not-yet-processed source would re-place onto
            // a device about to be quiesced.
            let source_set: Vec<usize> = sources.iter().map(|&(g, _)| g).collect();
            for (g, eligible) in sources {
                let slot = slots[g]
                    .take()
                    .unwrap_or_else(|| unreachable!("source was alive at the check"));
                let evacuees = quiesce(slot, ev.at, &mut completions);
                let mut stay: Vec<Evacuee> = Vec::new();
                let mut movers: Vec<Evacuee> = Vec::new();
                for (a, e) in evacuees.into_iter().enumerate() {
                    if eligible.contains(&a) && e.has_work() {
                        movers.push(e);
                    } else {
                        stay.push(e);
                    }
                }
                // Re-place each pinned tenant on a *different* surviving
                // device under the same first-fit rules a failure uses; a
                // mover no device admits stays put — a planned evacuation
                // never strands work.
                let mut staged: Vec<Vec<Evacuee>> = (0..slots.len()).map(|_| Vec::new()).collect();
                for mut e in movers {
                    let migrant = PlacementRequest {
                        profile: SharedProfile::clone(&requests[e.tenant].profile),
                        quota: requests[e.tenant].quota,
                    };
                    let hosts: Vec<Option<Vec<PlacementRequest>>> = slots
                        .iter()
                        .enumerate()
                        .map(|(h, s)| {
                            if source_set.contains(&h) {
                                return None; // no source device, ever
                            }
                            s.as_ref().map(|s| {
                                s.tenants
                                    .iter()
                                    .copied()
                                    .chain(staged[h].iter().map(|m| m.tenant))
                                    .map(|t| PlacementRequest {
                                        profile: SharedProfile::clone(&requests[t].profile),
                                        quota: requests[t].quota,
                                    })
                                    .collect()
                            })
                        })
                        .collect();
                    match policy.choose_target(e.tenant, &migrant, &hosts) {
                        Ok(h) => {
                            // Fresh ladder start on the new device: the
                            // whole point of the move is that sharing on
                            // the old one kept the tenant at the bottom.
                            e.mode = ShareMode::SemiSpatial;
                            e.clean_squads = 0;
                            pinned_moved[e.tenant] = true;
                            staged[h].push(e);
                        }
                        Err(_) => stay.push(e),
                    }
                }
                let resume = ev.at + opts.migration_cost;
                for (h, migrants) in staged.into_iter().enumerate() {
                    if migrants.is_empty() {
                        continue;
                    }
                    let target = slots[h]
                        .take()
                        .unwrap_or_else(|| unreachable!("policy only selects alive targets"));
                    let mut all = quiesce(target, ev.at, &mut completions);
                    for e in migrants {
                        record_recovery(
                            &e,
                            g,
                            h,
                            FaultKind::Pinned,
                            ev.at,
                            resume,
                            &mut migrations,
                            opts.capture_trace.then_some(&mut fleet_events),
                        );
                        all.push(e);
                    }
                    slots[h] = Some(build_slot(all, resume, &requests, ws, spec, params));
                }
                // The source restarts its remaining tenants in place after
                // the context re-provisioning pause.
                slots[g] = Some(build_slot(
                    stay,
                    ev.at + opts.restart_cost,
                    &requests,
                    ws,
                    spec,
                    params,
                ));
            }
            continue;
        }
        let g = ev.gpu;
        let Some(slot) = slots.get_mut(g).and_then(Option::take) else {
            skipped.push(SkippedFault {
                at: ev.at,
                gpu: g,
                kind: ev.kind,
                reason: PlacementError::SourceDead { gpu: g },
            });
            continue;
        };
        let evacuees = quiesce(slot, ev.at, &mut completions);
        if opts.capture_trace {
            fleet_events.push(TraceEvent::DeviceFailed {
                at: ev.at,
                gpu: g as u32,
                permanent: matches!(ev.kind, FaultKind::Failure),
            });
        }
        match ev.kind {
            FaultKind::Hang => {
                // The device comes back: replay the checkpoint in place
                // once the hang clears plus the restart cost.
                let resume = ev.until + opts.restart_cost;
                for e in evacuees.iter().filter(|e| e.has_work()) {
                    record_recovery(
                        e,
                        g,
                        g,
                        FaultKind::Hang,
                        ev.at,
                        resume,
                        &mut migrations,
                        opts.capture_trace.then_some(&mut fleet_events),
                    );
                }
                slots[g] = Some(build_slot(evacuees, resume, &requests, ws, spec, params));
            }
            FaultKind::Failure => {
                // Evacuate casualties most-degraded-first so tenants deep
                // in the watchdog ladder get first pick of capacity.
                let mut movers: Vec<Evacuee> =
                    evacuees.into_iter().filter(Evacuee::has_work).collect();
                movers.sort_by_key(|e| (ladder_rank(e.mode), e.tenant));
                let mut staged: Vec<Vec<Evacuee>> = (0..slots.len()).map(|_| Vec::new()).collect();
                // Index the surviving fleet once per failure: leaf `h` is
                // host `h`'s provisioned quota folded in member order
                // (dead devices are infinite, so no query selects them),
                // and each staged migrant commits incrementally — the
                // same float fold [`MigrationPolicy::choose_target`]
                // recomputes from a cloned snapshot, minus the
                // O(fleet × tenants) rebuild per casualty. Targets are
                // byte-identical: the index walks hosts in the same
                // ascending order with the same capacity threshold, and
                // the admission check below sees the same member set.
                let used: Vec<f64> = slots
                    .iter()
                    .map(|s| match s {
                        Some(s) => s.tenants.iter().map(|&t| requests[t].quota).sum(),
                        None => f64::INFINITY,
                    })
                    .collect();
                let mut index = CapacityIndex::from_used(&used);
                let mut profiles: Vec<&ProfiledApp> = Vec::new();
                for e in movers {
                    let migrant = &requests[e.tenant];
                    let mut from = 0;
                    let mut chosen: Result<usize, PlacementError> =
                        Err(PlacementError::NoCapacity { app: e.tenant });
                    while let Some(h) = index.first_fit_from(from, migrant.quota) {
                        profiles.clear();
                        if let Some(s) = &slots[h] {
                            profiles.extend(s.tenants.iter().map(|&t| &*requests[t].profile));
                        }
                        profiles.extend(staged[h].iter().map(|m| &*requests[m.tenant].profile));
                        profiles.push(&migrant.profile);
                        if admit(&profiles, policy.memory_mib, &policy.admission).is_ok() {
                            chosen = Ok(h);
                            break;
                        }
                        from = h + 1;
                    }
                    match chosen {
                        Ok(h) => {
                            index.commit(h, migrant.quota);
                            staged[h].push(e);
                        }
                        Err(reason) => {
                            if opts.capture_trace {
                                fleet_events.push(TraceEvent::MigrationFailed {
                                    at: ev.at,
                                    app: e.tenant as u32,
                                    reason: match reason {
                                        PlacementError::SourceDead { .. } => 1,
                                        _ => 0,
                                    },
                                });
                            }
                            stranded.push(StrandedTenant {
                                tenant: e.tenant,
                                gpu: g,
                                at: ev.at,
                                reason,
                                lost_requests: e.outstanding.len() + e.future.len(),
                            });
                        }
                    }
                }
                let resume = ev.at + opts.migration_cost;
                for (h, migrants) in staged.into_iter().enumerate() {
                    if migrants.is_empty() {
                        continue;
                    }
                    // Admitting migrants re-provisions the target's MPS
                    // contexts, so the target is quiesced at the same
                    // barrier; its own tenants keep their ladder state and
                    // resume alongside the migrants.
                    let target = slots[h]
                        .take()
                        .unwrap_or_else(|| unreachable!("policy only selects alive targets"));
                    let mut all = quiesce(target, ev.at, &mut completions);
                    for e in migrants {
                        record_recovery(
                            &e,
                            g,
                            h,
                            FaultKind::Failure,
                            ev.at,
                            resume,
                            &mut migrations,
                            opts.capture_trace.then_some(&mut fleet_events),
                        );
                        all.push(e);
                    }
                    slots[h] = Some(build_slot(all, resume, &requests, ws, spec, params));
                }
            }
            FaultKind::Pinned => unreachable!("handled before the per-device dispatch"),
        }
    }

    // Final drain: surviving incarnations are mutually independent, so
    // they run to the horizon on a worker pool and merge by slot order.
    let mut work: Vec<(usize, Slot)> = Vec::new();
    for (g, s) in slots.iter_mut().enumerate() {
        if let Some(slot) = s.take() {
            work.push((g, slot));
        }
    }
    let workers = if opts.parallel {
        opts.workers
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1)
            .clamp(1, work.len().max(1))
    } else {
        1
    };
    let mut finished: Vec<(usize, Slot, RunOutcome)> = if workers <= 1 || work.len() <= 1 {
        work.into_iter()
            .map(|(g, mut slot)| {
                let outcome = slot.sim.run(horizon);
                (g, slot, outcome)
            })
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let pending: Mutex<Vec<Option<(usize, Slot)>>> =
            Mutex::new(work.into_iter().map(Some).collect());
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let item = pending
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_mut(i)
                        .and_then(Option::take);
                    let Some((g, mut slot)) = item else { break };
                    let outcome = slot.sim.run(horizon);
                    done.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((g, slot, outcome));
                });
            }
        });
        done.into_inner().unwrap_or_else(PoisonError::into_inner)
    };
    finished.sort_by_key(|(g, _, _)| *g);

    let mut outcomes: Vec<Option<RunOutcome>> = vec![None; placement.gpus_used];
    for (g, slot, outcome) in finished {
        harvest(&slot, &mut completions);
        outcomes[g] = Some(outcome);
    }

    // Fleet log: canonical arrival times, harvested completions.
    let mut log = RequestLog::new(ws.len());
    for (t, times) in fleet_arrivals.iter().enumerate() {
        for (r, &at) in times.iter().enumerate() {
            log.arrived(t, r, at);
            if let Some(c) = completions[t][r] {
                log.completed(t, r, c);
            }
        }
    }

    let trace = if opts.capture_trace {
        let mut all = fleet_events;
        for (t, times) in fleet_arrivals.iter().enumerate() {
            for (r, &at) in times.iter().enumerate() {
                all.push(TraceEvent::RequestArrival {
                    at,
                    app: t as u32,
                    req: r as u64,
                });
                if let Some(c) = completions[t][r] {
                    all.push(TraceEvent::RequestDone {
                        at: c,
                        app: t as u32,
                        req: r as u64,
                    });
                }
            }
        }
        all.sort_by_key(|e| e.at());
        all
    } else {
        Vec::new()
    };

    Ok(ChaosRun {
        placement,
        log,
        migrations,
        stranded,
        skipped,
        trace,
        outcomes,
    })
}

/// Copies an incarnation's completed requests into the fleet table.
fn harvest(slot: &Slot, completions: &mut [Vec<Option<SimTime>>]) {
    for (a, &t) in slot.tenants.iter().enumerate() {
        for rec in slot.sim.driver.log.records(a) {
            if let Some(c) = rec.completion {
                let fr = slot.req_map[a][rec.req];
                debug_assert!(
                    completions[t][fr].is_none(),
                    "request completed twice across incarnations"
                );
                completions[t][fr] = Some(c);
            }
        }
    }
}

/// Quiesces an incarnation at a barrier one nanosecond before `at`,
/// abandons its in-flight device work, and converts the driver checkpoint
/// plus the undelivered arrival tail into portable [`Evacuee`]s (fleet
/// ids). Completed requests are harvested before the incarnation drops.
fn quiesce(mut slot: Slot, at: SimTime, completions: &mut [Vec<Option<SimTime>>]) -> Vec<Evacuee> {
    let barrier = SimTime::from_nanos(at.as_nanos().saturating_sub(1));
    slot.sim.run(barrier);
    let _device = slot.sim.gpu.drain_snapshot();
    let ckpt: Vec<TenantCheckpoint> = slot.sim.driver.export_checkpoint();
    let futures: Vec<RequestArrival> = slot.sim.take_pending_arrivals();
    harvest(&slot, completions);

    let mut out: Vec<Evacuee> = slot
        .tenants
        .iter()
        .map(|&t| Evacuee {
            tenant: t,
            mode: ShareMode::SemiSpatial,
            clean_squads: 0,
            outstanding: Vec::new(),
            had_in_flight: false,
            future: Vec::new(),
        })
        .collect();
    for c in ckpt {
        let e = &mut out[c.app];
        e.mode = c.mode;
        e.clean_squads = c.clean_squads;
        if let Some(f) = c.in_flight {
            e.had_in_flight = true;
            e.outstanding.push(slot.req_map[c.app][f.req]);
        }
        for q in &c.queued {
            e.outstanding.push(slot.req_map[c.app][q.req]);
        }
    }
    // `take_pending_arrivals` returns time order, which for open-loop
    // streams is per-app request order.
    for a in futures {
        out[a.app].future.push((slot.req_map[a.app][a.req], a.at));
    }
    out
}

/// Builds a fresh incarnation from evacuee state: a new driver covering
/// the evacuees' tenants (ladder positions restored), with the preserved
/// requests re-injected at `resume` (outstanding work first, FIFO kept;
/// future arrivals at their original instants, clamped to `resume`) and
/// request ids renumbered densely per app, mapped back to fleet ids.
fn build_slot(
    evacuees: Vec<Evacuee>,
    resume: SimTime,
    requests: &[PlacementRequest],
    ws: &WorkloadSet,
    spec: &GpuSpec,
    params: &BlessParams,
) -> Slot {
    let apps: Vec<DeployedApp> = evacuees
        .iter()
        .map(|e| {
            DeployedApp::new(
                SharedProfile::clone(&requests[e.tenant].profile),
                ws.tenants[e.tenant].quota,
                None,
            )
        })
        .collect();
    let mut driver = BlessDriver::new(apps, params.clone());
    let mut arrivals: Vec<RequestArrival> = Vec::new();
    let mut req_map: Vec<Vec<usize>> = Vec::with_capacity(evacuees.len());
    for (a, e) in evacuees.iter().enumerate() {
        driver.restore_share_mode(a, e.mode, e.clean_squads);
        let mut map = Vec::with_capacity(e.outstanding.len() + e.future.len());
        for &fr in &e.outstanding {
            arrivals.push(RequestArrival {
                app: a,
                req: map.len(),
                at: resume,
            });
            map.push(fr);
        }
        for &(fr, at) in &e.future {
            arrivals.push(RequestArrival {
                app: a,
                req: map.len(),
                at: at.max(resume),
            });
            map.push(fr);
        }
        req_map.push(map);
    }
    let gpu = Gpu::new(spec.clone(), HostCosts::paper());
    Slot {
        tenants: evacuees.into_iter().map(|e| e.tenant).collect(),
        req_map,
        sim: Simulation::new(gpu, driver, arrivals),
    }
}

/// Appends one recovery to the record list and (optionally) the fleet
/// trace stream.
#[allow(clippy::too_many_arguments)]
fn record_recovery(
    e: &Evacuee,
    from: usize,
    to: usize,
    kind: FaultKind,
    at: SimTime,
    resume: SimTime,
    migrations: &mut Vec<MigrationRecord>,
    fleet_events: Option<&mut Vec<TraceEvent>>,
) {
    migrations.push(MigrationRecord {
        tenant: e.tenant,
        from,
        to,
        kind,
        at,
        resumed_at: resume,
        in_flight: e.had_in_flight,
        queued: (e.outstanding.len() - usize::from(e.had_in_flight)) as u32,
        future: e.future.len() as u32,
    });
    if let Some(events) = fleet_events {
        events.push(TraceEvent::TenantEvacuated {
            at,
            gpu: from as u32,
            app: e.tenant as u32,
            in_flight: u32::from(e.had_in_flight),
            queued: (e.outstanding.len() - usize::from(e.had_in_flight)) as u32,
        });
        events.push(TraceEvent::TenantRestored {
            at: resume,
            gpu: to as u32,
            app: e.tenant as u32,
            recovery_ns: resume.duration_since(at).as_nanos(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_cluster_opts, ClusterOptions};
    use dnn_models::{AppModel, ModelKind, Phase};
    use profiler::ProfiledApp;

    const SEED: u64 = 23;

    /// `n` identical VGG tenants with the given quotas, open-loop periodic
    /// load (12 requests, 5 ms apart, staggered 1 ms per tenant).
    fn fixture(quotas: &[f64]) -> (GpuSpec, WorkloadSet, Vec<SharedProfile>) {
        let spec = GpuSpec::a100();
        let model = AppModel::build(ModelKind::Vgg11, Phase::Inference);
        let tenants: Vec<TenantSpec> = quotas
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                TenantSpec::new(
                    model.clone(),
                    q,
                    ArrivalPattern::Periodic {
                        period: SimDuration::from_millis(5),
                        count: 12,
                        offset: SimDuration::from_millis(i as u64),
                    },
                )
            })
            .collect();
        let profiles: Vec<SharedProfile> = quotas
            .iter()
            .map(|_| ProfiledApp::profile_shared(&model, &spec))
            .collect();
        (
            spec,
            WorkloadSet {
                tenants,
                seed: SEED,
            },
            profiles,
        )
    }

    fn horizon() -> SimTime {
        SimTime::from_secs(120)
    }

    /// Fault spec that kills `fails` devices and hangs `hangs` in the
    /// 5–25 ms window (while request work is outstanding).
    fn fault_spec(fails: u32, hangs: u32) -> FaultSpec {
        FaultSpec {
            num_gpus: 0, // sized to the placement
            gpu_fail_count: fails,
            gpu_fail_window: (SimTime::from_millis(5), SimTime::from_millis(25)),
            gpu_hang_count: hangs,
            gpu_hang_window: (SimTime::from_millis(5), SimTime::from_millis(25)),
            gpu_hang_len: SimDuration::from_millis(3),
            ..FaultSpec::default()
        }
    }

    /// Finds a fault seed whose first scheduled failure hits `gpu` in a
    /// `num_gpus`-device fleet (deterministic: the search is exhaustive
    /// over a fixed seed range).
    fn seed_hitting(gpu: u32, num_gpus: u32, spec: &FaultSpec) -> u64 {
        let spec = FaultSpec {
            num_gpus,
            ..spec.clone()
        };
        (0..256)
            .find(|&s| {
                FaultPlan::build(s, &spec)
                    .gpu_failures()
                    .first()
                    .map(|f| f.gpu)
                    == Some(gpu)
            })
            .unwrap()
    }

    fn per_tenant(log: &RequestLog, t: usize) -> Vec<(SimTime, Option<SimTime>)> {
        log.records(t)
            .iter()
            .map(|r| (r.arrival, r.completion))
            .collect()
    }

    #[test]
    fn none_plan_matches_run_cluster() {
        // 0.45 × 6 packs three GPUs: FFD fills pairs.
        let (spec, ws, profiles) = fixture(&[0.45; 6]);
        let params = BlessParams::default();
        let chaos = run_chaos(
            &ws,
            profiles.clone(),
            4,
            &spec,
            &params,
            horizon(),
            7,
            &FaultSpec::default(),
            &ChaosOptions::default(),
        )
        .unwrap();
        assert!(chaos.migrations.is_empty() && chaos.stranded.is_empty());
        assert!(chaos.all_served());

        let plain = run_cluster_opts(
            &ws,
            profiles,
            4,
            &spec,
            &params,
            horizon(),
            &ClusterOptions::default(),
        )
        .unwrap();
        assert_eq!(chaos.placement, plain.placement);
        for g in &plain.gpus {
            for (local, &t) in g.tenants.iter().enumerate() {
                let want: Vec<(SimTime, Option<SimTime>)> = g
                    .log
                    .records(local)
                    .iter()
                    .map(|r| (r.arrival, r.completion))
                    .collect();
                assert_eq!(per_tenant(&chaos.log, t), want, "tenant {t}");
            }
        }
    }

    #[test]
    fn failure_migrates_what_fits_and_strands_the_rest() {
        // GPU0 hosts t0+t1 (0.9), GPU1 hosts t2 (0.45). Killing GPU0
        // evacuates t0 (fits: 0.45 + 0.45 <= 1) and strands t1 (typed).
        let (spec, ws, profiles) = fixture(&[0.45, 0.45, 0.45]);
        let fspec = fault_spec(1, 0);
        let seed = seed_hitting(0, 2, &fspec);
        let opts = ChaosOptions {
            capture_trace: true,
            ..ChaosOptions::default()
        };
        let run = run_chaos(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            horizon(),
            seed,
            &fspec,
            &opts,
        )
        .unwrap();
        assert_eq!(run.placement.gpus_used, 2);

        assert_eq!(run.migrations.len(), 1);
        let m = run.migrations[0];
        assert_eq!(
            (m.tenant, m.from, m.to, m.kind),
            (0, 0, 1, FaultKind::Failure)
        );
        assert_eq!(m.recovery(), opts.migration_cost);
        assert!(m.in_flight || m.queued > 0 || m.future > 0);

        assert_eq!(run.stranded.len(), 1);
        let s = &run.stranded[0];
        assert_eq!((s.tenant, s.gpu), (1, 0));
        assert_eq!(s.reason, PlacementError::NoCapacity { app: 1 });
        assert!(s.lost_requests > 0);
        assert_eq!(run.lost_requests(), s.lost_requests);

        // The dead slot stays dead; survivors complete.
        assert_eq!(run.outcomes[0], None);
        assert_eq!(run.outcomes[1], Some(RunOutcome::Completed));
        // Migrated and untouched tenants finish every request.
        for t in [0usize, 2] {
            assert!(
                per_tenant(&run.log, t).iter().all(|(_, c)| c.is_some()),
                "tenant {t} lost requests"
            );
        }
        // Per-tenant FIFO survives the migration end-to-end.
        for t in 0..3 {
            let dones: Vec<SimTime> = per_tenant(&run.log, t)
                .iter()
                .filter_map(|&(_, c)| c)
                .collect();
            assert!(
                dones.windows(2).all(|w| w[0] <= w[1]),
                "tenant {t} reordered"
            );
        }

        // The synthesized trace carries the full recovery story.
        let kinds: Vec<&'static str> = run.trace.iter().map(|e| e.kind()).collect();
        for k in [
            "device_failed",
            "tenant_evacuated",
            "tenant_restored",
            "migration_failed",
        ] {
            assert!(kinds.contains(&k), "missing {k}");
        }
    }

    #[test]
    fn hang_restores_in_place() {
        // Both tenants on one GPU; a transient hang pauses and resumes it.
        let (spec, ws, profiles) = fixture(&[0.45, 0.45]);
        let fspec = fault_spec(0, 1);
        let opts = ChaosOptions::default();
        let run = run_chaos(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            horizon(),
            11,
            &fspec,
            &opts,
        )
        .unwrap();
        assert_eq!(run.placement.gpus_used, 1);
        assert!(!run.migrations.is_empty());
        for m in &run.migrations {
            assert_eq!(m.kind, FaultKind::Hang);
            assert_eq!(m.from, m.to);
            assert_eq!(
                m.recovery(),
                SimDuration::from_millis(3) + opts.restart_cost
            );
        }
        assert!(run.stranded.is_empty());
        assert!(run.all_served());
        assert_eq!(run.outcomes[0], Some(RunOutcome::Completed));
    }

    #[test]
    fn chaos_is_byte_identical_across_worker_counts() {
        let (spec, ws, profiles) = fixture(&[0.45; 6]);
        let fspec = fault_spec(2, 2);
        let params = BlessParams::default();
        let mk = |workers: Option<usize>, parallel: bool| {
            run_chaos(
                &ws,
                profiles.clone(),
                4,
                &spec,
                &params,
                horizon(),
                42,
                &fspec,
                &ChaosOptions {
                    parallel,
                    workers,
                    capture_trace: true,
                    ..ChaosOptions::default()
                },
            )
            .unwrap()
        };
        let seq = mk(None, false);
        let par = mk(Some(4), true);
        // The run actually exercised recovery.
        assert!(!seq.migrations.is_empty() || !seq.stranded.is_empty());
        assert_eq!(seq.migrations, par.migrations);
        assert_eq!(seq.stranded, par.stranded);
        assert_eq!(seq.skipped, par.skipped);
        assert_eq!(seq.outcomes, par.outcomes);
        assert_eq!(seq.trace, par.trace);
        for t in 0..ws.len() {
            assert_eq!(
                per_tenant(&seq.log, t),
                per_tenant(&par.log, t),
                "tenant {t}"
            );
        }
    }

    /// The recovery schedule — who moved where, when work resumed, who
    /// was stranded, and the resulting fleet log — pinned to a golden
    /// digest at worker counts 1/2/4. Catches both nondeterminism in the
    /// worker pool and any behavioral drift in the index-backed
    /// evacuation path (which must match the linear
    /// [`MigrationPolicy::choose_target`] scan byte-for-byte).
    #[test]
    fn recovery_schedule_digest_is_pinned_at_any_worker_count() {
        let (spec, ws, profiles) = fixture(&[0.45; 6]);
        let fspec = fault_spec(2, 2);
        let params = BlessParams::default();
        let digest_of = |run: &ChaosRun| {
            let mut f = metrics::Fnv::new();
            f.write_u64(run.migrations.len() as u64);
            for m in &run.migrations {
                f.write_u64(m.tenant as u64);
                f.write_u64(m.from as u64);
                f.write_u64(m.to as u64);
                f.write_u64(u64::from(matches!(m.kind, FaultKind::Failure)));
                f.write_u64(m.at.as_nanos());
                f.write_u64(m.resumed_at.as_nanos());
                f.write_u64(u64::from(m.in_flight));
                f.write_u64(u64::from(m.queued));
                f.write_u64(u64::from(m.future));
            }
            f.write_u64(run.stranded.len() as u64);
            for s in &run.stranded {
                f.write_u64(s.tenant as u64);
                f.write_u64(s.gpu as u64);
                f.write_u64(s.at.as_nanos());
                f.write_u64(s.lost_requests as u64);
            }
            f.write_u64(run.log.digest());
            f.finish()
        };
        let mut digests = Vec::new();
        for workers in [1usize, 2, 4] {
            let run = run_chaos(
                &ws,
                profiles.clone(),
                4,
                &spec,
                &params,
                horizon(),
                42,
                &fspec,
                &ChaosOptions {
                    parallel: workers > 1,
                    workers: Some(workers),
                    ..ChaosOptions::default()
                },
            )
            .unwrap();
            assert!(
                !run.migrations.is_empty() || !run.stranded.is_empty(),
                "fixture must exercise recovery"
            );
            digests.push(digest_of(&run));
        }
        assert!(
            digests.iter().all(|&d| d == digests[0]),
            "recovery schedule varies with worker count: {digests:x?}"
        );
        assert_eq!(
            digests[0], GOLDEN_RECOVERY_DIGEST,
            "recovery schedule drifted from the pinned golden \
             (got {:#018x}); placement or migration behavior changed",
            digests[0]
        );
    }

    /// Golden for [`recovery_schedule_digest_is_pinned_at_any_worker_count`]:
    /// seed-42 faults over the 6×0.45-quota fixture on a 4-GPU fleet.
    const GOLDEN_RECOVERY_DIGEST: u64 = 0x6e6a_8965_7b82_5356;

    #[test]
    fn faults_on_unplaced_devices_are_skipped_with_typed_reason() {
        // The spec claims an 8-GPU fleet but the placement uses 1: every
        // failure drawn on slots 1..8 is reported, not silently dropped.
        let (spec, ws, profiles) = fixture(&[0.45, 0.45]);
        let fspec = FaultSpec {
            num_gpus: 8,
            ..fault_spec(8, 0)
        };
        let run = run_chaos(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            horizon(),
            3,
            &fspec,
            &ChaosOptions::default(),
        )
        .unwrap();
        assert_eq!(run.placement.gpus_used, 1);
        assert!(!run.skipped.is_empty());
        for sk in &run.skipped {
            assert!(sk.gpu >= 1);
            assert_eq!(sk.reason, PlacementError::SourceDead { gpu: sk.gpu });
        }
    }

    #[test]
    fn migration_policy_first_fits_and_types_failures() {
        let spec = GpuSpec::a100();
        let model = AppModel::build(ModelKind::Vgg11, Phase::Inference);
        let profile = ProfiledApp::profile_shared(&model, &spec);
        let req = |quota: f64| PlacementRequest {
            profile: SharedProfile::clone(&profile),
            quota,
        };
        let policy = MigrationPolicy::new(spec.memory_mib);
        // Slot 0 dead, slot 1 nearly full, slot 2 has room.
        let hosts = vec![None, Some(vec![req(0.8)]), Some(vec![req(0.3)])];
        assert_eq!(policy.choose_target(7, &req(0.5), &hosts), Ok(2));
        // A small migrant fits the earlier slot first.
        assert_eq!(policy.choose_target(7, &req(0.2), &hosts), Ok(1));
        // Nothing admits a full-GPU migrant.
        assert_eq!(
            policy.choose_target(7, &req(1.0), &hosts),
            Err(PlacementError::NoCapacity { app: 7 })
        );
    }

    /// Watchdog-enabled params whose thresholds never fire organically:
    /// only the `initial_modes` pin puts a tenant at `Temporal`, and it
    /// never promotes — isolating the pinned-evacuation path.
    fn pinned_params() -> BlessParams {
        BlessParams {
            watchdog: Some(bless::WatchdogParams {
                degrade_threshold: 1000.0,
                promote_after: 100_000,
            }),
            ..BlessParams::default()
        }
    }

    fn pinned_opts() -> ChaosOptions {
        ChaosOptions {
            capture_trace: true,
            // Tenant 0 starts pinned at the ladder's bottom; its GPU0
            // neighbour and the GPU1 tenant start fresh.
            initial_modes: Some(vec![
                ShareMode::Temporal,
                ShareMode::SemiSpatial,
                ShareMode::SemiSpatial,
            ]),
            pinned_evacuation: Some(PinnedPolicy {
                after_rounds: 2,
                check_every: SimDuration::from_millis(10),
            }),
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn pinned_tenant_is_evacuated_once() {
        // 0.45 × 3 packs tenants 0+1 on GPU0 and tenant 2 on GPU1, so
        // GPU1 has quota room for the evacuee.
        let (spec, ws, profiles) = fixture(&[0.45, 0.45, 0.45]);
        let run = run_chaos(
            &ws,
            profiles,
            4,
            &spec,
            &pinned_params(),
            horizon(),
            7,
            &FaultSpec::default(),
            &pinned_opts(),
        )
        .unwrap();

        // Exactly one planned move: tenant 0, off its original device,
        // once — later checks see `pinned_moved` and stay quiet.
        assert_eq!(run.migrations.len(), 1, "got {:?}", run.migrations);
        let m = run.migrations[0];
        assert_eq!(m.tenant, 0);
        assert_eq!(m.kind, FaultKind::Pinned);
        assert_ne!(m.from, m.to);
        assert_eq!(
            m.resumed_at.duration_since(m.at),
            ChaosOptions::default().migration_cost
        );
        assert!(run.stranded.is_empty() && run.skipped.is_empty());
        assert!(run.all_served(), "lost {} requests", run.lost_requests());

        // The synthesized trace carries the planned move.
        let kinds: Vec<&'static str> = run.trace.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"tenant_evacuated"));
        assert!(kinds.contains(&"tenant_restored"));
    }

    #[test]
    fn pinned_evacuation_without_watchdog_is_inert() {
        // Default params leave the watchdog off, so the pinned counter
        // never ticks and every periodic check finds nothing.
        let (spec, ws, profiles) = fixture(&[0.45, 0.45, 0.45]);
        let run = run_chaos(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            horizon(),
            7,
            &FaultSpec::default(),
            &ChaosOptions {
                capture_trace: false,
                ..pinned_opts()
            },
        )
        .unwrap();
        assert!(run.migrations.is_empty());
        assert!(run.all_served());
    }

    #[test]
    fn pinned_evacuation_digest_is_seeded_and_worker_invariant() {
        // Byte-identical request log at every worker count, pinned to a
        // golden digest so behavioural drift in the evacuation path shows
        // up as a test failure, not a silent change.
        const GOLDEN: u64 = 0xf9d5_01b3_0a3a_e06b;
        let (spec, ws, profiles) = fixture(&[0.45, 0.45, 0.45]);
        for workers in [1usize, 2, 4] {
            let run = run_chaos(
                &ws,
                profiles.clone(),
                4,
                &spec,
                &pinned_params(),
                horizon(),
                7,
                &FaultSpec::default(),
                &ChaosOptions {
                    capture_trace: false,
                    workers: Some(workers),
                    ..pinned_opts()
                },
            )
            .unwrap();
            assert_eq!(run.migrations.len(), 1);
            assert_eq!(
                run.log.digest(),
                GOLDEN,
                "pinned-evacuation digest drifted at workers={workers}"
            );
        }
    }
}
