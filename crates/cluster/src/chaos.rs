//! Fleet-level fault tolerance: GPU failure injection, tenant live
//! migration, and the deterministic chaos runner.
//!
//! [`run_chaos`] serves a placed multi-GPU deployment exactly like
//! [`crate::run_cluster_opts`], but under a [`FaultPlan`] that can kill
//! devices permanently ([`sim_core::GpuFailEvent`]) or hang them
//! transiently ([`sim_core::GpuHangEvent`]). When a device faults, its
//! runtime is quiesced at a barrier one nanosecond before the fault
//! instant, the in-flight squads are abandoned with typed errors on the
//! device ([`gpu_sim::Gpu::drain_snapshot`]), and the pending per-tenant
//! work is exported as a portable checkpoint
//! ([`BlessDriver::export_checkpoint`] plus the undelivered arrival tail
//! from [`Simulation::take_pending_arrivals`]).
//!
//! * **Permanent failure** — every casualty with remaining work is
//!   first-fitted onto a surviving device under the same quota-capacity
//!   and §4.2.2 admission rules the initial placement used. The
//!   checkpoint replays on the target after a modeled [`MIGRATION_COST`]
//!   (checkpoint transfer plus context re-provisioning, the cross-device
//!   analogue of the 50 µs MPS vacuum). Tenants no device can admit are
//!   *stranded*: reported with a typed [`PlacementError::NoCapacity`]
//!   instead of silently dropped.
//! * **Transient hang** — the device's work survives: the same
//!   drain-and-snapshot runs at onset, and the checkpoint replays on the
//!   *same* device once the hang clears, after a modeled
//!   [`RESTART_COST`].
//!
//! Each GPU's initial workload and every incarnation's runtime come from
//! the fleet runner's own builders ([`crate::run`]), so a fault-free
//! chaos run and [`crate::run_cluster_opts`] cannot drift apart.
//!
//! Recovery time is first-class: every interruption produces a
//! [`MigrationRecord`] whose [`MigrationRecord::recovery`] is the gap
//! between fault onset and the instant the tenant's work resumes.
//!
//! # Determinism
//!
//! The fault schedule is a pure function of `(fault_seed, FaultSpec)`;
//! fault events are applied sequentially in time order, and only the
//! final drain of surviving devices runs on the worker pool
//! ([`sim_core::par`]) — each surviving runtime is self-contained by
//! then, so the merged result is byte-identical at any worker count. A
//! [`FaultPlan::none`] chaos run performs no quiesce, no rebuild, and no
//! migration: each GPU executes the identical event sequence as
//! [`crate::run_cluster_opts`].
//!
//! # Scope
//!
//! Only open-loop arrival patterns are supported (closed-loop client
//! state lives in a notice-handler closure that cannot be checkpointed),
//! and only the GPU-level fault classes of the spec are consumed here —
//! device-level faults (context crashes, DMA stalls, drift, stragglers)
//! compose through the single-GPU `run_custom_faulted` harness path.

use bless::{BlessDriver, BlessParams, TenantCheckpoint};
use gpu_sim::{GpuSpec, RequestArrival, RunOutcome, Simulation};
use metrics::{RequestLog, ShareMode};
use profiler::{admit, AdmissionPolicy, ProfiledApp, SharedProfile};
use sim_core::par;
use sim_core::trace::TraceEvent;
use sim_core::{FaultPlan, FaultSpec, SimDuration, SimTime};
use workloads::{ArrivalPattern, WorkloadSet};

use crate::placement::{CapacityIndex, Placement, PlacementError};
use crate::run::{ClusterOptions, Fleet};

/// Modeled cost of moving a tenant checkpoint to another device and
/// re-provisioning contexts there — the cross-device analogue of the
/// 50 µs MPS context-switch vacuum, plus checkpoint transfer.
pub const MIGRATION_COST: SimDuration = SimDuration::from_micros(250);

/// Modeled device restart time after a transient hang clears.
pub const RESTART_COST: SimDuration = SimDuration::from_micros(50);

/// The class of device fault that interrupted a tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanent device failure: the tenant moved to another GPU.
    Failure,
    /// Transient device hang: the tenant resumed on the same GPU.
    Hang,
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

/// Knobs for [`run_chaos`].
#[derive(Clone, Debug, Default)]
pub struct ChaosOptions {
    /// Synthesize the fleet-level trace stream into [`ChaosRun::trace`].
    pub capture_trace: bool,
    /// Worker-pool size for draining surviving devices; `None` honours
    /// `std::thread::available_parallelism`. `Some(1)` runs the
    /// sequential loop. Output is byte-identical at any worker count.
    pub workers: Option<usize>,
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
    for t in &ws.tenants {
        assert!(
            !matches!(t.pattern, ArrivalPattern::ClosedLoop { .. }),
            "run_chaos requires open-loop arrival patterns: closed-loop \
             client state cannot be checkpointed across a migration"
        );
    }
    // Default options place first-fit; chaos drains on its own pool.
    let cluster_opts = ClusterOptions::default();
    let fleet = Fleet::place(
        ws,
        profiles,
        fleet_size,
        spec,
        params,
        horizon,
        &cluster_opts,
    )?;
    let gpus_used = fleet.placement.gpus_used;

    // The fault schedule is a pure function of (seed, spec); a zero
    // num_gpus means "size to the placement".
    let mut fspec = faults.clone();
    if fspec.num_gpus == 0 {
        fspec.num_gpus = gpus_used as u32;
    }
    let plan = FaultPlan::build(fault_seed, &fspec);
    let requests = &fleet.requests;
    let admission = AdmissionPolicy::default();

    // Canonical fleet arrival schedule: each GPU's workload as the cluster
    // runner builds it, remapped to fleet tenant ids. Arrival times in the
    // fleet log always come from this table, never from re-injection times.
    let mut fleet_arrivals: Vec<Vec<SimTime>> = vec![Vec::new(); ws.len()];
    let mut slots: Vec<Option<Slot>> = Vec::with_capacity(gpus_used);
    for g in 0..gpus_used {
        let (tenants, local_ws) = fleet.local_workload(g);
        let arrivals = local_ws.initial_arrivals();
        let mut req_map: Vec<Vec<usize>> = vec![Vec::new(); tenants.len()];
        for a in &arrivals {
            debug_assert_eq!(a.req, req_map[a.app].len());
            req_map[a.app].push(a.req);
            fleet_arrivals[tenants[a.app]].push(a.at);
        }
        // Open-loop fleet arrivals are emitted per app in time order, so
        // the per-tenant table above is already req-id ordered.
        let sim = fleet.simulation(&tenants, arrivals);
        slots.push(Some(Slot {
            tenants,
            req_map,
            sim,
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
    events.sort_by_key(|e| (e.at, e.kind == FaultKind::Hang, e.gpu));

    let mut migrations: Vec<MigrationRecord> = Vec::new();
    let mut stranded: Vec<StrandedTenant> = Vec::new();
    let mut skipped: Vec<SkippedFault> = Vec::new();
    let mut fleet_events: Vec<TraceEvent> = Vec::new();

    for ev in events {
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
                let resume = ev.until + RESTART_COST;
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
                slots[g] = Some(build_slot(evacuees, resume, &fleet));
            }
            FaultKind::Failure => {
                // Evacuate casualties most-degraded-first so tenants deep
                // in the watchdog ladder get first pick of capacity.
                let mut movers: Vec<Evacuee> =
                    evacuees.into_iter().filter(Evacuee::has_work).collect();
                movers.sort_by_key(|e| (ladder_rank(e.mode), e.tenant));
                let mut staged: Vec<Vec<Evacuee>> = (0..slots.len()).map(|_| Vec::new()).collect();
                // First-fit each casualty onto the lowest-index alive host
                // with quota room that passes §4.2.2 admission alongside
                // its provisioned tenants (finished ones included — quota
                // is provisioned capacity, not load) and the migrants
                // already staged there. Leaf `h` of the index is host
                // `h`'s quota folded in member order; dead hosts are
                // infinite, so no query selects them.
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
                    let mut chosen = None;
                    while let Some(h) = index.first_fit_from(from, migrant.quota) {
                        profiles.clear();
                        if let Some(s) = &slots[h] {
                            profiles.extend(s.tenants.iter().map(|&t| &*requests[t].profile));
                        }
                        profiles.extend(staged[h].iter().map(|m| &*requests[m.tenant].profile));
                        profiles.push(&migrant.profile);
                        if admit(&profiles, spec.memory_mib, &admission).is_ok() {
                            chosen = Some(h);
                            break;
                        }
                        from = h + 1;
                    }
                    if let Some(h) = chosen {
                        index.commit(h, migrant.quota);
                        staged[h].push(e);
                        continue;
                    }
                    if opts.capture_trace {
                        fleet_events.push(TraceEvent::MigrationFailed {
                            at: ev.at,
                            app: e.tenant as u32,
                            reason: 0, // no surviving GPU has capacity
                        });
                    }
                    stranded.push(StrandedTenant {
                        tenant: e.tenant,
                        gpu: g,
                        at: ev.at,
                        reason: PlacementError::NoCapacity { app: e.tenant },
                        lost_requests: e.outstanding.len() + e.future.len(),
                    });
                }
                let resume = ev.at + MIGRATION_COST;
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
                        .unwrap_or_else(|| unreachable!("first fit only selects alive targets"));
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
                    slots[h] = Some(build_slot(all, resume, &fleet));
                }
            }
        }
    }

    // Final drain: surviving incarnations are mutually independent, so
    // they run to the horizon on the worker pool and merge by slot order.
    let work: Vec<(usize, Slot)> = slots
        .iter_mut()
        .enumerate()
        .filter_map(|(g, s)| Some((g, s.take()?)))
        .collect();
    let mut outcomes: Vec<Option<RunOutcome>> = vec![None; gpus_used];
    par::for_each_ordered(
        opts.workers,
        work,
        |(g, mut slot)| {
            let outcome = slot.sim.run(horizon);
            (g, slot, outcome)
        },
        |_, (g, slot, outcome)| {
            harvest(&slot, &mut completions);
            outcomes[g] = Some(outcome);
        },
    );

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
        placement: fleet.placement,
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
fn build_slot(evacuees: Vec<Evacuee>, resume: SimTime, fleet: &Fleet) -> Slot {
    let tenants: Vec<usize> = evacuees.iter().map(|e| e.tenant).collect();
    let mut arrivals: Vec<RequestArrival> = Vec::new();
    let mut req_map: Vec<Vec<usize>> = Vec::with_capacity(evacuees.len());
    for (a, e) in evacuees.iter().enumerate() {
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
    let mut sim = fleet.simulation(&tenants, arrivals);
    for (a, e) in evacuees.iter().enumerate() {
        sim.driver.restore_share_mode(a, e.mode, e.clean_squads);
    }
    Slot {
        tenants,
        req_map,
        sim,
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
    use workloads::TenantSpec;

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

    /// Finds a fault seed whose failure schedule kills exactly `gpus`, in
    /// that order, in a `num_gpus`-device fleet (deterministic: the search
    /// is exhaustive over a fixed seed range).
    fn seed_killing(gpus: &[u32], num_gpus: u32, spec: &FaultSpec) -> u64 {
        let spec = FaultSpec {
            num_gpus,
            ..spec.clone()
        };
        (0..1024)
            .find(|&s| {
                FaultPlan::build(s, &spec)
                    .gpu_failures()
                    .iter()
                    .map(|f| f.gpu)
                    .eq(gpus.iter().copied())
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

    /// One failure-path input: tenant quotas, the GPUs killed (in time
    /// order), the GPUs the placement opens, the expected moves as
    /// `(tenant, from, to)` and the expected strandings as `(tenant, gpu)`.
    type FailureCase = (
        &'static [f64],
        &'static [u32],
        usize,
        &'static [(usize, usize, usize)],
        &'static [(usize, usize)],
    );

    #[test]
    fn failure_migrates_what_fits_and_strands_the_rest() {
        let cases: [FailureCase; 2] = [
            // GPU0 hosts t0+t1 (0.9), GPU1 hosts t2 (0.45). Killing GPU0
            // evacuates t0 (fits: 0.45 + 0.45 <= 1) and strands t1 (typed).
            (&[0.45, 0.45, 0.45], &[0], 2, &[(0, 0, 1)], &[(1, 0)]),
            // GPU0 {t0: 1.0}, GPU1 {t1: 0.6, t5: 0.3}, GPU2 {t2: 0.75},
            // GPU3 {t3: 0.55}, GPU4 {t4: 0.55}. Killing GPU0 strands t0.
            // Killing GPU1 next strands t1 and first-fits t5 past the dead
            // GPU0 and the full GPU2 onto GPU3: the lowest-index live GPU
            // with room, although GPU4 has room too.
            (
                &[1.0, 0.6, 0.75, 0.55, 0.55, 0.3],
                &[0, 1],
                5,
                &[(5, 1, 3)],
                &[(0, 0), (1, 1)],
            ),
        ];
        for (quotas, kills, gpus_used, moves, strands) in cases {
            let (spec, ws, profiles) = fixture(quotas);
            let fspec = fault_spec(kills.len() as u32, 0);
            let seed = seed_killing(kills, gpus_used as u32, &fspec);
            let run = run_chaos(
                &ws,
                profiles,
                8,
                &spec,
                &BlessParams::default(),
                horizon(),
                seed,
                &fspec,
                &ChaosOptions {
                    capture_trace: true,
                    ..ChaosOptions::default()
                },
            )
            .unwrap();
            assert_eq!(run.placement.gpus_used, gpus_used);

            let got: Vec<(usize, usize, usize)> = run
                .migrations
                .iter()
                .map(|m| (m.tenant, m.from, m.to))
                .collect();
            assert_eq!(got, moves, "quotas {quotas:?}");
            for m in &run.migrations {
                assert_eq!(m.kind, FaultKind::Failure);
                assert_eq!(m.recovery(), MIGRATION_COST);
                assert!(m.in_flight || m.queued > 0 || m.future > 0);
            }

            let got: Vec<(usize, usize)> = run.stranded.iter().map(|s| (s.tenant, s.gpu)).collect();
            assert_eq!(got, strands, "quotas {quotas:?}");
            for s in &run.stranded {
                assert_eq!(s.reason, PlacementError::NoCapacity { app: s.tenant });
                assert!(s.lost_requests > 0);
            }
            let lost: usize = run.stranded.iter().map(|s| s.lost_requests).sum();
            assert_eq!(run.lost_requests(), lost);

            // Dead slots stay dead; survivors complete.
            for (g, o) in run.outcomes.iter().enumerate() {
                let want = (!kills.contains(&(g as u32))).then_some(RunOutcome::Completed);
                assert_eq!(*o, want, "gpu {g}");
            }
            for t in 0..ws.len() {
                let log = per_tenant(&run.log, t);
                // Migrated and untouched tenants finish every request.
                if !strands.iter().any(|&(s, _)| s == t) {
                    assert!(
                        log.iter().all(|(_, c)| c.is_some()),
                        "tenant {t} lost requests"
                    );
                }
                // Per-tenant FIFO survives the migration end-to-end.
                let dones: Vec<SimTime> = log.iter().filter_map(|&(_, c)| c).collect();
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
            assert_eq!(m.recovery(), SimDuration::from_millis(3) + RESTART_COST);
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
        let mk = |workers: usize| {
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
                    workers: Some(workers),
                    capture_trace: true,
                },
            )
            .unwrap()
        };
        let seq = mk(1);
        let par = mk(4);
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
    /// was stranded, and the resulting fleet log — of seed-42 faults over
    /// the 6×0.45-quota fixture on a 4-GPU fleet, run on `workers`.
    fn recovery_digest(workers: usize) -> u64 {
        let (spec, ws, profiles) = fixture(&[0.45; 6]);
        let run = run_chaos(
            &ws,
            profiles,
            4,
            &spec,
            &BlessParams::default(),
            horizon(),
            42,
            &fault_spec(2, 2),
            &ChaosOptions {
                workers: Some(workers),
                ..ChaosOptions::default()
            },
        )
        .unwrap();
        assert!(
            !run.migrations.is_empty() || !run.stranded.is_empty(),
            "fixture must exercise recovery"
        );
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
    }

    /// The recovery schedule pinned to a golden digest at worker counts
    /// 1/2/4. Catches both nondeterminism in the worker pool and any
    /// behavioral drift in the index-backed evacuation path.
    #[test]
    fn recovery_schedule_digest_is_pinned_at_any_worker_count() {
        let digests = [1, 2, 4].map(recovery_digest);
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

    /// Stress for the final drain's ordered map: seeded worker counts in
    /// 1..=4, each run's recovery digest equal to the one-worker run's.
    #[test]
    fn recovery_digest_matches_one_worker_at_random_worker_counts() {
        let want = recovery_digest(1);
        assert_eq!(want, GOLDEN_RECOVERY_DIGEST);
        let mut rng = sim_core::SimRng::new(0x5eed);
        for _ in 0..12 {
            let workers = rng.range_inclusive(1, 4) as usize;
            assert_eq!(recovery_digest(workers), want, "workers = {workers}");
        }
    }

    /// Golden for [`recovery_digest`].
    const GOLDEN_RECOVERY_DIGEST: u64 = 0xd686_43f0_f874_1b6d;

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
}
