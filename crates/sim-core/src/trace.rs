//! Structured scheduler trace stream.
//!
//! Every layer of the stack (the GPU engine, the simulation loop, the
//! BLESS driver) can emit typed [`TraceEvent`]s in *virtual* time through a
//! [`TraceSink`]. With no sink installed the stream costs one branch per
//! potential emission point — no allocation, no formatting, no state — so
//! simulation results are bit-identical with tracing on or off.
//!
//! [`BufferSink`], an unbounded in-memory buffer with a shared handle, is
//! the provided sink, for validators, exporters, and tests; [`to_jsonl`]
//! serializes a recorded stream one JSON object per line.
//!
//! Identifiers are plain integers so this crate stays free of upward
//! dependencies: `app` is the tenant index, `kernel` the kernel index
//! within the tenant's profile, `queue`/`ctx` the engine's queue/context
//! ids, and `seq` a unique per-launch sequence number (a retried kernel
//! gets a fresh `seq`; `seq` is never reused within one simulation).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::time::SimTime;

/// Per-entry plan of a squad, attached to [`TraceEvent::SquadFormed`].
///
/// `kernels` are the contiguous profile indices
/// `[first_kernel, first_kernel + count)`; the first `split_at` of them are
/// planned for the SM-restricted context, the rest for the unrestricted
/// one (§4.5 semi-spatial sharing).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSquadEntry {
    /// Tenant index.
    pub app: u32,
    /// First kernel index of the entry.
    pub first_kernel: u32,
    /// Number of kernels in the entry.
    pub count: u32,
    /// Number of leading kernels routed to the restricted context.
    pub split_at: u32,
    /// SM cap set on the restricted context (0 when the entry runs
    /// unrestricted).
    pub sm_cap: u32,
    /// Share mode of the entry: 0 = semi-spatial, 1 = strict-spatial,
    /// 2 = unrestricted (no cap).
    pub mode: u8,
}

/// One structured scheduler event in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A kernel was launched from the host into a device queue.
    KernelLaunch {
        /// Launch instant (host side).
        at: SimTime,
        /// Unique per-launch sequence number.
        seq: u64,
        /// Tenant index (from the launch tag).
        app: u32,
        /// Kernel index within the tenant's profile.
        kernel: u32,
        /// Destination device queue.
        queue: u32,
        /// Whether the destination context is SM-restricted (MPS
        /// affinity).
        restricted: bool,
    },
    /// A kernel reached the head of its queue and began executing.
    KernelStart {
        /// Start instant.
        at: SimTime,
        /// Launch sequence number.
        seq: u64,
        /// Device queue.
        queue: u32,
    },
    /// A running compute kernel's SM allocation changed.
    SmAlloc {
        /// Reallocation instant.
        at: SimTime,
        /// Launch sequence number.
        seq: u64,
        /// New SM share (0 when starved).
        sms: f64,
    },
    /// A kernel finished.
    KernelComplete {
        /// Completion instant.
        at: SimTime,
        /// Launch sequence number.
        seq: u64,
        /// Device queue.
        queue: u32,
    },
    /// A kernel was killed by an injected context crash.
    KernelFailed {
        /// Failure instant.
        at: SimTime,
        /// Launch sequence number.
        seq: u64,
        /// Device queue.
        queue: u32,
    },
    /// An injected MPS context crash fired.
    CrashInjected {
        /// Crash instant.
        at: SimTime,
        /// Victim tenant.
        app: u32,
        /// Number of kernels killed.
        casualties: u32,
    },
    /// An injected DMA stall window opened (`onset`) or closed.
    DmaStall {
        /// Transition instant.
        at: SimTime,
        /// Bandwidth divisor of the window.
        factor: f64,
        /// True at window start, false at recovery.
        onset: bool,
    },
    /// An SM-affinity cap was (re)set on a context.
    PartitionSet {
        /// Instant of the cap change.
        at: SimTime,
        /// Context id.
        ctx: u32,
        /// New cap in SMs.
        sm_cap: u32,
    },
    /// A context's SM restriction was released (squad retired).
    PartitionReleased {
        /// Release instant.
        at: SimTime,
        /// Context id.
        ctx: u32,
    },
    /// A client request arrived at the host scheduler.
    RequestArrival {
        /// Arrival instant.
        at: SimTime,
        /// Tenant index.
        app: u32,
        /// Per-tenant request sequence number.
        req: u64,
    },
    /// A client request completed (all its kernels finished).
    RequestDone {
        /// Completion instant.
        at: SimTime,
        /// Tenant index.
        app: u32,
        /// Per-tenant request sequence number.
        req: u64,
    },
    /// A kernel squad was formed and is about to launch (§4.3).
    SquadFormed {
        /// Formation instant.
        at: SimTime,
        /// Squad id (0-based, monotonically increasing).
        id: u64,
        /// Whether the chosen configuration is spatial (SP).
        spatial: bool,
        /// The split ratio `c` in effect (fraction of kernels routed to
        /// the restricted context under semi-spatial sharing).
        split_ratio: f64,
        /// Per-tenant entry plans.
        entries: Vec<TraceSquadEntry>,
    },
    /// The configuration determiner chose a config for a squad (§4.4).
    ConfigChosen {
        /// Decision instant.
        at: SimTime,
        /// Squad id the decision applies to.
        squad: u64,
        /// Whether the spatial configuration won.
        spatial: bool,
        /// Predicted squad duration, in nanoseconds (0 when the
        /// determiner was bypassed).
        predicted_ns: u64,
        /// Number of candidate configurations evaluated.
        evaluated: u32,
    },
    /// A squad fully retired (every launched kernel completed).
    SquadRetired {
        /// Retirement instant.
        at: SimTime,
        /// Squad id.
        id: u64,
    },
    /// A tenant moved along the degradation ladder (§ fault model).
    ModeShift {
        /// Transition instant.
        at: SimTime,
        /// Tenant index.
        app: u32,
        /// Previous mode: 0 = semi-spatial, 1 = strict-spatial,
        /// 2 = temporal.
        from: u8,
        /// New mode (same encoding).
        to: u8,
    },
    /// A crash casualty was re-submitted to its original queue.
    RetrySubmitted {
        /// Re-submission instant.
        at: SimTime,
        /// Tenant index.
        app: u32,
        /// Kernel index within the tenant's profile.
        kernel: u32,
    },
    /// A fleet device died permanently or froze transiently (chaos runner).
    DeviceFailed {
        /// Fault instant.
        at: SimTime,
        /// Fleet device index.
        gpu: u32,
        /// True for a permanent failure, false for a transient hang.
        permanent: bool,
    },
    /// A tenant's pending work was drained off a quiesced device.
    TenantEvacuated {
        /// Evacuation instant (the fault barrier).
        at: SimTime,
        /// Source device.
        gpu: u32,
        /// Tenant index (fleet-level).
        app: u32,
        /// 1 when a request was in flight at the barrier (its squads were
        /// abandoned with typed errors), else 0.
        in_flight: u32,
        /// Requests preserved from the FIFO queue (excluding undelivered
        /// future arrivals).
        queued: u32,
    },
    /// An evacuated tenant resumed service on a device.
    TenantRestored {
        /// First instant the tenant's checkpointed work is serviceable.
        at: SimTime,
        /// Target device (equals the source for a hang ride-through).
        gpu: u32,
        /// Tenant index (fleet-level).
        app: u32,
        /// Recovery time: `at` minus the fault instant, in nanoseconds.
        recovery_ns: u64,
    },
    /// An evacuated tenant could not be re-placed.
    MigrationFailed {
        /// Decision instant.
        at: SimTime,
        /// Tenant index (fleet-level).
        app: u32,
        /// Typed reason code: 0 = no surviving GPU has capacity,
        /// 1 = source device already dead.
        reason: u8,
    },
    /// The serving front-end admitted an offered arrival (DESIGN.md §5l).
    RequestAdmitted {
        /// Arrival instant (virtual time the client offered the request).
        at: SimTime,
        /// Tenant index.
        app: u32,
        /// Driver-level request id (dense over *admitted* requests; the
        /// id the matching [`TraceEvent::RequestArrival`] will carry).
        req: u64,
        /// Per-tenant offered sequence number (dense over admitted *and*
        /// shed arrivals — the conservation key).
        seq: u64,
    },
    /// The serving front-end shed an offered arrival (typed, accounted —
    /// never a silent drop).
    RequestShed {
        /// Arrival instant of the shed request.
        at: SimTime,
        /// Tenant index.
        app: u32,
        /// Per-tenant offered sequence number (same numbering as
        /// [`TraceEvent::RequestAdmitted::seq`]).
        seq: u64,
        /// Typed reason code: 0 = token-bucket rate limit,
        /// 1 = backpressure (outstanding-queue bound exceeded).
        reason: u8,
    },
    /// A tenant's outstanding-queue bound was crossed upward: subsequent
    /// arrivals shed with reason 1 until [`TraceEvent::BackpressureOff`].
    BackpressureOn {
        /// Instant of the crossing (the first shed arrival's time).
        at: SimTime,
        /// Tenant index.
        app: u32,
        /// Outstanding admitted-but-incomplete requests at the crossing.
        outstanding: u32,
    },
    /// A tenant's outstanding queue drained back under its bound.
    BackpressureOff {
        /// Instant the bound was re-satisfied (the next admitted
        /// arrival's time).
        at: SimTime,
        /// Tenant index.
        app: u32,
    },
}

impl TraceEvent {
    /// The virtual-time instant of the event.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::KernelLaunch { at, .. }
            | TraceEvent::KernelStart { at, .. }
            | TraceEvent::SmAlloc { at, .. }
            | TraceEvent::KernelComplete { at, .. }
            | TraceEvent::KernelFailed { at, .. }
            | TraceEvent::CrashInjected { at, .. }
            | TraceEvent::DmaStall { at, .. }
            | TraceEvent::PartitionSet { at, .. }
            | TraceEvent::PartitionReleased { at, .. }
            | TraceEvent::RequestArrival { at, .. }
            | TraceEvent::RequestDone { at, .. }
            | TraceEvent::SquadFormed { at, .. }
            | TraceEvent::ConfigChosen { at, .. }
            | TraceEvent::SquadRetired { at, .. }
            | TraceEvent::ModeShift { at, .. }
            | TraceEvent::RetrySubmitted { at, .. }
            | TraceEvent::DeviceFailed { at, .. }
            | TraceEvent::TenantEvacuated { at, .. }
            | TraceEvent::TenantRestored { at, .. }
            | TraceEvent::MigrationFailed { at, .. }
            | TraceEvent::RequestAdmitted { at, .. }
            | TraceEvent::RequestShed { at, .. }
            | TraceEvent::BackpressureOn { at, .. }
            | TraceEvent::BackpressureOff { at, .. } => *at,
        }
    }

    /// Short machine-readable name of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::KernelLaunch { .. } => "kernel_launch",
            TraceEvent::KernelStart { .. } => "kernel_start",
            TraceEvent::SmAlloc { .. } => "sm_alloc",
            TraceEvent::KernelComplete { .. } => "kernel_complete",
            TraceEvent::KernelFailed { .. } => "kernel_failed",
            TraceEvent::CrashInjected { .. } => "crash_injected",
            TraceEvent::DmaStall { .. } => "dma_stall",
            TraceEvent::PartitionSet { .. } => "partition_set",
            TraceEvent::PartitionReleased { .. } => "partition_released",
            TraceEvent::RequestArrival { .. } => "request_arrival",
            TraceEvent::RequestDone { .. } => "request_done",
            TraceEvent::SquadFormed { .. } => "squad_formed",
            TraceEvent::ConfigChosen { .. } => "config_chosen",
            TraceEvent::SquadRetired { .. } => "squad_retired",
            TraceEvent::ModeShift { .. } => "mode_shift",
            TraceEvent::RetrySubmitted { .. } => "retry_submitted",
            TraceEvent::DeviceFailed { .. } => "device_failed",
            TraceEvent::TenantEvacuated { .. } => "tenant_evacuated",
            TraceEvent::TenantRestored { .. } => "tenant_restored",
            TraceEvent::MigrationFailed { .. } => "migration_failed",
            TraceEvent::RequestAdmitted { .. } => "request_admitted",
            TraceEvent::RequestShed { .. } => "request_shed",
            TraceEvent::BackpressureOn { .. } => "backpressure_on",
            TraceEvent::BackpressureOff { .. } => "backpressure_off",
        }
    }

    /// Appends the event as one JSON object (no trailing newline) to
    /// `out`. The encoding is hand-rolled (this workspace vendors no
    /// serde) and stable: field order is fixed, floats use Rust's
    /// shortest-round-trip formatting, so identical event streams encode
    /// to identical bytes.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"ev\":\"{}\",\"at\":{}",
            self.kind(),
            self.at().as_nanos()
        );
        match self {
            TraceEvent::KernelLaunch {
                seq,
                app,
                kernel,
                queue,
                restricted,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"seq\":{seq},\"app\":{app},\"kernel\":{kernel},\"queue\":{queue},\"restricted\":{restricted}"
                );
            }
            TraceEvent::KernelStart { seq, queue, .. }
            | TraceEvent::KernelComplete { seq, queue, .. }
            | TraceEvent::KernelFailed { seq, queue, .. } => {
                let _ = write!(out, ",\"seq\":{seq},\"queue\":{queue}");
            }
            TraceEvent::SmAlloc { seq, sms, .. } => {
                let _ = write!(out, ",\"seq\":{seq},\"sms\":{sms}");
            }
            TraceEvent::CrashInjected {
                app, casualties, ..
            } => {
                let _ = write!(out, ",\"app\":{app},\"casualties\":{casualties}");
            }
            TraceEvent::DmaStall { factor, onset, .. } => {
                let _ = write!(out, ",\"factor\":{factor},\"onset\":{onset}");
            }
            TraceEvent::PartitionSet { ctx, sm_cap, .. } => {
                let _ = write!(out, ",\"ctx\":{ctx},\"sm_cap\":{sm_cap}");
            }
            TraceEvent::PartitionReleased { ctx, .. } => {
                let _ = write!(out, ",\"ctx\":{ctx}");
            }
            TraceEvent::RequestArrival { app, req, .. }
            | TraceEvent::RequestDone { app, req, .. } => {
                let _ = write!(out, ",\"app\":{app},\"req\":{req}");
            }
            TraceEvent::SquadFormed {
                id,
                spatial,
                split_ratio,
                entries,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"id\":{id},\"spatial\":{spatial},\"split_ratio\":{split_ratio},\"entries\":["
                );
                for (i, e) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"app\":{},\"first_kernel\":{},\"count\":{},\"split_at\":{},\"sm_cap\":{},\"mode\":{}}}",
                        e.app, e.first_kernel, e.count, e.split_at, e.sm_cap, e.mode
                    );
                }
                out.push(']');
            }
            TraceEvent::ConfigChosen {
                squad,
                spatial,
                predicted_ns,
                evaluated,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"squad\":{squad},\"spatial\":{spatial},\"predicted_ns\":{predicted_ns},\"evaluated\":{evaluated}"
                );
            }
            TraceEvent::SquadRetired { id, .. } => {
                let _ = write!(out, ",\"id\":{id}");
            }
            TraceEvent::ModeShift { app, from, to, .. } => {
                let _ = write!(out, ",\"app\":{app},\"from\":{from},\"to\":{to}");
            }
            TraceEvent::RetrySubmitted { app, kernel, .. } => {
                let _ = write!(out, ",\"app\":{app},\"kernel\":{kernel}");
            }
            TraceEvent::DeviceFailed { gpu, permanent, .. } => {
                let _ = write!(out, ",\"gpu\":{gpu},\"permanent\":{permanent}");
            }
            TraceEvent::TenantEvacuated {
                gpu,
                app,
                in_flight,
                queued,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"gpu\":{gpu},\"app\":{app},\"in_flight\":{in_flight},\"queued\":{queued}"
                );
            }
            TraceEvent::TenantRestored {
                gpu,
                app,
                recovery_ns,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"gpu\":{gpu},\"app\":{app},\"recovery_ns\":{recovery_ns}"
                );
            }
            TraceEvent::MigrationFailed { app, reason, .. } => {
                let _ = write!(out, ",\"app\":{app},\"reason\":{reason}");
            }
            TraceEvent::RequestAdmitted { app, req, seq, .. } => {
                let _ = write!(out, ",\"app\":{app},\"req\":{req},\"seq\":{seq}");
            }
            TraceEvent::RequestShed {
                app, seq, reason, ..
            } => {
                let _ = write!(out, ",\"app\":{app},\"seq\":{seq},\"reason\":{reason}");
            }
            TraceEvent::BackpressureOn {
                app, outstanding, ..
            } => {
                let _ = write!(out, ",\"app\":{app},\"outstanding\":{outstanding}");
            }
            TraceEvent::BackpressureOff { app, .. } => {
                let _ = write!(out, ",\"app\":{app}");
            }
        }
        out.push('}');
    }

    /// The event as a standalone JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

/// Recovers a mutex guard even if another holder panicked: the payload is
/// plain event data, never left in a half-updated state, so the poison
/// flag carries no information here.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Receiver of a structured trace stream.
///
/// Sinks must not influence the simulation: `record` takes the event by
/// reference and the engine never observes a sink's state.
///
/// Sinks are `Send` so an engine holding one can be moved to (or driven
/// from) a worker thread, as the fleet runner does with each GPU.
pub trait TraceSink: Send {
    /// Records one event. Events arrive in non-decreasing virtual time.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// Unbounded in-memory sink with a shared handle.
///
/// Cloning is shallow (the clones share one buffer), so the idiom is to
/// keep one handle and install the other on the GPU:
///
/// ```
/// use sim_core::trace::{BufferSink, TraceSink};
/// let buf = BufferSink::new();
/// let mut installed: Box<dyn TraceSink> = Box::new(buf.clone());
/// // ... the engine records through `installed` ...
/// let events = buf.take();
/// assert!(events.is_empty());
/// ```
#[derive(Clone, Default)]
pub struct BufferSink {
    inner: Arc<Mutex<Vec<TraceEvent>>>,
}

impl BufferSink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.inner).is_empty()
    }

    /// Removes and returns all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *lock_unpoisoned(&self.inner))
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        lock_unpoisoned(&self.inner).push(ev.clone());
    }
}

/// Serializes a slice of events to JSONL (one JSON object per line, each
/// newline-terminated).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, seq: u64) -> TraceEvent {
        TraceEvent::KernelStart {
            at: SimTime::from_nanos(ns),
            seq,
            queue: 3,
        }
    }

    #[test]
    fn buffer_sink_shares_one_buffer_across_clones() {
        let buf = BufferSink::new();
        let mut installed: Box<dyn TraceSink> = Box::new(buf.clone());
        installed.record(&ev(10, 1));
        installed.record(&ev(20, 2));
        assert_eq!(buf.len(), 2);
        let events = buf.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at(), SimTime::from_nanos(10));
        assert!(buf.is_empty());
    }

    #[test]
    fn to_jsonl_writes_one_line_per_event() {
        let events = vec![
            ev(5, 1),
            TraceEvent::SmAlloc {
                at: SimTime::from_nanos(6),
                seq: 1,
                sms: 54.5,
            },
        ];
        assert_eq!(
            to_jsonl(&events),
            "{\"ev\":\"kernel_start\",\"at\":5,\"seq\":1,\"queue\":3}\n\
             {\"ev\":\"sm_alloc\",\"at\":6,\"seq\":1,\"sms\":54.5}\n"
        );
    }

    #[test]
    fn squad_formed_encodes_entries() {
        let e = TraceEvent::SquadFormed {
            at: SimTime::from_nanos(100),
            id: 7,
            spatial: true,
            split_ratio: 0.5,
            entries: vec![TraceSquadEntry {
                app: 0,
                first_kernel: 4,
                count: 6,
                split_at: 3,
                sm_cap: 40,
                mode: 0,
            }],
        };
        assert_eq!(
            e.to_json(),
            "{\"ev\":\"squad_formed\",\"at\":100,\"id\":7,\"spatial\":true,\"split_ratio\":0.5,\
             \"entries\":[{\"app\":0,\"first_kernel\":4,\"count\":6,\"split_at\":3,\"sm_cap\":40,\"mode\":0}]}"
        );
    }
}
