//! The fluid-model GPU execution engine.
//!
//! The engine tracks *instances* (launched kernels) through their lifecycle
//!
//! ```text
//! launched --(launch delay)--> queued --(head of queue)--> running --> done
//! ```
//!
//! Running compute kernels are malleable jobs: on every allocation-changing
//! event (a kernel arriving at the device, starting, or finishing; a context
//! cap changing) the engine re-divides the SM pools with
//! [`crate::alloc::allocate_sms`], applies the interference model, and
//! recomputes every running kernel's completion time from its remaining
//! work and new progress rate. Stale completion events are invalidated with
//! an epoch counter. Memcpy kernels run the same way on the two PCIe DMA
//! engines (one per direction), sharing bandwidth equally.
//!
//! Host-side behaviour is modelled with a single host timeline
//! (`host_free`): launching a kernel occupies the host for the launch
//! overhead and the kernel only reaches its device queue afterwards, which
//! reproduces both the paper's 3 µs launch gap at squad start and the
//! "overspending" hazard of §6.9 (a scheduler that spends more host time
//! per kernel than the kernels' device time starves the GPU).

use std::collections::VecDeque;
use std::sync::Arc;

use sim_core::trace::{TraceEvent, TraceSink};
use sim_core::{EventQueue, FaultPlan, SimDuration, SimTime};

use crate::alloc::{allocate_sms_into, CtxGroup, KernelDemand};
use crate::channel::{Channel, ChannelDemand, ChannelModel, NUM_CHANNELS};
use crate::kernel::{KernelDesc, KernelKind, KernelTableId};
use crate::spec::{GpuSpec, HostCosts, HwPolicy};

/// Identifier of a GPU context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

/// Identifier of a device queue (CUDA-stream analogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u32);

/// Handle of one launched kernel instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelHandle(pub u64);

/// How a context constrains the kernels launched into it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CtxKind {
    /// No SM restriction: kernels may use the whole shared pool.
    Default,
    /// MPS SM-affinity context: kernels in this context may collectively
    /// occupy at most `sm_cap` SMs of the shared pool.
    MpsAffinity {
        /// Maximum concurrent SMs for this context.
        sm_cap: u32,
    },
    /// MIG partition: a hard reservation of `sm_count` SMs — and the
    /// proportional device-memory slice — that no other context can
    /// touch, and beyond which this context can never grow.
    MigPartition {
        /// Number of SMs reserved for this partition.
        sm_count: u32,
    },
}

/// Errors returned by resource-management calls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuError {
    /// Not enough free device memory.
    OutOfMemory {
        /// MiB requested.
        requested_mib: u64,
        /// MiB still available.
        available_mib: u64,
    },
    /// The MIG partitions would reserve more SMs than the GPU has.
    MigBudgetExceeded {
        /// SMs requested for the new partition.
        requested_sms: u32,
        /// SMs not yet reserved.
        available_sms: u32,
    },
    /// An operation referenced an unknown context.
    UnknownContext(CtxId),
    /// An operation referenced an unknown queue.
    UnknownQueue(QueueId),
    /// The operation is invalid for the context's kind (e.g. resizing the
    /// cap of a MIG partition).
    InvalidOperation(&'static str),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested_mib,
                available_mib,
            } => write!(
                f,
                "out of device memory: requested {requested_mib} MiB, {available_mib} MiB free"
            ),
            GpuError::MigBudgetExceeded {
                requested_sms,
                available_sms,
            } => write!(
                f,
                "MIG budget exceeded: requested {requested_sms} SMs, {available_sms} unreserved"
            ),
            GpuError::UnknownContext(c) => write!(f, "unknown context {c:?}"),
            GpuError::UnknownQueue(q) => write!(f, "unknown queue {q:?}"),
            GpuError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Lifecycle state of a kernel instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstState {
    /// Launched on the host; in flight to the device.
    InFlight,
    /// In its device queue, waiting to reach the head.
    Queued,
    /// Executing (possibly at rate 0 if starved of SMs).
    Running,
    /// Finished.
    Done,
    /// Killed by an injected context crash before completing; the host must
    /// re-submit it (reported through [`Gpu::take_failed`]).
    Failed,
}

#[derive(Clone, Debug)]
struct Context {
    kind: CtxKind,
    /// Pool index: 0 is the shared pool; each MIG partition gets its own.
    pool: usize,
}

impl Context {
    /// The most SMs this context's kernels may hold together
    /// (`f64::INFINITY` when unrestricted).
    fn sm_cap(&self) -> f64 {
        match self.kind {
            CtxKind::Default => f64::INFINITY,
            CtxKind::MpsAffinity { sm_cap } => sm_cap as f64,
            CtxKind::MigPartition { sm_count } => sm_count as f64,
        }
    }
}

#[derive(Debug)]
struct Queue {
    ctx: CtxId,
    /// Instances waiting behind the head (the head itself is `running`).
    waiting: VecDeque<usize>,
    /// Slot index of the currently running head, if any.
    running: Option<usize>,
    /// Busy SM·ns integral attributed to this queue.
    busy_integral: f64,
    /// Device arrival time of the last submitted kernel. CUDA streams are
    /// FIFO in *submission* order, so later submissions may never arrive
    /// before earlier ones even when an extra delay (context-switch
    /// vacuum) was applied to an earlier launch.
    last_arrival: SimTime,
}

/// The fields of a [`KernelDesc`] the engine step reads, copied into each
/// instance so that a launch clones no descriptor.
#[derive(Clone, Copy, Debug)]
struct KernelShape {
    kind: KernelKind,
    work: f64,
    max_sms: u32,
    mem_intensity: f64,
    demand: ChannelDemand,
}

impl KernelShape {
    fn of(desc: &KernelDesc) -> Self {
        KernelShape {
            kind: desc.kind,
            work: desc.work,
            max_sms: desc.max_sms,
            mem_intensity: desc.mem_intensity,
            demand: desc.demand,
        }
    }
}

/// Where an instance's kernel name lives (read only by
/// [`Gpu::kernel_name`]).
#[derive(Debug)]
enum KernelName {
    /// `tables[table][index]`: table launches touch no `Arc`. A `u32`
    /// index keeps this enum, and so `Instance`, no larger than a
    /// `KernelDesc`; [`Gpu::register_kernel_table`] bounds table length.
    Table(KernelTableId, u32),
    /// Moved in by a by-value launch.
    Owned(Arc<str>),
}

#[derive(Debug)]
struct Instance {
    shape: KernelShape,
    name: KernelName,
    queue: QueueId,
    tag: u64,
    state: InstState,
    /// Remaining work: SM·ns for compute, bytes for memcpy.
    remaining: f64,
    /// Current progress rate: SM (work/ns) for compute, bytes/ns for memcpy.
    rate: f64,
    /// Current SM allocation (compute only; for stats/timeline).
    alloc_sms: f64,
    /// Dispatch order among running kernels (greedy-sticky priority).
    run_seq: u64,
    /// Epoch of this instance's currently valid completion event; older
    /// Complete events are stale. Unchanged rates keep their event valid
    /// across reallocations, so the event heap is not churned for
    /// bystander kernels.
    event_epoch: u64,
    /// Generation of this slot; bumped every time the slot is recycled so
    /// stale [`KernelHandle`]s are detectable.
    generation: u32,
    /// Index of this kernel's most recent timeline segment (for
    /// coalescing), or `usize::MAX`.
    last_seg: usize,
    /// Earliest instant the kernel may begin when paying the contended
    /// dispatch gap (unrestricted context with co-resident tenants).
    /// Set once: a kernel never pays the arbitration gap twice.
    dispatch_ready: Option<SimTime>,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    /// Unique launch sequence number for the trace stream; 0 when the
    /// launch happened with tracing disabled.
    trace_seq: u64,
}

/// One recorded execution segment of a kernel (for fine-grained timelines,
/// paper Fig. 18).
#[derive(Clone, Debug)]
pub struct TimelineSegment {
    /// The kernel instance.
    pub handle: KernelHandle,
    /// Queue it ran on.
    pub queue: QueueId,
    /// Driver-assigned tag.
    pub tag: u64,
    /// Segment start.
    pub from: SimTime,
    /// Segment end.
    pub to: SimTime,
    /// SMs held during the segment (0 for memcpy segments).
    pub sms: f64,
}

#[derive(Debug)]
enum DevEv {
    /// A launched kernel reaches its device queue.
    Arrive { slot: usize },
    /// Predicted completion of a running instance; valid only if `epoch`
    /// matches the engine's current allocation epoch.
    Complete { slot: usize, epoch: u64 },
    /// Host wakeup requested by the driver.
    HostWake { token: u64 },
    /// Internal re-allocation poke (dispatch-gap expiry).
    Poke,
    /// Injected context crash: every live kernel of `app` fails.
    Crash { app: u32 },
    /// Injected DMA-bandwidth change (stall onset or recovery).
    DmaRate { factor: f64, onset: bool },
}

/// Externally visible outcome of one engine step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutput {
    /// A kernel finished.
    KernelDone {
        /// The finished instance.
        handle: KernelHandle,
        /// Queue it ran on.
        queue: QueueId,
        /// Driver-assigned tag.
        tag: u64,
    },
    /// A host wakeup fired.
    HostWake {
        /// The token passed to [`Gpu::wake_at`].
        token: u64,
    },
    /// An injected MPS context crash fired: every in-flight, queued, and
    /// running kernel of `app` failed. The casualties are retrievable with
    /// [`Gpu::take_failed`]; the driver is expected to re-submit them.
    ContextCrash {
        /// The victim application (low bits of the kernel tag).
        app: u32,
    },
}

/// One kernel killed by an injected context crash, as reported to the
/// driver for re-submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailedKernel {
    /// Handle of the killed instance (now in [`InstState::Failed`]).
    pub handle: KernelHandle,
    /// The queue it was launched into (re-submit to the same queue to
    /// preserve per-queue FIFO ordering).
    pub queue: QueueId,
    /// Driver-assigned tag identifying the kernel.
    pub tag: u64,
}

/// Portable snapshot of a quiesced device's pending engine-level work,
/// produced by [`Gpu::drain_snapshot`] (see DESIGN.md §5i).
///
/// The kernel list is the *abandoned* work: requests owning these kernels
/// must be re-run from scratch wherever the tenant lands next. Queued
/// request order is the driver's to preserve; the engine checkpoint only
/// certifies that nothing was silently dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceCheckpoint {
    /// Barrier instant the device was quiesced at.
    pub at: SimTime,
    /// Every kernel abandoned at the barrier — in launch order, which
    /// preserves per-queue FIFO — with launch tags intact.
    pub abandoned: Vec<FailedKernel>,
}

/// Running totals of injected faults, for robustness reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Context crashes fired.
    pub crashes: u64,
    /// Kernels killed by those crashes.
    pub kernels_failed: u64,
    /// Kernel launches that drew a straggler multiplier.
    pub stragglers: u64,
    /// DMA stall windows that began.
    pub dma_stalls: u64,
}

/// Live fault-injection state (present only when a non-trivial
/// [`FaultPlan`] is installed, so the no-fault path stays bit-identical).
struct FaultState {
    plan: FaultPlan,
    /// Current copy-bandwidth divisor (1.0 = full speed).
    dma_slow: f64,
    /// Number of stall windows currently open (overlaps nest).
    stall_depth: u32,
    /// Crash casualties awaiting pickup by the driver.
    failed: Vec<FailedKernel>,
    counters: FaultCounters,
}

/// The simulated GPU plus its host timeline.
pub struct Gpu {
    spec: GpuSpec,
    costs: HostCosts,
    now: SimTime,
    host_free: SimTime,
    contexts: Vec<Context>,
    queues: Vec<Queue>,
    instances: Vec<Instance>,
    events: EventQueue<DevEv>,
    epoch: u64,
    /// SM capacity of each pool (pool 0 = shared).
    pool_capacity: Vec<f64>,
    mig_reserved_sms: u32,
    mem_used_mib: u64,
    busy_sm_integral: f64,
    last_settle: SimTime,
    timeline: Option<Vec<TimelineSegment>>,
    /// Count of instances not yet `Done`.
    live_instances: usize,
    /// Driver-posted notices drained by the simulation loop (e.g. request
    /// completions feeding closed-loop clients).
    notices: Vec<u64>,
    next_run_seq: u64,
    /// Completed slots available for reuse (only fed when
    /// `recycle_slots` is on).
    free_slots: Vec<usize>,
    /// Whether reported-complete instances are recycled through the
    /// free-list (see [`Gpu::set_slot_recycling`]).
    recycle_slots: bool,
    /// Fault-injection state; `None` unless a non-trivial plan is
    /// installed (see [`Gpu::set_fault_plan`]).
    fault: Option<FaultState>,
    /// Structured trace sink; `None` (the default) keeps every emission
    /// point down to one branch (see [`Gpu::set_trace_sink`]).
    trace: Option<Box<dyn TraceSink>>,
    /// Next launch sequence number for trace events (starts at 1; 0 marks
    /// untraced launches).
    next_trace_seq: u64,
    /// Scratch buffers reused across `reallocate` calls so the per-event
    /// hot path performs no heap allocation in steady state.
    scratch: ReallocScratch,
    /// Interned kernel tables (see [`Gpu::register_kernel_table`]):
    /// launch-by-index targets so steady-state launches clone nothing.
    tables: Vec<Arc<[KernelDesc]>>,
}

/// Reusable buffers for [`Gpu::reallocate_scoped`] / `sticky_allocate`.
#[derive(Default)]
struct ReallocScratch {
    compute: Vec<usize>,
    h2d: Vec<usize>,
    d2h: Vec<usize>,
    groups: Vec<CtxGroup>,
    alloc: Vec<f64>,
    order: Vec<usize>,
    pool_used: Vec<f64>,
    ctx_used: Vec<f64>,
    ctx_runnable: Vec<bool>,
    reserved: Vec<f64>,
    pokes: Vec<SimTime>,
    demands: Vec<KernelDemand>,
}

impl Gpu {
    /// Creates a GPU with the given hardware spec and host cost model.
    /// Device events pop from one stable [`EventQueue`]: earliest time
    /// first, insertion order on ties.
    pub fn new(spec: GpuSpec, costs: HostCosts) -> Self {
        let shared = spec.num_sms as f64;
        Gpu {
            spec,
            costs,
            now: SimTime::ZERO,
            host_free: SimTime::ZERO,
            contexts: Vec::new(),
            queues: Vec::new(),
            instances: Vec::new(),
            events: EventQueue::new(),
            epoch: 0,
            pool_capacity: vec![shared],
            mig_reserved_sms: 0,
            mem_used_mib: 0,
            busy_sm_integral: 0.0,
            last_settle: SimTime::ZERO,
            timeline: None,
            live_instances: 0,
            notices: Vec::new(),
            next_run_seq: 0,
            free_slots: Vec::new(),
            recycle_slots: false,
            fault: None,
            trace: None,
            next_trace_seq: 1,
            scratch: ReallocScratch::default(),
            tables: Vec::new(),
        }
    }

    /// Installs a structured trace sink; every subsequent scheduler event
    /// (kernel launch/start/complete, SM allocation changes, cap changes,
    /// injected faults) is recorded through it in virtual time.
    ///
    /// Tracing is purely observational: it never changes scheduling
    /// decisions, event order, or timing, so traced runs are bit-identical
    /// to untraced ones. With no sink installed (the default) each
    /// emission point costs a single branch.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Removes and returns the installed trace sink (flushing it), if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.trace.take();
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
        sink
    }

    /// True when a trace sink is installed.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records `ev` on the installed sink; no-op when tracing is off.
    /// Drivers emit their scheduler-level events (squads, mode shifts,
    /// retries) through this. Guard event construction with
    /// [`Gpu::tracing_enabled`] to keep the disabled path allocation-free.
    #[inline]
    pub fn trace_emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(&ev);
        }
    }

    /// Installs a deterministic fault plan.
    ///
    /// Crash and DMA-stall schedules become pending device events; drift
    /// and straggler multipliers apply to subsequent compute launches
    /// (victims are identified by the application index in the low bits of
    /// the kernel tag, per [`crate::sim::encode_tag`]). Installing a plan
    /// for which [`FaultPlan::is_none`] holds stores nothing at all, so
    /// that path is bit-identical to never calling this method.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if plan.is_none() {
            self.fault = None;
            return;
        }
        for c in plan.crashes() {
            self.events
                .push(c.at.max(self.now), DevEv::Crash { app: c.app });
        }
        for s in plan.dma_stalls() {
            self.events.push(
                s.at.max(self.now),
                DevEv::DmaRate {
                    factor: s.factor,
                    onset: true,
                },
            );
            self.events.push(
                s.until.max(self.now),
                DevEv::DmaRate {
                    factor: s.factor,
                    onset: false,
                },
            );
        }
        self.fault = Some(FaultState {
            plan,
            dma_slow: 1.0,
            stall_depth: 0,
            failed: Vec::new(),
            counters: FaultCounters::default(),
        });
    }

    /// Drains the kernels killed by context crashes since the last call
    /// (typically invoked right after [`StepOutput::ContextCrash`]).
    pub fn take_failed(&mut self) -> Vec<FailedKernel> {
        self.fault
            .as_mut()
            .map(|f| std::mem::take(&mut f.failed))
            .unwrap_or_default()
    }

    /// Drains crash casualties into `buf` (cleared first), preserving both
    /// buffers' capacity — the drain-into counterpart of
    /// [`Gpu::take_failed`].
    pub fn take_failed_into(&mut self, buf: &mut Vec<FailedKernel>) {
        buf.clear();
        if let Some(f) = self.fault.as_mut() {
            buf.append(&mut f.failed);
        }
    }

    /// Totals of faults injected so far (all zero without a plan).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// Enables (or disables) recycling of completed instance slots through
    /// a free-list, bounding `instances` growth on long traces.
    ///
    /// Handles are generation-tagged, so a stale handle to a recycled slot
    /// reports `Done` / `None` rather than another kernel's data — but
    /// callers that introspect kernels *after* their completion was
    /// reported (e.g. the profiler, which queries every handle post-drain)
    /// must leave recycling off. Long-trace driver loops that only consume
    /// [`StepOutput::KernelDone`] tags can enable it freely: slot reuse
    /// never changes scheduling order, so results are bit-identical.
    pub fn set_slot_recycling(&mut self, on: bool) {
        self.recycle_slots = on;
    }

    /// Creates an A100 with the paper's host costs.
    pub fn a100() -> Self {
        Self::new(GpuSpec::a100(), HostCosts::paper())
    }

    /// The hardware spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The host cost model.
    pub fn costs(&self) -> &HostCosts {
        &self.costs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The instant at which the host thread becomes free.
    pub fn host_free_at(&self) -> SimTime {
        self.host_free.max(self.now)
    }

    /// Enables per-kernel timeline recording (costs memory; off by default).
    pub fn enable_timeline(&mut self) {
        if self.timeline.is_none() {
            self.timeline = Some(Vec::new());
        }
    }

    /// The recorded timeline segments, if recording was enabled.
    pub fn timeline(&self) -> &[TimelineSegment] {
        self.timeline.as_deref().unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Resource management
    // ------------------------------------------------------------------

    /// Creates a GPU context.
    ///
    /// MPS contexts consume [`GpuSpec::mps_context_mib`] of device memory
    /// (§6.9). MIG partitions additionally reserve their SMs exclusively.
    pub fn create_context(&mut self, kind: CtxKind) -> Result<CtxId, GpuError> {
        let pool = match kind {
            CtxKind::Default => 0,
            CtxKind::MpsAffinity { sm_cap } => {
                if sm_cap == 0 || sm_cap > self.spec.num_sms {
                    return Err(GpuError::InvalidOperation(
                        "MPS affinity cap must be in 1..=num_sms",
                    ));
                }
                self.alloc_memory(self.spec.mps_context_mib)?;
                0
            }
            CtxKind::MigPartition { sm_count } => {
                let available = self.spec.num_sms - self.mig_reserved_sms;
                if sm_count == 0 || sm_count > available {
                    return Err(GpuError::MigBudgetExceeded {
                        requested_sms: sm_count,
                        available_sms: available,
                    });
                }
                // A MIG instance carves out its proportional device-memory
                // slice along with its SMs — the tenant's allocations then
                // live inside that reservation (no extra `alloc_memory`
                // needed, and no access to other slices' memory).
                let mem_slice = self.spec.memory_mib * sm_count as u64 / self.spec.num_sms as u64;
                self.alloc_memory(mem_slice)?;
                self.mig_reserved_sms += sm_count;
                self.pool_capacity[0] = (self.spec.num_sms - self.mig_reserved_sms) as f64;
                self.pool_capacity.push(sm_count as f64);
                // Pool shape only affects compute allocation.
                self.reallocate_scoped(true, false);
                self.pool_capacity.len() - 1
            }
        };
        let id = CtxId(self.contexts.len() as u32);
        self.contexts.push(Context { kind, pool });
        if self.trace.is_some() {
            if let CtxKind::MpsAffinity { sm_cap } = kind {
                self.trace_emit(TraceEvent::PartitionSet {
                    at: self.now,
                    ctx: id.0,
                    sm_cap,
                });
            }
        }
        Ok(id)
    }

    /// Creates a device queue bound to `ctx`.
    pub fn create_queue(&mut self, ctx: CtxId) -> Result<QueueId, GpuError> {
        if ctx.0 as usize >= self.contexts.len() {
            return Err(GpuError::UnknownContext(ctx));
        }
        let id = QueueId(self.queues.len() as u32);
        self.queues.push(Queue {
            ctx,
            waiting: VecDeque::new(),
            running: None,
            busy_integral: 0.0,
            last_arrival: SimTime::ZERO,
        });
        Ok(id)
    }

    /// Changes the SM-affinity cap of an MPS context (used by adaptive
    /// baselines such as GSLICE). Takes effect immediately.
    pub fn set_mps_cap(&mut self, ctx: CtxId, sm_cap: u32) -> Result<(), GpuError> {
        let c = self
            .contexts
            .get_mut(ctx.0 as usize)
            .ok_or(GpuError::UnknownContext(ctx))?;
        match c.kind {
            CtxKind::MpsAffinity { .. } => {
                if sm_cap == 0 || sm_cap > self.spec.num_sms {
                    return Err(GpuError::InvalidOperation(
                        "MPS affinity cap must be in 1..=num_sms",
                    ));
                }
                c.kind = CtxKind::MpsAffinity { sm_cap };
                if self.trace.is_some() {
                    self.trace_emit(TraceEvent::PartitionSet {
                        at: self.now,
                        ctx: ctx.0,
                        sm_cap,
                    });
                }
                // Context caps only affect compute allocation.
                self.reallocate_scoped(true, false);
                Ok(())
            }
            _ => Err(GpuError::InvalidOperation(
                "set_mps_cap only applies to MPS affinity contexts",
            )),
        }
    }

    /// Reserves `mib` of device memory (application weights/activations).
    pub fn alloc_memory(&mut self, mib: u64) -> Result<(), GpuError> {
        let available = self.spec.memory_mib - self.mem_used_mib;
        if mib > available {
            return Err(GpuError::OutOfMemory {
                requested_mib: mib,
                available_mib: available,
            });
        }
        self.mem_used_mib += mib;
        Ok(())
    }

    /// Releases previously reserved device memory.
    pub fn free_memory(&mut self, mib: u64) {
        self.mem_used_mib = self.mem_used_mib.saturating_sub(mib);
    }

    /// Device memory currently reserved, in MiB.
    pub fn memory_used_mib(&self) -> u64 {
        self.mem_used_mib
    }

    // ------------------------------------------------------------------
    // Host operations
    // ------------------------------------------------------------------

    /// Occupies the host thread for `d` (scheduling work, synchronization).
    pub fn charge_host(&mut self, d: SimDuration) {
        self.host_free = self.host_free.max(self.now) + d;
    }

    /// Launches a kernel into `queue`.
    ///
    /// The launch occupies the host for the per-kernel launch overhead; the
    /// kernel reaches its device queue when the host call returns.
    pub fn launch(
        &mut self,
        queue: QueueId,
        desc: KernelDesc,
        tag: u64,
    ) -> Result<KernelHandle, GpuError> {
        self.launch_delayed(queue, desc, tag, SimDuration::ZERO)
    }

    /// Launches a kernel whose device arrival is additionally delayed by
    /// `extra` (models the 50 µs context-switch vacuum of §6.9, which stalls
    /// only this queue).
    pub fn launch_delayed(
        &mut self,
        queue: QueueId,
        desc: KernelDesc,
        tag: u64,
        extra: SimDuration,
    ) -> Result<KernelHandle, GpuError> {
        if queue.0 as usize >= self.queues.len() {
            return Err(GpuError::UnknownQueue(queue));
        }
        self.charge_host(self.costs.kernel_launch);
        let arrive_at = (self.host_free + extra).max(self.queues[queue.0 as usize].last_arrival);
        self.queues[queue.0 as usize].last_arrival = arrive_at;
        let shape = KernelShape::of(&desc);
        Ok(self.enqueue_instance(queue, shape, KernelName::Owned(desc.name), tag, arrive_at))
    }

    /// Registers one launched instance and schedules its device arrival.
    fn enqueue_instance(
        &mut self,
        queue: QueueId,
        shape: KernelShape,
        name: KernelName,
        tag: u64,
        arrive_at: SimTime,
    ) -> KernelHandle {
        let mut remaining = match shape.kind {
            KernelKind::Compute { .. } => shape.work,
            KernelKind::MemcpyH2D { bytes } | KernelKind::MemcpyD2H { bytes } => bytes as f64,
        };
        // Injected stragglers / profile drift inflate the *actual* work of
        // compute launches while the driver keeps predicting from the
        // unmodified profile — exactly the mismatch the watchdog must catch.
        if let (Some(f), KernelKind::Compute { .. }) = (&mut self.fault, shape.kind) {
            let app = crate::sim::decode_tag(tag).0 as u32;
            let mult = f.plan.work_multiplier(app);
            if mult != 1.0 {
                remaining *= mult;
                if mult > f.plan.drift_factor(app) {
                    f.counters.stragglers += 1;
                }
            }
        }
        let trace_seq = if self.trace.is_some() {
            let seq = self.next_trace_seq;
            self.next_trace_seq += 1;
            let (app, kernel) = crate::sim::decode_tag(tag);
            let ctx = self.queues[queue.0 as usize].ctx;
            let restricted = matches!(
                self.contexts[ctx.0 as usize].kind,
                CtxKind::MpsAffinity { .. }
            );
            self.trace_emit(TraceEvent::KernelLaunch {
                at: self.now,
                seq,
                app: app as u32,
                kernel: kernel as u32,
                queue: queue.0,
                restricted,
            });
            seq
        } else {
            0
        };
        let inst = Instance {
            shape,
            name,
            queue,
            tag,
            state: InstState::InFlight,
            remaining,
            rate: 0.0,
            alloc_sms: 0.0,
            run_seq: u64::MAX,
            event_epoch: 0,
            generation: 0,
            last_seg: usize::MAX,
            dispatch_ready: None,
            started_at: None,
            finished_at: None,
            trace_seq,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                // The slot keeps its (already bumped) generation so stale
                // handles from the previous occupant stay detectable.
                let generation = self.instances[s].generation;
                self.instances[s] = Instance { generation, ..inst };
                s
            }
            None => {
                debug_assert!(self.instances.len() < u32::MAX as usize);
                self.instances.push(inst);
                self.instances.len() - 1
            }
        };
        self.live_instances += 1;
        self.events.push(arrive_at, DevEv::Arrive { slot });
        Self::handle_for(slot, self.instances[slot].generation)
    }

    /// Packs a slot index and its generation into a handle. Generation 0
    /// handles are numerically equal to their slot index, so recycling-off
    /// behaviour (the default) is unchanged.
    fn handle_for(slot: usize, generation: u32) -> KernelHandle {
        KernelHandle(((generation as u64) << 32) | slot as u64)
    }

    /// Resolves a handle to its instance, or `None` if the slot has since
    /// been recycled (the handle's kernel necessarily completed).
    fn resolve(&self, h: KernelHandle) -> Option<&Instance> {
        let slot = (h.0 & 0xFFFF_FFFF) as usize;
        let generation = (h.0 >> 32) as u32;
        let inst = self.instances.get(slot)?;
        (inst.generation == generation).then_some(inst)
    }

    /// Launches a group of kernels as one unit (a CUDA-graph analogue):
    /// the whole group costs a single host launch overhead and arrives at
    /// the device together, in order.
    ///
    /// This is the mechanism behind §6.10's "launching a sequence of
    /// kernels to the GPU with a single API call".
    pub fn launch_graph(
        &mut self,
        queue: QueueId,
        group: Vec<(KernelDesc, u64)>,
    ) -> Result<Vec<KernelHandle>, GpuError> {
        if queue.0 as usize >= self.queues.len() {
            return Err(GpuError::UnknownQueue(queue));
        }
        if group.is_empty() {
            return Ok(Vec::new());
        }
        self.charge_host(self.costs.kernel_launch);
        let arrive_at = self
            .host_free
            .max(self.queues[queue.0 as usize].last_arrival);
        self.queues[queue.0 as usize].last_arrival = arrive_at;
        let handles = group
            .into_iter()
            .map(|(desc, tag)| {
                let shape = KernelShape::of(&desc);
                self.enqueue_instance(queue, shape, KernelName::Owned(desc.name), tag, arrive_at)
            })
            .collect();
        Ok(handles)
    }

    /// Interns a kernel table: an `Arc` slice of descriptors (typically
    /// one application's profiled kernel sequence) that subsequent
    /// [`Gpu::launch_table`] / [`Gpu::launch_table_graph`] calls reference
    /// by `(table, index)`. Registering costs one `Arc` refcount bump plus
    /// a slot in the table registry; launching from a table then copies
    /// the descriptor's numeric fields and clones nothing.
    ///
    /// # Panics
    ///
    /// Panics if the table holds more than `u32::MAX` descriptors.
    pub fn register_kernel_table(&mut self, table: Arc<[KernelDesc]>) -> KernelTableId {
        assert!(
            u32::try_from(table.len()).is_ok(),
            "a kernel table holds at most u32::MAX descriptors"
        );
        debug_assert!(self.tables.len() < u32::MAX as usize);
        self.tables.push(table);
        KernelTableId((self.tables.len() - 1) as u32)
    }

    /// The descriptors behind a registered table.
    pub fn kernel_table(&self, table: KernelTableId) -> Option<&[KernelDesc]> {
        self.tables.get(table.0 as usize).map(|t| &t[..])
    }

    /// Looks up `table[index]`, or the reason it does not exist.
    fn table_desc(&self, table: KernelTableId, index: usize) -> Result<&KernelDesc, GpuError> {
        self.tables
            .get(table.0 as usize)
            .ok_or(GpuError::InvalidOperation("unknown kernel table"))?
            .get(index)
            .ok_or(GpuError::InvalidOperation("kernel index out of table"))
    }

    /// [`Gpu::launch`] addressing the kernel as `(table, index)`; exact
    /// same host charge and device arrival as the by-value form.
    pub fn launch_table(
        &mut self,
        queue: QueueId,
        table: KernelTableId,
        index: usize,
        tag: u64,
    ) -> Result<KernelHandle, GpuError> {
        self.launch_table_delayed(queue, table, index, tag, SimDuration::ZERO)
    }

    /// [`Gpu::launch_delayed`] addressing the kernel as `(table, index)`.
    pub fn launch_table_delayed(
        &mut self,
        queue: QueueId,
        table: KernelTableId,
        index: usize,
        tag: u64,
        extra: SimDuration,
    ) -> Result<KernelHandle, GpuError> {
        if queue.0 as usize >= self.queues.len() {
            return Err(GpuError::UnknownQueue(queue));
        }
        let shape = KernelShape::of(self.table_desc(table, index)?);
        self.charge_host(self.costs.kernel_launch);
        let arrive_at = (self.host_free + extra).max(self.queues[queue.0 as usize].last_arrival);
        self.queues[queue.0 as usize].last_arrival = arrive_at;
        // Lossless: `table_desc` checked `index < len <= u32::MAX`.
        let name = KernelName::Table(table, index as u32);
        Ok(self.enqueue_instance(queue, shape, name, tag, arrive_at))
    }

    /// [`Gpu::launch_graph`] addressing the group as `table[range]`, with
    /// `tag_for(index)` supplying each kernel's tag. Identical host-charge
    /// and arrival semantics — an empty range costs nothing, a non-empty
    /// one costs a single launch overhead — but builds no group `Vec` and
    /// returns no handle `Vec`, so the steady-state squad feed allocates
    /// nothing.
    pub fn launch_table_graph(
        &mut self,
        queue: QueueId,
        table: KernelTableId,
        range: std::ops::Range<usize>,
        mut tag_for: impl FnMut(usize) -> u64,
    ) -> Result<(), GpuError> {
        if queue.0 as usize >= self.queues.len() {
            return Err(GpuError::UnknownQueue(queue));
        }
        if range.is_empty() {
            return Ok(());
        }
        // Validate the whole range up front so a partial group is never
        // enqueued (matches `launch_graph`, which takes the group whole).
        self.table_desc(table, range.end - 1)?;
        self.charge_host(self.costs.kernel_launch);
        let arrive_at = self
            .host_free
            .max(self.queues[queue.0 as usize].last_arrival);
        self.queues[queue.0 as usize].last_arrival = arrive_at;
        for index in range {
            let shape = KernelShape::of(&self.tables[table.0 as usize][index]);
            let name = KernelName::Table(table, index as u32);
            self.enqueue_instance(queue, shape, name, tag_for(index), arrive_at);
        }
        Ok(())
    }

    /// Posts a notice for the simulation loop (drivers use this to signal
    /// request completions to closed-loop workload clients).
    pub fn post_notice(&mut self, notice: u64) {
        self.notices.push(notice);
    }

    /// Drains all posted notices (called by the simulation loop).
    pub fn drain_notices(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.notices)
    }

    /// Drains all posted notices into `buf` (cleared first). Unlike
    /// [`Gpu::drain_notices`], both the notice buffer and `buf` keep their
    /// capacity, so a caller that reuses `buf` makes the notice path
    /// allocation-free in steady state.
    pub fn drain_notices_into(&mut self, buf: &mut Vec<u64>) {
        buf.clear();
        buf.append(&mut self.notices);
    }

    /// Requests a [`StepOutput::HostWake`] callback at `at`.
    pub fn wake_at(&mut self, at: SimTime, token: u64) {
        self.events
            .push(at.max(self.now), DevEv::HostWake { token });
    }

    /// Requests a wakeup for the instant the host thread becomes free —
    /// i.e. after all previously charged host work completes.
    pub fn wake_when_host_free(&mut self, token: u64) {
        self.wake_at(self.host_free_at(), token);
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Lifecycle state of an instance. A recycled slot's stale handle
    /// reports `Done` (the only state a slot can be recycled from).
    pub fn kernel_state(&self, h: KernelHandle) -> InstState {
        self.resolve(h).map_or(InstState::Done, |i| i.state)
    }

    /// When the instance finished, if it has. `None` for stale handles to
    /// recycled slots (their timestamps were dropped with the slot).
    pub fn kernel_finished_at(&self, h: KernelHandle) -> Option<SimTime> {
        self.resolve(h).and_then(|i| i.finished_at)
    }

    /// When the instance started running, if it has (`None` for stale
    /// handles to recycled slots).
    pub fn kernel_started_at(&self, h: KernelHandle) -> Option<SimTime> {
        self.resolve(h).and_then(|i| i.started_at)
    }

    /// The name of the launched kernel.
    pub fn kernel_name(&self, h: KernelHandle) -> &str {
        self.resolve(h).map_or("<recycled>", |i| match &i.name {
            KernelName::Table(table, index) => &self.tables[table.0 as usize][*index as usize].name,
            KernelName::Owned(name) => name,
        })
    }

    /// Capacity currently devoted to instance bookkeeping (slots in use or
    /// on the free-list); with recycling on this stays bounded by the peak
    /// number of concurrently live kernels.
    pub fn instance_slots(&self) -> usize {
        self.instances.len()
    }

    /// Number of instances that have not yet completed.
    pub fn live_instances(&self) -> usize {
        self.live_instances
    }

    /// True when no kernels are in flight, queued, or running.
    pub fn is_device_idle(&self) -> bool {
        self.live_instances == 0
    }

    /// Total busy SM·seconds accumulated so far (for utilization metrics).
    pub fn busy_sm_seconds(&self) -> f64 {
        self.busy_sm_integral / 1e9
    }

    /// Busy SM·seconds attributed to one queue.
    pub fn queue_busy_sm_seconds(&self, queue: QueueId) -> f64 {
        self.queues[queue.0 as usize].busy_integral / 1e9
    }

    /// Average GPU utilization over `[from, to]` as a fraction of
    /// `num_sms · (to - from)`. Requires `to > from`.
    pub fn utilization(&self, from: SimTime, to: SimTime, busy_start: f64, busy_end: f64) -> f64 {
        let span = to.duration_since(from).as_nanos() as f64;
        if span <= 0.0 {
            return 0.0;
        }
        ((busy_end - busy_start) * 1e9 / (self.spec.num_sms as f64 * span)).clamp(0.0, 1.0)
    }

    /// Earliest pending device event, if any.
    pub fn peek_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    // ------------------------------------------------------------------
    // Engine core
    // ------------------------------------------------------------------

    /// Advances the clock to `t` without processing events at `t`.
    ///
    /// # Panics
    ///
    /// Panics if an event earlier than `t` is pending, or if `t` is in the
    /// past — both indicate a driver/loop bug.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "time cannot go backwards");
        if let Some(et) = self.events.peek_time() {
            assert!(et >= t, "advance_to would skip over a pending event");
        }
        self.settle(t);
        self.now = t;
    }

    /// Processes the next pending event; returns an externally visible
    /// output if the event produced one (stale completion events return
    /// `None`). Returns `None` with no state change when no events remain.
    pub fn step(&mut self) -> Option<StepOutput> {
        let (t, ev) = self.events.pop()?;
        debug_assert!(t >= self.now);
        self.settle(t);
        self.now = t;
        match ev {
            DevEv::Arrive { slot } => {
                if self.instances[slot].state != InstState::InFlight {
                    // The launch was killed in flight by a context crash:
                    // the kernel never reaches its device queue.
                    return None;
                }
                self.instances[slot].state = InstState::Queued;
                let q = self.instances[slot].queue.0 as usize;
                self.queues[q].waiting.push_back(slot);
                // If the kernel queued behind a running head, the running
                // set is unchanged: every rate would recompute to its
                // current value, so the reallocation is skipped entirely.
                if let Some(started) = self.try_start_head(q) {
                    let compute = self.instances[started].shape.kind.is_compute();
                    self.reallocate_scoped(compute, !compute);
                }
                None
            }
            DevEv::Complete { slot, epoch } => {
                if epoch != self.instances[slot].event_epoch
                    || self.instances[slot].state != InstState::Running
                {
                    return None; // Stale prediction.
                }
                // Guard against float residue: if rounding left real work
                // behind, reschedule the completion instead of dropping it
                // (a dropped matching-epoch event would strand the kernel
                // until some unrelated reallocation).
                if self.instances[slot].remaining > 1e-6 {
                    self.push_completion(slot);
                    return None;
                }
                self.finish(slot);
                let inst = &self.instances[slot];
                let out = StepOutput::KernelDone {
                    handle: Self::handle_for(slot, inst.generation),
                    queue: inst.queue,
                    tag: inst.tag,
                };
                if self.recycle_slots {
                    // The completion is being reported right now; after the
                    // driver's callback the slot may be reused. Bump the
                    // generation so the reported handle turns stale.
                    self.instances[slot].generation =
                        self.instances[slot].generation.wrapping_add(1);
                    self.free_slots.push(slot);
                }
                Some(out)
            }
            DevEv::HostWake { token } => Some(StepOutput::HostWake { token }),
            DevEv::Poke => {
                // Pokes only exist for compute dispatch gaps; DMA rates
                // cannot have changed.
                self.reallocate_scoped(true, false);
                None
            }
            DevEv::Crash { app } => {
                self.inject_crash(app);
                Some(StepOutput::ContextCrash { app })
            }
            DevEv::DmaRate { factor, onset } => {
                if self.trace.is_some() {
                    self.trace_emit(TraceEvent::DmaStall {
                        at: self.now,
                        factor,
                        onset,
                    });
                }
                if let Some(f) = &mut self.fault {
                    if onset {
                        f.stall_depth += 1;
                        // Overlapping stalls hold the strongest divisor
                        // until the last window closes.
                        f.dma_slow = f.dma_slow.max(factor);
                        f.counters.dma_stalls += 1;
                    } else {
                        f.stall_depth = f.stall_depth.saturating_sub(1);
                        if f.stall_depth == 0 {
                            f.dma_slow = 1.0;
                        }
                    }
                }
                self.reallocate_scoped(false, true);
                None
            }
        }
    }

    /// Kills every not-yet-done kernel of `app`: in-flight launches never
    /// arrive, queued kernels leave their queues, running kernels stop
    /// making progress. Casualties move to [`InstState::Failed`] and are
    /// reported through [`Gpu::take_failed`]. Failed slots are never
    /// recycled, so their handles and any stale `Arrive` events stay valid.
    fn inject_crash(&mut self, app: u32) {
        let mut touched_queues = Vec::new();
        let mut casualties = 0u32;
        for slot in 0..self.instances.len() {
            let inst = &self.instances[slot];
            if matches!(inst.state, InstState::Done | InstState::Failed) {
                continue;
            }
            if crate::sim::decode_tag(inst.tag).0 as u32 != app {
                continue;
            }
            let state = inst.state;
            let q = inst.queue.0 as usize;
            let inst = &mut self.instances[slot];
            inst.state = InstState::Failed;
            inst.rate = 0.0;
            inst.alloc_sms = 0.0;
            inst.finished_at = None;
            let generation = inst.generation;
            match state {
                InstState::InFlight => {
                    // The pending Arrive event finds the slot Failed and
                    // is dropped there.
                }
                InstState::Queued => {
                    self.queues[q].waiting.retain(|&s| s != slot);
                }
                InstState::Running => {
                    if self.queues[q].running == Some(slot) {
                        self.queues[q].running = None;
                        touched_queues.push(q);
                    }
                }
                InstState::Done | InstState::Failed => unreachable!(),
            }
            self.live_instances -= 1;
            let failed = FailedKernel {
                handle: Self::handle_for(slot, generation),
                queue: QueueId(q as u32),
                tag: self.instances[slot].tag,
            };
            if let Some(f) = &mut self.fault {
                f.failed.push(failed);
                f.counters.kernels_failed += 1;
            }
            casualties += 1;
            if self.trace.is_some() {
                let seq = self.instances[slot].trace_seq;
                if seq != 0 {
                    self.trace_emit(TraceEvent::KernelFailed {
                        at: self.now,
                        seq,
                        queue: q as u32,
                    });
                }
            }
        }
        if let Some(f) = &mut self.fault {
            f.counters.crashes += 1;
        }
        if self.trace.is_some() {
            self.trace_emit(TraceEvent::CrashInjected {
                at: self.now,
                app,
                casualties,
            });
        }
        for q in touched_queues {
            self.try_start_head(q);
        }
        // Survivors inherit the freed SMs / bandwidth immediately.
        self.reallocate_scoped(true, true);
    }

    /// Quiesces the device at the current instant and exports its pending
    /// work as a portable checkpoint: every in-flight, queued, and running
    /// kernel of every tenant is abandoned (reported only through the
    /// returned [`DeviceCheckpoint`], never through [`Gpu::take_failed`])
    /// and all remaining device events are dropped.
    ///
    /// After the call the device is idle and permanently drained — this is
    /// the engine half of a live migration or failure evacuation; the
    /// driver half supplies the request-level checkpoint
    /// (`BlessDriver::export_checkpoint`). Call it after advancing the
    /// engine to the fault barrier (e.g. via [`Gpu::advance_until`]).
    pub fn drain_snapshot(&mut self) -> DeviceCheckpoint {
        let mut abandoned = Vec::new();
        for slot in 0..self.instances.len() {
            let inst = &self.instances[slot];
            if matches!(inst.state, InstState::Done | InstState::Failed) {
                continue;
            }
            let state = inst.state;
            let q = inst.queue.0 as usize;
            let inst = &mut self.instances[slot];
            inst.state = InstState::Failed;
            inst.rate = 0.0;
            inst.alloc_sms = 0.0;
            inst.finished_at = None;
            let generation = inst.generation;
            match state {
                InstState::InFlight => {
                    // The pending Arrive event is dropped with the queue.
                }
                InstState::Queued => {
                    self.queues[q].waiting.retain(|&s| s != slot);
                }
                InstState::Running => {
                    if self.queues[q].running == Some(slot) {
                        self.queues[q].running = None;
                    }
                }
                InstState::Done | InstState::Failed => unreachable!(),
            }
            self.live_instances -= 1;
            if self.trace.is_some() {
                let seq = self.instances[slot].trace_seq;
                if seq != 0 {
                    self.trace_emit(TraceEvent::KernelFailed {
                        at: self.now,
                        seq,
                        queue: q as u32,
                    });
                }
            }
            abandoned.push(FailedKernel {
                handle: Self::handle_for(slot, generation),
                queue: QueueId(q as u32),
                tag: self.instances[slot].tag,
            });
        }
        self.events.clear();
        DeviceCheckpoint {
            at: self.now,
            abandoned,
        }
    }

    /// Runs the device forward until no events remain, discarding outputs.
    /// Useful in tests and for solo-run profiling where the driver does not
    /// react to completions.
    pub fn drain(&mut self) {
        while self.step().is_some() || !self.events.is_empty() {}
    }

    /// Processes every pending event strictly earlier than `limit`,
    /// appending each externally visible output with its timestamp to
    /// `out`. Events at exactly `limit` (or later) stay pending, so a
    /// caller coordinating several engines can stop each one at a common
    /// barrier and interleave deterministically.
    ///
    /// `out` is reused across calls by design (the lane engine's parallel
    /// drain holds one such buffer per lane), keeping the steady-state
    /// path allocation-free once buffers reach their high-water mark.
    pub fn advance_until(&mut self, limit: SimTime, out: &mut Vec<(SimTime, StepOutput)>) {
        while let Some(et) = self.events.peek_time() {
            if et >= limit {
                break;
            }
            if let Some(o) = self.step() {
                out.push((self.now, o));
            }
        }
    }

    /// Runs the device until no events remain, appending every externally
    /// visible output with its timestamp to `out` (a [`Gpu::drain`] that
    /// keeps the outputs; same buffer-reuse contract as
    /// [`Gpu::advance_until`]).
    pub fn drain_outputs_into(&mut self, out: &mut Vec<(SimTime, StepOutput)>) {
        loop {
            match self.step() {
                Some(o) => out.push((self.now, o)),
                None => {
                    if self.events.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    fn finish(&mut self, slot: usize) {
        let inst = &mut self.instances[slot];
        inst.state = InstState::Done;
        inst.remaining = 0.0;
        inst.rate = 0.0;
        inst.alloc_sms = 0.0;
        inst.finished_at = Some(self.now);
        let finished_compute = inst.shape.kind.is_compute();
        let q = inst.queue.0 as usize;
        let seq = inst.trace_seq;
        if self.trace.is_some() && seq != 0 {
            self.trace_emit(TraceEvent::KernelComplete {
                at: self.now,
                seq,
                queue: q as u32,
            });
        }
        self.live_instances -= 1;
        debug_assert_eq!(self.queues[q].running, Some(slot));
        self.queues[q].running = None;
        let started = self.try_start_head(q);
        // Compute allocation depends only on the running compute set, DMA
        // rates only on the per-direction memcpy counts: recompute just the
        // side(s) this transition touched.
        let started_compute = started.map(|s| self.instances[s].shape.kind.is_compute());
        let compute_dirty = finished_compute || started_compute == Some(true);
        let dma_dirty = !finished_compute || started_compute == Some(false);
        self.reallocate_scoped(compute_dirty, dma_dirty);
    }

    fn try_start_head(&mut self, q: usize) -> Option<usize> {
        if self.queues[q].running.is_some() {
            return None;
        }
        let slot = self.queues[q].waiting.pop_front()?;
        self.queues[q].running = Some(slot);
        let inst = &mut self.instances[slot];
        inst.state = InstState::Running;
        inst.run_seq = self.next_run_seq;
        self.next_run_seq += 1;
        inst.started_at = Some(self.now);
        if self.trace.is_some() {
            let seq = self.instances[slot].trace_seq;
            if seq != 0 {
                self.trace_emit(TraceEvent::KernelStart {
                    at: self.now,
                    seq,
                    queue: q as u32,
                });
            }
        }
        Some(slot)
    }

    /// Integrates all running work from `last_settle` to `t` and clamps
    /// remaining work at zero. Records timeline segments and busy
    /// integrals.
    fn settle(&mut self, t: SimTime) {
        if t <= self.last_settle {
            return;
        }
        let dt = t.duration_since(self.last_settle).as_nanos() as f64;
        for q in 0..self.queues.len() {
            let Some(slot) = self.queues[q].running else {
                continue;
            };
            let (rate, alloc, tag, queue, is_compute) = {
                let inst = &self.instances[slot];
                (
                    inst.rate,
                    inst.alloc_sms,
                    inst.tag,
                    inst.queue,
                    inst.shape.kind.is_compute(),
                )
            };
            if rate > 0.0 {
                let inst = &mut self.instances[slot];
                inst.remaining = (inst.remaining - rate * dt).max(0.0);
            }
            if is_compute && alloc > 0.0 {
                let contrib = alloc * dt;
                self.busy_sm_integral += contrib;
                self.queues[q].busy_integral += contrib;
                let generation = self.instances[slot].generation;
                let last = self.instances[slot].last_seg;
                if let Some(tl) = &mut self.timeline {
                    // Coalesce with this instance's previous segment when
                    // it abuts this one and the SM allocation is unchanged:
                    // reallocations that leave a kernel's share untouched
                    // then cost no timeline growth.
                    if last < tl.len() && tl[last].to == self.last_settle && tl[last].sms == alloc {
                        tl[last].to = t;
                    } else {
                        self.instances[slot].last_seg = tl.len();
                        tl.push(TimelineSegment {
                            handle: Self::handle_for(slot, generation),
                            queue,
                            tag,
                            from: self.last_settle,
                            to: t,
                            sms: alloc,
                        });
                    }
                }
            }
        }
        self.last_settle = t;
    }

    /// Scoped reallocation: recomputes compute-side state (SM shares,
    /// interference, rates) only when `do_compute`, and DMA-side state
    /// (per-direction bandwidth shares) only when `do_dma`.
    ///
    /// This is exact, not approximate: compute rates depend only on the set
    /// of running compute kernels (plus contexts/pools), and DMA rates only
    /// on the per-direction memcpy counts. An event that changes one side
    /// leaves every rate on the other side bit-identical, so skipping the
    /// recomputation cannot alter simulation results.
    ///
    /// All intermediate vectors come from `self.scratch` so steady-state
    /// reallocation performs no heap allocation.
    fn reallocate_scoped(&mut self, do_compute: bool, do_dma: bool) {
        // Under a per-resource model with DMA→PCIe coupling, running DMA
        // streams feed the PCIe channel, so a DMA transition can change
        // compute slowdowns: widen the scope. The scalar model (and the
        // decoupled collapse twin, weight 0) keeps the exact narrow
        // scoping, so skipping stays bit-identical there.
        let do_compute = do_compute || (do_dma && self.spec.channel_model.couples_dma_to_compute());
        self.settle(self.now);
        self.epoch += 1;

        // Gather running compute kernels and running memcpys. Memcpy
        // streams are counted unconditionally (integer bump, free): the
        // per-resource PCIe channel needs the count even when the DMA
        // side itself is clean.
        let mut memcpy_streams: u32 = 0;
        let mut compute = std::mem::take(&mut self.scratch.compute);
        let mut h2d = std::mem::take(&mut self.scratch.h2d);
        let mut d2h = std::mem::take(&mut self.scratch.d2h);
        compute.clear();
        h2d.clear();
        d2h.clear();
        for q in &self.queues {
            if let Some(slot) = q.running {
                match self.instances[slot].shape.kind {
                    KernelKind::Compute { .. } => {
                        if do_compute {
                            compute.push(slot);
                        }
                    }
                    KernelKind::MemcpyH2D { .. } => {
                        memcpy_streams += 1;
                        if do_dma {
                            h2d.push(slot);
                        }
                    }
                    KernelKind::MemcpyD2H { .. } => {
                        memcpy_streams += 1;
                        if do_dma {
                            d2h.push(slot);
                        }
                    }
                }
            }
        }

        if do_compute {
            // SM allocation for compute kernels, per the hardware policy.
            // A lone kernel under the greedy policy takes the closed form;
            // the running set, never a setting, picks the path.
            let mut groups = std::mem::take(&mut self.scratch.groups);
            let mut alloc = std::mem::take(&mut self.scratch.alloc);
            match (self.spec.hw_policy, compute.as_slice()) {
                (HwPolicy::GreedySticky, &[slot]) => {
                    alloc.clear();
                    alloc.push(self.lone_sticky_grant(slot));
                }
                (HwPolicy::GreedySticky, _) => {
                    self.ctx_groups_into(&mut groups);
                    self.sticky_allocate(&compute, &groups, &mut alloc);
                }
                (HwPolicy::FairShare, _) => {
                    self.ctx_groups_into(&mut groups);
                    let mut demands = std::mem::take(&mut self.scratch.demands);
                    demands.clear();
                    demands.extend(compute.iter().map(|&slot| {
                        let inst = &self.instances[slot];
                        KernelDemand {
                            id: slot,
                            ctx_group: self.queues[inst.queue.0 as usize].ctx.0 as usize,
                            kernel_cap: inst.shape.max_sms as f64,
                        }
                    }));
                    allocate_sms_into(&mut alloc, &self.pool_capacity, &groups, &demands);
                    self.scratch.demands = demands;
                }
            }

            // Interference: each kernel is slowed by the traffic of its
            // co-runners, proportionally to the co-runners' active SM
            // share and partly to the victim's own demand. Under the
            // scalar model there is one "memory traffic" scalar; under
            // the per-resource model each channel accumulates traffic
            // separately and channels compose by bottleneck max
            // (DESIGN.md §5j). Both paths use fixed-size stack state only.
            match self.spec.channel_model {
                ChannelModel::Scalar => {
                    let total_traffic: f64 = compute
                        .iter()
                        .zip(&alloc)
                        .map(|(&slot, &a)| {
                            self.instances[slot].shape.mem_intensity
                                * (a / self.spec.num_sms as f64)
                        })
                        .sum();

                    for (i, &slot) in compute.iter().enumerate() {
                        let a = alloc[i];
                        let inst = &self.instances[slot];
                        let own = inst.shape.mem_intensity * (a / self.spec.num_sms as f64);
                        let pressure = (total_traffic - own).max(0.0);
                        let sensitivity = self.spec.interference_base
                            + (1.0 - self.spec.interference_base) * inst.shape.mem_intensity;
                        let slowdown = (1.0
                            + self.spec.interference_alpha * pressure * sensitivity)
                            .min(self.spec.interference_cap);
                        let new_rate = if a > 0.0 { a / slowdown } else { 0.0 };
                        self.apply_compute_rate(slot, a, new_rate);
                    }
                }
                ChannelModel::PerResource(params) => {
                    let mut traffic = [0.0f64; NUM_CHANNELS];
                    for (&slot, &a) in compute.iter().zip(&alloc) {
                        let share = a / self.spec.num_sms as f64;
                        let d = &self.instances[slot].shape.demand.0;
                        for (t, dv) in traffic.iter_mut().zip(d) {
                            *t += dv * share;
                        }
                    }
                    // Running DMA streams press on the PCIe channel.
                    if params.dma_pcie_weight > 0.0 && memcpy_streams > 0 {
                        traffic[Channel::Pcie as usize] +=
                            params.dma_pcie_weight * memcpy_streams as f64;
                    }

                    for (i, &slot) in compute.iter().enumerate() {
                        let a = alloc[i];
                        let share = a / self.spec.num_sms as f64;
                        let slowdown =
                            params.slowdown(&self.instances[slot].shape.demand, share, &traffic);
                        let new_rate = if a > 0.0 { a / slowdown } else { 0.0 };
                        self.apply_compute_rate(slot, a, new_rate);
                    }
                }
            }
            self.scratch.groups = groups;
            self.scratch.alloc = alloc;
        }

        if do_dma {
            // DMA engines: equal bandwidth sharing per direction.
            for dir in [&h2d, &d2h] {
                if dir.is_empty() {
                    continue;
                }
                // An active injected DMA stall divides bandwidth; without
                // fault state the divisor is exactly 1.0 (bit-identical).
                let slow = self.fault.as_ref().map_or(1.0, |f| f.dma_slow);
                let per = self.spec.pcie_bytes_per_sec / dir.len() as f64 / 1e9 / slow; // bytes per ns
                for &slot in dir.iter() {
                    let unchanged = (self.instances[slot].rate - per).abs() < 1e-18
                        && self.instances[slot].rate > 0.0;
                    let inst = &mut self.instances[slot];
                    inst.alloc_sms = 0.0;
                    inst.rate = per;
                    if !unchanged {
                        self.push_completion(slot);
                    }
                }
            }
        }

        self.scratch.compute = compute;
        self.scratch.h2d = h2d;
        self.scratch.d2h = d2h;
    }

    /// Commits one compute kernel's allocation and interference-adjusted
    /// rate: reschedules its completion when the rate actually changed
    /// and emits the `SmAlloc` trace event when the allocation moved.
    /// Shared, op-for-op, by both interference models so the scalar path
    /// stays bit-identical to the pre-channel engine.
    fn apply_compute_rate(&mut self, slot: usize, a: f64, new_rate: f64) {
        let unchanged =
            (self.instances[slot].rate - new_rate).abs() < 1e-12 && self.instances[slot].rate > 0.0;
        let inst = &mut self.instances[slot];
        let alloc_changed = inst.alloc_sms != a;
        inst.alloc_sms = a;
        inst.rate = new_rate;
        if !unchanged {
            // Rate changed (or the kernel just started/stalled):
            // reschedule its completion. Kernels whose rate is
            // untouched keep their already-scheduled event.
            self.push_completion(slot);
        }
        if alloc_changed && self.trace.is_some() {
            let seq = self.instances[slot].trace_seq;
            if seq != 0 {
                self.trace_emit(TraceEvent::SmAlloc {
                    at: self.now,
                    seq,
                    sms: a,
                });
            }
        }
    }

    /// Fills `groups` with one [`CtxGroup`] per context, in context order.
    fn ctx_groups_into(&self, groups: &mut Vec<CtxGroup>) {
        groups.clear();
        groups.extend(self.contexts.iter().map(|c| CtxGroup {
            pool: c.pool,
            sm_cap: c.sm_cap(),
        }));
    }

    /// [`Gpu::sticky_allocate`] for exactly one running compute kernel,
    /// in closed form and bit for bit.
    ///
    /// With no co-runner every cross-kernel term of the general path
    /// takes its identity value: `ctx_used` and `pool_used` start at 0,
    /// no other context reserves SMs (the kernel's own finite cap cancels
    /// exactly, `cap - cap == 0.0`), and no contended dispatch gap
    /// applies, so no poke is scheduled. The remaining float expressions
    /// are evaluated in the general path's order.
    fn lone_sticky_grant(&self, slot: usize) -> f64 {
        let inst = &self.instances[slot];
        let ctx = &self.contexts[self.queues[inst.queue.0 as usize].ctx.0 as usize];
        let cap = ctx.sm_cap();
        let pool = self.pool_capacity[ctx.pool];
        let max_sms = inst.shape.max_sms as f64;
        // Phase 1: retain the current allocation, clamped to the caps.
        let keep = inst
            .alloc_sms
            .min(max_sms)
            .min(cap.max(0.0))
            .min(pool.max(0.0));
        // Phase 2: grow into the free SMs.
        let headroom = (cap - keep).min(pool - keep).max(0.0);
        let want = (max_sms - keep).max(0.0);
        let mut grant = want.min(headroom);
        if keep == 0.0 {
            let effective_demand = max_sms.min(cap).min(pool);
            let achievable = pool.clamp(1.0, f64::INFINITY);
            let threshold =
                (effective_demand.min(achievable) * self.spec.dispatch_min_fraction).max(1.0);
            if grant < threshold {
                grant = 0.0;
            }
        }
        keep + grant
    }

    /// Block-granular greedy allocation (the default hardware model):
    ///
    /// 1. Running kernels retain their current SMs (clamped only if a
    ///    context cap was reduced underneath them).
    /// 2. In dispatch order, kernels grow into free SMs up to their own
    ///    parallelism limit and their context's cap (remaining thread
    ///    blocks launching onto freed SMs).
    /// 3. A kernel that has no SMs yet only begins once at least one full
    ///    SM is free — two full-GPU kernels therefore serialize instead of
    ///    fluidly sharing.
    fn sticky_allocate(&mut self, compute: &[usize], groups: &[CtxGroup], alloc: &mut Vec<f64>) {
        let n_pools = self.pool_capacity.len();
        let mut pool_used = std::mem::take(&mut self.scratch.pool_used);
        pool_used.clear();
        pool_used.resize(n_pools, 0.0);
        let mut ctx_used = std::mem::take(&mut self.scratch.ctx_used);
        ctx_used.clear();
        ctx_used.resize(groups.len(), 0.0);

        // Dispatch order: earlier-started kernels have priority.
        let mut order = std::mem::take(&mut self.scratch.order);
        order.clear();
        order.extend(0..compute.len());
        order.sort_by_key(|&i| self.instances[compute[i]].run_seq);

        alloc.clear();
        alloc.resize(compute.len(), 0.0);
        // Phase 1: retain current allocations (clamped to caps).
        for &i in &order {
            let slot = compute[i];
            let inst = &self.instances[slot];
            let ctx = self.queues[inst.queue.0 as usize].ctx.0 as usize;
            let pool = groups[ctx].pool;
            let keep = inst
                .alloc_sms
                .min(inst.shape.max_sms as f64)
                .min((groups[ctx].sm_cap - ctx_used[ctx]).max(0.0))
                .min((self.pool_capacity[pool] - pool_used[pool]).max(0.0));
            alloc[i] = keep;
            ctx_used[ctx] += keep;
            pool_used[pool] += keep;
        }
        // SMs structurally reserved per pool by *other* finite-cap
        // contexts that currently have runnable kernels. SM-affinity caps
        // are visible reservations: a kernel can count on the SMs beyond
        // them, so its block waves launch there immediately. Unrestricted
        // co-runners reserve nothing structurally — they contend for the
        // whole pool, and dispatch-order alternation decides (Fig. 7a).
        let mut ctx_has_runnable = std::mem::take(&mut self.scratch.ctx_runnable);
        ctx_has_runnable.clear();
        ctx_has_runnable.resize(groups.len(), false);
        for &slot in compute {
            let ctx = self.queues[self.instances[slot].queue.0 as usize].ctx.0 as usize;
            ctx_has_runnable[ctx] = true;
        }
        let mut finite_cap_reserved = std::mem::take(&mut self.scratch.reserved);
        finite_cap_reserved.clear();
        finite_cap_reserved.extend((0..self.pool_capacity.len()).map(|pool| {
            groups
                .iter()
                .enumerate()
                .filter(|&(c, g)| g.pool == pool && ctx_has_runnable[c] && g.sm_cap.is_finite())
                .map(|(_, g)| g.sm_cap)
                .sum::<f64>()
        }));

        // Phase 2: grow/start in dispatch order.
        let mut pokes = std::mem::take(&mut self.scratch.pokes);
        pokes.clear();
        for &i in &order {
            let slot = compute[i];
            let inst = &self.instances[slot];
            let ctx = self.queues[inst.queue.0 as usize].ctx.0 as usize;
            let pool = groups[ctx].pool;
            let headroom = (groups[ctx].sm_cap - ctx_used[ctx])
                .min(self.pool_capacity[pool] - pool_used[pool])
                .max(0.0);
            let effective_demand = (inst.shape.max_sms as f64)
                .min(groups[ctx].sm_cap)
                .min(self.pool_capacity[pool]);
            let want = (inst.shape.max_sms as f64 - alloc[i]).max(0.0);
            let mut grant = want.min(headroom);
            if alloc[i] == 0.0 {
                // Wave-granular dispatch: a kernel begins only once the
                // free SMs cover a meaningful fraction of what it could
                // ever achieve given the co-resident caps.
                let others_reserved = if groups[ctx].sm_cap.is_finite() {
                    finite_cap_reserved[pool] - groups[ctx].sm_cap
                } else {
                    finite_cap_reserved[pool]
                };
                let achievable =
                    (self.pool_capacity[pool] - others_reserved).clamp(1.0, f64::INFINITY);
                let threshold =
                    (effective_demand.min(achievable) * self.spec.dispatch_min_fraction).max(1.0);
                if grant < threshold {
                    grant = 0.0;
                }
                // Contended dispatch: a kernel from an unrestricted
                // context sharing the pool with other tenants pays an
                // arbitration gap before it may begin.
                if grant > 0.0
                    && !groups[ctx].sm_cap.is_finite()
                    && !self.spec.contended_dispatch_gap.is_zero()
                {
                    let contended = ctx_has_runnable
                        .iter()
                        .enumerate()
                        .any(|(c, &r)| c != ctx && r && groups[c].pool == pool);
                    if contended {
                        match self.instances[slot].dispatch_ready {
                            Some(ready) if self.now >= ready => {}
                            Some(_) => grant = 0.0,
                            None => {
                                let ready = self.now + self.spec.contended_dispatch_gap;
                                pokes.push(ready);
                                self.instances[slot].dispatch_ready = Some(ready);
                                grant = 0.0;
                            }
                        }
                    }
                }
            }
            alloc[i] += grant;
            ctx_used[ctx] += grant;
            pool_used[pool] += grant;
        }
        for &at in &pokes {
            self.events.push(at, DevEv::Poke);
        }
        self.scratch.pool_used = pool_used;
        self.scratch.ctx_used = ctx_used;
        self.scratch.order = order;
        self.scratch.ctx_runnable = ctx_has_runnable;
        self.scratch.reserved = finite_cap_reserved;
        self.scratch.pokes = pokes;
    }

    fn push_completion(&mut self, slot: usize) {
        self.instances[slot].event_epoch = self.epoch;
        let inst = &self.instances[slot];
        if inst.remaining <= 1e-6 {
            // Already done (e.g. settled to zero just as its allocation
            // was clamped away): complete now regardless of rate.
            self.events.push(
                self.now,
                DevEv::Complete {
                    slot,
                    epoch: self.epoch,
                },
            );
            return;
        }
        if inst.rate <= 0.0 {
            return; // Starved: no completion until the allocation changes.
        }
        let eta_ns = (inst.remaining / inst.rate).ceil().max(0.0);
        let at = self.now + SimDuration::from_nanos(eta_ns as u64);
        self.events.push(
            at,
            DevEv::Complete {
                slot,
                epoch: self.epoch,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_gpu() -> Gpu {
        Gpu::new(GpuSpec::a100(), HostCosts::free())
    }

    fn run_all(gpu: &mut Gpu) -> Vec<(SimTime, KernelHandle)> {
        let mut done = Vec::new();
        while !gpu.events.is_empty() {
            if let Some(StepOutput::KernelDone { handle, .. }) = gpu.step() {
                done.push((gpu.now(), handle));
            }
        }
        done
    }

    #[test]
    fn gpu_is_send() {
        // The lane engine moves per-lane GPUs onto scoped worker threads;
        // this pins the auto-trait so a future `Rc`/raw-pointer field
        // can't silently break it.
        fn assert_send<T: Send>() {}
        assert_send::<Gpu>();
    }

    #[test]
    fn advance_until_stops_at_barrier() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        for i in 0..4u64 {
            let k = KernelDesc::compute("k", SimDuration::from_micros(100), 108, 0.0);
            gpu.launch(q, k, i).unwrap();
        }
        let mut out = Vec::new();
        // Kernels finish at 100/200/300/400 us; events at exactly the
        // barrier stay pending.
        gpu.advance_until(SimTime::from_micros(300), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, SimTime::from_micros(100));
        assert_eq!(out[1].0, SimTime::from_micros(200));
        assert_eq!(gpu.peek_event_time(), Some(SimTime::from_micros(300)));
        gpu.drain_outputs_into(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[3].0, SimTime::from_micros(400));
        assert!(gpu.is_device_idle());
    }

    #[test]
    fn single_kernel_runs_at_full_speed() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let k = KernelDesc::compute("k", SimDuration::from_micros(100), 108, 0.2);
        let h = gpu.launch(q, k, 0).unwrap();
        let done = run_all(&mut gpu);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, h);
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_micros(100)));
        assert!(gpu.is_device_idle());
    }

    #[test]
    fn launch_overhead_delays_arrival() {
        let mut gpu = Gpu::a100(); // 3 us launch overhead
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let k = KernelDesc::compute("k", SimDuration::from_micros(10), 108, 0.0);
        let h = gpu.launch(q, k, 0).unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_micros(13)));
    }

    #[test]
    fn queue_is_in_order() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let a = gpu
            .launch(
                q,
                KernelDesc::compute("a", SimDuration::from_micros(10), 108, 0.0),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q,
                KernelDesc::compute("b", SimDuration::from_micros(5), 108, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        // Same queue: b waits for a even though it is shorter.
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(10)));
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_micros(15)));
    }

    #[test]
    fn greedy_sticky_serializes_full_gpu_kernels() {
        // Fig. 7a's phenomenon: two kernels that each want the whole GPU
        // do NOT share fluidly — the first-dispatched one holds all SMs
        // and the second waits.
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(100), 108, 0.0),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 108, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(100)));
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_micros(200)));
    }

    #[test]
    fn fair_share_policy_splits_sms_evenly() {
        // The idealized ablation policy keeps the old fluid behaviour.
        let mut spec = GpuSpec::a100();
        spec.hw_policy = crate::spec::HwPolicy::FairShare;
        let mut gpu = Gpu::new(spec, HostCosts::free());
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(100), 108, 0.0),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 108, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(200)));
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_micros(200)));
    }

    #[test]
    fn wide_kernels_alternate_in_unrestricted_pool() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        // Both kernels want nearly the whole GPU: the second's wave does
        // not launch on the sliver left by the first (Fig. 7a's poor
        // overlap) — it waits, then runs at full width.
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(100), 100, 0.0),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 100, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(100)));
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_micros(200)));
    }

    #[test]
    fn narrow_kernel_backfills_with_dispatch_gap() {
        let mut gpu = free_gpu();
        // Separate tenants (distinct contexts): cross-context dispatch in
        // the shared pool pays the arbitration gap.
        let ctx1 = gpu.create_context(CtxKind::Default).unwrap();
        let ctx2 = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx1).unwrap();
        let q2 = gpu.create_queue(ctx2).unwrap();
        // a holds 54 SMs; b (108-wide) backfills the free 54 after the
        // contended dispatch gap (4us), then grows when a finishes.
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(100), 54, 0.0),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 108, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(100)));
        // b: 96us at 54 SMs then (10800-5184)/108 = 52us at 108 -> 152us.
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_micros(152)));
    }

    #[test]
    fn finite_caps_are_structural_so_backfill_starts() {
        let mut gpu = free_gpu();
        // One tenant capped at 54 SMs; an unrestricted kernel can count on
        // the other 54 and starts immediately.
        let capped = gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: 54 })
            .unwrap();
        let free_ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(capped).unwrap();
        let q2 = gpu.create_queue(free_ctx).unwrap();
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(50), 108, 0.0),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 108, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        // a (50us x 108 work) at 54 SMs: 100us. b pays the 4us contended
        // dispatch gap, then starts at 54 (the cap is structural) and
        // grows to 108 when a finishes: 96us x 54 + 52us x 108 = work.
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(100)));
        let b_done = gpu.kernel_finished_at(b).unwrap().as_millis_f64() * 1000.0;
        assert!((b_done - 152.0).abs() < 1.0, "b finished at {b_done}us");
    }

    #[test]
    fn mps_affinity_caps_context_usage() {
        let mut gpu = free_gpu();
        let ctx = gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: 27 })
            .unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let h = gpu
            .launch(
                q,
                KernelDesc::compute("k", SimDuration::from_micros(100), 108, 0.0),
                0,
            )
            .unwrap();
        run_all(&mut gpu);
        // 108-SM kernel on 27 SMs: 4x duration.
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_micros(400)));
    }

    #[test]
    fn mps_context_consumes_memory() {
        let mut gpu = free_gpu();
        let before = gpu.memory_used_mib();
        gpu.create_context(CtxKind::MpsAffinity { sm_cap: 54 })
            .unwrap();
        assert_eq!(gpu.memory_used_mib(), before + 230);
    }

    #[test]
    fn mig_partitions_are_hard_isolated() {
        let mut gpu = free_gpu();
        let big = gpu
            .create_context(CtxKind::MigPartition { sm_count: 80 })
            .unwrap();
        let small = gpu
            .create_context(CtxKind::MigPartition { sm_count: 28 })
            .unwrap();
        let qb = gpu.create_queue(big).unwrap();
        let qs = gpu.create_queue(small).unwrap();
        // Even with the small partition idle, the big one cannot exceed 80.
        let h = gpu
            .launch(
                qb,
                KernelDesc::compute("k", SimDuration::from_micros(80), 108, 0.0),
                0,
            )
            .unwrap();
        run_all(&mut gpu);
        // work = 80us * 108 SMs; on 80 SMs -> 108 us.
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_micros(108)));
        // And the small partition still works.
        let h2 = gpu
            .launch(
                qs,
                KernelDesc::compute("k2", SimDuration::from_micros(28), 28, 0.0),
                0,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(
            gpu.kernel_finished_at(h2)
                .unwrap()
                .duration_since(gpu.kernel_started_at(h2).unwrap()),
            SimDuration::from_micros(28)
        );
    }

    #[test]
    fn mig_budget_is_enforced() {
        let mut gpu = free_gpu();
        gpu.create_context(CtxKind::MigPartition { sm_count: 80 })
            .unwrap();
        let err = gpu
            .create_context(CtxKind::MigPartition { sm_count: 60 })
            .unwrap_err();
        assert_eq!(
            err,
            GpuError::MigBudgetExceeded {
                requested_sms: 60,
                available_sms: 28
            }
        );
    }

    #[test]
    fn memcpys_share_pcie_bandwidth() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        // 25 MB at 25 GB/s = 1 ms alone; two concurrent H2Ds share -> 2 ms.
        let a = gpu
            .launch(q1, KernelDesc::memcpy_h2d("a", 25_000_000), 0)
            .unwrap();
        let b = gpu
            .launch(q2, KernelDesc::memcpy_h2d("b", 25_000_000), 1)
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_millis(2)));
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_millis(2)));
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = gpu
            .launch(q1, KernelDesc::memcpy_h2d("a", 25_000_000), 0)
            .unwrap();
        let b = gpu
            .launch(q2, KernelDesc::memcpy_d2h("b", 25_000_000), 1)
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_millis(1)));
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn interference_slows_memory_hungry_pairs() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        // Two half-GPU kernels (54 SMs each): no SM contention, but both
        // memory-intense -> interference extends both beyond 100 us.
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(100), 54, 0.9),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 54, 0.9),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        let fa = gpu.kernel_finished_at(a).unwrap();
        let fb = gpu.kernel_finished_at(b).unwrap();
        // Pin the exact scalar-model value so refactors can't drift it:
        // own traffic = 0.9·(54/108) = 0.45, pressure = 0.45,
        // sensitivity = 0.30 + 0.70·0.9 = 0.93, so the slowdown is
        // 1 + 1.5·0.45·0.93 = 1.62775 and 100 µs stretches to 162 775 ns.
        assert_eq!(fa, SimTime::from_nanos(162_775), "{fa:?}");
        assert_eq!(fb, SimTime::from_nanos(162_775), "{fb:?}");
    }

    #[test]
    fn per_channel_collapse_pins_the_same_slowdown() {
        // Mirror of `interference_slows_memory_hungry_pairs` under the
        // per-resource collapse twin: all demand on the DRAM-BW channel
        // with the matched curve must reproduce 162 775 ns exactly.
        let mut gpu = Gpu::new(
            GpuSpec::a100().collapse_twin(crate::Channel::DramBw),
            HostCosts::free(),
        );
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(100), 54, 0.9),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 54, 0.9),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(
            gpu.kernel_finished_at(a),
            Some(SimTime::from_nanos(162_775))
        );
        assert_eq!(
            gpu.kernel_finished_at(b),
            Some(SimTime::from_nanos(162_775))
        );
    }

    #[test]
    fn disjoint_channels_interfere_only_through_the_base_floor() {
        // Under the per-resource model, kernels pressing on *different*
        // channels only feel each other through the demand-independent
        // base floor — strictly weaker than same-channel contention.
        // This is the decomposition the scalar model cannot express: to
        // it both pairs look identical (mem_intensity 0.9 each).
        let pair = |da: crate::ChannelDemand, db: crate::ChannelDemand| {
            let mut gpu = Gpu::new(GpuSpec::a100_per_resource(), HostCosts::free());
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q1 = gpu.create_queue(ctx).unwrap();
            let q2 = gpu.create_queue(ctx).unwrap();
            let a =
                KernelDesc::compute("a", SimDuration::from_micros(100), 54, 0.9).with_demand(da);
            let b =
                KernelDesc::compute("b", SimDuration::from_micros(100), 54, 0.9).with_demand(db);
            let a = gpu.launch(q1, a, 0).unwrap();
            gpu.launch(q2, b, 1).unwrap();
            run_all(&mut gpu);
            gpu.kernel_finished_at(a).unwrap()
        };
        let on = |ch| crate::ChannelDemand::collapsed(ch, 0.9);
        let same_channel = pair(on(crate::Channel::DramBw), on(crate::Channel::DramBw));
        let cross_channel = pair(on(crate::Channel::L2), on(crate::Channel::DramBw));
        let no_demand = pair(crate::ChannelDemand::ZERO, crate::ChannelDemand::ZERO);
        assert!(
            cross_channel > SimTime::from_micros(100),
            "{cross_channel:?}"
        );
        assert!(
            cross_channel < same_channel,
            "{cross_channel:?} vs {same_channel:?}"
        );
        // Zero demand on every channel -> zero pressure -> exactly no
        // interference.
        assert_eq!(no_demand, SimTime::from_micros(100));
    }

    #[test]
    fn dma_streams_press_on_the_pcie_channel() {
        // A PCIe-hungry compute kernel is slowed by a concurrent DMA
        // stream under the calibrated per-resource model, and untouched
        // by it under the scalar model.
        let kernel = KernelDesc::compute("pcie", SimDuration::from_micros(100), 54, 0.0)
            .with_demand(crate::ChannelDemand::collapsed(crate::Channel::Pcie, 1.0));
        let run = |spec: GpuSpec| {
            let mut gpu = Gpu::new(spec, HostCosts::free());
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q1 = gpu.create_queue(ctx).unwrap();
            let q2 = gpu.create_queue(ctx).unwrap();
            let a = gpu.launch(q1, kernel.clone(), 0).unwrap();
            // 5 MB at 25 GB/s = 200 us: the transfer outlives the kernel.
            gpu.launch(q2, KernelDesc::memcpy_h2d("dma", 5_000_000), 1)
                .unwrap();
            run_all(&mut gpu);
            gpu.kernel_finished_at(a).unwrap()
        };
        let scalar = run(GpuSpec::a100());
        let per_resource = run(GpuSpec::a100_per_resource());
        assert_eq!(scalar, SimTime::from_micros(100));
        assert!(per_resource > scalar, "{per_resource:?}");
    }

    #[test]
    fn zero_mem_intensity_pairs_do_not_interfere() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = gpu
            .launch(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(100), 54, 0.0),
                0,
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(100), 54, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(100)));
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_micros(100)));
    }

    #[test]
    fn host_wake_fires() {
        let mut gpu = free_gpu();
        gpu.wake_at(SimTime::from_millis(5), 42);
        let out = gpu.step().unwrap();
        assert_eq!(out, StepOutput::HostWake { token: 42 });
        assert_eq!(gpu.now(), SimTime::from_millis(5));
    }

    #[test]
    fn utilization_accounting() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        // A 54-SM kernel for 100us: utilization = 0.5 over its run.
        gpu.launch(
            q,
            KernelDesc::compute("k", SimDuration::from_micros(100), 54, 0.0),
            0,
        )
        .unwrap();
        let b0 = gpu.busy_sm_seconds();
        run_all(&mut gpu);
        let b1 = gpu.busy_sm_seconds();
        let util = gpu.utilization(SimTime::ZERO, SimTime::from_micros(100), b0, b1);
        assert!((util - 0.5).abs() < 1e-9, "util = {util}");
    }

    #[test]
    fn timeline_records_segments() {
        let mut gpu = free_gpu();
        gpu.enable_timeline();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        gpu.launch(
            q,
            KernelDesc::compute("k", SimDuration::from_micros(10), 108, 0.0),
            7,
        )
        .unwrap();
        run_all(&mut gpu);
        let tl = gpu.timeline();
        assert!(!tl.is_empty());
        assert_eq!(tl[0].tag, 7);
        let total: f64 = tl
            .iter()
            .map(|s| s.to.duration_since(s.from).as_nanos() as f64)
            .sum();
        assert!((total - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn launch_delayed_stalls_only_its_queue() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = gpu
            .launch_delayed(
                q1,
                KernelDesc::compute("a", SimDuration::from_micros(10), 54, 0.0),
                0,
                SimDuration::from_micros(50),
            )
            .unwrap();
        let b = gpu
            .launch(
                q2,
                KernelDesc::compute("b", SimDuration::from_micros(10), 54, 0.0),
                1,
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(b), Some(SimTime::from_micros(10)));
        assert_eq!(gpu.kernel_finished_at(a), Some(SimTime::from_micros(60)));
    }

    #[test]
    fn starved_context_makes_no_progress_until_cap_raised() {
        let mut gpu = free_gpu();
        let ctx = gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: 1 })
            .unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let h = gpu
            .launch(
                q,
                KernelDesc::compute("k", SimDuration::from_micros(108), 108, 0.0),
                0,
            )
            .unwrap();
        // Advance some; then raise the cap to full and let it finish.
        while gpu.peek_event_time() == Some(SimTime::ZERO) {
            gpu.step();
        }
        gpu.advance_to(SimTime::from_micros(100));
        gpu.set_mps_cap(ctx, 108).unwrap();
        run_all(&mut gpu);
        let fin = gpu.kernel_finished_at(h).unwrap();
        // 100us at 1 SM did 100 SM·us of the 108*108 total; remaining at
        // 108 SMs takes (108*108-100)/108 us ~ 107.07us -> ~207.07us total.
        let expect_us = 100.0 + (108.0 * 108.0 - 100.0) / 108.0;
        assert!(
            (fin.as_millis_f64() * 1000.0 - expect_us).abs() < 0.1,
            "{fin:?}"
        );
    }

    #[test]
    fn launch_graph_costs_one_launch_overhead() {
        let mut gpu = Gpu::a100(); // 3 us per launch
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let group: Vec<(KernelDesc, u64)> = (0..5)
            .map(|i| {
                (
                    KernelDesc::compute(format!("g{i}"), SimDuration::from_micros(10), 108, 0.0),
                    i,
                )
            })
            .collect();
        let handles = gpu.launch_graph(q, group).unwrap();
        run_all(&mut gpu);
        // One 3 us launch + 5 x 10 us sequential kernels = 53 us, instead
        // of 5 launches costing 15 us of host time.
        assert_eq!(
            gpu.kernel_finished_at(*handles.last().unwrap()),
            Some(SimTime::from_micros(53))
        );
        assert!(gpu.launch_graph(q, Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn oom_is_reported() {
        let mut gpu = free_gpu();
        gpu.alloc_memory(40 * 1024 - 100).unwrap();
        let err = gpu.alloc_memory(200).unwrap_err();
        assert_eq!(
            err,
            GpuError::OutOfMemory {
                requested_mib: 200,
                available_mib: 100
            }
        );
        gpu.free_memory(40 * 1024 - 100);
        assert_eq!(gpu.memory_used_mib(), 0);
    }

    #[test]
    fn errors_display_cleanly() {
        let e = GpuError::UnknownQueue(QueueId(3));
        assert!(format!("{e}").contains("unknown queue"));
        let e = GpuError::InvalidOperation("nope");
        assert!(format!("{e}").contains("nope"));
    }

    #[test]
    fn slot_recycling_bounds_instance_storage() {
        let mut gpu = free_gpu();
        gpu.set_slot_recycling(true);
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        for i in 0..1000u64 {
            let h = gpu
                .launch(
                    q,
                    KernelDesc::compute("k", SimDuration::from_micros(1), 108, 0.0),
                    i,
                )
                .unwrap();
            let done = run_all(&mut gpu);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1, h, "completion reports the launch handle");
        }
        // 1000 sequential kernels reuse a handful of slots instead of
        // growing the instance table linearly.
        assert!(
            gpu.instance_slots() < 10,
            "expected slot reuse, got {} slots",
            gpu.instance_slots()
        );
    }

    #[test]
    fn recycled_handles_turn_stale_not_aliased() {
        let mut gpu = free_gpu();
        gpu.set_slot_recycling(true);
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let k = || KernelDesc::compute("k", SimDuration::from_micros(1), 108, 0.0);
        let first = gpu.launch(q, k(), 0).unwrap();
        run_all(&mut gpu);
        let second = gpu.launch(q, k(), 1).unwrap();
        // The slot is reused but the generation differs: the old handle
        // must not observe the new occupant.
        assert_ne!(first, second);
        assert_eq!(gpu.kernel_state(first), InstState::Done);
        assert_eq!(gpu.kernel_started_at(first), None);
        assert_eq!(gpu.kernel_finished_at(first), None);
        assert_eq!(gpu.kernel_name(first), "<recycled>");
        run_all(&mut gpu);
        assert!(gpu.is_device_idle());
    }

    #[test]
    fn recycling_off_preserves_handle_queries() {
        // The profiler path relies on querying every handle after drain().
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let k = || KernelDesc::compute("k", SimDuration::from_micros(1), 108, 0.0);
        let handles: Vec<_> = (0..5).map(|i| gpu.launch(q, k(), i).unwrap()).collect();
        gpu.drain();
        for h in handles {
            assert!(gpu.kernel_finished_at(h).is_some());
        }
        assert_eq!(gpu.instance_slots(), 5);
    }

    #[test]
    fn timeline_coalesces_unchanged_allocations() {
        // Two capped kernels on separate contexts: B's arrival settles A
        // mid-flight, but A's SM share is unchanged, so A's timeline stays
        // a single segment instead of splitting at the boundary.
        let mut gpu = free_gpu();
        gpu.enable_timeline();
        let ca = gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: 54 })
            .unwrap();
        let cb = gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: 54 })
            .unwrap();
        let qa = gpu.create_queue(ca).unwrap();
        let qb = gpu.create_queue(cb).unwrap();
        let a = gpu
            .launch(
                qa,
                KernelDesc::compute("a", SimDuration::from_micros(100), 54, 0.0),
                0,
            )
            .unwrap();
        gpu.step(); // A arrives and starts.
        gpu.advance_to(SimTime::from_micros(10));
        gpu.launch(
            qb,
            KernelDesc::compute("b", SimDuration::from_micros(50), 54, 0.0),
            1,
        )
        .unwrap();
        run_all(&mut gpu);
        let a_segs: Vec<_> = gpu.timeline().iter().filter(|s| s.handle == a).collect();
        assert_eq!(
            a_segs.len(),
            1,
            "abutting equal-allocation segments must merge: {a_segs:?}"
        );
        assert_eq!(a_segs[0].sms, 54.0);
        assert_eq!(
            a_segs[0].to.duration_since(a_segs[0].from),
            SimDuration::from_micros(100)
        );
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use crate::sim::encode_tag;
    use sim_core::{FaultPlan, FaultSpec};

    #[test]
    fn none_plan_stores_no_fault_state() {
        let mut gpu = free_gpu();
        gpu.set_fault_plan(FaultPlan::none());
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let h = gpu
            .launch(
                q,
                KernelDesc::compute("k", SimDuration::from_micros(100), 108, 0.2),
                encode_tag(0, 0),
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_micros(100)));
        assert_eq!(gpu.fault_counters(), FaultCounters::default());
        assert!(gpu.take_failed().is_empty());
    }

    #[test]
    fn straggler_multiplies_kernel_duration() {
        let mut gpu = free_gpu();
        let spec = FaultSpec {
            num_apps: 1,
            straggler_prob: 1.0,
            straggler_factor: 2.0,
            ..FaultSpec::default()
        };
        gpu.set_fault_plan(FaultPlan::build(42, &spec));
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let h = gpu
            .launch(
                q,
                KernelDesc::compute("k", SimDuration::from_micros(100), 108, 0.0),
                encode_tag(0, 0),
            )
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_micros(200)));
        assert_eq!(gpu.fault_counters().stragglers, 1);
    }

    #[test]
    fn drift_inflates_every_launch_of_the_app() {
        let mut gpu = free_gpu();
        let spec = FaultSpec {
            num_apps: 1,
            drift_prob: 1.0,
            drift_range: (1.5, 1.5),
            ..FaultSpec::default()
        };
        gpu.set_fault_plan(FaultPlan::build(0, &spec));
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        for k in 0..3u64 {
            let h = gpu
                .launch(
                    q,
                    KernelDesc::compute("k", SimDuration::from_micros(100), 108, 0.0),
                    encode_tag(0, k as usize),
                )
                .unwrap();
            run_all(&mut gpu);
            let took = gpu
                .kernel_finished_at(h)
                .unwrap()
                .duration_since(gpu.kernel_started_at(h).unwrap());
            assert_eq!(took, SimDuration::from_micros(150));
        }
        // Drift alone is systematic mis-prediction, not a straggler.
        assert_eq!(gpu.fault_counters().stragglers, 0);
    }

    #[test]
    fn context_crash_kills_victim_and_spares_others() {
        let mut gpu = free_gpu();
        let spec = FaultSpec {
            num_apps: 2,
            crash_count: 1,
            crash_window: (SimTime::from_micros(50), SimTime::from_micros(50)),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::build(9, &spec);
        let victim = plan.crashes()[0].app;
        let other = 1 - victim;
        gpu.set_fault_plan(plan);
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let qv = gpu.create_queue(ctx).unwrap();
        let qo = gpu.create_queue(ctx).unwrap();
        // Victim: one running + one queued kernel at crash time.
        let k = |us| KernelDesc::compute("k", SimDuration::from_micros(us), 54, 0.0);
        let v1 = gpu
            .launch(qv, k(100), encode_tag(victim as usize, 0))
            .unwrap();
        let v2 = gpu
            .launch(qv, k(100), encode_tag(victim as usize, 1))
            .unwrap();
        let o1 = gpu
            .launch(qo, k(100), encode_tag(other as usize, 0))
            .unwrap();
        let mut crash_seen = None;
        while !gpu.events.is_empty() {
            if let Some(StepOutput::ContextCrash { app }) = gpu.step() {
                crash_seen = Some((app, gpu.now(), gpu.take_failed()));
            }
        }
        let (app, at, failed) = crash_seen.expect("crash must fire");
        assert_eq!(app, victim);
        assert_eq!(at, SimTime::from_micros(50));
        assert_eq!(failed.len(), 2);
        assert!(failed.iter().all(|f| f.queue == qv));
        assert_eq!(gpu.kernel_state(v1), InstState::Failed);
        assert_eq!(gpu.kernel_state(v2), InstState::Failed);
        assert_eq!(gpu.kernel_state(o1), InstState::Done);
        assert_eq!(gpu.kernel_finished_at(o1), Some(SimTime::from_micros(100)));
        let c = gpu.fault_counters();
        assert_eq!((c.crashes, c.kernels_failed), (1, 2));
        assert!(gpu.is_device_idle());
        // Failed kernels can be re-submitted and then complete normally.
        let retry = gpu
            .launch(qv, k(100), encode_tag(victim as usize, 0))
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_state(retry), InstState::Done);
    }

    #[test]
    fn crash_kills_in_flight_launches_before_arrival() {
        let mut gpu = Gpu::a100(); // 3 us launch overhead keeps it in flight
        let spec = FaultSpec {
            num_apps: 1,
            crash_count: 1,
            crash_window: (SimTime::from_nanos(1), SimTime::from_nanos(1)),
            ..FaultSpec::default()
        };
        gpu.set_fault_plan(FaultPlan::build(0, &spec));
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let h = gpu
            .launch(
                q,
                KernelDesc::compute("k", SimDuration::from_micros(10), 108, 0.0),
                encode_tag(0, 0),
            )
            .unwrap();
        run_all(&mut gpu);
        // Crash at 1 ns < 3 us arrival: the launch never reaches its queue.
        assert_eq!(gpu.kernel_state(h), InstState::Failed);
        assert_eq!(gpu.fault_counters().kernels_failed, 1);
        assert!(gpu.is_device_idle());
    }

    #[test]
    fn dma_stall_divides_copy_bandwidth() {
        let mut gpu = free_gpu();
        let spec = FaultSpec {
            num_apps: 1,
            dma_stall_count: 1,
            dma_stall_window: (SimTime::ZERO, SimTime::from_nanos(1)),
            dma_stall_len: SimDuration::from_millis(10),
            dma_slow_factor: 4.0,
            ..FaultSpec::default()
        };
        gpu.set_fault_plan(FaultPlan::build(5, &spec));
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        // 25 MB at 25 GB/s = 1 ms alone; divided by 4 -> 4 ms.
        let h = gpu
            .launch(q, KernelDesc::memcpy_h2d("c", 25_000_000), encode_tag(0, 0))
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_millis(4)));
        assert_eq!(gpu.fault_counters().dma_stalls, 1);
    }

    #[test]
    fn dma_bandwidth_recovers_after_stall() {
        let mut gpu = free_gpu();
        let spec = FaultSpec {
            num_apps: 1,
            dma_stall_count: 1,
            dma_stall_window: (SimTime::ZERO, SimTime::from_nanos(1)),
            dma_stall_len: SimDuration::from_micros(500),
            dma_slow_factor: 2.0,
            ..FaultSpec::default()
        };
        gpu.set_fault_plan(FaultPlan::build(5, &spec));
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        // 1 ms of copy: 500 us at half speed moves 250 us' worth, the
        // remaining 750 us' worth at full speed -> 1.25 ms total.
        let h = gpu
            .launch(q, KernelDesc::memcpy_h2d("c", 25_000_000), encode_tag(0, 0))
            .unwrap();
        run_all(&mut gpu);
        assert_eq!(gpu.kernel_finished_at(h), Some(SimTime::from_micros(1250)));
    }

    // ------------------------------------------------------------------
    // Lone-kernel allocation and descriptor-free instances
    // ------------------------------------------------------------------

    /// The closed form must equal `sticky_allocate` bit for bit on every
    /// single-kernel state: Default, MPS-capped and MIG contexts, a
    /// shared pool shrunk (even emptied) by MIG reservations, kept
    /// allocations above a lowered cap, and dispatch fractions around 1
    /// where a fresh kernel's grant meets its start threshold.
    #[test]
    fn lone_sticky_grant_matches_general_path() {
        let mut rng = sim_core::SimRng::new(0x10E_6A47);
        let mut zero_grants = 0;
        for case in 0..4_000 {
            let mut spec = GpuSpec::a100();
            let n = spec.num_sms;
            // MIG slices may take all device memory; MPS contexts then
            // still fit.
            spec.mps_context_mib = 0;
            spec.dispatch_min_fraction = match rng.next_below(4) {
                0 => rng.next_f64(),
                1 => 1.0,
                2 => 1.0 + (rng.next_f64() - 0.5) * 1e-12,
                _ => rng.uniform(0.9, 1.1),
            };
            let mut gpu = Gpu::new(spec, HostCosts::free());
            let mut reserved = 0;
            for _ in 0..rng.next_below(3) {
                let sms = match rng.next_below(4) {
                    0 => n - reserved, // Empties the shared pool.
                    _ => rng.range_inclusive(1, 3 * n as u64 / 4) as u32,
                };
                if sms > 0 && reserved + sms <= n {
                    reserved += sms;
                    gpu.create_context(CtxKind::MigPartition { sm_count: sms })
                        .unwrap();
                }
            }
            let kind = match rng.next_below(3) {
                0 => CtxKind::Default,
                1 => CtxKind::MpsAffinity {
                    sm_cap: rng.range_inclusive(1, n as u64) as u32,
                },
                _ if reserved < n => CtxKind::MigPartition {
                    sm_count: rng.range_inclusive(1, (n - reserved) as u64) as u32,
                },
                _ => CtxKind::Default,
            };
            let ctx = gpu.create_context(kind).unwrap();
            let q = gpu.create_queue(ctx).unwrap();
            let max_sms = rng.range_inclusive(1, n as u64 + 20) as u32;
            let k = KernelDesc::compute("k", SimDuration::from_micros(50), max_sms, 0.3);
            let slot = gpu.launch(q, k, 0).unwrap().0 as usize;
            gpu.step(); // Arrive: the kernel starts running.
            assert_eq!(gpu.instances[slot].state, InstState::Running);
            if let CtxKind::MpsAffinity { .. } = kind {
                if rng.next_below(2) == 0 {
                    // A cap change under the running kernel.
                    let cap = rng.range_inclusive(1, n as u64) as u32;
                    gpu.set_mps_cap(ctx, cap).unwrap();
                }
            }
            gpu.instances[slot].alloc_sms = match rng.next_below(3) {
                0 => 0.0,
                1 => rng.range_inclusive(1, n as u64 + 20) as f64,
                _ => rng.uniform(0.0, n as f64 + 20.0),
            };

            let lone = gpu.lone_sticky_grant(slot);
            let mut groups = Vec::new();
            gpu.ctx_groups_into(&mut groups);
            let events = gpu.events.len();
            let ready = gpu.instances[slot].dispatch_ready;
            let mut alloc = Vec::new();
            gpu.sticky_allocate(&[slot], &groups, &mut alloc);
            assert_eq!(
                (alloc.len(), alloc[0].to_bits()),
                (1, lone.to_bits()),
                "case {case}: general {} vs closed form {lone}",
                alloc[0]
            );
            // The general path scheduled no dispatch-gap poke either.
            assert_eq!(gpu.events.len(), events, "case {case}");
            assert_eq!(gpu.instances[slot].dispatch_ready, ready, "case {case}");
            zero_grants += usize::from(lone == 0.0);
        }
        // The generator reaches the start threshold's refusal branch.
        assert!(zero_grants > 100, "only {zero_grants} refused starts");
    }

    #[test]
    fn kernel_name_is_the_same_for_table_and_by_value_launches() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let descs: Arc<[KernelDesc]> = Arc::from(vec![
            KernelDesc::compute("conv2d_3", SimDuration::from_micros(10), 54, 0.2),
            KernelDesc::memcpy_d2h("logits", 4096),
        ]);
        let table = gpu.register_kernel_table(descs.clone());
        for (i, desc) in descs.iter().enumerate() {
            let by_table = gpu.launch_table(q, table, i, 0).unwrap();
            let by_value = gpu.launch(q, desc.clone(), 0).unwrap();
            assert_eq!(gpu.kernel_name(by_table), &*desc.name);
            assert_eq!(gpu.kernel_name(by_value), &*desc.name);
        }
        gpu.launch_table_graph(q, table, 0..2, |_| 0).unwrap();
        let graph = gpu.launch_graph(q, descs.iter().map(|d| (d.clone(), 0)).collect());
        for (i, h) in graph.unwrap().into_iter().enumerate() {
            // Recycling is off, so handles are slot indices: the table
            // graph took the two slots just before this one.
            let from_table = KernelHandle(h.0 - 2);
            assert_eq!(gpu.kernel_name(h), gpu.kernel_name(from_table));
            assert_eq!(gpu.kernel_name(h), &*descs[i].name);
        }
    }
}
