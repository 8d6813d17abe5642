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
//! work and new progress rate. A running head holds one completion key,
//! overwritten in place when its rate changes, so no prediction goes stale.
//! Memcpy kernels run the same way on the two PCIe DMA engines (one per
//! direction), sharing bandwidth equally.
//!
//! Host-side behaviour is modelled with a single host timeline
//! (`host_free`): launching a kernel occupies the host for the launch
//! overhead and the kernel only reaches its device queue afterwards, which
//! reproduces both the paper's 3 µs launch gap at squad start and the
//! "overspending" hazard of §6.9 (a scheduler that spends more host time
//! per kernel than the kernels' device time starves the GPU).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use sim_core::time::ceil_ns;
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

/// Handle of one launched kernel: its launch number on the device, counted
/// from 0 in launch order (launch programs and the closed form included).
/// It names the same kernel whatever instance slot the kernel occupies, and
/// no two launches share one; a kernel's completion
/// ([`StepOutput::KernelDone`]) or crash ([`FailedKernel`]) reports it.
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
    /// A run to idle ([`Gpu::drain`]) popped its whole event budget and
    /// events were still pending.
    EventBudgetExhausted {
        /// The budget, in events popped.
        events: u64,
        /// Slot and queue of the kernel the next pending event belongs
        /// to, if it is a kernel's: one whose completion keeps coming back
        /// is stuck.
        stuck: Option<(usize, QueueId)>,
    },
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
            GpuError::EventBudgetExhausted { events, stuck } => {
                write!(f, "device still busy after {events} events")?;
                match stuck {
                    Some((slot, queue)) => write!(
                        f,
                        ": the kernel in slot {slot} on queue {} does not finish",
                        queue.0
                    ),
                    None => write!(f, ": the next event is not a kernel's"),
                }
            }
        }
    }
}

impl std::error::Error for GpuError {}

/// Lifecycle state of a kernel instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InstState {
    /// Launched on the host; in flight to the device.
    InFlight,
    /// In its device queue, waiting to reach the head.
    Queued,
    /// Executing (possibly at rate 0 if starved of SMs).
    Running,
    /// Finished; its slot is on the free list.
    Done,
    /// Killed by an injected context crash before completing; the host must
    /// re-submit it (reported through [`Gpu::take_failed_into`]).
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
    /// Instances behind the head (the head itself is `running`), in launch
    /// order: those that reached the device (`Queued`), then those still
    /// in flight (`InFlight`). A launch joins the back at once, whether or
    /// not its arrival has been accounted yet (see [`Gpu::unposted`]).
    waiting: VecDeque<usize>,
    /// Slot index of the currently running head, if any.
    running: Option<usize>,
    /// Device arrival time of the last submitted kernel. CUDA streams are
    /// FIFO in *submission* order, so later submissions may never arrive
    /// before earlier ones even when an extra delay (context-switch
    /// vacuum) was applied to an earlier launch.
    last_arrival: SimTime,
}

/// One phase of in-order kernels that the engine launches into a queue
/// itself, a unit at a time, as completions open the launch window.
///
/// The caller launches the phase's first window and then installs the
/// rest, so every launch the engine makes is a plain refill: the one the
/// caller's completion callback would have made, at the same point of the
/// same step. While a program is installed on a queue, every kernel that
/// completes there counts as one of its kernels, so nothing else may be
/// launched into that queue until the program ends or is cancelled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchProgram {
    /// The registered table the kernels come from.
    pub table: KernelTableId,
    /// Table indices still to launch, in order.
    pub range: Range<usize>,
    /// Program kernels the caller already launched into the queue that
    /// have not completed yet (at least one).
    pub in_flight: usize,
    /// A unit launches only while fewer than this many program kernels
    /// are in flight.
    pub window: usize,
    /// Kernels per launch unit: one host launch for up to `graph`
    /// consecutive kernels (a CUDA-graph analogue), clipped at the range
    /// end.
    pub graph: usize,
    /// Application index for the launch tags: table index `k` launches
    /// with tag [`crate::sim::encode_tag`]`(app, k)`.
    pub app: usize,
}

/// What a launch program did since it was installed, returned by
/// [`Gpu::cancel_program`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramProgress {
    /// Kernels the engine launched for the program (the caller's first
    /// window not included).
    pub launched: usize,
    /// Program kernels that completed, the caller's first window
    /// included. Each completed without a [`StepOutput::KernelDone`].
    pub completed: usize,
}

/// An installed [`LaunchProgram`] and its progress.
#[derive(Clone, Debug)]
struct Program {
    /// `range.start` advances as units launch; `in_flight` tracks
    /// launches minus completions.
    spec: LaunchProgram,
    progress: ProgramProgress,
    /// A context crash killed the program's kernels: it launches nothing
    /// more and claims no completion, but its progress stays readable
    /// until [`Gpu::cancel_program`] takes it.
    stopped: bool,
}

impl Program {
    /// Counts one completion on the program's queue. Returns whether it is
    /// silent: a live program's kernel other than its last one.
    fn count_completion(&mut self) -> bool {
        if self.stopped || self.spec.in_flight == 0 {
            return false;
        }
        self.spec.in_flight -= 1;
        self.progress.completed += 1;
        self.spec.in_flight > 0 || !self.spec.range.is_empty()
    }
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
    /// The work a launch starts with: SM·ns for compute, bytes for a
    /// memcpy.
    fn initial_work(&self) -> f64 {
        match self.kind {
            KernelKind::Compute { .. } => self.work,
            KernelKind::MemcpyH2D { bytes } | KernelKind::MemcpyD2H { bytes } => bytes as f64,
        }
    }

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

#[derive(Debug)]
struct Instance {
    shape: KernelShape,
    queue: QueueId,
    tag: u64,
    state: InstState,
    /// Remaining work on the [`GRID`]: in 2^-16 SM·ns for compute, in
    /// 2^-16 bytes for memcpy.
    remaining: u64,
    /// Current progress rate on the [`GRID`]: in 2^-16 SM (SM·ns per ns)
    /// for compute, in 2^-16 bytes per ns for memcpy.
    rate: u64,
    /// Current SM allocation on the [`GRID`] (compute only; 0 for a
    /// memcpy).
    alloc: u64,
    /// Dispatch order among running kernels (greedy-sticky priority).
    run_seq: u64,
    /// Launch order, and the kernel's [`KernelHandle`]; crash and drain
    /// casualties are taken in it, so they never depend on which slot
    /// recycling placed a kernel in.
    launch_seq: u64,
    /// Reserved event key `(at, seq)` of an arrival not yet accounted
    /// for: neither posted to the event queue nor replayed from
    /// [`Gpu::unposted`]. `None` once either happened, or when the
    /// arrival was posted at launch.
    unposted_arrival: Option<(SimTime, u64)>,
    /// Earliest instant the kernel may begin when paying the contended
    /// dispatch gap (unrestricted context with co-resident tenants).
    /// Set once: a kernel never pays the arbitration gap twice.
    dispatch_ready: Option<SimTime>,
    /// When the kernel started running, reported with its completion;
    /// meaningless before it starts.
    started: SimTime,
}

impl Instance {
    /// A kernel just launched: in flight, `remaining` work to do (on the
    /// [`GRID`]), its arrival not yet accounted for.
    fn launched(
        shape: KernelShape,
        queue: QueueId,
        tag: u64,
        remaining: u64,
        launch_seq: u64,
    ) -> Self {
        Instance {
            shape,
            queue,
            tag,
            state: InstState::InFlight,
            remaining,
            rate: 0,
            alloc: 0,
            run_seq: u64::MAX,
            launch_seq,
            unposted_arrival: None,
            dispatch_ready: None,
            started: SimTime::ZERO,
        }
    }

    /// The SMs the kernel holds.
    #[inline]
    fn alloc_sms(&self) -> f64 {
        self.alloc as f64 / GRID
    }

    /// True until the kernel completes or is killed.
    fn is_live(&self) -> bool {
        !matches!(self.state, InstState::Done | InstState::Failed)
    }
}

/// One kernel of the queue a closed-form stretch advances (see
/// [`Gpu::closed_stretch`]), in launch order behind the running head.
#[derive(Clone, Copy, Debug)]
struct ChainKernel {
    slot: usize,
    /// The table index of a kernel the closed form launched, whose
    /// instance is written only if it is still live when the stretch
    /// ends; `None` for a kernel whose instance already exists.
    index: Option<usize>,
    launch_seq: u64,
    /// The arrival's event key: the kernel may start at a completion
    /// keyed after it. `(ZERO, 0)` for a kernel already `Queued`,
    /// `(MAX, MAX)` for one whose `Arrive` is posted (it never starts
    /// inside the closed form).
    arrival: (SimTime, u64),
    /// Work on the [`GRID`].
    work: u64,
    max_sms: u32,
    compute: bool,
}

impl ChainKernel {
    /// Program kernel `index`, with descriptor `desc`, launched by the
    /// stretch itself into `slot`, arriving at `arrival`.
    fn launched(
        desc: &KernelDesc,
        index: usize,
        slot: usize,
        launch_seq: u64,
        arrival: (SimTime, u64),
    ) -> Self {
        ChainKernel {
            slot,
            index: Some(index),
            launch_seq,
            arrival,
            work: to_grid(desc.work),
            max_sms: desc.max_sms,
            compute: desc.kind.is_compute(),
        }
    }
}

/// The running head of a closed-form stretch and what the stretch did so
/// far (see [`Gpu::closed_stretch`]).
struct Stretch {
    /// The head's slot, grant (on the [`GRID`]), start and completion
    /// key.
    slot: usize,
    alloc: u64,
    started: SimTime,
    key: (SimTime, u64),
    /// The kernel the stretch started last, with its `run_seq`.
    started_kernel: Option<(ChainKernel, u64)>,
    /// The key of the last completion processed.
    last: (SimTime, u64),
    /// The device's busy integral (see [`Gpu::busy_sm_integral`]).
    busy: u128,
    /// The program's next table index, its end and its kernels in flight.
    next: usize,
    end: usize,
    in_flight: usize,
    launched: usize,
    completed: usize,
}

/// The most jump tables a device keeps (see [`Gpu::jump_table`]).
const JUMP_TABLES: usize = 16;

/// One kernel table's lone-chain prefix sums under one context cap and
/// pool capacity (see [`Gpu::jump`]).
struct JumpTable {
    /// The table, then `cap.min(pool)` and `pool` as bits: every input of
    /// [`Gpu::lone_grant`] for a fresh kernel but its `max_sms`.
    key: (KernelTableId, u64, u64),
    /// `lone_grant(.., m, 0.0)` on the [`GRID`] for `m` in
    /// `0..=num_sms`; a wider kernel gets the last entry, as no pool
    /// exceeds `num_sms`.
    grants: Vec<u64>,
    /// `prefix[i]` sums kernels `b + 1..i`, `b` the last break before `i`
    /// (or `-1`), so two entries with no break between them differ by the
    /// sums over the kernels between them.
    prefix: Vec<JumpPrefix>,
    /// The kernels that break a jump, ascending: those [`jump_eta`]
    /// rejects, and those that would carry a sum past its type's range.
    breaks: Vec<usize>,
}

/// Sums over a run of a kernel table's kernels (see [`JumpTable`]).
#[derive(Clone, Copy, Debug, Default)]
struct JumpPrefix {
    /// Σ eta_i: the whole ns each kernel runs alone.
    eta: u32,
    /// Σ g_i · eta_i: the busy integral each kernel adds, on the
    /// [`GRID`].
    busy: u64,
}

/// Grid points per unit: remaining work, rates, allocations and the busy
/// integral are integers in 2^-16 SM·ns, SM or byte (per ns). A settle
/// subtracts `rate · dt` and adds `alloc · dt` exactly, so splitting an
/// interval at any instant leaves the same state, and a completion keyed
/// at `now + ceil(remaining / rate)` finds no work left.
const GRID: f64 = 65_536.0;

/// `x` (SMs, SM·ns, bytes or bytes per ns) on the [`GRID`], rounded up:
/// a positive `x` never rounds to 0, and a rate never falls below the
/// fluid model's, so a kernel completes no later than its exact instant
/// rounded up to whole ns.
#[inline]
fn to_grid(x: f64) -> u64 {
    ceil_ns(x * GRID)
}

/// The whole ns a kernel with `work` runs alone under the grant `g` (both
/// on the [`GRID`]), unless the grant is zero.
#[inline]
fn closed_eta(work: u64, g: u64) -> Option<u64> {
    (g > 0).then(|| work.div_ceil(g))
}

/// [`closed_eta`] for a kernel a jump may start: a compute kernel that
/// runs longer than the host's `launch` ns, so the host is idle again when
/// it completes and a refill launched at its start lands strictly before
/// that completion.
#[inline]
fn jump_eta(compute: bool, work: u64, g: u64, launch: u64) -> Option<u64> {
    closed_eta(work, g).filter(|&eta| compute && eta > launch)
}

/// A packed event key that no event has: the completion key of a queue
/// whose head holds none.
const NO_KEY: u128 = u128::MAX;

/// An event key `(at, seq)` as one integer, `at` in the high half, so that
/// packed keys compare as the keys do.
#[inline]
fn pack((at, seq): (SimTime, u64)) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// The key [`pack`] packed.
#[inline]
fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime::from_nanos((key >> 64) as u64), key as u64)
}

/// A set of queue indices as a bitset, walked in ascending order so that
/// every sum over the running queues keeps queue order: `for i in
/// 0..set.words()`, then `for q in set.word(i)`. Each word is walked from
/// a copy, so the walker may mutate the engine as it goes.
#[derive(Debug, Default)]
struct QueueSet(Vec<u64>);

impl QueueSet {
    fn insert(&mut self, q: usize) {
        let word = q / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (q % 64);
    }

    fn remove(&mut self, q: usize) {
        self.0[q / 64] &= !(1 << (q % 64));
    }

    /// The number of words, for [`QueueSet::word`].
    #[inline]
    fn words(&self) -> usize {
        self.0.len()
    }

    /// The members of word `i` (queues `64 i..64 i + 64`), ascending.
    #[inline]
    fn word(&self, i: usize) -> Bits {
        Bits {
            base: i * 64,
            bits: self.0[i],
        }
    }

    /// The least member.
    fn first(&self) -> Option<usize> {
        (0..self.words()).find_map(|i| self.word(i).next())
    }
}

/// The set bits of one [`QueueSet`] word, lowest first, as queue indices.
struct Bits {
    base: usize,
    bits: u64,
}

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + bit)
    }
}

/// A device event other than a completion (completions are keys on
/// their queues; see [`Gpu::next_event`]).
#[derive(Debug)]
enum DevEv {
    /// A launched kernel reaches its device queue.
    Arrive { slot: usize },
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
        /// The finished kernel.
        handle: KernelHandle,
        /// Queue it ran on.
        queue: QueueId,
        /// Driver-assigned tag.
        tag: u64,
        /// When it started running; it finished at the step's instant.
        started: SimTime,
    },
    /// A host wakeup fired.
    HostWake {
        /// The token passed to [`Gpu::wake_at`].
        token: u64,
    },
    /// An injected MPS context crash fired: every in-flight, queued, and
    /// running kernel of `app` failed. The casualties are retrievable with
    /// [`Gpu::take_failed_into`]; the driver is expected to re-submit them.
    ContextCrash {
        /// The victim application (low bits of the kernel tag).
        app: u32,
    },
}

/// One kernel killed by an injected context crash, as reported to the
/// driver for re-submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailedKernel {
    /// Handle of the killed kernel, which never completes: no
    /// [`StepOutput::KernelDone`] reports it.
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
    /// Arrivals of launches that landed behind a busy queue, keyed
    /// `(at, seq)` with `seq` reserved from `events`, in key order. They
    /// post no event: each is accounted (settle, then `Queued`) just
    /// before the first event keyed after it, exactly where its `Arrive`
    /// would have popped. Entries whose slot's `unposted_arrival` no
    /// longer matches are stale and skipped.
    unposted: VecDeque<(SimTime, u64, usize)>,
    /// Test-only twin switch: post every launch's `Arrive`, as the engine
    /// did before deferred arrivals.
    #[cfg(test)]
    pub(crate) post_every_arrival: bool,
    /// Test-only twin switch: no lone-head shortcut, so every
    /// reallocation takes the general path.
    #[cfg(test)]
    pub(crate) no_lone: bool,
    /// Test-only twin switch: lone chains advance kernel by kernel,
    /// never in closed form.
    #[cfg(test)]
    pub(crate) no_closed_form: bool,
    /// Test-only twin switch: the closed form steps kernel by kernel and
    /// never jumps.
    #[cfg(test)]
    pub(crate) no_jump: bool,
    /// Test-only count of the completions the closed form handled.
    #[cfg(test)]
    pub(crate) closed_steps: usize,
    /// Test-only count of the completions jumps handled (a part of
    /// `closed_steps`).
    #[cfg(test)]
    pub(crate) jumped_kernels: usize,
    /// The launch program feeding each queue, if any (see
    /// [`Gpu::install_program`]), indexed like `queues`.
    programs: Vec<Option<Program>>,
    /// Running compute kernels (queue heads).
    running_compute: usize,
    /// Running memcpy kernels (queue heads).
    running_dma: usize,
    /// The queues with a running head, walked in queue order.
    running_queues: QueueSet,
    /// Per queue, the event key of its running head's completion, packed
    /// (see [`pack`]); [`NO_KEY`] with no head or a starved one (see
    /// [`Gpu::push_completion`]). Kept apart from `queues`, so that a
    /// walk for the least key reads a few dense cache lines.
    completions: Vec<u128>,
    /// The least completion key of any queue, with that queue ([`NO_KEY`]
    /// when none): re-found only when that key grows or goes away (see
    /// [`Gpu::set_completion`]).
    next_completion: (u128, usize),
    /// Whether a lone running compute kernel's slowdown is exactly 1
    /// under this spec, so [`Gpu::reallocate_scoped`] may skip the
    /// interference model for it (see [`Gpu::lone_is_exact`]).
    lone_exact: bool,
    /// Scratch for [`Gpu::closed_stretch`]: the stretch queue's kernels
    /// behind its head.
    chain: VecDeque<ChainKernel>,
    /// Lone-chain prefix sums for [`Gpu::jump`], built on first use, the
    /// most recently used first.
    jump_tables: Vec<JumpTable>,
    /// Scratch for [`Gpu::jump`]: the completion instants, in ns, of the
    /// kernels it starts from the chain.
    jump_times: Vec<u64>,
    /// SM capacity of each pool (pool 0 = shared).
    pool_capacity: Vec<f64>,
    /// One [`CtxGroup`] per context, in context order: rebuilt only where
    /// a context is created or its cap changes.
    groups: Vec<CtxGroup>,
    mig_reserved_sms: u32,
    mem_used_mib: u64,
    /// Busy SM·ns up to `last_settle`, on the [`GRID`]: the sum of every
    /// running compute kernel's `alloc · dt`.
    busy_sm_integral: u128,
    last_settle: SimTime,
    /// Count of instances not yet `Done`.
    live_instances: usize,
    /// Driver-posted notices drained by the simulation loop (e.g. request
    /// completions feeding closed-loop clients).
    notices: Vec<u64>,
    next_run_seq: u64,
    next_launch_seq: u64,
    /// Completed slots available for reuse, the most recently freed last.
    free_slots: Vec<usize>,
    /// Fault-injection state; `None` unless a non-trivial plan is
    /// installed (see [`Gpu::set_fault_plan`]).
    fault: Option<FaultState>,
    /// Structured trace sink; `None` (the default) keeps every emission
    /// point down to one branch (see [`Gpu::set_trace_sink`]).
    trace: Option<Box<dyn TraceSink>>,
    /// The launch number of the first kernel the trace sink sees (see
    /// [`Gpu::trace_seq`]).
    trace_base: u64,
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
        let lone_exact = Self::lone_is_exact(&spec);
        Gpu {
            spec,
            costs,
            now: SimTime::ZERO,
            host_free: SimTime::ZERO,
            contexts: Vec::new(),
            queues: Vec::new(),
            instances: Vec::new(),
            events: EventQueue::new(),
            unposted: VecDeque::new(),
            #[cfg(test)]
            post_every_arrival: false,
            #[cfg(test)]
            no_lone: false,
            #[cfg(test)]
            no_closed_form: false,
            #[cfg(test)]
            no_jump: false,
            #[cfg(test)]
            closed_steps: 0,
            #[cfg(test)]
            jumped_kernels: 0,
            programs: Vec::new(),
            running_compute: 0,
            running_dma: 0,
            running_queues: QueueSet::default(),
            completions: Vec::new(),
            next_completion: (NO_KEY, 0),
            lone_exact,
            chain: VecDeque::new(),
            jump_tables: Vec::new(),
            jump_times: Vec::new(),
            pool_capacity: vec![shared],
            groups: Vec::new(),
            mig_reserved_sms: 0,
            mem_used_mib: 0,
            busy_sm_integral: 0,
            last_settle: SimTime::ZERO,
            live_instances: 0,
            notices: Vec::new(),
            next_run_seq: 0,
            next_launch_seq: 0,
            free_slots: Vec::new(),
            fault: None,
            trace: None,
            trace_base: 0,
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
    ///
    /// A kernel's trace `seq` counts launches from 1 at the install;
    /// kernels launched before it emit nothing.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
        self.trace_base = self.next_launch_seq;
    }

    /// The trace `seq` of the kernel with launch number `launch_seq`: its
    /// launch number counted from 1 at the sink's install, or 0 (emit
    /// nothing) for a kernel launched before it.
    #[inline]
    fn trace_seq(&self, launch_seq: u64) -> u64 {
        launch_seq.checked_sub(self.trace_base).map_or(0, |n| n + 1)
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
    /// into `buf` (cleared first), preserving both buffers' capacity;
    /// typically invoked right after [`StepOutput::ContextCrash`].
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

    /// Does nothing: completed slots are always recycled. Kept only for
    /// the benchmark crate's two calls (`benchmark/src/colocate.rs` and
    /// `serve.rs`), which ROADMAP item 12 step 2 removes with this stub.
    #[doc(hidden)]
    pub fn set_slot_recycling(&mut self, on: bool) {
        assert!(on, "completed slots are always recycled");
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
        let context = Context { kind, pool };
        self.groups.push(CtxGroup {
            pool,
            sm_cap: context.sm_cap(),
        });
        self.contexts.push(context);
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
            last_arrival: SimTime::ZERO,
        });
        self.programs.push(None);
        self.completions.push(NO_KEY);
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
                self.groups[ctx.0 as usize].sm_cap = sm_cap as f64;
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

    /// Registers one launched instance, appends it to its queue, and
    /// schedules its device arrival.
    ///
    /// The arrival's event key is reserved now, so every later key is the
    /// same whether or not it is posted. It is posted only into an idle
    /// queue (no running head, nothing waiting); behind a busy queue it
    /// goes to [`Gpu::unposted`] instead and is replayed in key order.
    fn enqueue_instance(
        &mut self,
        queue: QueueId,
        shape: KernelShape,
        tag: u64,
        arrive_at: SimTime,
    ) -> KernelHandle {
        let mut work = shape.initial_work();
        // Injected stragglers / profile drift inflate the *actual* work of
        // compute launches while the driver keeps predicting from the
        // unmodified profile — exactly the mismatch the watchdog must catch.
        if let (Some(f), KernelKind::Compute { .. }) = (&mut self.fault, shape.kind) {
            let app = crate::sim::decode_tag(tag).0 as u32;
            let mult = f.plan.work_multiplier(app);
            if mult != 1.0 {
                work *= mult;
                if mult > f.plan.drift_factor(app) {
                    f.counters.stragglers += 1;
                }
            }
        }
        if self.trace.is_some() {
            let seq = self.trace_seq(self.next_launch_seq);
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
        }
        let inst = Instance::launched(shape, queue, tag, to_grid(work), self.next_launch_seq);
        self.next_launch_seq += 1;
        let slot = self.take_slot();
        self.instances[slot] = inst;
        self.live_instances += 1;
        let seq = self.events.reserve_seq();
        let q = &mut self.queues[queue.0 as usize];
        let idle = q.running.is_none() && q.waiting.is_empty();
        q.waiting.push_back(slot);
        #[cfg(test)]
        let idle = idle || self.post_every_arrival;
        if idle {
            self.events
                .push_reserved(arrive_at, seq, DevEv::Arrive { slot });
        } else {
            self.list_unposted(slot, (arrive_at, seq));
        }
        KernelHandle(self.instances[slot].launch_seq)
    }

    /// A slot for a new launch: the most recently freed one, or a new
    /// one holding a finished placeholder until the launch fills it.
    fn take_slot(&mut self) -> usize {
        self.free_slots.pop().unwrap_or_else(|| {
            debug_assert!(self.instances.len() < u32::MAX as usize);
            let mut placeholder = Instance::launched(
                KernelShape::of(&KernelDesc::memcpy_h2d(0)),
                QueueId(0),
                0,
                0,
                0,
            );
            placeholder.state = InstState::Done;
            self.instances.push(placeholder);
            self.instances.len() - 1
        })
    }

    /// Lists the arrival of the kernel in `slot`, keyed `key`, as not yet
    /// accounted for (see [`Gpu::unposted`]).
    fn list_unposted(&mut self, slot: usize, key: (SimTime, u64)) {
        self.instances[slot].unposted_arrival = Some(key);
        let (arrive_at, seq) = key;
        // Keys mostly grow with launch order, so the key usually joins at
        // the back; only a context-switch delayed launch lands ahead of an
        // earlier launch's arrival.
        if self.unposted.back().is_none_or(|&(at, s, _)| (at, s) < key) {
            self.unposted.push_back((arrive_at, seq, slot));
        } else {
            let pos = self
                .unposted
                .iter()
                .rposition(|&(at, s, _)| (at, s) < key)
                .map_or(0, |i| i + 1);
            self.unposted.insert(pos, (arrive_at, seq, slot));
        }
    }

    /// Interns a kernel table: an `Arc` slice of descriptors (typically
    /// one application's profiled kernel sequence) that every launch
    /// references by `(table, index)`. Registering costs one `Arc`
    /// refcount bump plus a slot in the table registry; a launch then
    /// copies the descriptor's numeric fields and clones nothing.
    pub fn register_kernel_table(&mut self, table: Arc<[KernelDesc]>) -> KernelTableId {
        debug_assert!(self.tables.len() < u32::MAX as usize);
        self.tables.push(table);
        KernelTableId((self.tables.len() - 1) as u32)
    }

    /// Looks up `table[index]`, or the reason it does not exist.
    fn table_desc(&self, table: KernelTableId, index: usize) -> Result<&KernelDesc, GpuError> {
        self.tables
            .get(table.0 as usize)
            .ok_or(GpuError::InvalidOperation("unknown kernel table"))?
            .get(index)
            .ok_or(GpuError::InvalidOperation("kernel index out of table"))
    }

    /// Launches kernel `table[index]` into `queue`.
    ///
    /// The launch occupies the host for the per-kernel launch overhead; the
    /// kernel reaches its device queue when the host call returns.
    pub fn launch(
        &mut self,
        queue: QueueId,
        table: KernelTableId,
        index: usize,
        tag: u64,
    ) -> Result<KernelHandle, GpuError> {
        self.launch_delayed(queue, table, index, tag, SimDuration::ZERO)
    }

    /// [`Gpu::launch`] with the device arrival additionally delayed by
    /// `extra` (models the 50 µs context-switch vacuum of §6.9, which
    /// stalls only this queue).
    pub fn launch_delayed(
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
        let arrive_at = self.charge_launch(queue.0 as usize, extra);
        Ok(self.enqueue_instance(queue, shape, tag, arrive_at))
    }

    /// Occupies the host for one launch call into queue `q` and returns
    /// the instant the launched unit reaches the device: when the call
    /// returns plus `extra`, but never before the queue's previous
    /// submission.
    fn charge_launch(&mut self, q: usize, extra: SimDuration) -> SimTime {
        self.charge_host(self.costs.kernel_launch);
        let arrive_at = (self.host_free + extra).max(self.queues[q].last_arrival);
        self.queues[q].last_arrival = arrive_at;
        arrive_at
    }

    /// Launches `table[range]` into `queue` as one unit (a CUDA-graph
    /// analogue), with `tag_for(index)` supplying each kernel's tag: a
    /// non-empty range costs a single host launch overhead and arrives at
    /// the device together, in order; an empty range costs nothing. No
    /// group or handle `Vec` is built, so the steady-state squad feed
    /// allocates nothing.
    ///
    /// This is the mechanism behind §6.10's "launching a sequence of
    /// kernels to the GPU with a single API call".
    pub fn launch_graph(
        &mut self,
        queue: QueueId,
        table: KernelTableId,
        range: std::ops::Range<usize>,
        tag_for: impl FnMut(usize) -> u64,
    ) -> Result<(), GpuError> {
        if queue.0 as usize >= self.queues.len() {
            return Err(GpuError::UnknownQueue(queue));
        }
        if range.is_empty() {
            return Ok(());
        }
        // Validate the whole range up front so a partial group is never
        // enqueued.
        self.table_desc(table, range.end - 1)?;
        self.launch_unit(queue, table, range, tag_for);
        Ok(())
    }

    /// Launches the validated, non-empty `table[range]` into `queue` with
    /// one host launch call: the body of [`Gpu::launch_graph`], shared by
    /// launch-program refills.
    fn launch_unit(
        &mut self,
        queue: QueueId,
        table: KernelTableId,
        range: Range<usize>,
        mut tag_for: impl FnMut(usize) -> u64,
    ) {
        let arrive_at = self.charge_launch(queue.0 as usize, SimDuration::ZERO);
        for index in range {
            let shape = KernelShape::of(&self.tables[table.0 as usize][index]);
            self.enqueue_instance(queue, shape, tag_for(index), arrive_at);
        }
    }

    /// Installs a launch program on `queue`: from now on the engine
    /// launches `program.range` itself, one unit of up to `program.graph`
    /// kernels at a time, whenever a program kernel completes with fewer
    /// than `program.window` of them left in flight.
    ///
    /// A refill happens where the caller's completion callback would have
    /// launched: after the completion has been settled, its queue's next
    /// kernel started and the SMs reallocated, with the same host charge
    /// and arrival rule as [`Gpu::launch_graph`]. So a run with a program
    /// is bit-identical to one whose driver launched each unit from its
    /// [`StepOutput::KernelDone`] callback. Only the program's last
    /// kernel is reported; the others complete silently. Cancel with
    /// [`Gpu::cancel_program`].
    ///
    /// # Errors
    ///
    /// [`GpuError::UnknownQueue`] for an unknown queue; an
    /// [`GpuError::InvalidOperation`] when the queue already runs a
    /// program, when `window`, `graph` or `in_flight` is zero, or when the
    /// range leaves the table.
    pub fn install_program(
        &mut self,
        queue: QueueId,
        program: LaunchProgram,
    ) -> Result<(), GpuError> {
        self.queues
            .get(queue.0 as usize)
            .ok_or(GpuError::UnknownQueue(queue))?;
        if self.programs[queue.0 as usize].is_some() {
            return Err(GpuError::InvalidOperation(
                "the queue already runs a launch program",
            ));
        }
        if program.window == 0 || program.graph == 0 || program.in_flight == 0 {
            return Err(GpuError::InvalidOperation(
                "a launch program needs a window, a unit size and a kernel in flight",
            ));
        }
        if !program.range.is_empty() {
            self.table_desc(program.table, program.range.end - 1)?;
        }
        self.programs[queue.0 as usize] = Some(Program {
            spec: program,
            progress: ProgramProgress::default(),
            stopped: false,
        });
        Ok(())
    }

    /// Removes `queue`'s launch program and returns what it did, or `None`
    /// when the queue has none (it never had one, or its last kernel was
    /// reported). The program's kernels still in flight stay in the queue
    /// and are reported one by one. A context crash that kills a
    /// program's kernels stops it: its progress stays here until taken.
    pub fn cancel_program(&mut self, queue: QueueId) -> Option<ProgramProgress> {
        self.programs
            .get_mut(queue.0 as usize)?
            .take()
            .map(|p| p.progress)
    }

    /// Stops `queue`'s launch program from launching more and returns what
    /// it did since it was installed or last truncated (the count then
    /// restarts), or `None` when the queue runs none. Its kernels in
    /// flight still complete silently, and the last of them is reported,
    /// as when a program's range runs out.
    pub fn truncate_program(&mut self, queue: QueueId) -> Option<ProgramProgress> {
        let p = self.programs.get_mut(queue.0 as usize)?.as_mut()?;
        p.spec.range.start = p.spec.range.end;
        Some(std::mem::take(&mut p.progress))
    }

    /// Launches units of queue `q`'s program while fewer than its window
    /// of kernels are in flight and some remain.
    fn refill(&mut self, q: usize) {
        let Some(p) = self.programs[q].as_mut() else {
            return;
        };
        let LaunchProgram {
            table,
            window,
            graph,
            app,
            ..
        } = p.spec;
        let (mut next, end, mut in_flight) =
            (p.spec.range.start, p.spec.range.end, p.spec.in_flight);
        let mut launched = 0;
        while in_flight < window && next < end {
            let unit_end = (next + graph).min(end);
            self.launch_unit(QueueId(q as u32), table, next..unit_end, |k| {
                crate::sim::encode_tag(app, k)
            });
            launched += unit_end - next;
            in_flight += unit_end - next;
            next = unit_end;
        }
        if let Some(p) = self.programs[q].as_mut() {
            p.spec.range.start = next;
            p.spec.in_flight = in_flight;
            p.progress.launched += launched;
        }
    }

    /// Posts a notice for the simulation loop (drivers use this to signal
    /// request completions to closed-loop workload clients).
    pub fn post_notice(&mut self, notice: u64) {
        self.notices.push(notice);
    }

    /// Drains all posted notices into `buf` (cleared first; called by the
    /// simulation loop). Both the notice buffer and `buf` keep their
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

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Capacity currently devoted to instance bookkeeping (slots in use or
    /// on the free-list). A completed or killed kernel's slot goes back on
    /// the free list, so this stays bounded by the peak number of live
    /// kernels (a kernel killed in flight holds its slot until its arrival
    /// is accounted).
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
        self.busy_sm_ns() / 1e9
    }

    /// Total busy SM·ns accumulated so far: a whole number under
    /// [`HwPolicy::GreedySticky`], whose grants are whole SMs.
    pub fn busy_sm_ns(&self) -> f64 {
        self.busy_sm_integral as f64 / GRID
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

    /// Earliest pending device event, if any: the least running head's
    /// completion or the heap's top, whichever sorts first. A launch that
    /// landed behind a busy queue posts no event (see [`Gpu::step`]), so
    /// its arrival never shows here.
    pub fn peek_event_time(&self) -> Option<SimTime> {
        self.next_event().map(|((at, _), _)| at)
    }

    /// The key of the next event and, when it is a completion, its queue:
    /// the least completion key if it sorts below the heap's top, else the
    /// top. Keys and heap entries draw their `seq`s from one counter, so no
    /// two are equal.
    #[inline]
    fn next_event(&self) -> Option<((SimTime, u64), Option<usize>)> {
        let top = self.events.peek_key();
        let (least, q) = self.next_completion;
        if least != NO_KEY && top.is_none_or(|top| least < pack(top)) {
            return Some((unpack(least), Some(q)));
        }
        top.map(|top| (top, None))
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
        if let Some(et) = self.peek_event_time() {
            assert!(et >= t, "advance_to would skip over a pending event");
        }
        self.replay_arrivals_before((t, 0));
        self.settle(t);
        self.now = t;
    }

    /// Processes the next pending event, the least running head's
    /// completion or the event heap's top, whichever sorts first by
    /// `(at, seq)`; returns an externally visible output if the event
    /// produced one. Every event is current: a head's completion key is
    /// overwritten when its rate changes, so no prediction pops stale.
    /// [`Gpu::step_within`] with no limit on a closed-form stretch.
    ///
    /// Arrivals behind a busy queue are not events: each is accounted
    /// just before the first event keyed after it, in the order its
    /// `Arrive` would have popped. When no events remain, the call
    /// accounts any such arrivals still owed and returns `None`.
    ///
    /// A completion on a queue that runs a launch program (see
    /// [`Gpu::install_program`]) is reported only when it is the
    /// program's last kernel; any other one refills the program's window
    /// and returns `None`.
    pub fn step(&mut self) -> Option<StepOutput> {
        self.step_within(SimTime::MAX)
    }

    /// [`Gpu::step`], where a silent launch-program completion may go on
    /// into a *closed-form stretch*, bounded by `until` (exclusive).
    ///
    /// When the device then runs exactly one kernel, a compute kernel of
    /// that program's queue, and its completion key sorts below the event
    /// heap's top and before `until`, the engine computes the chain's next
    /// completions instead of taking them one step each, with the trace
    /// events those steps would have emitted, for as long as each would be
    /// the next event. The completion where it stops becomes the queue's
    /// key under its reserved `seq`, so the run stays bit-identical. The
    /// caller passes the first instant at which it has work of its own,
    /// such as a request arrival.
    ///
    /// Untraced, with launch units of one kernel, the chain advances in
    /// *jumps*: the instants, busy SM·ns and keys of a run of completions
    /// come from per-table prefix sums and a binary search for where the
    /// run stops, in O(log n + window) rather than O(n) (see `Gpu::jump`).
    /// The rest of a stretch is computed completion by completion.
    pub fn step_within(&mut self, until: SimTime) -> Option<StepOutput> {
        let Some(((t, seq), completion)) = self.next_event() else {
            self.account_arrivals_through(SimTime::MAX);
            return None;
        };
        if let Some(q) = completion {
            let slot = self.queues[q].running;
            debug_assert!(slot.is_some(), "a completion key belongs to a running head");
            self.set_completion(q, NO_KEY);
            self.enter_event(t, seq);
            return slot.and_then(|slot| self.complete(slot, until));
        }
        let Some((_, _, ev)) = self.events.pop_keyed() else {
            return None; // Unreachable: the top was just peeked.
        };
        self.enter_event(t, seq);
        match ev {
            DevEv::Arrive { slot } => {
                if self.instances[slot].state != InstState::InFlight {
                    // The launch was killed in flight by a context crash:
                    // the kernel never reaches its device queue, and
                    // nothing refers to its slot any more.
                    debug_assert_eq!(self.instances[slot].state, InstState::Failed);
                    self.free_slots.push(slot);
                    return None;
                }
                self.instances[slot].state = InstState::Queued;
                let q = self.instances[slot].queue.0 as usize;
                // A posted arrival is its queue's front with no running
                // head, so it starts at once (unless every arrival is
                // posted, when it may queue behind a running head: the
                // running set is then unchanged and so is every rate).
                if let Some(started) = self.try_start_head(q) {
                    let compute = self.instances[started].shape.kind.is_compute();
                    self.reallocate_scoped(compute, !compute);
                }
                None
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

    /// Moves the clock to a popped event keyed `(t, seq)`: replays the
    /// unposted arrivals keyed before it, then settles to `t`.
    fn enter_event(&mut self, t: SimTime, seq: u64) {
        self.replay_arrivals_before((t, seq));
        debug_assert!(t >= self.now);
        self.settle(t);
        self.now = t;
    }

    /// Handles the completion of the running head in `slot`, whose key was
    /// just taken; a silent one may go on into a closed-form stretch (see
    /// [`Gpu::step_within`]).
    fn complete(&mut self, slot: usize, until: SimTime) -> Option<StepOutput> {
        // The key is `ceil(remaining / rate)` ns after the rate was set, and
        // the settle to it subtracted exactly `rate` per ns.
        debug_assert_eq!(
            self.instances[slot].remaining, 0,
            "the kernel in slot {slot} completes with work left"
        );
        let q = self.instances[slot].queue.0 as usize;
        let silent = self.programs[q]
            .as_mut()
            .is_some_and(Program::count_completion);
        if !silent && self.programs[q].as_ref().is_some_and(|p| !p.stopped) {
            self.programs[q] = None; // Its last kernel is reported.
        }
        self.finish(slot);
        let inst = &self.instances[slot];
        let out = StepOutput::KernelDone {
            handle: KernelHandle(inst.launch_seq),
            queue: inst.queue,
            tag: inst.tag,
            started: inst.started,
        };
        // The completion is reported (or silently refilled) right now; after
        // that the slot takes the next launch.
        self.free_slots.push(slot);
        if !silent {
            return Some(out);
        }
        self.refill(q);
        if self.closed_form_enabled() {
            if self.trace.is_some() {
                self.closed_stretch::<true>(q, until);
            } else {
                self.closed_stretch::<false>(q, until);
            }
        }
        None
    }

    /// Whether a lone chain may advance in closed form (see
    /// [`Gpu::closed_stretch`]): greedy-sticky with a lone kernel's
    /// slowdown exactly 1 and no fault plan (work is never scaled).
    #[inline]
    fn closed_form_enabled(&self) -> bool {
        #[cfg(test)]
        if self.no_closed_form || self.no_lone || self.post_every_arrival {
            return false;
        }
        self.lone_exact && self.fault.is_none()
    }

    /// Advances the chain of program queue `q` in closed form from its
    /// running head's completion key, when that key sorts below the event
    /// heap's top, after a silent completion's refill; the completion
    /// where it stops becomes the queue's key.
    ///
    /// Each step is what popping that completion would do, computed
    /// rather than replayed: the head completes at its instant; the next
    /// kernel of its queue starts there if its arrival is keyed before
    /// that completion, with the grant [`Gpu::lone_sticky_grant`] gives a
    /// fresh kernel and the completion `now + ceil(work / grant)` under
    /// the next reserved `seq`; the program's refill charges the host and
    /// reserves each launch's keys. With `TRACED` (a sink is installed)
    /// each step emits what the pop would have, in its order:
    /// `KernelComplete` for the head, `KernelStart` and `SmAlloc` for the
    /// next kernel, then a `KernelLaunch` per refilled kernel, skipping
    /// kernels launched before the sink was installed (they emit nothing). No
    /// instance is written, no queue list, unposted arrival or event is
    /// touched and nothing settles until the stretch stops; then the
    /// kernels still live (the head and those behind it) are written
    /// exactly as the pops would have left them, the arrivals keyed before
    /// the last completion are accounted, and the busy SM·ns are added in
    /// one sum.
    ///
    /// That sum is exact: work, grants and the busy integral are integers
    /// on the [`GRID`], so no grouping of the settle intervals can move a
    /// bit. A step runs only when its completion would be the next event:
    /// keyed below the heap's top (no other head runs, so no other key is
    /// pending) and `until`, silent, with a next kernel that is a compute
    /// kernel, has arrived and gets a non-zero grant. Anything else stops
    /// the closed form and leaves the rest to the event loop.
    ///
    /// Untraced, with launch units of one kernel, [`Gpu::jump`] takes runs
    /// of steps at once wherever it applies; the loop steps only the rest.
    fn closed_stretch<const TRACED: bool>(&mut self, q: usize, until: SimTime) {
        let (key, Some(slot)) = (self.completions[q], self.queues[q].running) else {
            return;
        };
        if key == NO_KEY {
            return; // A starved head: no completion to start from.
        }
        let (at, seq) = unpack(key);
        let Some(program) = self.programs[q].as_ref().filter(|p| !p.stopped) else {
            return;
        };
        // The head started at `now`, when the completion before it settled
        // the device; it runs alone at its grant.
        let head = &self.instances[slot];
        let premise = self.running_compute == 1
            && self.running_dma == 0
            && self.events.peek_key().is_none_or(|top| key < pack(top))
            && at < until
            && head.rate == head.alloc
            && head.rate > 0;
        if !premise {
            return;
        }
        let (head_alloc, mut head_launch) = (head.alloc, head.launch_seq);
        let LaunchProgram {
            table,
            window,
            graph,
            app,
            ..
        } = program.spec;
        let mut s = Stretch {
            slot,
            alloc: head_alloc,
            started: self.now,
            key: (at, seq),
            started_kernel: None,
            last: (self.now, 0),
            busy: self.busy_sm_integral,
            next: program.spec.range.start,
            end: program.spec.range.end,
            in_flight: program.spec.in_flight,
            launched: 0,
            completed: 0,
        };
        let restricted = TRACED
            && matches!(
                self.contexts[self.queues[q].ctx.0 as usize].kind,
                CtxKind::MpsAffinity { .. }
            );
        let jumps = !TRACED && graph == 1 && self.jump_enabled();
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        chain.extend(self.queues[q].waiting.iter().map(|&slot| {
            let inst = &self.instances[slot];
            ChainKernel {
                slot,
                index: None,
                launch_seq: inst.launch_seq,
                arrival: match (inst.state, inst.unposted_arrival) {
                    (InstState::Queued, _) => (SimTime::ZERO, 0),
                    (_, Some(key)) => key,
                    _ => (SimTime::MAX, u64::MAX),
                },
                work: inst.remaining,
                max_sms: inst.shape.max_sms,
                compute: inst.shape.kind.is_compute(),
            }
        }));
        self.set_completion(q, NO_KEY);
        let top = self.events.peek_key();
        let before_bound = |key: (SimTime, u64)| key.0 < until && top.is_none_or(|t| key < t);
        // Every key a stretch reserves sorts after the top's, so a later
        // completion is before the bound exactly when its instant is.
        let bound = top.map_or(until, |t| t.0.min(until));

        // The last fresh kernel's `max_sms`, its grant, and the grant on
        // the grid.
        let mut grant: Option<(u32, f64, u64)> = None;
        let mut try_jump = jumps;
        loop {
            // The completion must be the next event, and silent; the next
            // kernel must have arrived by then and meet the premise.
            if !before_bound(s.key) || !(s.in_flight >= 2 || (s.in_flight == 1 && s.next < s.end)) {
                break;
            }
            // A jump stops where a step would stop or differ, so the step
            // right after one is taken here.
            if try_jump && self.jump(q, table, window, bound, &mut s, &mut chain) {
                try_jump = false;
                continue;
            }
            try_jump = jumps;
            let Some(&front) = chain.front() else { break };
            if !(front.arrival < s.key && front.compute) {
                break;
            }
            let (g, units) = match grant {
                Some((max_sms, g, units)) if max_sms == front.max_sms => (g, units),
                _ => {
                    let g = self.lone_grant(q, front.max_sms, 0.0);
                    grant = Some((front.max_sms, g, to_grid(g)));
                    (g, to_grid(g))
                }
            };
            let Some(eta) = closed_eta(front.work, units) else {
                break;
            };
            // The head completes and its slot is recycled...
            let ran = s.key.0.duration_since(s.started).as_nanos();
            s.busy += u128::from(s.alloc) * u128::from(ran);
            self.now = s.key.0;
            s.last = s.key;
            self.instances[s.slot].state = InstState::Done;
            self.free_slots.push(s.slot);
            s.in_flight -= 1;
            s.completed += 1;
            // ...the front starts...
            chain.pop_front();
            s.started_kernel = Some((front, self.next_run_seq));
            self.next_run_seq += 1;
            if TRACED {
                let (at, queue) = (self.now, q as u32);
                let seq = self.trace_seq(head_launch);
                if seq != 0 {
                    self.trace_emit(TraceEvent::KernelComplete { at, seq, queue });
                }
                let seq = self.trace_seq(front.launch_seq);
                if seq != 0 {
                    self.trace_emit(TraceEvent::KernelStart { at, seq, queue });
                    self.trace_emit(TraceEvent::SmAlloc { at, seq, sms: g });
                }
                head_launch = front.launch_seq;
            }
            (s.slot, s.alloc, s.started) = (front.slot, units, self.now);
            s.key = (
                self.now + SimDuration::from_nanos(eta),
                self.events.reserve_seq(),
            );
            // ...and the program refills its window.
            while s.in_flight < window && s.next < s.end {
                let unit_end = (s.next + graph).min(s.end);
                let arrive_at = self.charge_launch(q, SimDuration::ZERO);
                for index in s.next..unit_end {
                    if TRACED {
                        self.trace_emit(TraceEvent::KernelLaunch {
                            at: self.now,
                            seq: self.trace_seq(self.next_launch_seq),
                            app: app as u32,
                            kernel: index as u32,
                            queue: q as u32,
                            restricted,
                        });
                    }
                    let slot = self.take_slot();
                    let arrival = (arrive_at, self.events.reserve_seq());
                    let desc = &self.tables[table.0 as usize][index];
                    chain.push_back(ChainKernel::launched(
                        desc,
                        index,
                        slot,
                        self.next_launch_seq,
                        arrival,
                    ));
                    self.next_launch_seq += 1;
                }
                s.launched += unit_end - s.next;
                s.in_flight += unit_end - s.next;
                s.next = unit_end;
            }
        }
        if let Some((head, run_seq)) = s.started_kernel {
            #[cfg(test)]
            {
                self.closed_steps += s.completed;
            }
            // Write back what the pops would have left.
            self.busy_sm_integral = s.busy;
            self.last_settle = self.now;
            self.live_instances = self.live_instances + s.launched - s.completed;
            if let Some(p) = self.programs[q].as_mut() {
                p.spec.range.start = s.next;
                p.spec.in_flight = s.in_flight;
                p.progress.launched += s.launched;
                p.progress.completed += s.completed;
            }
            // Arrivals keyed before the last completion were accounted there.
            while let Some(&(at, seq, slot)) = self.unposted.front() {
                if (at, seq) >= s.last {
                    break;
                }
                self.unposted.pop_front();
                let inst = &mut self.instances[slot];
                if inst.unposted_arrival == Some((at, seq)) {
                    inst.unposted_arrival = None;
                    if inst.state == InstState::InFlight {
                        inst.state = InstState::Queued;
                    }
                }
            }
            self.place_launched(q, table, app, &head);
            let inst = &mut self.instances[s.slot];
            inst.state = InstState::Running;
            inst.unposted_arrival = None;
            inst.run_seq = run_seq;
            inst.started = self.now;
            inst.alloc = s.alloc;
            inst.rate = s.alloc;
            self.queues[q].running = Some(s.slot);
            self.queues[q].waiting.clear();
            for c in &chain {
                self.place_launched(q, table, app, c);
                if c.index.is_some() {
                    if c.arrival < s.last {
                        self.instances[c.slot].state = InstState::Queued;
                    } else {
                        self.list_unposted(c.slot, c.arrival);
                    }
                }
                self.queues[q].waiting.push_back(c.slot);
            }
        }
        self.chain = chain;
        self.set_completion(q, pack(s.key));
    }

    /// Whether a closed-form stretch may jump (see [`Gpu::jump`]).
    #[inline]
    fn jump_enabled(&self) -> bool {
        #[cfg(test)]
        if self.no_jump {
            return false;
        }
        true
    }

    /// Takes, in one go, every step of untraced stretch `s` of program
    /// queue `q` (units of one kernel), up to the first that any of these
    /// would stop or change: a completion at or after `bound` (the heap's
    /// top instant or `until`), a completion that is not silent (the
    /// program's last kernel is reported), or a kernel [`jump_eta`]
    /// rejects. Returns whether it took a step. The loop
    /// in [`Gpu::closed_stretch`] goes on from where it stopped, so a run
    /// that jumps is bit-identical to one that steps.
    ///
    /// It starts where the window is full (`window - 1` kernels behind the
    /// head), each of them arrived before the head's completion `c_0`, and,
    /// if a kernel is left to launch, the host is idle at `c_0` with the
    /// queue's last arrival no later than `c_0 + L` (`L` the launch
    /// charge). Then step `t` completes the head at `c_{t-1}` and starts
    /// kernel `K_t` under the next `run_seq`, reserving the next
    /// `seq` for its completion. While the range lasts it also launches one
    /// kernel, arriving at `c_{t-1} + L` under the `seq` after that, into
    /// the slot just freed (the free list is LIFO); after that the freed
    /// slot stays on the free list. Every started kernel runs longer than
    /// `L`, so the host is idle again at each completion and each refill
    /// lands strictly before the completion it waits for, `window - 1 >= 1`
    /// completions later (a refill landing on the instant of the completion
    /// before it would sort after it). So the window's slots rotate, and
    /// instants, busy SM·ns and seqs are sums: over the chain
    /// for its `window - 1` kernels, then differences of the table's
    /// [`JumpPrefix`] sums, whose stop a binary search finds. Only the
    /// chain is rewritten; the write-back after the loop writes the
    /// instances still live.
    fn jump(
        &mut self,
        q: usize,
        table: KernelTableId,
        window: usize,
        bound: SimTime,
        s: &mut Stretch,
        chain: &mut VecDeque<ChainKernel>,
    ) -> bool {
        let (m, w) = (chain.len(), window);
        let (launch, c0) = (self.costs.kernel_launch, s.key.0);
        // Steps that launch a kernel each; the `m` after them drain the
        // window down to the last kernel.
        let most = s.end - s.next;
        if !(m + 1 == w
            && s.in_flight == w
            && (most == 0
                || self.host_free <= c0
                    && self.queues[q].last_arrival <= c0.saturating_add(launch)))
        {
            return false;
        }
        let head = c0.duration_since(s.started).as_nanos();
        let mut busy = s.busy + u128::from(s.alloc) * u128::from(head);
        self.jump_table(q, table);
        let jt = &self.jump_tables[0];
        let grant = |max_sms: u32| jt.grants[(max_sms as usize).min(jt.grants.len() - 1)];
        let (launch, bound) = (launch.as_nanos(), bound.as_nanos());
        // Steps over the chain. Before step `n + 1`, `c` is `c_n`, `done`
        // the busy total after step `n` and `busy` the one after `n + 1`.
        let mut times = std::mem::take(&mut self.jump_times);
        times.clear();
        times.push(c0.as_nanos());
        let (mut n, mut c, mut done) = (0, c0.as_nanos(), s.busy);
        for k in chain.iter() {
            if (n > 0 && c >= bound) || k.arrival >= s.key {
                break;
            }
            let g = grant(k.max_sms);
            let Some(eta) = jump_eta(k.compute, k.work, g, launch) else {
                break;
            };
            n += 1;
            c += eta;
            times.push(c);
            done = busy;
            busy += u128::from(g) * u128::from(eta);
        }
        // Then over the kernels the jump launches, from table index `next`
        // up to the next break: the largest `j` whose steps `m + 1 ..= m +
        // j` all hold.
        let (next, p0) = (s.next, jt.prefix[s.next]);
        let mut j = 0;
        if n == m {
            let holds = |j: usize| {
                let before = jt.prefix[next + j - 1];
                c.saturating_add(u64::from(before.eta - p0.eta)) < bound
            };
            let breaks = &jt.breaks[jt.breaks.partition_point(|&b| b < next)..];
            let mut hi = most.min(breaks.first().map_or(usize::MAX, |&b| b - next));
            while j < hi {
                let mid = (j + hi).div_ceil(2);
                if holds(mid) {
                    j = mid;
                } else {
                    hi = mid - 1;
                }
            }
            if j > 0 {
                done = busy + u128::from(jt.prefix[next + j - 1].busy - p0.busy);
            }
        }
        let n = n + j;
        if n == 0 {
            self.jump_times = times;
            return false;
        }
        // `c_t` for a step `t <= n`.
        let time = |t: usize| {
            SimTime::from_nanos(if t <= m {
                times[t]
            } else {
                c + u64::from(jt.prefix[next + t - m].eta - p0.eta)
            })
        };
        // Steps `1..=launches` launch a kernel.
        let launches = n.min(most);
        let first_seq = self.events.reserve_seqs((n + launches) as u64);
        // The completion `seq` of `K_t`, and the arrival `seq` of the kernel
        // step `t` launches.
        let completion_seq = |t: usize| first_seq + (t - 1 + (t - 1).min(launches)) as u64;
        let arrival_seq = |t: usize| first_seq + (2 * t - 1) as u64;
        // The window's slots, head first: step `t` frees the one of
        // `K_{t-1}` and launches into it.
        let slot_of = |chain: &VecDeque<ChainKernel>, i: usize| match i {
            0 => s.slot,
            _ => chain[i - 1].slot,
        };
        for i in 0..w.min(n) {
            self.instances[slot_of(chain, i)].state = InstState::Done;
        }
        for t in launches + 1..=n {
            self.free_slots.push(slot_of(chain, (t - 1) % w));
        }
        // The kernels launched from step `first` on are the live ones, `K_n`
        // among them when the jump got past the chain.
        let first = n.saturating_sub(m).max(1);
        for u in first..=launches {
            let index = next + u - 1;
            let arrival = (
                time(u - 1) + SimDuration::from_nanos(launch),
                arrival_seq(u),
            );
            let launched = ChainKernel::launched(
                &self.tables[table.0 as usize][index],
                index,
                slot_of(chain, (u - 1) % w),
                self.next_launch_seq + u as u64 - 1,
                arrival,
            );
            chain.push_back(launched);
        }
        let head = chain[n.min(w) - 1];
        chain.drain(..n.min(w));
        let prev = time(n - 1);
        s.last = if n > 1 {
            (prev, completion_seq(n - 1))
        } else {
            s.key
        };
        s.key = (time(n), completion_seq(n));
        s.started_kernel = Some((head, self.next_run_seq + n as u64 - 1));
        self.next_run_seq += n as u64;
        (s.slot, s.alloc, s.started) = (head.slot, grant(head.max_sms), prev);
        s.busy = done;
        self.now = prev;
        if launches > 0 {
            self.host_free = time(launches - 1) + SimDuration::from_nanos(launch);
            self.queues[q].last_arrival = self.host_free;
        }
        self.next_launch_seq += launches as u64;
        s.next += launches;
        s.launched += launches;
        s.in_flight -= n - launches;
        s.completed += n;
        #[cfg(test)]
        {
            self.jumped_kernels += n;
        }
        self.jump_times = times;
        true
    }

    /// Moves `table`'s prefix sums under the context cap and pool capacity
    /// of queue `q` to the front of `jump_tables`, which stays in order of
    /// last use. A miss builds them, in the buffers of the least recently
    /// used entry once the cache is full: the only time the jump
    /// allocates.
    fn jump_table(&mut self, q: usize, table: KernelTableId) {
        let ctx = &self.contexts[self.queues[q].ctx.0 as usize];
        let pool = self.pool_capacity[ctx.pool];
        let key = (table, ctx.sm_cap().min(pool).to_bits(), pool.to_bits());
        if let Some(i) = self.jump_tables.iter().position(|t| t.key == key) {
            self.jump_tables[..=i].rotate_right(1);
            return;
        }
        let mut entry = match self.jump_tables.len() {
            JUMP_TABLES => self.jump_tables.pop(),
            _ => None,
        }
        .unwrap_or_else(|| JumpTable {
            key,
            grants: Vec::new(),
            prefix: Vec::new(),
            breaks: Vec::new(),
        });
        entry.key = key;
        entry.grants.clear();
        entry
            .grants
            .extend((0..=self.spec.num_sms).map(|m| to_grid(self.lone_grant(q, m, 0.0))));
        entry.prefix.clear();
        entry.breaks.clear();
        let launch = self.costs.kernel_launch.as_nanos();
        let mut sum = JumpPrefix::default();
        entry.prefix.push(sum);
        for (index, desc) in self.tables[table.0 as usize].iter().enumerate() {
            let g = entry.grants[(desc.max_sms as usize).min(entry.grants.len() - 1)];
            let work = to_grid(desc.work);
            let summed = jump_eta(desc.kind.is_compute(), work, g, launch).and_then(|eta| {
                Some(JumpPrefix {
                    eta: sum.eta.checked_add(u32::try_from(eta).ok()?)?,
                    busy: sum.busy.checked_add(g.checked_mul(eta)?)?,
                })
            });
            sum = summed.unwrap_or_else(|| {
                entry.breaks.push(index);
                JumpPrefix::default()
            });
            entry.prefix.push(sum);
        }
        self.jump_tables.insert(0, entry);
    }

    /// Writes the instance of a kernel [`Gpu::closed_stretch`] launched
    /// (a no-op for one that already had its instance): in flight, as
    /// [`Gpu::enqueue_instance`] left it.
    fn place_launched(&mut self, q: usize, table: KernelTableId, app: usize, c: &ChainKernel) {
        if let Some(index) = c.index {
            let shape = KernelShape::of(&self.tables[table.0 as usize][index]);
            let tag = crate::sim::encode_tag(app, index);
            let work = to_grid(shape.initial_work());
            let inst = Instance::launched(shape, QueueId(q as u32), tag, work, c.launch_seq);
            self.instances[c.slot] = inst;
        }
    }

    /// Kills every not-yet-done kernel of `app`: in-flight launches never
    /// arrive, queued kernels leave their queues, running kernels stop
    /// making progress. Casualties are reported through
    /// [`Gpu::take_failed_into`].
    fn inject_crash(&mut self, app: u32) {
        // Every kernel of `app` dies, so its programs have nothing left to
        // count or refill.
        for p in self.programs.iter_mut().flatten() {
            if p.spec.app == app as usize {
                p.stopped = true;
            }
        }
        let mut touched_queues = Vec::new();
        let mut casualties = 0u32;
        for slot in self.live_slots(Some(app)) {
            let (failed, opened) = self.kill(slot);
            if opened {
                touched_queues.push(failed.queue.0 as usize);
            }
            if let Some(f) = &mut self.fault {
                f.failed.push(failed);
                f.counters.kernels_failed += 1;
            }
            casualties += 1;
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
    /// returned [`DeviceCheckpoint`], never through
    /// [`Gpu::take_failed_into`]) and all remaining device events are
    /// dropped.
    ///
    /// After the call the device is idle and permanently drained — this is
    /// the engine half of a live migration or failure evacuation; the
    /// driver half supplies the request-level checkpoint
    /// (`BlessDriver::export_checkpoint`). Call it after advancing the
    /// engine to the fault barrier.
    pub fn drain_snapshot(&mut self) -> DeviceCheckpoint {
        let abandoned = self
            .live_slots(None)
            .into_iter()
            .map(|slot| self.kill(slot).0)
            .collect();
        self.events.clear();
        debug_assert_eq!(self.next_completion.0, NO_KEY, "every head was killed");
        self.unposted.clear();
        self.programs.fill(None);
        DeviceCheckpoint {
            at: self.now,
            abandoned,
        }
    }

    /// The live slots of `app` (of every app for `None`) in launch order.
    fn live_slots(&self, app: Option<u32>) -> Vec<usize> {
        let mut slots: Vec<usize> = (0..self.instances.len())
            .filter(|&slot| {
                let inst = &self.instances[slot];
                inst.is_live() && app.is_none_or(|a| crate::sim::decode_tag(inst.tag).0 as u32 == a)
            })
            .collect();
        slots.sort_unstable_by_key(|&slot| self.instances[slot].launch_seq);
        slots
    }

    /// Moves the live kernel in `slot` to [`InstState::Failed`]: it leaves
    /// its queue (a posted `Arrive` finds the slot failed and is dropped;
    /// an unposted one still settles when replayed) and stops making
    /// progress. Returns the casualty and whether it opened its queue's
    /// front — it was the running head, or the in-flight front of a queue
    /// with no head — so the caller should let the next kernel in with
    /// [`Gpu::try_start_head`]. The slot is freed at once for a kernel
    /// that had reached its queue. One killed in flight keeps its slot
    /// until its arrival is accounted: a posted `Arrive` must find the slot
    /// failed, and an unposted arrival its key, which still settles at its
    /// instant.
    fn kill(&mut self, slot: usize) -> (FailedKernel, bool) {
        let inst = &mut self.instances[slot];
        let state = inst.state;
        inst.state = InstState::Failed;
        inst.rate = 0;
        inst.alloc = 0;
        let failed = FailedKernel {
            handle: KernelHandle(inst.launch_seq),
            queue: inst.queue,
            tag: inst.tag,
        };
        let launch_seq = inst.launch_seq;
        let compute = inst.shape.kind.is_compute();
        let q = failed.queue.0 as usize;
        let queue = &mut self.queues[q];
        let opened = match state {
            InstState::InFlight | InstState::Queued => {
                let was_front = queue.waiting.front() == Some(&slot);
                queue.waiting.retain(|&s| s != slot);
                was_front && queue.running.is_none()
            }
            InstState::Running => {
                let was_head = queue.running == Some(slot);
                if was_head {
                    self.clear_running(q, compute);
                }
                was_head
            }
            InstState::Done | InstState::Failed => unreachable!("only live kernels are killed"),
        };
        if state != InstState::InFlight {
            self.free_slots.push(slot);
        }
        self.live_instances -= 1;
        let seq = self.trace_seq(launch_seq);
        if self.trace.is_some() && seq != 0 {
            self.trace_emit(TraceEvent::KernelFailed {
                at: self.now,
                seq,
                queue: q as u32,
            });
        }
        (failed, opened)
    }

    /// Runs the device until no events remain, discarding outputs, taking
    /// at most `max_events` events (one [`Gpu::step`] each). Every event
    /// taken is current, so no stale completion spends the budget. Useful
    /// in tests and for solo-run profiling where the driver does not react
    /// to completions.
    ///
    /// # Errors
    ///
    /// [`GpuError::EventBudgetExhausted`] when events remain after
    /// `max_events` steps, naming the kernel of the next one: a kernel that
    /// never finishes fails the run instead of hanging it.
    pub fn drain(&mut self, max_events: u64) -> Result<(), GpuError> {
        self.drain_with(max_events, |_| {})
    }

    /// [`Gpu::drain`] that appends every externally visible output with
    /// its timestamp to `out`. `out` is only appended to, so a caller can
    /// reuse one buffer across runs and stay allocation-free once it
    /// reaches its high-water mark.
    ///
    /// # Errors
    ///
    /// As [`Gpu::drain`]; `out` then holds the outputs so far.
    pub fn drain_outputs_into(
        &mut self,
        out: &mut Vec<(SimTime, StepOutput)>,
        max_events: u64,
    ) -> Result<(), GpuError> {
        self.drain_with(max_events, |o| out.push(o))
    }

    /// The body of [`Gpu::drain`]: `sink` takes each output.
    fn drain_with(
        &mut self,
        max_events: u64,
        mut sink: impl FnMut((SimTime, StepOutput)),
    ) -> Result<(), GpuError> {
        for _ in 0..max_events {
            if self.next_event().is_none() {
                break;
            }
            if let Some(o) = self.step() {
                sink((self.now, o));
            }
        }
        if let Some((_, completion)) = self.next_event() {
            let slot = match (completion, self.events.peek()) {
                (Some(q), _) => self.queues[q].running,
                (None, Some((_, _, &DevEv::Arrive { slot }))) => Some(slot),
                _ => None,
            };
            let stuck = slot.map(|slot| (slot, self.instances[slot].queue));
            return Err(GpuError::EventBudgetExhausted {
                events: max_events,
                stuck,
            });
        }
        self.account_arrivals_through(SimTime::MAX);
        Ok(())
    }

    fn finish(&mut self, slot: usize) {
        let inst = &mut self.instances[slot];
        inst.state = InstState::Done;
        inst.remaining = 0;
        inst.rate = 0;
        inst.alloc = 0;
        let finished_compute = inst.shape.kind.is_compute();
        let (q, launch_seq) = (inst.queue.0 as usize, inst.launch_seq);
        let seq = self.trace_seq(launch_seq);
        if self.trace.is_some() && seq != 0 {
            self.trace_emit(TraceEvent::KernelComplete {
                at: self.now,
                seq,
                queue: q as u32,
            });
        }
        self.live_instances -= 1;
        debug_assert_eq!(self.queues[q].running, Some(slot));
        self.clear_running(q, finished_compute);
        let started = self.try_start_head(q);
        // Compute allocation depends only on the running compute set, DMA
        // rates only on the per-direction memcpy counts: recompute just the
        // side(s) this transition touched.
        let started_compute = started.map(|s| self.instances[s].shape.kind.is_compute());
        let compute_dirty = finished_compute || started_compute == Some(true);
        let dma_dirty = !finished_compute || started_compute == Some(false);
        self.reallocate_scoped(compute_dirty, dma_dirty);
    }

    /// Makes `slot` the running head of queue `q`.
    fn set_running(&mut self, q: usize, slot: usize) {
        self.queues[q].running = Some(slot);
        self.running_queues.insert(q);
        if self.instances[slot].shape.kind.is_compute() {
            self.running_compute += 1;
        } else {
            self.running_dma += 1;
        }
    }

    /// Clears queue `q`'s running head, a compute kernel or a memcpy, and
    /// its completion key.
    fn clear_running(&mut self, q: usize, compute: bool) {
        self.queues[q].running = None;
        self.running_queues.remove(q);
        self.set_completion(q, NO_KEY);
        if compute {
            self.running_compute -= 1;
        } else {
            self.running_dma -= 1;
        }
    }

    /// Sets queue `q`'s packed completion key ([`NO_KEY`] for none) and
    /// keeps `next_completion` the least key: a key that falls below it
    /// takes its place, and only when the cached key itself grows or goes
    /// away are the running queues walked for the new least.
    #[inline]
    fn set_completion(&mut self, q: usize, key: u128) {
        self.completions[q] = key;
        let (least, cached) = self.next_completion;
        if key < least {
            self.next_completion = (key, q);
        } else if cached == q && key != least {
            self.next_completion = self.least_completion();
        }
    }

    /// The least completion key of the running queues, with its queue.
    /// Keys are packed, a head with none holding [`NO_KEY`], so the walk
    /// selects without a data-dependent branch. Out of line, so that the
    /// inlined fast path of [`Gpu::set_completion`] stays small.
    #[inline(never)]
    fn least_completion(&self) -> (u128, usize) {
        let mut least = (NO_KEY, 0);
        for i in 0..self.running_queues.words() {
            for q in self.running_queues.word(i) {
                let key = self.completions[q];
                let less = key < least.0;
                least.0 = if less { key } else { least.0 };
                least.1 = if less { q } else { least.1 };
            }
        }
        least
    }

    /// The slot of the only running kernel, if it is a compute kernel
    /// whose slowdown is exactly 1 (see [`Gpu::lone_is_exact`]).
    #[inline]
    fn lone_compute(&self) -> Option<usize> {
        #[cfg(test)]
        if self.no_lone {
            return None;
        }
        if !(self.lone_exact && self.running_compute == 1 && self.running_dma == 0) {
            return None;
        }
        self.queues[self.running_queues.first()?].running
    }

    /// Whether [`Gpu::reallocate_scoped`] may give a lone running compute
    /// kernel its closed-form grant at slowdown 1 under `spec`.
    ///
    /// A kernel's own traffic cancels: its pressure `total - own` is
    /// `x - x`, or `NaN.max(0.0)`, so exactly `+0.0`. The per-resource
    /// model then skips every channel and returns 1. The scalar formula
    /// gives `(1 + α·0·s).min(cap)`, which is 1 when α and the base of
    /// the sensitivity `s` are finite (`mem_intensity` lies in `[0, 1]`)
    /// and `cap >= 1`; [`GpuSpec`] does not enforce that, so it is
    /// checked here. Fair share still takes the general allocator.
    fn lone_is_exact(spec: &GpuSpec) -> bool {
        spec.hw_policy == HwPolicy::GreedySticky
            && match spec.channel_model {
                ChannelModel::Scalar => {
                    spec.interference_cap >= 1.0
                        && spec.interference_alpha.is_finite()
                        && spec.interference_base.is_finite()
                }
                ChannelModel::PerResource(_) => true,
            }
    }

    /// Starts the front of queue `q` if it has no running head. A front
    /// still in flight cannot start: its arrival will start it, so an
    /// arrival deferred behind the head that just left is posted now,
    /// under its reserved key.
    fn try_start_head(&mut self, q: usize) -> Option<usize> {
        if self.queues[q].running.is_some() {
            return None;
        }
        let slot = *self.queues[q].waiting.front()?;
        if self.instances[slot].state == InstState::InFlight {
            if let Some((at, seq)) = self.instances[slot].unposted_arrival.take() {
                self.events.push_reserved(at, seq, DevEv::Arrive { slot });
            }
            return None;
        }
        self.queues[q].waiting.pop_front();
        self.set_running(q, slot);
        let inst = &mut self.instances[slot];
        inst.state = InstState::Running;
        inst.run_seq = self.next_run_seq;
        self.next_run_seq += 1;
        inst.started = self.now;
        if self.trace.is_some() {
            let seq = self.trace_seq(self.instances[slot].launch_seq);
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

    /// Accounts every unposted arrival keyed before `key`, in key order,
    /// as its `Arrive` event would have: the clock moves to its instant and
    /// the kernel to `Queued` (a killed one frees its slot). Such a kernel
    /// always waits behind a running head or an earlier launch, so none
    /// starts here and no rate changes: the device settles at the next
    /// event, exactly as if it had settled here too.
    #[inline]
    fn replay_arrivals_before(&mut self, key: (SimTime, u64)) {
        while let Some(&(at, seq, slot)) = self.unposted.front() {
            if (at, seq) >= key {
                break;
            }
            self.unposted.pop_front();
            let inst = &mut self.instances[slot];
            if inst.unposted_arrival != Some((at, seq)) {
                continue; // Posted since, or the slot was recycled.
            }
            inst.unposted_arrival = None;
            if inst.state == InstState::InFlight {
                inst.state = InstState::Queued;
                let queue = &self.queues[inst.queue.0 as usize];
                debug_assert!(
                    queue.running.is_some() || queue.waiting.front() != Some(&slot),
                    "a headless queue's front must have its arrival posted"
                );
            } else {
                // Killed in flight: the arrival was the last reference.
                debug_assert_eq!(inst.state, InstState::Failed);
                self.free_slots.push(slot);
            }
            debug_assert!(at >= self.now, "arrivals replay in time order");
            self.now = at;
        }
    }

    /// Accounts every unposted arrival at or before `t`, then settles to
    /// the clock: the state the device would be in had each one popped as
    /// an event. Run loops call this before they stop with arrivals
    /// possibly still owed.
    pub(crate) fn account_arrivals_through(&mut self, t: SimTime) {
        self.replay_arrivals_before((t, u64::MAX));
        self.settle(self.now);
    }

    /// Integrates all running work from `last_settle` to `t`, clamping
    /// remaining work at zero, and adds the busy SM·ns to the device
    /// integral. Every term is an integer on the [`GRID`] and a clamp at
    /// zero composes, so one settle to `t` leaves what any split does.
    fn settle(&mut self, t: SimTime) {
        if t <= self.last_settle {
            return;
        }
        let dt = t.duration_since(self.last_settle).as_nanos();
        for i in 0..self.running_queues.words() {
            for q in self.running_queues.word(i) {
                if let Some(slot) = self.queues[q].running {
                    self.settle_head(slot, dt);
                }
            }
        }
        self.last_settle = t;
    }

    /// Integrates the running head in `slot` over `dt` ns (a memcpy holds
    /// no SMs, so it adds no busy time).
    #[inline]
    fn settle_head(&mut self, slot: usize, dt: u64) {
        let inst = &mut self.instances[slot];
        inst.remaining = inst.remaining.saturating_sub(inst.rate.saturating_mul(dt));
        self.busy_sm_integral += u128::from(inst.alloc) * u128::from(dt);
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

        // One compute kernel and no memcpy: its slowdown is exactly 1, so
        // the queue walk, the traffic sums and the channel model are
        // skipped. With no memcpy running the DMA side has nothing to do.
        if let Some(slot) = self.lone_compute() {
            if do_compute {
                let a = self.lone_sticky_grant(slot);
                let new_rate = if a > 0.0 { a } else { 0.0 }; // a / 1.0
                self.apply_compute_rate(slot, a, new_rate);
            }
            return;
        }

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
        for q in (0..self.running_queues.words()).flat_map(|i| self.running_queues.word(i)) {
            if let Some(slot) = self.queues[q].running {
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
            let groups = std::mem::take(&mut self.groups);
            let mut alloc = std::mem::take(&mut self.scratch.alloc);
            match (self.spec.hw_policy, compute.as_slice()) {
                (HwPolicy::GreedySticky, &[slot]) => {
                    alloc.clear();
                    alloc.push(self.lone_sticky_grant(slot));
                }
                (HwPolicy::GreedySticky, _) => {
                    self.sticky_allocate(&compute, &groups, &mut alloc);
                }
                (HwPolicy::FairShare, _) => {
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
            self.groups = groups;
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
                let per = to_grid(per);
                for &slot in dir.iter() {
                    let inst = &mut self.instances[slot];
                    let unchanged = inst.rate == per && per > 0;
                    inst.alloc = 0;
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

    /// Commits one compute kernel's allocation `a` and interference-adjusted
    /// rate, each rounded to the [`GRID`] once here: reschedules its
    /// completion when the rate changed (or the kernel just started or
    /// stalled) and emits the `SmAlloc` trace event when the allocation
    /// moved. Shared, op-for-op, by both interference models and the lone
    /// head.
    fn apply_compute_rate(&mut self, slot: usize, a: f64, new_rate: f64) {
        let (alloc, rate) = (to_grid(a), to_grid(new_rate));
        let inst = &mut self.instances[slot];
        let unchanged = inst.rate == rate && rate > 0;
        let alloc_changed = inst.alloc != alloc;
        inst.alloc = alloc;
        inst.rate = rate;
        if !unchanged {
            self.push_completion(slot);
        }
        if alloc_changed && self.trace.is_some() {
            let seq = self.trace_seq(self.instances[slot].launch_seq);
            if seq != 0 {
                self.trace_emit(TraceEvent::SmAlloc {
                    at: self.now,
                    seq,
                    sms: a,
                });
            }
        }
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
        self.lone_grant(inst.queue.0 as usize, inst.shape.max_sms, inst.alloc_sms())
    }

    /// [`Gpu::lone_sticky_grant`] for a kernel of queue `q` that may use
    /// `max_sms` SMs and holds `alloc_sms` now.
    fn lone_grant(&self, q: usize, max_sms: u32, alloc_sms: f64) -> f64 {
        let ctx = &self.contexts[self.queues[q].ctx.0 as usize];
        let cap = ctx.sm_cap();
        let pool = self.pool_capacity[ctx.pool];
        let max_sms = max_sms as f64;
        // Phase 1: retain the current allocation, clamped to the caps.
        let keep = alloc_sms.min(max_sms).min(cap.max(0.0)).min(pool.max(0.0));
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
                .alloc_sms()
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
        // The caps are whole SM counts, so their sum is exact in any order
        // and the walk stays O(running kernels), not O(contexts).
        let mut ctx_has_runnable = std::mem::take(&mut self.scratch.ctx_runnable);
        ctx_has_runnable.clear();
        ctx_has_runnable.resize(groups.len(), false);
        let mut finite_cap_reserved = std::mem::take(&mut self.scratch.reserved);
        finite_cap_reserved.clear();
        finite_cap_reserved.resize(n_pools, 0.0);
        for &slot in compute {
            let ctx = self.queues[self.instances[slot].queue.0 as usize].ctx.0 as usize;
            let group = &groups[ctx];
            if !ctx_has_runnable[ctx] && group.sm_cap.is_finite() {
                finite_cap_reserved[group.pool] += group.sm_cap;
            }
            ctx_has_runnable[ctx] = true;
        }

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

    /// Sets the completion key of the running head in `slot` at
    /// `now + ceil(remaining / rate)`, with the next `seq`; a starved head
    /// holds no key until its allocation changes.
    fn push_completion(&mut self, slot: usize) {
        let inst = &self.instances[slot];
        let q = inst.queue.0 as usize;
        let at = if inst.remaining == 0 {
            // Already done (e.g. settled to zero just as its allocation
            // was clamped away): complete now regardless of rate.
            self.now
        } else if inst.rate == 0 {
            self.set_completion(q, NO_KEY);
            return;
        } else {
            self.now + SimDuration::from_nanos(inst.remaining.div_ceil(inst.rate))
        };
        let key = pack((at, self.events.reserve_seq()));
        self.set_completion(q, key);
    }

    /// Every piece of engine state a later call can read, as text, so that
    /// twins can be required to leave the device in the same state: the
    /// clocks and counters, the busy bits, every live instance with its
    /// keys, each other slot's state, the free list, the queues,
    /// the unposted arrivals, the pending events in pop order and the
    /// programs.
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "now {:?} host_free {:?} settled {:?} busy {:#x} run_seq {} \
             launch_seq {} event_seq {} live {} running {}+{} queues {:?}",
            self.now,
            self.host_free,
            self.last_settle,
            self.busy_sm_integral,
            self.next_run_seq,
            self.next_launch_seq,
            self.events.next_seq(),
            self.live_instances,
            self.running_compute,
            self.running_dma,
            self.running_queues,
        );
        for (slot, inst) in self.instances.iter().enumerate() {
            if inst.is_live() {
                let _ = writeln!(s, "{slot}: {inst:?}");
            } else {
                let _ = writeln!(s, "{slot}: {:?}", inst.state);
            }
        }
        let mut events: Vec<_> = self
            .events
            .iter()
            .map(|(at, seq, ev)| (at, seq, format!("{ev:?}")))
            .chain(
                self.queues
                    .iter()
                    .zip(&self.completions)
                    .filter(|&(_, &key)| key != NO_KEY)
                    .map(|(queue, &key)| {
                        let (at, seq) = unpack(key);
                        (at, seq, format!("Complete {{ slot: {:?} }}", queue.running))
                    }),
            )
            .collect();
        events.sort_by_key(|&(at, seq, _)| (at, seq));
        let next = self.next_completion;
        let _ = writeln!(
            s,
            "next completion {:?}",
            (next.0 != NO_KEY).then(|| (unpack(next.0), next.1))
        );
        let _ = writeln!(s, "free {:?}", self.free_slots);
        let _ = writeln!(s, "queues {:?}", self.queues);
        let _ = writeln!(s, "unposted {:?}", self.unposted);
        let _ = writeln!(s, "events {events:?}");
        let _ = writeln!(s, "programs {:?}", self.programs);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_gpu() -> Gpu {
        Gpu::new(GpuSpec::a100(), HostCosts::free())
    }

    /// Launches `desc` from a table of its own.
    fn put(gpu: &mut Gpu, q: QueueId, desc: KernelDesc, tag: u64) -> KernelHandle {
        put_delayed(gpu, q, desc, tag, SimDuration::ZERO)
    }

    /// [`put`] with an extra device-arrival delay.
    fn put_delayed(
        gpu: &mut Gpu,
        q: QueueId,
        desc: KernelDesc,
        tag: u64,
        extra: SimDuration,
    ) -> KernelHandle {
        let table = gpu.register_kernel_table(Arc::from([desc]));
        gpu.launch_delayed(q, table, 0, tag, extra).unwrap()
    }

    /// Events one test run may pop: far above any test here, so a run that
    /// reaches it loops (say, on a completion `settle` never advances) and
    /// fails instead of hanging.
    const EVENT_BUDGET: usize = 100_000;

    /// Every output of a run to idle within [`EVENT_BUDGET`] pops, with
    /// its instant.
    fn drain_outputs(gpu: &mut Gpu) -> Vec<(SimTime, StepOutput)> {
        let mut out = Vec::new();
        gpu.drain_outputs_into(&mut out, EVENT_BUDGET as u64)
            .unwrap();
        out
    }

    /// Every kernel a run reported done, as `(handle, started, finished)`,
    /// in completion order.
    struct Done(Vec<(KernelHandle, SimTime, SimTime)>);

    impl Done {
        /// The kernels `outputs` report done.
        fn of(outputs: &[(SimTime, StepOutput)]) -> Self {
            Done(
                outputs
                    .iter()
                    .filter_map(|&(at, o)| match o {
                        StepOutput::KernelDone {
                            handle, started, ..
                        } => Some((handle, started, at)),
                        _ => None,
                    })
                    .collect(),
            )
        }

        fn get(&self, h: KernelHandle) -> Option<&(KernelHandle, SimTime, SimTime)> {
            self.0.iter().find(|d| d.0 == h)
        }

        /// When `h` started, if it was reported done.
        fn started(&self, h: KernelHandle) -> Option<SimTime> {
            self.get(h).map(|d| d.1)
        }

        /// When `h` finished, if it was reported done.
        fn finished(&self, h: KernelHandle) -> Option<SimTime> {
            self.get(h).map(|d| d.2)
        }
    }

    /// The kernels a run to idle within [`EVENT_BUDGET`] pops reports done.
    fn run_all(gpu: &mut Gpu) -> Done {
        Done::of(&drain_outputs(gpu))
    }

    /// Pins the size of the struct every settle and reallocation walks,
    /// so that growing it takes a deliberate edit here (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn instance_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Instance>(), 176);
    }

    #[test]
    fn gpu_is_send() {
        // The fleet runners move per-GPU simulations onto scoped worker
        // threads; this pins the auto-trait so a future `Rc`/raw-pointer field
        // can't silently break it.
        fn assert_send<T: Send>() {}
        assert_send::<Gpu>();
    }

    #[test]
    fn drain_outputs_into_keeps_every_output() {
        let gpu = || {
            let mut gpu = free_gpu();
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q = gpu.create_queue(ctx).unwrap();
            for i in 0..4u64 {
                let k = KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0);
                put(&mut gpu, q, k, i);
            }
            gpu
        };
        let mut stepped = gpu();
        let mut every = Vec::new();
        for pops in 0.. {
            if stepped.peek_event_time().is_none() {
                break;
            }
            assert!(
                pops < EVENT_BUDGET,
                "event budget spent at {:?}",
                stepped.now()
            );
            if let Some(o) = stepped.step() {
                every.push((stepped.now(), o));
            }
        }
        let mut gpu = gpu();
        let mut out = Vec::new();
        // Kernels finish at 100/200/300/400 us.
        gpu.drain_outputs_into(&mut out, EVENT_BUDGET as u64)
            .unwrap();
        assert_eq!(out, every);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].0, SimTime::from_micros(100));
        assert_eq!(out[3].0, SimTime::from_micros(400));
        assert!(gpu.is_device_idle());
    }

    #[test]
    fn drain_names_the_kernel_it_stops_at() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        for i in 0..3u64 {
            let k = KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0);
            put(&mut gpu, q, k, i);
        }
        // The first kernel arrives and starts; its completion is next.
        let err = gpu.drain(1).unwrap_err();
        assert_eq!(
            err,
            GpuError::EventBudgetExhausted {
                events: 1,
                stuck: Some((0, q)),
            }
        );
        assert_eq!(
            err.to_string(),
            "device still busy after 1 events: the kernel in slot 0 on queue 0 does not finish"
        );
        // A wake is no kernel's event.
        gpu.wake_at(SimTime::ZERO, 0);
        assert!(matches!(
            gpu.drain(0),
            Err(GpuError::EventBudgetExhausted { stuck: None, .. })
        ));
        gpu.drain(EVENT_BUDGET as u64).unwrap();
        assert!(gpu.is_device_idle());
    }

    #[test]
    fn single_kernel_runs_at_full_speed() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let k = KernelDesc::compute(SimDuration::from_micros(100), 108, 0.2);
        let h = put(&mut gpu, q, k, 0);
        let done = run_all(&mut gpu);
        assert_eq!(done.0, vec![(h, SimTime::ZERO, SimTime::from_micros(100))]);
        assert!(gpu.is_device_idle());
    }

    #[test]
    fn launch_overhead_delays_arrival() {
        let mut gpu = Gpu::a100(); // 3 us launch overhead
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let k = KernelDesc::compute(SimDuration::from_micros(10), 108, 0.0);
        let h = put(&mut gpu, q, k, 0);
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(h), Some(SimTime::from_micros(13)));
    }

    #[test]
    fn queue_is_in_order() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let a = put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(10), 108, 0.0),
            0,
        );
        let b = put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(5), 108, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        // Same queue: b waits for a even though it is shorter.
        assert_eq!(done.finished(a), Some(SimTime::from_micros(10)));
        assert_eq!(done.finished(b), Some(SimTime::from_micros(15)));
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
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_micros(100)));
        assert_eq!(done.finished(b), Some(SimTime::from_micros(200)));
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
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_micros(200)));
        assert_eq!(done.finished(b), Some(SimTime::from_micros(200)));
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
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(100), 100, 0.0),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 100, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_micros(100)));
        assert_eq!(done.finished(b), Some(SimTime::from_micros(200)));
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
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.0),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_micros(100)));
        // b: 96us at 54 SMs then (10800-5184)/108 = 52us at 108 -> 152us.
        assert_eq!(done.finished(b), Some(SimTime::from_micros(152)));
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
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(50), 108, 0.0),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        // a (50us x 108 work) at 54 SMs: 100us. b pays the 4us contended
        // dispatch gap, then starts at 54 (the cap is structural) and
        // grows to 108 when a finishes: 96us x 54 + 52us x 108 = work.
        assert_eq!(done.finished(a), Some(SimTime::from_micros(100)));
        let b_done = done.finished(b).unwrap().as_millis_f64() * 1000.0;
        assert!((b_done - 152.0).abs() < 1.0, "b finished at {b_done}us");
    }

    #[test]
    fn mps_affinity_caps_context_usage() {
        let mut gpu = free_gpu();
        let ctx = gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: 27 })
            .unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let h = put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            0,
        );
        let done = run_all(&mut gpu);
        // 108-SM kernel on 27 SMs: 4x duration.
        assert_eq!(done.finished(h), Some(SimTime::from_micros(400)));
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
        let h = put(
            &mut gpu,
            qb,
            KernelDesc::compute(SimDuration::from_micros(80), 108, 0.0),
            0,
        );
        let done = run_all(&mut gpu);
        // work = 80us * 108 SMs; on 80 SMs -> 108 us.
        assert_eq!(done.finished(h), Some(SimTime::from_micros(108)));
        // And the small partition still works.
        let h2 = put(
            &mut gpu,
            qs,
            KernelDesc::compute(SimDuration::from_micros(28), 28, 0.0),
            0,
        );
        let done = run_all(&mut gpu);
        assert_eq!(
            done.finished(h2)
                .unwrap()
                .duration_since(done.started(h2).unwrap()),
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
        let a = put(&mut gpu, q1, KernelDesc::memcpy_h2d(25_000_000), 0);
        let b = put(&mut gpu, q2, KernelDesc::memcpy_h2d(25_000_000), 1);
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_millis(2)));
        assert_eq!(done.finished(b), Some(SimTime::from_millis(2)));
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = put(&mut gpu, q1, KernelDesc::memcpy_h2d(25_000_000), 0);
        let b = put(&mut gpu, q2, KernelDesc::memcpy_d2h(25_000_000), 1);
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_millis(1)));
        assert_eq!(done.finished(b), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn interference_slows_memory_hungry_pairs() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        // Two half-GPU kernels (54 SMs each): no SM contention, but both
        // memory-intense -> interference extends both beyond 100 us.
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.9),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.9),
            1,
        );
        let done = run_all(&mut gpu);
        let fa = done.finished(a).unwrap();
        let fb = done.finished(b).unwrap();
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
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.9),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.9),
            1,
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_nanos(162_775)));
        assert_eq!(done.finished(b), Some(SimTime::from_nanos(162_775)));
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
            let a = KernelDesc::compute(SimDuration::from_micros(100), 54, 0.9).with_demand(da);
            let b = KernelDesc::compute(SimDuration::from_micros(100), 54, 0.9).with_demand(db);
            let a = put(&mut gpu, q1, a, 0);
            put(&mut gpu, q2, b, 1);
            let done = run_all(&mut gpu);
            done.finished(a).unwrap()
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
        let kernel = KernelDesc::compute(SimDuration::from_micros(100), 54, 0.0)
            .with_demand(crate::ChannelDemand::collapsed(crate::Channel::Pcie, 1.0));
        let run = |spec: GpuSpec| {
            let mut gpu = Gpu::new(spec, HostCosts::free());
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q1 = gpu.create_queue(ctx).unwrap();
            let q2 = gpu.create_queue(ctx).unwrap();
            let a = put(&mut gpu, q1, kernel.clone(), 0);
            // 5 MB at 25 GB/s = 200 us: the transfer outlives the kernel.
            put(&mut gpu, q2, KernelDesc::memcpy_h2d(5_000_000), 1);
            let done = run_all(&mut gpu);
            done.finished(a).unwrap()
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
        let a = put(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.0),
            0,
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(a), Some(SimTime::from_micros(100)));
        assert_eq!(done.finished(b), Some(SimTime::from_micros(100)));
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
        put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(100), 54, 0.0),
            0,
        );
        let b0 = gpu.busy_sm_seconds();
        run_all(&mut gpu);
        let b1 = gpu.busy_sm_seconds();
        let util = gpu.utilization(SimTime::ZERO, SimTime::from_micros(100), b0, b1);
        assert!((util - 0.5).abs() < 1e-9, "util = {util}");
    }

    #[test]
    fn launch_delayed_stalls_only_its_queue() {
        let mut gpu = free_gpu();
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q1 = gpu.create_queue(ctx).unwrap();
        let q2 = gpu.create_queue(ctx).unwrap();
        let a = put_delayed(
            &mut gpu,
            q1,
            KernelDesc::compute(SimDuration::from_micros(10), 54, 0.0),
            0,
            SimDuration::from_micros(50),
        );
        let b = put(
            &mut gpu,
            q2,
            KernelDesc::compute(SimDuration::from_micros(10), 54, 0.0),
            1,
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(b), Some(SimTime::from_micros(10)));
        assert_eq!(done.finished(a), Some(SimTime::from_micros(60)));
    }

    #[test]
    fn starved_context_makes_no_progress_until_cap_raised() {
        let mut gpu = free_gpu();
        let ctx = gpu
            .create_context(CtxKind::MpsAffinity { sm_cap: 1 })
            .unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let h = put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(108), 108, 0.0),
            0,
        );
        // Advance some; then raise the cap to full and let it finish.
        while gpu.peek_event_time() == Some(SimTime::ZERO) {
            gpu.step();
        }
        gpu.advance_to(SimTime::from_micros(100));
        gpu.set_mps_cap(ctx, 108).unwrap();
        let done = run_all(&mut gpu);
        let fin = done.finished(h).unwrap();
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
        let group: Arc<[KernelDesc]> = (0..5)
            .map(|_| KernelDesc::compute(SimDuration::from_micros(10), 108, 0.0))
            .collect();
        let table = gpu.register_kernel_table(group);
        // An empty range charges the host nothing.
        gpu.launch_graph(q, table, 2..2, |_| 0).unwrap();
        assert_eq!(gpu.host_free_at(), SimTime::ZERO);
        gpu.launch_graph(q, table, 0..5, |i| i as u64).unwrap();
        assert_eq!(gpu.host_free_at(), SimTime::from_micros(3));
        let out = drain_outputs(&mut gpu);
        // One 3 us launch + 5 x 10 us sequential kernels = 53 us, instead
        // of 5 launches costing 15 us of host time.
        let last = out.last().unwrap();
        assert_eq!(last.0, SimTime::from_micros(53));
        assert!(matches!(last.1, StepOutput::KernelDone { tag: 4, .. }));
        // A range past the table's end is refused before any host charge.
        let err = gpu.launch_graph(q, table, 4..6, |_| 0).unwrap_err();
        assert_eq!(err, GpuError::InvalidOperation("kernel index out of table"));
        assert_eq!(gpu.host_free_at(), SimTime::from_micros(53));
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
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        for i in 0..1000u64 {
            let h = put(
                &mut gpu,
                q,
                KernelDesc::compute(SimDuration::from_micros(1), 108, 0.0),
                i,
            );
            let done = run_all(&mut gpu);
            assert_eq!(done.0.len(), 1);
            assert_eq!(done.0[0].0, h, "completion reports the launch handle");
            assert_eq!(h, KernelHandle(i), "handles are launch numbers");
        }
        // 1000 sequential kernels reuse a handful of slots instead of
        // growing the instance table linearly.
        assert!(
            gpu.instance_slots() < 10,
            "expected slot reuse, got {} slots",
            gpu.instance_slots()
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
        let h = put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.2),
            encode_tag(0, 0),
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(h), Some(SimTime::from_micros(100)));
        assert_eq!(gpu.fault_counters(), FaultCounters::default());
        let mut failed = vec![FailedKernel {
            handle: KernelHandle(9),
            queue: q,
            tag: 9,
        }];
        gpu.take_failed_into(&mut failed);
        assert!(failed.is_empty());
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
        let h = put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
            encode_tag(0, 0),
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(h), Some(SimTime::from_micros(200)));
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
            let h = put(
                &mut gpu,
                q,
                KernelDesc::compute(SimDuration::from_micros(100), 108, 0.0),
                encode_tag(0, k as usize),
            );
            let done = run_all(&mut gpu);
            let took = done
                .finished(h)
                .unwrap()
                .duration_since(done.started(h).unwrap());
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
        let k = |us| KernelDesc::compute(SimDuration::from_micros(us), 54, 0.0);
        let v1 = put(&mut gpu, qv, k(100), encode_tag(victim as usize, 0));
        let v2 = put(&mut gpu, qv, k(100), encode_tag(victim as usize, 1));
        let o1 = put(&mut gpu, qo, k(100), encode_tag(other as usize, 0));
        let mut crash_seen = None;
        let mut outputs = Vec::new();
        for pops in 0.. {
            if gpu.peek_event_time().is_none() {
                break;
            }
            assert!(pops < EVENT_BUDGET, "event budget spent at {:?}", gpu.now());
            match gpu.step() {
                Some(StepOutput::ContextCrash { app }) => {
                    let mut failed = Vec::new();
                    gpu.take_failed_into(&mut failed);
                    crash_seen = Some((app, gpu.now(), failed));
                }
                Some(o) => outputs.push((gpu.now(), o)),
                None => {}
            }
        }
        let (app, at, failed) = crash_seen.expect("crash must fire");
        assert_eq!(app, victim);
        assert_eq!(at, SimTime::from_micros(50));
        let killed: Vec<KernelHandle> = failed.iter().map(|f| f.handle).collect();
        assert_eq!(killed, vec![v1, v2]);
        assert!(failed.iter().all(|f| f.queue == qv));
        // Only the other app's kernel completes.
        let done = Done::of(&outputs);
        assert_eq!(done.0, vec![(o1, SimTime::ZERO, SimTime::from_micros(100))]);
        let c = gpu.fault_counters();
        assert_eq!((c.crashes, c.kernels_failed), (1, 2));
        assert!(gpu.is_device_idle());
        // Failed kernels can be re-submitted and then complete normally.
        let retry = put(&mut gpu, qv, k(100), encode_tag(victim as usize, 0));
        let done = run_all(&mut gpu);
        assert!(done.finished(retry).is_some());
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
        let h = put(
            &mut gpu,
            q,
            KernelDesc::compute(SimDuration::from_micros(10), 108, 0.0),
            encode_tag(0, 0),
        );
        let done = run_all(&mut gpu);
        // Crash at 1 ns < 3 us arrival: the launch never reaches its queue.
        assert!(done.0.is_empty());
        let mut failed = Vec::new();
        gpu.take_failed_into(&mut failed);
        assert_eq!(failed.iter().map(|f| f.handle).collect::<Vec<_>>(), [h]);
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
        let h = put(
            &mut gpu,
            q,
            KernelDesc::memcpy_h2d(25_000_000),
            encode_tag(0, 0),
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(h), Some(SimTime::from_millis(4)));
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
        let h = put(
            &mut gpu,
            q,
            KernelDesc::memcpy_h2d(25_000_000),
            encode_tag(0, 0),
        );
        let done = run_all(&mut gpu);
        assert_eq!(done.finished(h), Some(SimTime::from_micros(1250)));
    }

    // ------------------------------------------------------------------
    // Lone-kernel allocation
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
            let k = KernelDesc::compute(SimDuration::from_micros(50), max_sms, 0.3);
            put(&mut gpu, q, k, 0);
            let slot = 0; // The device's first launch.
            gpu.step(); // Arrive: the kernel starts running.
            assert_eq!(gpu.instances[slot].state, InstState::Running);
            if let CtxKind::MpsAffinity { .. } = kind {
                if rng.next_below(2) == 0 {
                    // A cap change under the running kernel.
                    let cap = rng.range_inclusive(1, n as u64) as u32;
                    gpu.set_mps_cap(ctx, cap).unwrap();
                }
            }
            gpu.instances[slot].alloc = to_grid(match rng.next_below(3) {
                0 => 0.0,
                1 => rng.range_inclusive(1, n as u64 + 20) as f64,
                _ => rng.uniform(0.0, n as f64 + 20.0),
            });

            let lone = gpu.lone_sticky_grant(slot);
            let groups = gpu.groups.clone();
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

    // ------------------------------------------------------------------
    // Deferred arrivals
    // ------------------------------------------------------------------

    use sim_core::trace::BufferSink;

    /// Panics unless the completion keys are consistent: only a running
    /// head holds one, every head with a positive rate holds one, and
    /// `next_completion` is the least of them (found here by a walk over
    /// every queue, not the running-queue bitset).
    fn check_completion_keys(gpu: &Gpu) {
        for (q, (queue, &key)) in gpu.queues.iter().zip(&gpu.completions).enumerate() {
            let rate = queue.running.map(|slot| gpu.instances[slot].rate);
            assert!(
                key == NO_KEY || rate.is_some(),
                "queue {q} holds key {:?} with no running head",
                unpack(key)
            );
            assert!(
                key != NO_KEY || rate.is_none_or(|r| r == 0),
                "queue {q}'s head runs at {rate:?} with no key"
            );
            let member = gpu
                .running_queues
                .0
                .get(q / 64)
                .is_some_and(|w| w >> (q % 64) & 1 == 1);
            assert_eq!(
                queue.running.is_some(),
                member,
                "queue {q} in the running set"
            );
        }
        let least = (0..gpu.queues.len())
            .map(|q| (gpu.completions[q], q))
            .filter(|&(key, _)| key != NO_KEY)
            .min();
        let cached = gpu.next_completion;
        assert_eq!(
            (cached.0 != NO_KEY).then_some(cached),
            least,
            "the cached least key"
        );
    }

    /// Everything a run exposes to a driver or a report.
    #[derive(Debug, Default, PartialEq)]
    struct Transcript {
        /// Each visible step output with its instant.
        outputs: Vec<(SimTime, StepOutput)>,
        /// Crash casualties, as taken after each crash.
        casualties: Vec<FailedKernel>,
        /// `(now, busy_sm_seconds bits)` at the points a script probes.
        probes: Vec<(SimTime, u64)>,
        /// Final `(state, started, finished)` of every returned handle, as
        /// the outputs and casualties report it: `Done` with both instants,
        /// `Failed` with neither, or `InFlight` for a kernel reported
        /// neither way.
        kernels: Vec<(InstState, Option<SimTime>, Option<SimTime>)>,
        now: SimTime,
        busy_bits: u64,
        faults: FaultCounters,
        trace: Vec<TraceEvent>,
    }

    /// Records one run of a script.
    #[derive(Default)]
    struct Recorder {
        t: Transcript,
        /// Events popped; the only thing allowed to differ between twins.
        pops: usize,
        /// With a generator, the device also settles at a random instant
        /// before each event it takes and each advance (see
        /// [`Recorder::split_settle`]).
        settles: Option<sim_core::SimRng>,
        /// The engine fingerprint after each step and advance, when kept.
        states: Option<Vec<String>>,
    }

    impl Recorder {
        /// With [`Recorder::settles`], settles the device at a random
        /// instant from its last settle up to the next event and `until`:
        /// one more split of the interval the next settle integrates.
        fn split_settle(&mut self, gpu: &mut Gpu, until: Option<SimTime>) {
            let Some(rng) = self.settles.as_mut() else {
                return;
            };
            let to = match (gpu.peek_event_time(), until) {
                (Some(next), Some(until)) => next.min(until),
                (Some(to), None) | (None, Some(to)) => to,
                (None, None) => return,
            };
            if let Some(span) = to.as_nanos().checked_sub(gpu.last_settle.as_nanos()) {
                let at = gpu.last_settle + SimDuration::from_nanos(rng.next_below(span + 1));
                gpu.settle(at);
            }
        }

        /// Keeps the engine fingerprint, when [`Recorder::states`] does.
        fn keep_state(&mut self, gpu: &Gpu) {
            if let Some(states) = self.states.as_mut() {
                states.push(gpu.fingerprint());
            }
        }

        /// Processes one event (or, with none left, whatever is owed).
        fn step(&mut self, gpu: &mut Gpu) {
            self.split_settle(gpu, None);
            self.pops += usize::from(gpu.peek_event_time().is_some());
            assert!(
                self.pops <= EVENT_BUDGET,
                "event budget spent at {:?}: the run does not converge",
                gpu.now()
            );
            let out = gpu.step();
            check_completion_keys(gpu);
            match out {
                Some(StepOutput::ContextCrash { app }) => {
                    let mut failed = Vec::new();
                    gpu.take_failed_into(&mut failed);
                    self.t.casualties.extend(failed);
                    self.t
                        .outputs
                        .push((gpu.now(), StepOutput::ContextCrash { app }));
                }
                Some(o) => self.t.outputs.push((gpu.now(), o)),
                None => {}
            }
            self.keep_state(gpu);
        }

        /// Steps until the next visible output or, when none comes, until
        /// no event is left and what is owed is accounted, as
        /// [`Recorder::drain`] ends. Unlike a bare step, this means the
        /// same thing whether or not arrivals are posted as events: a
        /// posted arrival pops as an event where a deferred one is only
        /// owed.
        fn next_output(&mut self, gpu: &mut Gpu) {
            let seen = self.t.outputs.len();
            while self.t.outputs.len() == seen && gpu.peek_event_time().is_some() {
                self.step(gpu);
            }
            if self.t.outputs.len() == seen {
                self.step(gpu);
            }
        }

        /// Steps through every event before `t`, then advances to it —
        /// the order `Simulation::run` delivers a request at `t` in.
        fn advance(&mut self, gpu: &mut Gpu, t: SimTime) {
            let t = t.max(gpu.now());
            while gpu.peek_event_time().is_some_and(|e| e < t) {
                self.step(gpu);
            }
            self.split_settle(gpu, Some(t));
            gpu.advance_to(t);
            self.keep_state(gpu);
        }

        fn drain(&mut self, gpu: &mut Gpu) {
            while gpu.peek_event_time().is_some() {
                self.step(gpu);
            }
            self.step(gpu);
        }

        fn probe(&mut self, gpu: &Gpu) {
            self.t
                .probes
                .push((gpu.now(), gpu.busy_sm_seconds().to_bits()));
        }
    }

    /// Runs `script` through `rec` on a fresh traced GPU, every arrival
    /// posted as an event with `post_every` and without the lone-head
    /// shortcut with `no_lone`. Returns the recorder with its transcript
    /// complete.
    fn record(
        spec: &GpuSpec,
        costs: &HostCosts,
        plan: &FaultPlan,
        (post_every, no_lone): (bool, bool),
        mut rec: Recorder,
        script: &impl Fn(&mut Gpu, &mut Recorder) -> Vec<KernelHandle>,
    ) -> Recorder {
        let mut gpu = Gpu::new(spec.clone(), costs.clone());
        gpu.post_every_arrival = post_every;
        gpu.no_lone = no_lone;
        let sink = BufferSink::new();
        gpu.set_trace_sink(Box::new(sink.clone()));
        gpu.set_fault_plan(plan.clone());
        let handles = script(&mut gpu, &mut rec);
        let t = &mut rec.t;
        let done = Done::of(&t.outputs);
        t.kernels = handles
            .iter()
            .map(|&h| match done.get(h) {
                Some(&(_, started, finished)) => (InstState::Done, Some(started), Some(finished)),
                None if t.casualties.iter().any(|f| f.handle == h) => {
                    (InstState::Failed, None, None)
                }
                None => (InstState::InFlight, None, None),
            })
            .collect();
        t.now = gpu.now();
        t.busy_bits = gpu.busy_sm_seconds().to_bits();
        t.faults = gpu.fault_counters();
        t.trace = sink.take();
        rec
    }

    /// Runs `script` three times with [`record`] — arrivals deferred;
    /// every arrival posted as an event; arrivals deferred with no
    /// lone-head shortcut — and returns the transcripts with their
    /// event-pop counts.
    fn twin_runs(
        spec: &GpuSpec,
        costs: HostCosts,
        plan: &FaultPlan,
        script: impl Fn(&mut Gpu, &mut Recorder) -> Vec<KernelHandle>,
    ) -> [(Transcript, usize); 3] {
        [(false, false), (true, false), (false, true)].map(|flags| {
            let rec = record(spec, &costs, plan, flags, Recorder::default(), &script);
            (rec.t, rec.pops)
        })
    }

    /// [`twin_runs`] that requires identical transcripts and returns the
    /// deferred one with the pops each way.
    fn assert_twins(
        spec: &GpuSpec,
        costs: HostCosts,
        plan: &FaultPlan,
        script: impl Fn(&mut Gpu, &mut Recorder) -> Vec<KernelHandle>,
    ) -> (Transcript, usize, usize) {
        let [(deferred, fewer), (posted, every), (general, _)] =
            twin_runs(spec, costs, plan, script);
        assert_eq!(deferred, posted);
        assert_eq!(deferred, general);
        assert!(fewer <= every, "{fewer} pops deferred vs {every} posted");
        (deferred, fewer, every)
    }

    fn compute(us: u64, sms: u32, mem: f64) -> KernelDesc {
        KernelDesc::compute(SimDuration::from_micros(us), sms, mem)
    }

    #[test]
    fn successor_arriving_after_its_head_finished_posts_at_the_reserved_key() {
        let (t, fewer, every) = assert_twins(
            &GpuSpec::a100(),
            HostCosts::free(),
            &FaultPlan::none(),
            |gpu, rec| {
                let ctx = gpu.create_context(CtxKind::Default).unwrap();
                let q = gpu.create_queue(ctx).unwrap();
                let side = gpu.create_queue(ctx).unwrap();
                let long = put(gpu, side, compute(200, 54, 0.8), 9);
                let a = put(gpu, q, compute(10, 54, 0.5), 0);
                // B lands behind A at 50 us, after A is done at 10 us; C
                // lands behind B at the same instant.
                let b = put_delayed(
                    gpu,
                    q,
                    compute(10, 54, 0.5),
                    1,
                    SimDuration::from_micros(50),
                );
                let c = put(gpu, q, compute(10, 54, 0.5), 2);
                rec.drain(gpu);
                vec![long, a, b, c]
            },
        );
        let started = |i: usize| t.kernels[i].1;
        assert_eq!(started(2), Some(SimTime::from_micros(50)));
        assert!(started(3) > started(2));
        assert!(t.kernels.iter().all(|k| k.0 == InstState::Done));
        // C never pops an Arrive: it replays behind B.
        assert!(fewer < every, "{fewer} vs {every}");
    }

    #[test]
    fn same_instant_arrival_and_completion_keep_their_seq_order() {
        // A runs beside a memory-heavy co-runner, so its finish instant is
        // an interference-slowed float; B lands on exactly that instant.
        let setup = |gpu: &mut Gpu| {
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q = gpu.create_queue(ctx).unwrap();
            let side = gpu.create_queue(ctx).unwrap();
            let co = put(gpu, side, compute(300, 54, 0.7), 9);
            let a = put(gpu, q, compute(100, 54, 0.6), 0);
            (q, co, a)
        };
        let a_done = {
            let mut gpu = free_gpu();
            let (_, _, a) = setup(&mut gpu);
            run_all(&mut gpu).finished(a).unwrap()
        };
        assert!(a_done > SimTime::from_micros(100));
        for arrival_first in [true, false] {
            let (t, _, _) = assert_twins(
                &GpuSpec::a100(),
                HostCosts::free(),
                &FaultPlan::none(),
                |gpu, rec| {
                    let (q, co, a) = setup(gpu);
                    // A's completion key is taken when A starts, B's
                    // arrival key at B's launch: launching B before A
                    // starts puts B's key first at the shared instant.
                    if !arrival_first {
                        rec.step(gpu); // The co-runner arrives and starts.
                        rec.step(gpu); // A arrives and starts.
                    }
                    let extra = a_done.duration_since(gpu.now());
                    let b = put_delayed(gpu, q, compute(10, 54, 0.6), 1, extra);
                    rec.drain(gpu);
                    vec![co, a, b]
                },
            );
            // B starts the instant A finishes, either way round.
            assert_eq!(t.kernels[1].2, Some(a_done));
            assert_eq!(
                t.kernels[2].1,
                Some(a_done),
                "arrival_first {arrival_first}"
            );
        }
    }

    #[test]
    fn crash_kills_unarrived_kernels_in_launch_order_and_survivors_start() {
        let spec = FaultSpec {
            num_apps: 2,
            crash_count: 1,
            crash_window: (SimTime::from_micros(7), SimTime::from_micros(7)),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::build(3, &spec);
        let victim = plan.crashes()[0].app as usize;
        let other = 1 - victim;
        let (t, fewer, every) =
            assert_twins(&GpuSpec::a100(), HostCosts::paper(), &plan, |gpu, rec| {
                let ctx = gpu.create_context(CtxKind::Default).unwrap();
                let q1 = gpu.create_queue(ctx).unwrap();
                let q2 = gpu.create_queue(ctx).unwrap();
                let k = || compute(100, 54, 0.4);
                // 3 us per launch: arrivals at 3, 6, 9, 12, 15 and 18 us.
                let handles = vec![
                    put(gpu, q2, k(), encode_tag(victim, 0)), // running at the crash
                    put(gpu, q2, k(), encode_tag(other, 0)),  // queued behind it
                    put(gpu, q1, k(), encode_tag(victim, 1)), // posted front, in flight
                    put(gpu, q1, k(), encode_tag(other, 1)),  // unposted
                    put(gpu, q1, k(), encode_tag(victim, 2)), // unposted
                    put(gpu, q1, k(), encode_tag(other, 2)),  // unposted
                ];
                rec.drain(gpu);
                handles
            });
        // A handle is the launch number.
        let h = |i: u64| KernelHandle(i);
        let casualties: Vec<KernelHandle> = t.casualties.iter().map(|f| f.handle).collect();
        assert_eq!(casualties, vec![h(0), h(2), h(4)], "launch order");
        let state = |i: usize| t.kernels[i].0;
        for i in [0, 2, 4] {
            assert_eq!(state(i), InstState::Failed);
        }
        for i in [1, 3, 5] {
            assert_eq!(state(i), InstState::Done);
        }
        // The survivor behind the killed head starts at the crash; the
        // one behind the killed in-flight front starts on arrival.
        assert_eq!(t.kernels[1].1, Some(SimTime::from_micros(7)));
        assert_eq!(t.kernels[3].1, Some(SimTime::from_micros(12)));
        assert_eq!(t.faults.kernels_failed, 3);
        assert!(fewer < every, "{fewer} vs {every}");
    }

    #[test]
    fn killed_unposted_arrival_still_settles_at_its_instant() {
        let spec = FaultSpec {
            num_apps: 1,
            crash_count: 1,
            crash_window: (SimTime::from_micros(2), SimTime::from_micros(2)),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::build(0, &spec);
        // Arrivals at 3 (posted) and 6 us (unposted); the crash at 2 us
        // kills both in flight, so the unposted arrival is the last thing
        // to account.
        let launch = |gpu: &mut Gpu| {
            let ctx = gpu.create_context(CtxKind::Default).unwrap();
            let q = gpu.create_queue(ctx).unwrap();
            vec![
                put(gpu, q, compute(100, 54, 0.4), encode_tag(0, 0)),
                put(gpu, q, compute(100, 54, 0.4), encode_tag(0, 1)),
            ]
        };
        // Stepping until a step finds no event left...
        let (t, _, _) = assert_twins(&GpuSpec::a100(), HostCosts::paper(), &plan, |gpu, rec| {
            let handles = launch(gpu);
            rec.drain(gpu);
            handles
        });
        assert_eq!(t.casualties.len(), 2);
        assert_eq!(t.now, SimTime::from_micros(6));
        // ...and both drains account it too.
        for keep_outputs in [false, true] {
            let mut gpu = Gpu::a100();
            gpu.set_fault_plan(plan.clone());
            launch(&mut gpu);
            if keep_outputs {
                gpu.drain_outputs_into(&mut Vec::new(), EVENT_BUDGET as u64)
                    .unwrap();
            } else {
                gpu.drain(EVENT_BUDGET as u64).unwrap();
            }
            assert_eq!(
                gpu.now(),
                SimTime::from_micros(6),
                "keep_outputs {keep_outputs}"
            );
        }
    }

    #[test]
    fn drain_snapshot_drops_unposted_arrivals() {
        let (t, _, _) = assert_twins(
            &GpuSpec::a100(),
            HostCosts::paper(),
            &FaultPlan::none(),
            |gpu, rec| {
                let ctx = gpu.create_context(CtxKind::Default).unwrap();
                let q1 = gpu.create_queue(ctx).unwrap();
                let q2 = gpu.create_queue(ctx).unwrap();
                let mut handles = Vec::new();
                for i in 0..4 {
                    handles.push(put(gpu, q1, compute(20, 54, 0.5), i));
                    handles.push(put(gpu, q2, compute(30, 54, 0.3), 10 + i));
                }
                // Arrivals land every 3 us up to 24 us; stop mid-way.
                rec.advance(gpu, SimTime::from_micros(11));
                rec.probe(gpu);
                let ckpt = gpu.drain_snapshot();
                assert_eq!(ckpt.at, SimTime::from_micros(11));
                let launch_order: Vec<KernelHandle> =
                    ckpt.abandoned.iter().map(|f| f.handle).collect();
                assert_eq!(launch_order, handles);
                rec.t.casualties.extend(ckpt.abandoned);
                assert!(gpu.peek_event_time().is_none() && gpu.unposted.is_empty());
                assert!(gpu.is_device_idle());
                rec.drain(gpu);
                handles
            },
        );
        assert_eq!(t.casualties.len(), 8);
        assert_eq!(t.now, SimTime::from_micros(11));
    }

    #[test]
    fn advance_to_across_unposted_arrivals_keeps_busy_time_bit_identical() {
        // Fair shares of 100 SMs among three kernels are not dyadic, so
        // the busy integral's bits depend on every settle point.
        let spec = GpuSpec {
            hw_policy: HwPolicy::FairShare,
            ..GpuSpec::a100_with_sms(100)
        };
        let (t, fewer, every) =
            assert_twins(&spec, HostCosts::paper(), &FaultPlan::none(), |gpu, rec| {
                let ctx = gpu.create_context(CtxKind::Default).unwrap();
                let queues: Vec<QueueId> = (0..3).map(|_| gpu.create_queue(ctx).unwrap()).collect();
                let mut handles = Vec::new();
                for i in 0..4u64 {
                    for (n, &q) in queues.iter().enumerate() {
                        let us = 13 + i + 5 * n as u64;
                        handles.push(put(
                            gpu,
                            q,
                            compute(us, 100, 0.3 * n as f64),
                            10 * n as u64 + i,
                        ));
                    }
                }
                // Each advance crosses several unposted arrivals (every 3 us
                // up to 36 us) whose settles split the busy integral.
                for us in [10, 23, 37] {
                    rec.advance(gpu, SimTime::from_micros(us));
                    rec.probe(gpu);
                }
                handles.push(put(gpu, queues[0], compute(5, 100, 0.2), 99));
                rec.drain(gpu);
                rec.probe(gpu);
                handles
            });
        assert!(t.probes.iter().all(|&(_, bits)| f64::from_bits(bits) > 0.0));
        assert!(fewer < every, "{fewer} vs {every}");
    }

    /// A queue with a ten-kernel table, its first two kernels launched
    /// and the other eight installed as a program, window 2.
    fn program_gpu(closed: bool) -> (Gpu, QueueId) {
        let mut gpu = Gpu::new(GpuSpec::a100(), HostCosts::paper());
        gpu.no_closed_form = !closed;
        let ctx = gpu.create_context(CtxKind::Default).unwrap();
        let q = gpu.create_queue(ctx).unwrap();
        let table = gpu.register_kernel_table((0..10).map(|_| compute(20, 108, 0.2)).collect());
        gpu.launch_graph(q, table, 0..2, |k| encode_tag(0, k))
            .unwrap();
        let program = LaunchProgram {
            table,
            range: 2..10,
            in_flight: 2,
            window: 2,
            graph: 1,
            app: 0,
        };
        gpu.install_program(q, program.clone()).unwrap();
        assert!(
            gpu.install_program(q, program).is_err(),
            "one program per queue"
        );
        (gpu, q)
    }

    #[test]
    fn program_reports_only_its_last_kernel() {
        for closed in [true, false] {
            let (mut gpu, q) = program_gpu(closed);
            let out = drain_outputs(&mut gpu);
            assert_eq!(out.len(), 1);
            let StepOutput::KernelDone { queue, tag, .. } = out[0].1 else {
                panic!("{out:?}");
            };
            assert_eq!((queue, tag), (q, encode_tag(0, 9)));
            // Ten 20 us kernels back to back after the first 3 us launch.
            assert_eq!(out[0].0, SimTime::from_micros(203));
            assert!(gpu.is_device_idle());
            assert_eq!(gpu.cancel_program(q), None, "a reported program is gone");
        }
    }

    #[test]
    fn closed_form_runs_a_lone_chain_in_one_step() {
        let run = |closed: bool| {
            let (mut gpu, _) = program_gpu(closed);
            let sink = BufferSink::new();
            gpu.set_trace_sink(Box::new(sink.clone()));
            let mut steps = 0;
            while gpu.peek_event_time().is_some() {
                assert!(
                    steps < EVENT_BUDGET,
                    "event budget spent at {:?}",
                    gpu.now()
                );
                gpu.step();
                steps += 1;
            }
            (steps, gpu.closed_steps, gpu.fingerprint(), sink.take())
        };
        let (steps, closed, state, trace) = run(true);
        let (popped, none, popped_state, popped_trace) = run(false);
        // The first arrival, then the first completion, from which the
        // closed form takes completions 2 to 9 off the heap's top, then
        // the reported tenth; without it each completion is a step.
        assert_eq!((steps, popped), (3, 11));
        assert_eq!((closed, none), (8, 0));
        assert_eq!(state, popped_state);
        assert_eq!(trace, popped_trace);
        let completes = |trace: &[TraceEvent]| {
            trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::KernelComplete { .. }))
                .count()
        };
        // Kernels 0 and 1 were launched before the sink was installed.
        assert_eq!(completes(&trace), 8);
    }

    /// The busy integral is an integer, so nothing stops at 2^53 busy
    /// SM·ns, where an `f64` total stopped being exact: a chain that starts
    /// just below it runs past it in closed form, stepping and jumping,
    /// and leaves the event loop's outputs and state.
    #[test]
    fn closed_form_runs_past_two_to_the_53_busy_sm_ns() {
        const OLD_BOUND: u128 = 1 << 53;
        // Each 20 us kernel on 108 SMs adds 2.16e6 busy SM·ns; the first
        // completion is an event, and the closed form takes the next eight.
        let start = OLD_BOUND - 5_000_000;
        let run = |closed: bool, jump: bool| {
            let (mut gpu, _) = program_gpu(closed);
            gpu.no_jump = !jump;
            gpu.busy_sm_integral = start << 16;
            let out = drain_outputs(&mut gpu);
            let busy = gpu.busy_sm_integral >> 16;
            let counts = (gpu.closed_steps, gpu.jumped_kernels);
            (out, gpu.fingerprint(), counts, busy)
        };
        let (out, state, none, busy) = run(false, false);
        let (stepped_out, stepped_state, stepped, _) = run(true, false);
        let (jumped_out, jumped_state, jumped, _) = run(true, true);
        assert_eq!((&stepped_out, &jumped_out), (&out, &out));
        assert_eq!((&stepped_state, &jumped_state), (&state, &state));
        assert_eq!((none, stepped), ((0, 0), (8, 0)));
        assert_eq!(busy, start + 10 * 2_160_000);
        // The jump takes every one of the eight, the second of them already
        // past the old bound.
        assert_eq!(jumped, (8, 8));
        assert!(start + 3 * 2_160_000 > OLD_BOUND);
    }

    #[test]
    fn cancel_and_crash_hand_back_program_progress() {
        let (mut gpu, q) = program_gpu(true);
        // Kernel 0 runs 3-23 us, kernel 1 23-43 us; kernel 2 launches at
        // 23 us and lands at 26 us.
        gpu.step_within(SimTime::from_micros(30));
        gpu.step_within(SimTime::from_micros(30));
        assert_eq!(gpu.now(), SimTime::from_micros(23));
        assert_eq!(
            gpu.cancel_program(q),
            Some(ProgramProgress {
                launched: 1,
                completed: 1
            })
        );
        let out = drain_outputs(&mut gpu);
        assert_eq!(out.len(), 2, "kernels 1 and 2 are reported: {out:?}");

        let crash = FaultSpec {
            num_apps: 1,
            crash_count: 1,
            crash_window: (SimTime::from_micros(50), SimTime::from_micros(50)),
            ..FaultSpec::default()
        };
        let (mut gpu, q) = program_gpu(true);
        gpu.set_fault_plan(FaultPlan::build(1, &crash));
        assert_eq!(
            drain_outputs(&mut gpu),
            vec![(
                SimTime::from_micros(50),
                StepOutput::ContextCrash { app: 0 }
            )]
        );
        // Kernels 0 and 1 completed; 2 and 3 were launched and killed.
        assert_eq!(
            gpu.cancel_program(q),
            Some(ProgramProgress {
                launched: 2,
                completed: 2
            })
        );
    }

    /// One random raw-engine schedule: several queues over default,
    /// MPS-capped and MIG contexts, delayed launches, graph launches,
    /// crashes, DMA stalls and stragglers, run output by output and
    /// advanced in the order `ops` gives (see
    /// `prop_deferred_arrivals_match_posting_every_arrival`). Returns the
    /// spec, host costs, fault plan and script of the run.
    fn schedule(
        seed: u64,
        layout: u8,
        paper_costs: bool,
        per_resource: bool,
        fair_share: bool,
        ops: &[(u8, usize, u64)],
    ) -> (
        GpuSpec,
        HostCosts,
        FaultPlan,
        impl Fn(&mut Gpu, &mut Recorder) -> Vec<KernelHandle> + '_,
    ) {
        let mut spec = if per_resource {
            GpuSpec::a100_per_resource()
        } else {
            GpuSpec::a100()
        };
        if fair_share {
            // Non-dyadic shares make busy-time bits sensitive to every
            // settle point.
            spec.hw_policy = HwPolicy::FairShare;
            spec.num_sms = 100;
        }
        let costs = if paper_costs {
            HostCosts::paper()
        } else {
            HostCosts::free()
        };
        let faults = FaultSpec {
            num_apps: 3,
            straggler_prob: 0.1,
            straggler_factor: 2.0,
            crash_count: (seed % 3) as u32,
            crash_window: (SimTime::ZERO, SimTime::from_micros(400)),
            dma_stall_count: (seed / 3 % 2) as u32,
            dma_stall_window: (SimTime::ZERO, SimTime::from_micros(300)),
            dma_stall_len: SimDuration::from_micros(60),
            dma_slow_factor: 3.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::build(seed, &faults);
        let table: Arc<[KernelDesc]> = Arc::from(vec![
            compute(12, 108, 0.1),
            compute(30, 54, 0.8),
            compute(7, 20, 0.5),
            compute(50, 90, 0.3),
            KernelDesc::memcpy_h2d(200_000),
            KernelDesc::memcpy_d2h(120_000),
            compute(3, 108, 0.9),
        ]);
        let script = move |gpu: &mut Gpu, rec: &mut Recorder| {
            let table_id = gpu.register_kernel_table(table.clone());
            let mut ctxs = vec![gpu.create_context(CtxKind::Default).unwrap()];
            if layout & 1 != 0 {
                ctxs.push(
                    gpu.create_context(CtxKind::MpsAffinity { sm_cap: 40 })
                        .unwrap(),
                );
            }
            if layout & 2 != 0 {
                ctxs.push(
                    gpu.create_context(CtxKind::MigPartition { sm_count: 28 })
                        .unwrap(),
                );
            }
            let queues: Vec<QueueId> = (0..4)
                .map(|i| gpu.create_queue(ctxs[i % ctxs.len()]).unwrap())
                .collect();
            let mut handles = Vec::new();
            for (n, &(op, a, b)) in ops.iter().enumerate() {
                let q = queues[a % queues.len()];
                let index = a / queues.len() % table.len();
                let tag = encode_tag(a % 3, n);
                match op {
                    0 | 1 => handles.push(gpu.launch(q, table_id, index, tag).unwrap()),
                    2 => {
                        let extra = SimDuration::from_micros(b % 60);
                        handles.push(gpu.launch_delayed(q, table_id, index, tag, extra).unwrap());
                    }
                    3 => {
                        let end = (index + 1 + (b as usize) % 3).min(table.len());
                        gpu.launch_graph(q, table_id, index..end, |k| encode_tag(a % 3, n + k))
                            .unwrap();
                    }
                    4 => rec.advance(gpu, gpu.now() + SimDuration::from_micros(b)),
                    _ => {
                        for _ in 0..b % 4 {
                            rec.next_output(gpu);
                        }
                    }
                }
            }
            rec.drain(gpu);
            rec.probe(gpu);
            handles
        };
        (spec, costs, plan, script)
    }

    /// The three [`twin_runs`] of the [`schedule`] of these arguments.
    fn schedule_twins(
        seed: u64,
        layout: u8,
        paper_costs: bool,
        per_resource: bool,
        fair_share: bool,
        ops: &[(u8, usize, u64)],
    ) -> [(Transcript, usize); 3] {
        let (spec, costs, plan, script) =
            schedule(seed, layout, paper_costs, per_resource, fair_share, ops);
        twin_runs(&spec, costs, &plan, script)
    }

    /// Case 1438 of `prop_deferred_arrivals_match_posting_every_arrival`:
    /// after a context crash the script asks for outputs that never come.
    /// `Recorder::next_output` then stops on an empty heap, and unless it
    /// accounts the arrivals still owed, as `Recorder::drain` does, the
    /// deferred run settles them later than the twin that popped them as
    /// events, and its next kernel completes at 96 µs instead of 98 µs.
    #[test]
    fn next_output_accounts_owed_arrivals_when_no_output_comes() {
        #[rustfmt::skip]
        let ops = [
            (1, 1, 76), (4, 25, 79), (2, 59, 0), (1, 23, 25), (5, 32, 62), (5, 17, 6),
            (4, 25, 2), (5, 25, 61), (5, 44, 31), (1, 45, 38), (5, 1, 77), (5, 8, 21),
            (5, 24, 71), (1, 28, 79), (0, 29, 55), (4, 16, 67), (1, 29, 40), (1, 41, 46),
            (2, 21, 3), (3, 48, 23), (2, 6, 60), (4, 55, 73), (1, 47, 36), (0, 19, 27),
            (0, 2, 5), (3, 63, 29), (3, 9, 56), (1, 31, 74), (1, 49, 74), (1, 52, 64),
            (2, 60, 74), (4, 11, 7), (0, 1, 1), (5, 20, 32), (3, 50, 3), (1, 7, 48),
            (2, 38, 39), (2, 33, 52), (1, 58, 71), (0, 30, 73), (3, 42, 19), (1, 10, 72),
            (5, 0, 32), (0, 3, 29), (2, 26, 64), (2, 46, 17), (1, 63, 42), (4, 14, 59),
            (1, 37, 46), (0, 60, 16), (2, 50, 13), (3, 32, 49),
        ];
        let [(deferred, fewer), (posted, every), (general, _)] =
            schedule_twins(12_128_155_649_117_265_547, 3, true, false, false, &ops);
        assert!(
            !deferred.casualties.is_empty(),
            "the schedule crashes a context"
        );
        assert_eq!(deferred, posted);
        assert_eq!(deferred, general);
        assert!(fewer <= every);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Differential twin: random raw-engine schedules (see
        /// [`schedule_twins`]) expose identical outputs, busy-time bits,
        /// fault counters, casualties and trace streams whether arrivals
        /// behind a busy queue are deferred or posted, and whether a lone
        /// running head takes the shortcut or the general reallocation and
        /// settle walk.
        #[test]
        fn prop_deferred_arrivals_match_posting_every_arrival(
            seed in proptest::prelude::any::<u64>(),
            layout in 0u8..4,
            paper_costs in proptest::prelude::any::<bool>(),
            per_resource in proptest::prelude::any::<bool>(),
            fair_share in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0u8..6, 0usize..64, 0u64..80), 1..60),
        ) {
            let [(deferred, fewer), (posted, every), (general, _)] =
                schedule_twins(seed, layout, paper_costs, per_resource, fair_share, &ops);
            proptest::prop_assert_eq!(&deferred, &posted);
            proptest::prop_assert_eq!(deferred, general, "lone-head shortcut");
            proptest::prop_assert!(fewer <= every);
        }

        /// Splitting a settle interval moves no bit: a random raw-engine
        /// [`schedule`], settled again at a random instant before every
        /// event it takes and every advance, leaves the engine fingerprint
        /// of the run without those settles after each step and advance,
        /// with the same outputs, busy-time bits, casualties and trace.
        #[test]
        fn prop_extra_settles_leave_the_fingerprint(
            seed in proptest::prelude::any::<u64>(),
            layout in 0u8..4,
            paper_costs in proptest::prelude::any::<bool>(),
            per_resource in proptest::prelude::any::<bool>(),
            fair_share in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0u8..6, 0usize..64, 0u64..80), 1..60),
            settles in proptest::prelude::any::<u64>(),
        ) {
            let (spec, costs, plan, script) =
                schedule(seed, layout, paper_costs, per_resource, fair_share, &ops);
            let [plain, split] = [None, Some(settles)].map(|settles| {
                let rec = Recorder {
                    settles: settles.map(sim_core::SimRng::new),
                    states: Some(Vec::new()),
                    ..Recorder::default()
                };
                let rec = record(&spec, &costs, &plan, (false, false), rec, &script);
                (rec.t, rec.pops, rec.states)
            });
            proptest::prop_assert_eq!(plain, split);
        }
    }
}
