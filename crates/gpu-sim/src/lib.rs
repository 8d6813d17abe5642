#![warn(missing_docs)]

//! A deterministic fluid-model GPU simulator.
//!
//! This crate is the hardware substrate of the BLESS reproduction. It
//! models the pieces of an Nvidia A100 that GPU-sharing systems manipulate:
//!
//! * a pool of SMs divided among running kernels by a fair, waterfilling
//!   hardware scheduler ([`alloc`]),
//! * GPU contexts with MPS SM-affinity caps or hard MIG partitions
//!   ([`CtxKind`]),
//! * in-order device queues (CUDA-stream semantics) with cross-queue
//!   concurrency,
//! * a memory-bandwidth interference model calibrated to the paper's
//!   Fig. 9 measurements, with an opt-in four-channel per-resource
//!   variant ([`channel`]),
//! * PCIe DMA engines for memcpy kernels, and
//! * a host timeline with the §6.9 costs (3 µs launches, 20 µs squad sync,
//!   50 µs context-switch vacuum, per-kernel scheduling costs).
//!
//! Schedulers implement [`HostDriver`] and are run by [`Simulation`]
//! against a trace of request arrivals.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{CtxKind, Gpu, KernelDesc};
//! use sim_core::SimDuration;
//!
//! let mut gpu = Gpu::a100();
//! let ctx = gpu.create_context(CtxKind::MpsAffinity { sm_cap: 54 }).unwrap();
//! let queue = gpu.create_queue(ctx).unwrap();
//! let kernel = KernelDesc::compute("conv", SimDuration::from_micros(120), 80, 0.3);
//! gpu.launch(queue, kernel, 0).unwrap();
//! while gpu.step().is_some() || gpu.peek_event_time().is_some() {}
//! assert!(gpu.is_device_idle());
//! ```

pub mod alloc;
pub mod channel;
pub mod engine;
pub mod kernel;
pub mod lanes;
pub mod sim;
pub mod spec;

pub use channel::{Channel, ChannelDemand, ChannelModel, ChannelParams, NUM_CHANNELS};
pub use engine::{
    CtxId, CtxKind, DeviceCheckpoint, FailedKernel, FaultCounters, Gpu, GpuError, InstState,
    KernelHandle, QueueId, StepOutput, TimelineSegment,
};
pub use kernel::{KernelDesc, KernelKind, KernelTableId};
pub use lanes::{LaneEngine, MergedOutput};
pub use sim::{
    decode_tag, encode_tag, HostDriver, KernelDone, NoticeHandler, RequestArrival, RunOutcome,
    Simulation,
};
pub use spec::{GpuSpec, HostCosts, HwPolicy};

// Trace-stream types, re-exported so drivers and harnesses can attach
// sinks without naming `sim_core` directly.
pub use sim_core::trace::{BufferSink, JsonlSink, RingSink, TraceEvent, TraceSink};
