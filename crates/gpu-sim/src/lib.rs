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
//! use std::sync::Arc;
//!
//! use gpu_sim::{CtxKind, Gpu, KernelDesc};
//! use sim_core::SimDuration;
//!
//! let mut gpu = Gpu::a100();
//! let ctx = gpu.create_context(CtxKind::MpsAffinity { sm_cap: 54 }).unwrap();
//! let queue = gpu.create_queue(ctx).unwrap();
//! // Kernels launch by index from a registered table.
//! let kernels: Arc<[KernelDesc]> =
//!     Arc::from([KernelDesc::compute(SimDuration::from_micros(120), 80, 0.3)]);
//! let table = gpu.register_kernel_table(kernels);
//! gpu.launch(queue, table, 0, 0).unwrap();
//! // Run to idle, failing after 1,000 events instead of looping for ever.
//! gpu.drain(1_000).unwrap();
//! assert!(gpu.is_device_idle());
//! ```

pub mod alloc;
pub mod channel;
pub mod engine;
pub mod kernel;
pub mod sim;
pub mod spec;

pub use channel::{Channel, ChannelDemand, ChannelModel, ChannelParams, NUM_CHANNELS};
pub use engine::{
    CtxId, CtxKind, DeviceCheckpoint, FailedKernel, FaultCounters, Gpu, GpuError, KernelHandle,
    LaunchProgram, ProgramProgress, QueueId, StepOutput,
};
pub use kernel::{KernelDesc, KernelKind, KernelTableId};
pub use sim::{
    decode_tag, encode_tag, HostDriver, KernelDone, NoticeHandler, RequestArrival, RunOutcome,
    Simulation,
};
pub use spec::{GpuSpec, HostCosts, HwPolicy};

// Trace-stream types, re-exported so drivers and harnesses can attach
// sinks without naming `sim_core` directly.
pub use sim_core::trace::{BufferSink, TraceEvent, TraceSink};
