#![warn(missing_docs)]

//! Deterministic discrete-event simulation primitives.
//!
//! This crate provides the foundation every other crate in the BLESS
//! reproduction builds on:
//!
//! * [`SimTime`] and [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`EventQueue`] — a stable (FIFO-on-tie) priority queue of timed events.
//! * [`rng::SimRng`] — a small, seedable, fully deterministic PRNG so that
//!   every experiment is bit-for-bit reproducible without external crates.
//! * [`fault::FaultPlan`] — a deterministic fault schedule (stragglers,
//!   profile drift, context crashes, DMA stalls) expanded from a seed, so
//!   robustness experiments replay bit-for-bit like everything else.
//! * [`trace::TraceEvent`] / [`trace::TraceSink`] — a zero-cost-when-
//!   disabled structured trace stream of scheduler events in virtual time
//!   (see DESIGN.md §5e), consumed by the trace validator, the derived
//!   counters, and the Perfetto exporter in the upper layers.
//! * [`spsc::ring`] — bounded lock-free single-producer/single-consumer
//!   rings with batched drain and producer watermarks, the ingest handoff
//!   of the serving front-end (DESIGN.md §5l). Allocates only at
//!   construction, never in steady state.
//! * [`par::for_each_ordered`] — the ordered parallel map every pool of
//!   independent runs goes through (the paper suite's grids, the fleet
//!   runner, the chaos drain). Results reach the caller in input order,
//!   so output does not depend on thread scheduling (DESIGN.md §5m).
//!
//! Each simulation is single-threaded by design: GPU scheduling experiments
//! need deterministic replay far more than they need wall-clock speed, and
//! the fluid-model GPU simulation in `gpu-sim` is cheap enough that entire
//! paper-scale experiments complete in milliseconds of host time.

pub mod event;
pub mod fault;
pub mod par;
pub mod rng;
pub mod spsc;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use fault::{CrashEvent, DmaStallEvent, FaultPlan, FaultSpec, GpuFailEvent, GpuHangEvent};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{BufferSink, TraceEvent, TraceSink, TraceSquadEntry};
