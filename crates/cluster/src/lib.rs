#![warn(missing_docs)]

//! Multi-GPU deployment: the paper's §4.2.2 extension.
//!
//! > "As for the scenario in which applications have to be coordinated and
//! > deployed on multiple GPUs as GPUlet, BLESS can also be extended by
//! > replicating its runtime components for each active GPU. In such a
//! > case, a central controller can leverage the memory requirement and
//! > profiled kernel information to decide which specific GPU to place
//! > applications to avoid conflict."
//!
//! This crate implements exactly that: [`place`] packs profiled
//! applications onto a fleet of identical GPUs — honoring device memory,
//! quota capacity, and the §4.2.2 kernel-granularity compatibility rule —
//! and [`run_cluster_opts`] replicates the BLESS runtime per GPU and
//! serves each GPU's tenants independently (see [`ClusterRun`]).
//!
//! Placed GPUs are mutually independent, so one runner simulates them on
//! [`sim_core::par`] and hands each GPU's result back in GPU order.
//! [`ClusterOptions`] sets the worker count (`workers: Some(1)` is the
//! sequential loop the differential determinism test compares against)
//! and per-GPU trace capture for the `experiments --trace` pipeline;
//! [`run_cluster_stream`] folds each GPU into a [`FleetSummary`] instead
//! of keeping it.

pub mod chaos;
pub mod placement;
pub mod run;

pub use chaos::{
    run_chaos, ChaosOptions, ChaosRun, FaultKind, MigrationRecord, SkippedFault, StrandedTenant,
    MIGRATION_COST, RESTART_COST,
};
pub use placement::{
    place, place_with, predicted_fleet_slowdown, ContentionOpts, Placement, PlacementDigest,
    PlacementError, PlacementPolicy, PlacementRequest,
};
pub use run::{
    run_cluster_opts, run_cluster_stream, ClusterOptions, ClusterRun, FleetSummary, GpuRun,
};
