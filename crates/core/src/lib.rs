#![warn(missing_docs)]

//! BLESS: bubbleless spatial-temporal GPU sharing (EuroSys '25).
//!
//! This crate is the paper's primary contribution: a host-side runtime
//! that lets multiple applications share a GPU with *quota guarantees*
//! while squeezing the idle "bubbles" that temporal and spatial sharing
//! leave behind.
//!
//! * [`squad`] — the multi-task scheduler (§4.3): progress-based kernel
//!   selection into *kernel squads*.
//! * [`predict`] — the execution configuration determiner (§4.4): the
//!   interference-free (Eq. 1) and workload-equivalence (Eq. 2) squad
//!   duration estimators and the configuration search.
//! * [`runtime`] — the concurrent kernel manager (§4.5): launching squads
//!   into per-tenant restricted/unrestricted MPS contexts with semi-SP
//!   context switching, squad synchronization, and SLO mode (§6.5).
//! * [`deploy`] / [`params`] — deployment bindings and the tunables of
//!   §6.7 (squad size 50, split ratio 50%) plus the §6.8 ablations.
//!
//! # Example
//!
//! ```
//! use bless::{BlessDriver, BlessParams, DeployedApp};
//! use dnn_models::{AppModel, ModelKind, Phase};
//! use gpu_sim::{Gpu, GpuSpec, HostCosts, RequestArrival, Simulation};
//! use profiler::ProfiledApp;
//! use sim_core::SimTime;
//!
//! // Profile two applications offline and deploy them with quotas.
//! let spec = GpuSpec::a100();
//! let vgg = ProfiledApp::profile(&AppModel::build(ModelKind::Vgg11, Phase::Inference), &spec);
//! let r50 = ProfiledApp::profile(&AppModel::build(ModelKind::ResNet50, Phase::Inference), &spec);
//! let apps = vec![
//!     DeployedApp::new(vgg, 1.0 / 3.0, None),
//!     DeployedApp::new(r50, 2.0 / 3.0, None),
//! ];
//!
//! // Run two overlapping requests under BLESS.
//! let driver = BlessDriver::new(apps, BlessParams::default());
//! let arrivals = vec![
//!     RequestArrival { app: 0, req: 0, at: SimTime::ZERO },
//!     RequestArrival { app: 1, req: 0, at: SimTime::ZERO },
//! ];
//! let mut sim = Simulation::new(Gpu::new(spec, HostCosts::paper()), driver, arrivals);
//! sim.run(SimTime::from_secs(1));
//! let mean = sim.driver.log.mean_of_app_means().unwrap();
//! assert!(mean.as_millis_f64() < 18.0);
//! ```

pub mod demand;
pub mod deploy;
pub mod error;
pub mod ingest;
pub mod lanes;
pub mod params;
pub mod predict;
pub mod runtime;
pub mod squad;

pub use demand::aggregate_demand;
pub use deploy::DeployedApp;
pub use error::SchedError;
pub use ingest::{
    IngestConfig, IngestSink, IngestStage, PumpProgress, RateLimit, ServeDaemon, TenantIngestStats,
    TenantStream,
};
pub use lanes::{LaneGroup, LaneHints, LaneKind};
pub use params::{BlessParams, WatchdogParams};
pub use predict::{
    determine_config, determine_config_exhaustive, determine_config_memo_model,
    predict_interference_free, predict_workload_equivalence, ConfigChoice, ConfigMemo, ExecConfig,
};
pub use runtime::{BlessDriver, CheckpointReq, SquadRecord, TenantCheckpoint};
pub use squad::{
    generate_squad, generate_squad_into, ActiveRequest, Squad, SquadEntry, SquadScratch,
};
