//! # The whole-processor CTCP simulator
//!
//! Wires the front-end (branch predictor, BTB, RAS, instruction cache),
//! the trace cache and fill unit, the clustered out-of-order engine, and
//! the data memory system into a cycle-level model of the paper's
//! baseline architecture (Table 7), then exposes an experiment API used
//! by every table and figure reproduction.
//!
//! Simulations are constructed through the validating
//! [`SimBuilder`] (see [`Simulation::builder`]); attach a
//! [`ctcp_telemetry::Recorder`] via [`SimBuilder::probe`] to capture
//! pipeline events and metrics without perturbing the simulation.
//!
//! ## Example
//!
//! ```
//! use ctcp_sim::{Simulation, Strategy};
//! use ctcp_workload::Benchmark;
//!
//! let program = Benchmark::by_name("gzip").unwrap().program();
//! let report = Simulation::builder(&program)
//!     .strategy(Strategy::Fdrt { pinning: true })
//!     .max_insts(20_000)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(report.ipc > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod builder;
mod checkpoint;
mod codec;
mod config;
mod error;
mod processor;
mod report;
mod stream;

pub use batch::{BatchError, BatchRunner};
pub use builder::{ConfigError, SimBuilder, MAX_CLUSTERS};
pub use checkpoint::Checkpoint;
pub use config::{SimConfig, Strategy};
/// Recyclable engine storage, re-exported so resident workers (e.g. the
/// harness's shared cell scheduler) can thread one arena through
/// consecutive [`BatchRunner`]s without a `ctcp-core` dependency.
pub use ctcp_core::EngineArena;
/// Interconnect topology, re-exported so sweep descriptions (e.g. the
/// harness's `SweepSpec`) can name it without a `ctcp-core` dependency.
pub use ctcp_core::Topology;
/// Pipeline snapshot carried by watchdog errors, re-exported so callers
/// matching on [`SimError`] need not depend on `ctcp-core` directly.
pub use ctcp_core::{ClusterOccupancy, HeadWait, PipelineDiagnostic};
/// JSON support re-exported from the telemetry crate (it moved there so
/// exporters and the result store share one implementation).
pub use ctcp_telemetry::json;
pub use error::SimError;
pub use processor::{Simulation, DEFAULT_WATCHDOG_STALL_LIMIT};
pub use report::{harmonic_mean, MetricsSnapshot, SimReport};
