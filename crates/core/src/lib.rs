//! # Clustered out-of-order execution engine
//!
//! The paper's primary contribution lives here: a 16-wide execution core
//! partitioned into four 4-wide clusters (Figures 1–3 of Bhargava & John,
//! ISCA 2003) together with **all four dynamic cluster-assignment
//! strategies** the paper evaluates:
//!
//! * slot-based **baseline** steering (cluster = slot / 4),
//! * **issue-time** dependency steering with configurable latency,
//! * **Friendly et al.** retire-time reordering (intra-trace dependencies
//!   only),
//! * **FDRT** — the proposed feedback-directed retire-time assignment with
//!   inter-trace cluster chaining, leader pinning, and the Table 5
//!   priority policy.
//!
//! Each cluster has five 8-entry reservation stations (two write ports
//! each) feeding eight special-purpose functional units; intra-cluster
//! forwarding is free while inter-cluster forwarding costs 2 cycles per
//! hop on a linear (or, optionally, ring/mesh) interconnect.
//!
//! The [`Engine`] consumes fetched-and-slotted instructions from the
//! front-end, executes them, and returns retired instructions carrying the
//! [`ctcp_tracecache::ExecFeedback`] the fill unit's FDRT strategy feeds
//! on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod assign;
mod config;
mod diag;
mod engine;
mod entry;
mod forwarding;
mod fu;
mod geometry;
mod rob;
mod rs;
mod sched;

pub use arena::EngineArena;
pub use config::{EngineConfig, FuLatency, LatencyOverrides};
pub use diag::{ClusterOccupancy, HeadWait, PipelineDiagnostic};
pub use engine::{
    Engine, EngineMetrics, EngineStats, FetchedInst, RetiredInst, SteeringMode, TickResult,
};
pub use forwarding::{ForwardingStats, ProducerHistory};
pub use geometry::{ClusterGeometry, ClusterList, Topology, MAX_CLUSTERS};
pub use rs::RsClass;
