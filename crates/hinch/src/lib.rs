//! # Hinch — a run-time system for reconfigurable streaming applications
//!
//! Hinch executes a hierarchical **Series-Parallel-Contention (SPC)** task
//! graph of [`Component`]s in a data-flow style: every *iteration* of the
//! application runs each node of the graph once, ready jobs go to whichever
//! worker is free (automatic load balancing), and several iterations are
//! kept in flight concurrently (pipeline parallelism).
//!
//! The graph supports the composition forms of the XSPCL coordination
//! language (ICPP 2007):
//!
//! * sequential composition,
//! * `task`-parallel groups,
//! * `slice` data-parallel groups (a body replicated *n* times, each copy
//!   told its position via the reconfiguration interface),
//! * `crossdep` groups (non-SP dependencies between consecutive parallel
//!   blocks: copy *i* of block *j+1* waits for copies *i-1, i, i+1* of
//!   block *j*),
//! * `option` subgraphs inside `manager` containers that can be enabled,
//!   disabled or toggled at run time in response to asynchronous events.
//!
//! Components communicate through [`stream::Stream`]s (iteration-indexed
//! FIFO slots) and [`event::EventQueue`]s. Sliced groups write into a single
//! shared output buffer per iteration using [`sharedbuf::RegionBuf`], which
//! checks at run time that concurrent writers lease *disjoint* regions.
//!
//! Two engines execute the same graphs:
//!
//! * [`engine::native`] — real worker threads, wall-clock time: one
//!   work-stealing multi-graph runtime ([`Runtime`]); [`run_native`] is that
//!   runtime with a single tenant;
//! * [`engine::sim`] — deterministic discrete-event execution on a virtual
//!   [`meter::Platform`] (e.g. the SpaceCAKE tile model in the `spacecake`
//!   crate), which reports cycle counts for any number of virtual cores and
//!   keeps the paper's central job queue.
//!
//! The [`run_reference`] oracle is the simulator's own loop on a free
//! one-core machine, in program order. [`sched::Tracker`] is the
//! sequential specification of the dependency rules that loop walks; the
//! native runtime tracks dependencies with its own atomic counters.

pub mod component;
pub mod engine;
pub mod error;
pub mod event;
pub mod graph;
pub mod manager;
pub mod meter;
pub mod packet;
pub mod report;
pub mod sched;
pub mod sharedbuf;
pub mod stream;
pub mod sync;

pub use component::{Component, ParamValue, Params, ReconfigRequest, RunCtx, SliceAssign};
pub use engine::{
    run_native, run_reference, run_sim, GraphId, GraphStats, PoolTelemetry, RunConfig, Runtime,
    RuntimeConfig, ServeError, SpawnOpts, WorkerTelemetry,
};
pub use error::HinchError;
pub use event::{Event, EventQueue};
pub use graph::{ComponentFactory, ComponentSpec, GraphSpec, ManagerSpec};
pub use manager::{EventAction, EventRule};
pub use meter::{MemAccess, Meter, NullMeter, Platform, PlatformStats};
pub use report::{RunReport, SimReport};
pub use sched::SchedPolicy;

/// Re-export of the flight-recorder crate, so downstream users can build
/// sinks and exporters without a separate dependency (`hinch::trace`).
pub use trace;
