//! The StreamPIM device model (paper §III-IV).
//!
//! This crate assembles the substrates — racetrack memory (`rm-core`),
//! domain-wall logic (`dw-logic`), the segmented RM bus (`rm-bus`) and the
//! pipelined RM processor (`rm-proc`) — into the full processing-in-memory
//! device the paper evaluates:
//!
//! * [`vpc`] — the Vector Processing Command ISA (Table II) and traces;
//! * [`decode`] — VPC → bank command → micro-operation decomposition
//!   (paper Figure 14);
//! * [`placement`] — matrix placement across PIM subarrays: the naive
//!   `base` layout versus the `distribute` optimization (paper Figure 15),
//!   including slicing of oversized vectors;
//! * [`schedule`] — command ordering: natural order versus the `unblock`
//!   reordering that decouples read/write traffic from computation;
//! * [`engine`] — the analytic execution engine that prices a schedule in
//!   nanoseconds and picojoules, modelling subarray-level parallelism, the
//!   shift-vs-read/write blocking rule, and transfer/compute overlap;
//! * [`task`] — the `PimTask` programming interface (paper Figure 16) plus
//!   functionally-correct execution of the matrix operations;
//! * [`device`] — [`device::StreamPim`]: configuration + entry points;
//! * [`instruments`] — [`Instruments`], the trace sink + attribution probe
//!   pair every layer's run accepts;
//! * [`report`] — execution reports (time/energy breakdowns);
//! * [`area`] — the §V-G area-overhead model;
//! * [`controller`] — the VPC queue with asynchronous send-response
//!   (paper §IV-B);
//! * [`flow`] — the bit-level subarray data flow of Figure 13, proving the
//!   conversion-free property functionally;
//! * [`engine_event`] — the explicit-timeline reference engine the
//!   analytic engine is cross-validated against;
//! * [`expr`] — the §IV-D expression compiler with scale-add fusion.

pub mod area;
pub mod controller;
pub mod decode;
pub mod device;
pub mod engine;
pub mod engine_event;
pub mod error;
pub mod expr;
pub mod flow;
pub mod instruments;
pub mod matrix;
pub mod placement;
pub mod report;
pub mod schedule;
pub mod task;
pub mod vpc;

pub use device::{OptLevel, Parallelism, StreamPim, StreamPimConfig};
pub use engine::PriceTable;
pub use error::PimError;
pub use instruments::Instruments;
pub use report::ExecReport;
pub use task::{MatrixOp, PimTask, ShapeTask, TaskOutcome};
pub use vpc::{VecRef, Vpc, VpcTrace};

/// Result alias for device-level operations.
pub type Result<T> = std::result::Result<T, PimError>;
