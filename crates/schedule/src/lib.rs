//! # fastsched-schedule
//!
//! Schedule representation and analysis for static DAG scheduling:
//!
//! * [`Schedule`] — per-node processor assignment plus start/finish
//!   times, with per-processor timelines;
//! * [`validate()`](fn@validate) / [`validate_with()`](fn@validate_with)
//!   / [`validate_into()`](fn@validate_into) — the legality checks
//!   under any [`CostModel`] that the scheduler entry point runs on
//!   every schedule any algorithm produces;
//! * [`corrupt`] — seeded schedule-corruption operators that
//!   mutation-test the validator itself;
//! * [`metrics`] — schedule length, processors used, speedup,
//!   efficiency, load balance, communication volume;
//! * [`cost`] — the [`CostModel`] trait every evaluator is generic
//!   over (homogeneous, per-processor speeds, topology-aware), plus
//!   the shared data-arrival-time primitive;
//! * [`machine`] — the closed [`Machine`] enum schedulers run on, its
//!   validation and its makespan bound;
//! * [`evaluate`] — the O(v + e) fixed-order list-scheduling evaluator
//!   (given a priority order and a node→processor assignment, compute
//!   all start times) — the reference semantics;
//! * [`incremental`] — the [`DeltaEvaluator`]: bit-identical to
//!   [`evaluate`] but re-evaluates only the suffix a node transfer
//!   actually dirties. FAST's local search probes run through it.
//!   It always accumulates [`EvalStats`] counters (suffix lengths
//!   walked, successor entries scanned, …) — plain `u64` increments;
//! * [`gantt`] / [`svg`] — ASCII and SVG Gantt-chart rendering;
//! * [`io`] — JSON (de)serialization of schedules for the CLI;
//! * [`analysis`] — bottleneck-chain extraction, critical-path
//!   attribution, slack profiling and per-processor busy/comm/idle
//!   breakdowns;
//! * [`diff`] — structural comparison of two schedules of one DAG;
//! * [`export`] — Chrome-trace-event (Perfetto) rendering of a
//!   schedule.

#![warn(missing_docs)]

pub mod analysis;
pub mod corrupt;
pub mod cost;
pub mod diff;
pub mod evaluate;
pub mod export;
pub mod gantt;
pub mod incremental;
pub mod io;
pub mod machine;
pub mod metrics;
pub mod schedule;
pub mod svg;
pub mod validate;

pub use corrupt::{corrupt_with, Corruption};
pub use cost::{
    data_arrival_time_with, AlphaBeta, CommModel, CostModel, Hierarchical, HomogeneousModel,
    MemCapsSpec, MemoryCapacities, ProcessorSpeeds, IDEAL_LINK,
};
pub use diff::{diff_schedules, PlacementDelta, ScheduleDiff};
pub use evaluate::{
    evaluate_fixed_order, evaluate_fixed_order_into_with, evaluate_fixed_order_with,
    evaluate_makespan_into,
};
pub use fastsched_trace::EvalStats;
pub use incremental::DeltaEvaluator;
pub use machine::Machine;
pub use metrics::ScheduleMetrics;
pub use schedule::{CompactScratch, ProcId, Schedule, ScheduledTask};
pub use validate::{
    validate, validate_into, validate_with, ScheduleError, ScheduleErrorKind, ValidateScratch,
};
