//! # fastsched-algorithms
//!
//! The scheduling algorithms of the FAST paper and its comparison
//! study, all programmed against the same [`Scheduler`] trait:
//!
//! * [`fast::Fast`] — the paper's contribution: CPN-Dominate list
//!   scheduling plus random-transfer local search (§4), O(e);
//! * [`dsc::Dsc`] — Dominant Sequence Clustering (Yang & Gerasoulis),
//!   O((v + e) log v), unbounded processors;
//! * [`md::Md`] — Mobility Directed (Wu & Gajski), O(v³);
//! * [`etf::Etf`] — Earliest Task First (Hwang et al.), O(p v²);
//! * [`dls::Dls`] — Dynamic Level Scheduling (Sih & Lee), O(p e v);
//!
//! plus members of the same algorithm family used for ablations and as
//! extensions:
//!
//! * [`hlfet::Hlfet`] — static-level list scheduling (the classical
//!   baseline FAST's CPN-Dominate list is designed to beat);
//! * [`mcp::Mcp`] — Modified Critical Path (ALAP-ordered list
//!   scheduling with insertion);
//! * [`heft::Heft`] — the later insertion-based standard, for context;
//! * [`fast_parallel::FastParallel`] — multi-start parallel FAST (the
//!   authors' follow-up FASTEST), built on crossbeam scoped threads.
//!
//! Every scheduler returns a [`fastsched_schedule::Schedule`] that
//! passes [`fastsched_schedule::validate()`](fn@fastsched_schedule::validate); the workspace test-suite
//! enforces this across all workloads.
//!
//! ## One entry point
//!
//! [`Scheduler::run`] schedules a DAG on a
//! [`fastsched_schedule::Machine`] with scratch from a caller-owned
//! [`workspace::Workspace`], recording into a
//! [`fastsched_trace::SearchTrace`], and returns a [`SchedulerError`]
//! instead of panicking. Each algorithm implements only
//! [`Scheduler::schedule_on`] (or [`HomogeneousOnly`]);
//! [`Scheduler::schedule`] and [`Scheduler::schedule_into`] are
//! shorthands for the homogeneous machine.
//!
//! The result is **byte-identical** whatever the workspace's history
//! (it only moves scratch, it never changes a decision), and once the
//! arena's buffers have grown to the workload's peak, repeated calls
//! perform **zero heap allocations** for the ported algorithms
//! (proven by a counting allocator in `tests/zero_alloc.rs`).
//!
//! A workspace is *cleared, never dropped* between runs and may be
//! reused across different DAGs, processor counts and algorithms in
//! any order; use one workspace per thread. Three layers build on
//! that contract, in increasing lifetime:
//!
//! * [`workspace::schedule_many_par_with`] — a batch sharded across
//!   scoped threads, one warm workspace per worker (one workspace
//!   across the whole batch at one thread), element-wise
//!   byte-identical at every thread count;
//! * [`pool::WorkerPool`] — persistent workers with one warm
//!   workspace each, fed through a bounded queue (or run in place of
//!   an idle worker by the caller); the substrate of the `casch
//!   serve` scheduling service.

#![warn(missing_docs)]

pub mod bounded_dsc;
pub mod cpop;
pub mod dcp;
pub mod dls;
pub mod dsc;
pub mod duplication;
pub mod etf;
pub mod ez;
pub mod fast;
pub mod fast_parallel;
pub mod fast_sa;
pub mod heft;
pub mod hetero;
pub mod hlfet;
pub mod ish;
pub mod lc;
pub mod list_common;
pub mod mcp;
pub mod md;
pub mod optimal;
pub mod pool;
pub mod scheduler;
pub mod workspace;

pub use bounded_dsc::BoundedDsc;
pub use cpop::Cpop;
pub use dcp::Dcp;
pub use dls::Dls;
pub use dsc::Dsc;
pub use duplication::{validate_dup, Dsh, DupSchedule};
pub use etf::Etf;
pub use ez::Ez;
pub use fast::{Fast, FastConfig};
pub use fast_parallel::{FastParallel, FastParallelConfig};
pub use fast_sa::{FastSa, FastSaConfig};
pub use heft::Heft;
pub use hetero::{HeftHetero, ProcessorSpeeds};
pub use hlfet::Hlfet;
pub use ish::Ish;
pub use lc::Lc;
pub use mcp::Mcp;
pub use md::Md;
pub use optimal::{BranchAndBound, NoPlan, OracleOutcome};
pub use pool::WorkerPool;
pub use scheduler::Feature;
pub use scheduler::{all_schedulers, paper_schedulers, HomogeneousOnly, Scheduler, SchedulerError};
pub use workspace::{schedule_many_par_with, Workspace};
