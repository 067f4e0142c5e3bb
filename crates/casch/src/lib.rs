//! # fastsched-casch
//!
//! The CASCH-tool substitute (DESIGN.md §2): the paper's experiments
//! run through CASCH, a prototype tool that takes a sequential
//! program, generates a task graph with weights from a benchmarked
//! timing database, schedules it with a chosen algorithm, generates
//! parallel code, and measures the code's execution on the Intel
//! Paragon. This crate reproduces that pipeline end to end:
//!
//! * [`application::Application`] — the supported programs (Gaussian
//!   elimination, Laplace solver, FFT, random synthetic DAGs);
//! * [`pipeline`] — application → DAG (via the timing database) →
//!   schedule (any [`fastsched_algorithms::Scheduler`]) → validation →
//!   simulated execution, all captured in a
//!   [`pipeline::PipelineReport`];
//! * [`compare`] — multi-algorithm comparison tables in the paper's
//!   normalized format (execution time relative to FAST, processors
//!   used, scheduling time);
//! * the `casch` CLI binary (`src/bin/casch.rs`).
//!
//! ## The serving stack
//!
//! Beyond the batch pipeline, the crate hosts a long-lived scheduling
//! service (DESIGN.md §14):
//!
//! * [`protocol`] — the NDJSON wire format: one JSON request per
//!   line, one JSON response per line, correlated by `id` so
//!   responses may be pipelined and arrive out of order. The module
//!   owns both sides of the contract (parse *and* render), and
//!   [`protocol::placements_json`] is the single formatter behind the
//!   byte-identity guarantee between server responses, the
//!   integration tests, and `loadgen --check`;
//! * [`serve`] — the worker-pool server. Each worker owns a pinned
//!   `Workspace` (the zero-alloc warm path of
//!   `fastsched_algorithms`'s `schedule_into`), admission is a
//!   bounded queue that sheds excess load as explicit `overloaded`
//!   errors, per-request timeouts bound *queue wait* (started work
//!   runs to completion), and SIGINT drains in-flight requests before
//!   exit. A `stats` request returns server-wide and per-worker
//!   counters including p50/p99 service latency. Observability is
//!   first-class (DESIGN.md §15): every request is timed through
//!   queue/schedule/serialize/write/parse/build phase histograms
//!   (`fastsched_metrics`), `--metrics-addr` serves a Prometheus
//!   `/metrics` page (JSON twin at `/metrics.json`) from a dedicated
//!   thread, and `--access-log` writes a sampled NDJSON access log;
//! * [`loadgen`] — the open-loop load generator (`casch loadgen`):
//!   paced or unpaced arrivals over N connections, warmup/measure
//!   phases, and optional `--check` verification of every response
//!   against a local `schedule_into` run.
//!
//! [`machine`] is the single owner of the machine/procs policy for
//! serve and the CLI alike: [`machine::resolve`] turns a request's
//! algorithm, `procs`, `comm`, `mem_caps` and `speeds` into a
//! [`machine::Engine`] — a scheduler plus the
//! [`fastsched_schedule::Machine`] it runs on — and a processor count;
//! [`machine::ALGORITHMS`] is the one list of algorithm names. Any
//! algorithm runs on any machine through the one entry point,
//! `Scheduler::run`, into the caller's `Workspace` and trace; a core
//! that cannot price the machine answers `SchedulerError::Unsupported`,
//! and every `SchedulerError` becomes a typed answer (`parse:`,
//! `infeasible:`, `unsupported:`, `too_large:` or `internal:`)
//! instead of a panic.

#![warn(missing_docs)]

pub mod application;
pub mod compare;
pub mod loadgen;
pub mod machine;
pub mod pipeline;
pub mod protocol;
pub mod serve;

pub use application::Application;
pub use compare::{compare_algorithms, ComparisonRow, ComparisonTable};
pub use pipeline::{run_on_dag, run_pipeline, PipelineReport};
pub use serve::{ServeConfig, ServeSummary, Server};
