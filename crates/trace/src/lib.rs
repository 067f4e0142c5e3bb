//! # fastsched-trace
//!
//! Zero-dependency observability for the FAST search stack: what did
//! the search *do*, and where did the time go?
//!
//! The crate has two halves:
//!
//! * **Recording** ([`SearchTrace`], [`EvalStats`], [`PhaseClock`]):
//!   plain-`u64` search-event counters, one monotonic clock lapped per
//!   [`Phase`], a bounded ring-buffer trajectory of the schedule
//!   length per local-search step, and placement provenance.
//!   Collectors are owned by one
//!   search (or one search chain) — there are no shared atomics;
//!   parallel drivers merge per-thread collectors deterministically
//!   at join via [`SearchTrace::merge`].
//! * **Reporting** ([`TraceEvent`], [`Report`]): an NDJSON event
//!   format that round-trips through [`Report::from_ndjson`], plus a
//!   human-readable renderer with an ASCII schedule-length sparkline.
//!
//! Whether a [`SearchTrace`] records is a runtime choice, the same in
//! every build. [`SearchTrace::default`] is off: the counters still
//! count (they are plain increments) and the clock still laps (one
//! clock read per phase boundary), but the hooks that would allocate
//! return early, so an untraced run stays allocation-free.
//! [`SearchTrace::recording`] records everything. Serve carries a
//! bare [`PhaseClock`] per request through the same [`Phase`] table.
//!
//! ## Recording a search
//!
//! ```
//! use fastsched_trace::{Phase, SearchTrace};
//!
//! let mut trace = SearchTrace::recording();
//! let mut best = 100u64;
//! trace.clock.start();
//! for step in 0..4 {
//!     trace.probe_attempted();
//!     if step % 2 == 0 {
//!         best -= 1;
//!         trace.probe_accepted(step, best);
//!     } else {
//!         trace.probe_reverted(step, best);
//!     }
//! }
//! trace.clock.lap(Phase::Search);
//! let report = trace.to_report();
//! assert_eq!(report.counter("probes_attempted"), Some(4));
//! assert_eq!(report.trajectory(), vec![99, 99, 98, 98]);
//! assert_eq!(report.phase_totals()[0].0, "local_search");
//! ```
//!
//! ## Round-tripping a report
//!
//! ```
//! use fastsched_trace::{Report, TraceEvent};
//!
//! let report = Report::new(vec![
//!     TraceEvent::meta("algo", "FAST"),
//!     TraceEvent::Step { step: 0, makespan: 19, accepted: false },
//!     TraceEvent::Step { step: 1, makespan: 18, accepted: true },
//! ]);
//! let ndjson = report.to_ndjson();
//! let back = Report::from_ndjson(&ndjson).unwrap();
//! assert_eq!(report, back);
//! ```

#![warn(missing_docs)]

mod clock;
mod collect;
mod event;
pub mod perfetto;
mod report;

pub use clock::{Phase, PhaseClock};
pub use collect::{EvalStats, SearchTrace, DEFAULT_TRAJECTORY_CAPACITY};
pub use event::{json_string, ParseError, TraceEvent};
pub use report::{sparkline, CandidateProbe, Placement, Report, TransferRecord};
