//! The measured outcome of one simulated execution.
//!
//! Reports and event logs are written as pretty JSON (`casch simulate
//! --out-report` / `--trace`) and read back by `casch diff` and `casch
//! verify --report`. Events are externally tagged, `{"TaskStart":
//! {"node":0,...}}`, and every field is required on read.

use fastsched_dag::json::{self, Reader, Writer};
use fastsched_dag::Cost;

/// One event of a simulated execution, recorded when
/// [`crate::SimConfig::trace`] is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task began executing.
    TaskStart {
        /// Node id.
        node: u32,
        /// Processor id.
        proc: u32,
        /// Simulation time.
        time: Cost,
    },
    /// A task finished executing.
    TaskFinish {
        /// Node id.
        node: u32,
        /// Processor id.
        proc: u32,
        /// Simulation time.
        time: Cost,
    },
    /// A remote message was delivered.
    Message {
        /// Producing node.
        from_node: u32,
        /// Consuming node.
        to_node: u32,
        /// Sender processor.
        from_proc: u32,
        /// Receiver processor.
        to_proc: u32,
        /// Time the message entered the network.
        sent: Cost,
        /// Time the data became usable at the receiver.
        arrived: Cost,
    },
}

const TASK_FIELDS: [&str; 3] = ["node", "proc", "time"];
const MESSAGE_FIELDS: [&str; 6] = [
    "from_node",
    "to_node",
    "from_proc",
    "to_proc",
    "sent",
    "arrived",
];
const LINK_FIELDS: [&str; 5] = ["from", "to", "start", "release", "wait"];
/// The six counts first, then the three lists.
const REPORT_FIELDS: [&str; 9] = [
    "execution_time",
    "predicted_makespan",
    "processors_used",
    "messages",
    "contention_delay",
    "busy_time",
    "finish_times",
    "trace",
    "link_holds",
];

/// One `key: value` entry per pair, into the open object.
fn write_counts(w: &mut Writer, keys: &[&str], values: &[u64]) {
    for (k, &x) in keys.iter().zip(values) {
        w.field(k, x);
    }
}

impl TraceEvent {
    /// Write as a single-entry object keyed by the variant name.
    pub fn write_json(&self, w: &mut Writer) {
        let (tag, keys, values): (_, &[&str], &[u64]) = match *self {
            TraceEvent::TaskStart { node, proc, time } => {
                ("TaskStart", &TASK_FIELDS, &[node.into(), proc.into(), time])
            }
            TraceEvent::TaskFinish { node, proc, time } => (
                "TaskFinish",
                &TASK_FIELDS,
                &[node.into(), proc.into(), time],
            ),
            TraceEvent::Message {
                from_node,
                to_node,
                from_proc,
                to_proc,
                sent,
                arrived,
            } => (
                "Message",
                &MESSAGE_FIELDS,
                &[
                    from_node.into(),
                    to_node.into(),
                    from_proc.into(),
                    to_proc.into(),
                    sent,
                    arrived,
                ],
            ),
        };
        w.begin_object().key(tag).begin_object();
        write_counts(w, keys, values);
        w.end_object().end_object();
    }

    /// Read the single-entry object [`TraceEvent::write_json`] writes.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        r.object()?;
        let tag = r
            .next_key()?
            .ok_or_else(|| r.err("expected a single-entry object"))?;
        let event = match &*tag {
            "TaskStart" | "TaskFinish" => {
                let [node, proc, time] = r.u64_fields(TASK_FIELDS)?;
                let (node, proc) = (r.narrow(node)?, r.narrow(proc)?);
                if tag == "TaskStart" {
                    TraceEvent::TaskStart { node, proc, time }
                } else {
                    TraceEvent::TaskFinish { node, proc, time }
                }
            }
            "Message" => {
                let [from_node, to_node, from_proc, to_proc, sent, arrived] =
                    r.u64_fields(MESSAGE_FIELDS)?;
                TraceEvent::Message {
                    from_node: r.narrow(from_node)?,
                    to_node: r.narrow(to_node)?,
                    from_proc: r.narrow(from_proc)?,
                    to_proc: r.narrow(to_proc)?,
                    sent,
                    arrived,
                }
            }
            _ => return Err(r.err("unknown TraceEvent variant")),
        };
        if r.next_key()?.is_some() {
            return Err(r.err("expected a single-entry object"));
        }
        Ok(event)
    }
}

/// An event log as the pretty JSON array `casch simulate --trace`
/// writes.
pub fn trace_to_json(trace: &[TraceEvent]) -> String {
    let mut w = Writer::pretty();
    w.begin_array();
    for e in trace {
        e.write_json(&mut w);
    }
    w.end_array();
    w.finish()
}

/// One occupancy interval of one directed mesh link, recorded when
/// [`crate::SimConfig::trace`] is enabled under link contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkHold {
    /// Source router of the link (flat processor index).
    pub from: u32,
    /// Destination router of the link (flat processor index).
    pub to: u32,
    /// Time the message began occupying the link.
    pub start: Cost,
    /// Time the link became free again.
    pub release: Cost,
    /// How long the message waited for this route to clear before
    /// `start` (0 when the path was already free).
    pub wait: Cost,
}

impl LinkHold {
    /// Write as a `{from, to, start, release, wait}` object.
    pub fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        let values = [
            self.from.into(),
            self.to.into(),
            self.start,
            self.release,
            self.wait,
        ];
        write_counts(w, &LINK_FIELDS, &values);
        w.end_object();
    }

    /// Read the object [`LinkHold::write_json`] writes.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let [from, to, start, release, wait] = r.u64_fields(LINK_FIELDS)?;
        Ok(LinkHold {
            from: r.narrow(from)?,
            to: r.narrow(to)?,
            start,
            release,
            wait,
        })
    }
}

/// What running a scheduled program on the simulated machine measured
/// — the analogue of timing the CASCH-generated code on the Paragon.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Wall-clock finish time of the last task (the paper's
    /// "application execution time").
    pub execution_time: Cost,
    /// The static schedule's predicted makespan, for comparison.
    pub predicted_makespan: Cost,
    /// Processors that executed at least one task.
    pub processors_used: u32,
    /// Remote messages delivered.
    pub messages: u64,
    /// Total time messages spent waiting on busy links.
    pub contention_delay: Cost,
    /// Sum of task execution times (machine-independent work).
    pub busy_time: Cost,
    /// Per-task finish times, indexed by node id.
    pub finish_times: Vec<Cost>,
    /// Event log (empty unless [`crate::SimConfig::trace`] is set).
    pub trace: Vec<TraceEvent>,
    /// Per-link occupancy intervals (empty unless
    /// [`crate::SimConfig::trace`] is set and the contention model
    /// tracks links).
    pub link_holds: Vec<LinkHold>,
}

impl ExecutionReport {
    /// The report as pretty JSON (two-space indent, no trailing
    /// newline), fields in declaration order.
    pub fn to_json(&self) -> String {
        let mut w = Writer::pretty();
        w.begin_object();
        let counts = [
            self.execution_time,
            self.predicted_makespan,
            self.processors_used.into(),
            self.messages,
            self.contention_delay,
            self.busy_time,
        ];
        write_counts(&mut w, &REPORT_FIELDS, &counts);
        w.key("finish_times")
            .u64s(self.finish_times.iter().copied());
        w.key("trace").begin_array();
        for e in &self.trace {
            e.write_json(&mut w);
        }
        w.end_array().key("link_holds").begin_array();
        for h in &self.link_holds {
            h.write_json(&mut w);
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Parse a report written by [`ExecutionReport::to_json`]. Every
    /// field is required; unknown keys are skipped.
    pub fn from_json(s: &str) -> Result<Self, json::Error> {
        let mut r = Reader::new(s);
        let mut counts = [0; 6];
        let (mut finish_times, mut trace, mut link_holds) = (Vec::new(), Vec::new(), Vec::new());
        r.fields(REPORT_FIELDS, |r, i| {
            match i {
                6 => finish_times = r.list(Reader::u64)?,
                7 => trace = r.list(TraceEvent::read_json)?,
                8 => link_holds = r.list(LinkHold::read_json)?,
                _ => counts[i] = r.u64()?,
            }
            Ok(())
        })?;
        r.end()?;
        Ok(ExecutionReport {
            execution_time: counts[0],
            predicted_makespan: counts[1],
            processors_used: r.narrow(counts[2])?,
            messages: counts[3],
            contention_delay: counts[4],
            busy_time: counts[5],
            finish_times,
            trace,
            link_holds,
        })
    }

    /// `execution_time / predicted_makespan` — how much the network
    /// model inflated the abstract schedule (1.0 = perfect
    /// prediction).
    pub fn slowdown_vs_prediction(&self) -> f64 {
        if self.predicted_makespan == 0 {
            return 1.0;
        }
        self.execution_time as f64 / self.predicted_makespan as f64
    }

    /// Mean processor utilization during the run.
    pub fn utilization(&self) -> f64 {
        if self.execution_time == 0 || self.processors_used == 0 {
            return 0.0;
        }
        self.busy_time as f64 / (self.execution_time as f64 * self.processors_used as f64)
    }

    /// Compare this run against another of the same program. Fails
    /// when the task counts differ.
    pub fn diff(&self, other: &ExecutionReport) -> Result<ReportDiff, String> {
        if self.finish_times.len() != other.finish_times.len() {
            return Err(format!(
                "reports cover different task counts ({} vs {})",
                self.finish_times.len(),
                other.finish_times.len()
            ));
        }
        let mut changed: Vec<(u32, Cost, Cost)> = self
            .finish_times
            .iter()
            .zip(&other.finish_times)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(n, (&a, &b))| (n as u32, a, b))
            .collect();
        changed.sort_by_key(|&(n, a, b)| (a.min(b), n));
        Ok(ReportDiff {
            execution_time: (self.execution_time, other.execution_time),
            contention_delay: (self.contention_delay, other.contention_delay),
            messages: (self.messages, other.messages),
            changed,
        })
    }
}

/// The divergence between two [`ExecutionReport`]s of the same
/// program (see [`ExecutionReport::diff`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportDiff {
    /// Measured execution time of A / of B.
    pub execution_time: (Cost, Cost),
    /// Link-wait totals of A / of B.
    pub contention_delay: (Cost, Cost),
    /// Remote message counts of A / of B.
    pub messages: (u64, u64),
    /// Tasks whose finish times differ: `(node, finish_a, finish_b)`,
    /// ordered by the earlier of the two finishes — the head of this
    /// list is where the executions first drifted apart.
    pub changed: Vec<(u32, Cost, Cost)>,
}

impl ReportDiff {
    /// `true` when both runs measured identical per-task timing.
    pub fn is_identical(&self) -> bool {
        self.changed.is_empty() && self.execution_time.0 == self.execution_time.1
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "execution time:   A={} B={} ({:+})",
            self.execution_time.0,
            self.execution_time.1,
            self.execution_time.1 as i64 - self.execution_time.0 as i64
        )
        .unwrap();
        writeln!(
            out,
            "contention delay: A={} B={}",
            self.contention_delay.0, self.contention_delay.1
        )
        .unwrap();
        writeln!(
            out,
            "remote messages:  A={} B={}",
            self.messages.0, self.messages.1
        )
        .unwrap();
        if self.is_identical() {
            writeln!(out, "executions are identical").unwrap();
            return out;
        }
        writeln!(
            out,
            "divergence:       {} task(s) retimed",
            self.changed.len()
        )
        .unwrap();
        if let Some(&(n, a, b)) = self.changed.first() {
            writeln!(out, "first at t={}: node {n} finishes {a} vs {b}", a.min(b)).unwrap();
        }
        for &(n, a, b) in self.changed.iter().take(20) {
            writeln!(out, "  node {n:<6} finish {a}  ->  {b}").unwrap();
        }
        if self.changed.len() > 20 {
            writeln!(out, "  ... and {} more", self.changed.len() - 20).unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            execution_time: 120,
            predicted_makespan: 100,
            processors_used: 4,
            messages: 7,
            contention_delay: 15,
            busy_time: 240,
            finish_times: vec![120],
            trace: Vec::new(),
            link_holds: Vec::new(),
        }
    }

    #[test]
    fn slowdown_ratio() {
        assert!((report().slowdown_vs_prediction() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn utilization_ratio() {
        assert!((report().utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn diff_localizes_the_first_divergent_task() {
        let a = report();
        let mut b = report();
        b.finish_times = vec![110];
        b.execution_time = 110;
        let d = a.diff(&b).unwrap();
        assert!(!d.is_identical());
        assert_eq!(d.changed, vec![(0, 120, 110)]);
        assert_eq!(d.execution_time, (120, 110));
        let text = d.render();
        assert!(text.contains("first at t=110"), "{text}");
        assert!(a.diff(&a).unwrap().is_identical());
    }

    #[test]
    fn diff_rejects_mismatched_task_counts() {
        let a = report();
        let mut b = report();
        b.finish_times = vec![120, 60];
        assert!(a.diff(&b).is_err());
    }

    #[test]
    fn degenerate_cases() {
        let mut r = report();
        r.predicted_makespan = 0;
        assert_eq!(r.slowdown_vs_prediction(), 1.0);
        r.execution_time = 0;
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn json_roundtrips_every_shape() {
        let mut r = report();
        r.trace = vec![
            TraceEvent::TaskStart {
                node: 0,
                proc: 1,
                time: 2,
            },
            TraceEvent::TaskFinish {
                node: 0,
                proc: 1,
                time: 9,
            },
            TraceEvent::Message {
                from_node: 0,
                to_node: 3,
                from_proc: 1,
                to_proc: 0,
                sent: 9,
                arrived: u64::MAX,
            },
        ];
        r.link_holds = vec![LinkHold {
            from: 1,
            to: 0,
            start: 9,
            release: 11,
            wait: 1,
        }];
        assert_eq!(ExecutionReport::from_json(&r.to_json()), Ok(r.clone()));
        let events = trace_to_json(&r.trace);
        let mut reader = Reader::new(&events);
        assert_eq!(reader.list(TraceEvent::read_json), Ok(r.trace));
    }

    #[test]
    fn json_rejects_bad_shapes() {
        let text = report().to_json();
        for (bad, msg) in [
            (text.replace("\"busy_time\"", "\"idle\""), "missing field"),
            (
                text.replace("\"processors_used\": 4", "\"processors_used\": 4294967296"),
                "integer out of range",
            ),
            (
                text.replace("\"trace\": []", "\"trace\": [{}]"),
                "expected a single-entry object",
            ),
            (
                text.replace("\"trace\": []", "\"trace\": [{\"Task\":{}}]"),
                "unknown TraceEvent variant",
            ),
            (
                text.replace(
                    "\"trace\": []",
                    "\"trace\": [{\"TaskStart\":{\"node\":0,\"proc\":0,\"time\":0},\"x\":1}]",
                ),
                "expected a single-entry object",
            ),
            (format!("{text}}}"), "trailing characters"),
        ] {
            let err = ExecutionReport::from_json(&bad).unwrap_err();
            assert_eq!(err.msg, msg, "{bad}");
        }
    }
}
