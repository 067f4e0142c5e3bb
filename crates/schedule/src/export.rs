//! Chrome-trace-event export of an abstract schedule.
//!
//! [`chrome_trace`] renders a [`Schedule`] as one Perfetto-loadable
//! document: one thread track per used processor with each task as a
//! complete slice (annotated with its node id and its slack under the
//! machine the schedule was built for, from
//! [`analysis::slack_profile`](crate::analysis::slack_profile)), and
//! one flow arrow per cross-processor edge from the producing slice to
//! the consuming slice. Open the output at <https://ui.perfetto.dev>
//! or `chrome://tracing`.

use crate::analysis::slack_profile;
use crate::machine::Machine;
use crate::schedule::Schedule;
use fastsched_dag::Dag;
use fastsched_trace::perfetto::ChromeTrace;

/// Render `schedule`, built for `machine`, as a Chrome trace-event
/// JSON document.
///
/// Timestamps reuse the schedule's abstract time unit as microseconds,
/// so a makespan of 120 displays as 120 µs.
pub fn chrome_trace(dag: &Dag, schedule: &Schedule, machine: &Machine) -> String {
    let slacks = slack_profile(dag, schedule, machine);
    let mut t = ChromeTrace::new();
    t.process_name(0, "schedule");

    let timelines = schedule.timelines();
    for (p, lane) in timelines.iter().enumerate() {
        if lane.is_empty() {
            continue;
        }
        t.thread_name(0, p as u32, &format!("PE{p}"));
        for task in lane {
            t.complete_slice(
                0,
                p as u32,
                dag.name(task.node),
                task.start,
                task.finish - task.start,
                &[
                    ("node", u64::from(task.node.0)),
                    ("slack", slacks[task.node.index()]),
                ],
            );
        }
    }

    // One flow arrow per remote edge: tail on the producer's slice at
    // its finish, head on the consumer's slice at its start.
    let mut flow_id = 0u64;
    for (src, dst, _cost) in dag.edges() {
        let (Some(ts), Some(td)) = (schedule.task(src), schedule.task(dst)) else {
            continue;
        };
        if ts.proc == td.proc {
            continue;
        }
        let name = format!("{}->{}", dag.name(src), dag.name(dst));
        // `ts.finish - 1` keeps the tail inside the producing slice
        // (flow binding points must fall within a slice's extent).
        t.flow_start(0, ts.proc.0, flow_id, &name, ts.finish.saturating_sub(1));
        t.flow_finish(0, td.proc.0, flow_id, &name, td.start);
        flow_id += 1;
    }

    t.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ProcId;
    use fastsched_dag::{DagBuilder, NodeId};

    fn two_proc() -> (Dag, Schedule) {
        let mut b = DagBuilder::new();
        let a = b.add_node("a", 3);
        let c = b.add_node("b", 2);
        let d = b.add_node("c", 4);
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(a, d, 1).unwrap();
        let dag = b.build().unwrap();
        let mut s = Schedule::new(3, 2);
        s.place(NodeId(0), ProcId(0), 0, 3);
        s.place(NodeId(1), ProcId(1), 8, 10);
        s.place(NodeId(2), ProcId(0), 3, 7);
        (dag, s)
    }

    #[test]
    fn slices_flows_and_track_names_are_emitted() {
        let (dag, s) = two_proc();
        let json = chrome_trace(&dag, &s, &Machine::Homogeneous);
        assert!(json.contains("\"PE0\""));
        assert!(json.contains("\"PE1\""));
        // Three task slices.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        // Only a->b crosses processors: exactly one flow pair.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains("\"a->b\""));
        assert!(!json.contains("\"a->c\""));
    }

    #[test]
    fn unused_processors_get_no_track() {
        let mut b = DagBuilder::new();
        b.add_node("only", 2);
        let dag = b.build().unwrap();
        let mut s = Schedule::new(1, 4);
        s.place(NodeId(0), ProcId(2), 0, 2);
        let json = chrome_trace(&dag, &s, &Machine::Homogeneous);
        assert!(json.contains("\"PE2\""));
        assert!(!json.contains("\"PE0\""));
        assert!(!json.contains("\"PE3\""));
    }
}
