//! Schedule (de)serialization: a JSON interchange format used by the
//! `casch` CLI so schedules can be saved, diffed and re-simulated.

use crate::schedule::{ProcId, Schedule};
use crate::validate::ScheduleError;
use fastsched_dag::json::{self, Reader, Writer};
use fastsched_dag::{Cost, NodeId};

/// Serializable description of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Number of processors the schedule was built for.
    pub num_procs: u32,
    /// One entry per task, in node-id order.
    pub tasks: Vec<TaskSpec>,
}

/// One placed task in a [`ScheduleSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Node id.
    pub node: u32,
    /// Processor id.
    pub proc: u32,
    /// Start time.
    pub start: Cost,
    /// Finish time.
    pub finish: Cost,
}

impl ScheduleSpec {
    /// Capture a complete schedule.
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let mut tasks: Vec<TaskSpec> = schedule
            .tasks()
            .map(|t| TaskSpec {
                node: t.node.0,
                proc: t.proc.0,
                start: t.start,
                finish: t.finish,
            })
            .collect();
        tasks.sort_by_key(|t| t.node);
        Self {
            num_procs: schedule.num_procs(),
            tasks,
        }
    }

    /// Decode the `{num_procs, tasks}` object at the reader's cursor.
    /// Tasks are `{node, proc, start, finish}`. Every field is
    /// required; the first occurrence of a repeated key wins and
    /// unknown keys are skipped.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let (mut num_procs, mut tasks) = (0, Vec::new());
        r.fields(["num_procs", "tasks"], |r, i| {
            match i {
                0 => num_procs = r.u32()?,
                _ => tasks = r.list(read_task)?,
            }
            Ok(())
        })?;
        Ok(Self { num_procs, tasks })
    }

    /// Write the object [`ScheduleSpec::read_json`] reads.
    pub fn write_json(&self, w: &mut Writer) {
        w.begin_object()
            .field("num_procs", self.num_procs.into())
            .key("tasks")
            .begin_array();
        for t in &self.tasks {
            w.begin_object()
                .field("node", t.node.into())
                .field("proc", t.proc.into())
                .field("start", t.start)
                .field("finish", t.finish)
                .end_object();
        }
        w.end_array().end_object();
    }

    /// Rebuild the schedule; `num_nodes` sizes the container (task ids
    /// beyond it are rejected, and so is a node listed twice).
    pub fn build(&self, num_nodes: usize) -> Result<Schedule, ScheduleError> {
        let mut s = Schedule::new(num_nodes, self.num_procs);
        for t in &self.tasks {
            if t.node as usize >= num_nodes {
                return Err(ScheduleError::WrongSize {
                    expected: num_nodes,
                    actual: t.node as usize + 1,
                });
            }
            if t.proc >= self.num_procs {
                return Err(ScheduleError::ProcOutOfRange {
                    node: t.node,
                    proc: t.proc,
                    num_procs: self.num_procs,
                });
            }
            if s.task(NodeId(t.node)).is_some() {
                return Err(ScheduleError::DuplicateTask { node: t.node });
            }
            s.place(NodeId(t.node), ProcId(t.proc), t.start, t.finish);
        }
        Ok(s)
    }
}

fn read_task(r: &mut Reader<'_>) -> Result<TaskSpec, json::Error> {
    let [node, proc, start, finish] = r.u64_fields(["node", "proc", "start", "finish"])?;
    Ok(TaskSpec {
        node: r.narrow(node)?,
        proc: r.narrow(proc)?,
        start,
        finish,
    })
}

/// Serialize a schedule to pretty JSON (two-space indent, no trailing
/// newline).
pub fn to_json(schedule: &Schedule) -> String {
    let mut w = Writer::pretty();
    ScheduleSpec::from_schedule(schedule).write_json(&mut w);
    w.finish()
}

/// Parse a schedule from JSON for a DAG with `num_nodes` tasks. Text
/// that is not a schedule object fails with
/// [`ScheduleError::Malformed`], carrying the byte offset.
pub fn from_json(s: &str, num_nodes: usize) -> Result<Schedule, ScheduleError> {
    let mut r = Reader::new(s);
    let spec = ScheduleSpec::read_json(&mut r)
        .and_then(|spec| r.end().map(|()| spec))
        .map_err(ScheduleError::Malformed)?;
    spec.build(num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        let mut s = Schedule::new(2, 2);
        s.place(NodeId(0), ProcId(0), 0, 5);
        s.place(NodeId(1), ProcId(1), 7, 9);
        s
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample();
        let json = to_json(&s);
        let back = from_json(&json, 2).unwrap();
        assert_eq!(back.num_procs(), 2);
        assert_eq!(back.task(NodeId(0)), s.task(NodeId(0)));
        assert_eq!(back.task(NodeId(1)), s.task(NodeId(1)));
        assert_eq!(back.makespan(), s.makespan());
    }

    #[test]
    fn rejects_out_of_range_nodes() {
        let s = sample();
        let json = to_json(&s);
        assert!(from_json(&json, 1).is_err());
    }

    #[test]
    fn rejects_malformed_json() {
        let err = from_json("{nope", 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed schedule file: expected string key at byte 1"
        );
        for (text, msg) in [
            (r#"{"num_procs":2}"#, "missing field"),
            (
                r#"{"num_procs":4294967296,"tasks":[]}"#,
                "integer out of range",
            ),
            (r#"{"num_procs":2,"tasks":[{"node":0}]}"#, "missing field"),
            (
                r#"{"num_procs":2,"tasks":[{"node":0,"proc":4294967296,"start":0,"finish":1}]}"#,
                "integer out of range",
            ),
            (r#"{"num_procs":2,"tasks":[]} x"#, "trailing characters"),
        ] {
            match from_json(text, 2) {
                Err(ScheduleError::Malformed(e)) => assert_eq!(e.msg, msg, "{text}"),
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_a_node_placed_twice() {
        let json = r#"{"num_procs":2,"tasks":[
            {"node":0,"proc":0,"start":0,"finish":5},
            {"node":1,"proc":1,"start":7,"finish":9},
            {"node":0,"proc":1,"start":0,"finish":5}]}"#;
        assert_eq!(
            from_json(json, 2),
            Err(ScheduleError::DuplicateTask { node: 0 })
        );
    }

    #[test]
    fn fields_read_in_any_order() {
        let json = r#"{"tasks":[{"finish":5,"start":0,"proc":1,"node":0,"x":[null]}],
                       "num_procs":2}"#;
        let s = from_json(json, 1).unwrap();
        assert_eq!(s.proc_of(NodeId(0)), Some(ProcId(1)));
        assert_eq!(s.task(NodeId(0)).map(|t| (t.start, t.finish)), Some((0, 5)));
    }

    #[test]
    fn rejects_out_of_range_processor_instead_of_panicking() {
        // Hand-written JSON claiming PE7 on a 2-processor machine: the
        // builder must return a structured error, not hit the
        // `Schedule::place` assert.
        let json = r#"{"num_procs":2,"tasks":[{"node":0,"proc":7,"start":0,"finish":5}]}"#;
        assert_eq!(
            from_json(json, 1),
            Err(ScheduleError::ProcOutOfRange {
                node: 0,
                proc: 7,
                num_procs: 2
            })
        );
    }
}
