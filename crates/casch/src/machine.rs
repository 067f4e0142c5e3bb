//! The machine a request describes, and the one policy that resolves
//! it (DESIGN.md §14, §16, §17).
//!
//! A request names an algorithm and, optionally, a processor count, a
//! communication model, memory capacities and processor speeds.
//! [`resolve`] turns those into an [`Engine`] (the scheduler plus the
//! [`Machine`] it runs on) and the processor count to schedule on.
//! `casch serve` and the `casch` CLI both call it; they differ only in
//! how they decode the fields and in the processor limit they pass
//! (the server's `--max-procs`, or none). Every rule about which
//! fields combine and how many processors a request gets lives here:
//!
//! * `speeds` cannot be combined with `comm` or `mem_caps`, and runs
//!   HEFT only;
//! * `mem_caps` needs a memory-aware algorithm (fast or heft);
//! * a hier group table, a per-processor `mem_caps` list and a
//!   `speeds` list each fix the processor count, so they must agree
//!   with each other and with an explicit `procs`;
//! * the processor count is at least 1 and at most the limit;
//! * without any of those, a request gets one processor per node.

use fastsched_algorithms::{
    BoundedDsc, BranchAndBound, Cpop, Dcp, Dls, Dsc, Etf, Ez, Fast, FastParallel, FastSa, Heft,
    Hlfet, Ish, Lc, Mcp, Md, Scheduler, SchedulerError, Workspace,
};
use fastsched_dag::Dag;
use fastsched_schedule::{
    CommModel, Machine, MemCapsSpec, MemoryCapacities, ProcessorSpeeds, Schedule,
};
use fastsched_trace::SearchTrace;

/// Resolve an algorithm name (the CLI vocabulary) to a scheduler.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    Ok(match name {
        "fast" => Box::new(Fast::new()),
        "dsc" => Box::new(Dsc::new()),
        "md" => Box::new(Md::new()),
        "etf" => Box::new(Etf::new()),
        "dls" => Box::new(Dls::new()),
        "hlfet" => Box::new(Hlfet::new()),
        "mcp" => Box::new(Mcp::new()),
        "heft" => Box::new(Heft::new()),
        "fast-ms" => Box::new(FastParallel::new()),
        "fast-sa" => Box::new(FastSa::new()),
        "dcp" => Box::new(Dcp::new()),
        "ish" => Box::new(Ish::new()),
        "ez" => Box::new(Ez::new()),
        "lc" => Box::new(Lc::new()),
        "cpop" => Box::new(Cpop::new()),
        "dsc-llb" => Box::new(BoundedDsc::new()),
        "bnb" => Box::new(BranchAndBound::new()),
        _ => return Err(format!("unknown algorithm `{name}`")),
    })
}

/// The algorithms a request may pair with a communication model.
const MODEL_ALGOS: [&str; 4] = ["fast", "etf", "dls", "heft"];

/// The algorithms a request may pair with memory capacities.
const MEMORY_AWARE: [&str; 2] = ["fast", "heft"];

fn no_model_path(name: &str) -> String {
    format!("algorithm `{name}` has no communication-model path (use fast, etf, dls, or heft)")
}

/// Compatibility shim for the out-of-tree benchmark crate, which still
/// schedules priced requests this way. Nothing in this workspace uses
/// it; ROADMAP item 5 deletes it with the benchmark's port to
/// [`Scheduler::run`].
#[doc(hidden)]
pub struct ModelScheduler(Box<dyn Scheduler>);

#[doc(hidden)]
impl ModelScheduler {
    pub fn by_name(name: &str) -> Result<ModelScheduler, String> {
        if !MODEL_ALGOS.contains(&name) {
            return Err(no_model_path(name));
        }
        scheduler_by_name(name).map(ModelScheduler)
    }

    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    pub fn schedule_with_model<M: Clone + Into<Machine>>(
        &self,
        dag: &Dag,
        procs: u32,
        model: &M,
    ) -> Schedule {
        let machine = model.clone().into();
        let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
        let run = self.0.run(dag, procs, &machine, ws, trace);
        run.unwrap_or_else(|e| panic!("{}: {e}", self.0.name()))
    }
}

/// The machine `comm`, `mem_caps` and `speeds` describe, with a uniform
/// capacity replicated across `procs` processors. Checks which fields
/// combine, not how many processors they cover.
pub fn build(
    comm: Option<CommModel>,
    mem_caps: Option<&MemCapsSpec>,
    speeds: Option<Vec<u32>>,
    procs: u32,
) -> Result<Machine, String> {
    exclusive(comm.is_some(), mem_caps.is_some(), speeds.is_some())?;
    if let Some(speeds) = speeds {
        return ProcessorSpeeds::try_new(speeds)
            .map(Machine::from)
            .map_err(|e| format!("speeds: {e}"));
    }
    let comm = comm.unwrap_or(CommModel::Ideal);
    Ok(Machine::Comm(match mem_caps {
        Some(spec) => MemoryCapacities::new(comm, spec.resolve(procs)),
        None => MemoryCapacities::unbounded(comm),
    }))
}

/// `speeds` selects its own machine: it combines with neither a
/// communication model nor memory capacities.
fn exclusive(comm: bool, mem_caps: bool, speeds: bool) -> Result<(), String> {
    if speeds && comm {
        return Err("`comm` cannot be combined with `speeds` (pick one machine model)".to_string());
    }
    if speeds && mem_caps {
        return Err(
            "`mem_caps` cannot be combined with `speeds` (memory-aware scheduling runs on \
             the homogeneous and communication machine models)"
                .to_string(),
        );
    }
    Ok(())
}

/// A scheduler and the machine it runs on.
pub struct Engine {
    /// The resolved algorithm.
    pub scheduler: Box<dyn Scheduler>,
    /// The machine the request describes.
    pub machine: Machine,
}

impl Engine {
    /// The algorithm name a result reports: HEFT on a speeds machine
    /// answers as `HEFT-hetero`.
    pub fn name(&self) -> &'static str {
        match self.machine {
            Machine::Speeds(_) => "HEFT-hetero",
            _ => self.scheduler.name(),
        }
    }

    /// [`Scheduler::run`] on this engine's machine.
    pub fn run(
        &self,
        dag: &Dag,
        procs: u32,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        self.scheduler.run(dag, procs, &self.machine, ws, trace)
    }
}

/// Which field fixed the processor count; names it in error messages.
#[derive(Clone, Copy)]
enum Source {
    Procs,
    Speeds,
    MemCaps,
    Hier,
}

impl Source {
    fn describe(self, n: u32) -> String {
        match self {
            Source::Procs => format!("`procs` ({n})"),
            Source::Speeds => format!("`speeds` length ({n})"),
            Source::MemCaps => format!("`mem_caps` length ({n})"),
            Source::Hier => format!("the hier group table ({n} processor(s))"),
        }
    }

    fn over_limit(self, n: u32, limit: u64) -> String {
        let what = match self {
            Source::MemCaps => format!("`mem_caps` lists {n} capacities, above"),
            _ => format!("{} exceeds", self.describe(n)),
        };
        format!("{what} the server's processor limit ({limit}); raise --max-procs if intended")
    }
}

/// Resolve a request's machine: the engine that schedules it and the
/// processor count it runs on. `node_count` is the DAG's size (the
/// default processor count); `proc_limit` caps the processor count a
/// request may demand (`u64::MAX` for none). Errors are plain messages;
/// callers add their own framing.
pub fn resolve(
    algo: &str,
    procs: Option<u32>,
    comm: Option<CommModel>,
    mem_caps: Option<MemCapsSpec>,
    speeds: Option<Vec<u32>>,
    node_count: usize,
    proc_limit: u64,
) -> Result<(Engine, u32), String> {
    if procs == Some(0) {
        return Err("`procs` must be at least 1".to_string());
    }
    exclusive(comm.is_some(), mem_caps.is_some(), speeds.is_some())?;
    if speeds.is_some() && algo != "heft" {
        return Err(format!(
            "`speeds` requires algo `heft` (heterogeneous HEFT), got `{algo}`"
        ));
    }
    let tables = [
        (Source::Speeds, speeds.as_ref().map(|s| s.len() as u32)),
        (
            Source::MemCaps,
            mem_caps.as_ref().and_then(MemCapsSpec::required_procs),
        ),
        (
            Source::Hier,
            comm.as_ref().and_then(CommModel::required_procs),
        ),
    ];
    let mut fixed = procs.map(|p| (Source::Procs, p));
    for (source, n) in tables {
        let Some(n) = n else { continue };
        match fixed {
            Some((by, m)) if m != n => {
                return Err(format!(
                    "{} disagrees with {}",
                    by.describe(m),
                    source.describe(n)
                ))
            }
            Some(_) => {}
            None => fixed = Some((source, n)),
        }
    }
    let procs = match fixed {
        Some((source, n)) if u64::from(n) > proc_limit => {
            return Err(source.over_limit(n, proc_limit))
        }
        Some((_, n)) => n,
        None => node_count.max(1) as u32,
    };

    let machine = if comm.is_none() && mem_caps.is_none() && speeds.is_none() {
        Machine::Homogeneous
    } else {
        if mem_caps.is_some() && !MEMORY_AWARE.contains(&algo) {
            return Err(format!(
                "algorithm `{algo}` has no memory-aware path (use fast or heft)"
            ));
        }
        if !MODEL_ALGOS.contains(&algo) {
            return Err(no_model_path(algo));
        }
        build(comm, mem_caps.as_ref(), speeds, procs)?
    };
    let scheduler = scheduler_by_name(algo)?;
    Ok((Engine { scheduler, machine }, procs))
}
