//! The machine a request describes, and the one policy that resolves
//! it (DESIGN.md §14, §16, §17).
//!
//! A request names an algorithm and, optionally, a processor count, a
//! communication model, memory capacities and processor speeds.
//! [`resolve`] turns those into an [`Engine`] (the scheduler plus the
//! [`Machine`] it runs on) and the processor count to schedule on.
//! `casch serve` and the `casch` CLI both call it; they differ only in
//! how they decode the fields and in the processor limit they pass
//! (the server's `--max-procs`, or none). [`ALGORITHMS`] is the one
//! list of algorithm names both accept. Every rule about which fields
//! combine and how many processors a request gets lives here:
//!
//! * `speeds` cannot be combined with `comm`: a [`Machine`] prices
//!   either speeds or messages;
//! * a hier group table, a per-processor `mem_caps` list and a
//!   `speeds` list each fix the processor count, so they must agree
//!   with each other and with an explicit `procs`;
//! * the processor count is at least 1 and at most the limit;
//! * without any of those, a request gets one processor per node.
//!
//! Which algorithm prices which machine is each core's own answer
//! ([`SchedulerError::Unsupported`], worded by [`Engine::failure`]).

use fastsched_algorithms::{
    BoundedDsc, BranchAndBound, Cpop, Dcp, Dls, Dsc, Etf, Ez, Fast, FastParallel, FastSa, Heft,
    Hlfet, Ish, Lc, Mcp, Md, Scheduler, SchedulerError, Workspace,
};
use fastsched_dag::Dag;
use fastsched_schedule::{
    CommModel, Machine, MemCapsSpec, MemoryCapacities, ProcessorSpeeds, Schedule,
};
use fastsched_trace::SearchTrace;

type Constructor = fn() -> Box<dyn Scheduler>;

/// Every algorithm a request can name, with its constructor: the one
/// vocabulary of the CLI's `--algo` and serve's `algo` field.
pub const ALGORITHMS: [(&str, Constructor); 17] = [
    ("fast", || Box::new(Fast::new())),
    ("dsc", || Box::new(Dsc::new())),
    ("md", || Box::new(Md::new())),
    ("etf", || Box::new(Etf::new())),
    ("dls", || Box::new(Dls::new())),
    ("hlfet", || Box::new(Hlfet::new())),
    ("mcp", || Box::new(Mcp::new())),
    ("heft", || Box::new(Heft::new())),
    ("fast-ms", || Box::new(FastParallel::new())),
    ("fast-sa", || Box::new(FastSa::new())),
    ("dcp", || Box::new(Dcp::new())),
    ("ish", || Box::new(Ish::new())),
    ("ez", || Box::new(Ez::new())),
    ("lc", || Box::new(Lc::new())),
    ("cpop", || Box::new(Cpop::new())),
    ("dsc-llb", || Box::new(BoundedDsc::new())),
    ("bnb", || Box::new(BranchAndBound::new())),
];

/// The [`Engine::slot`] of HEFT over processor speeds, which answers
/// as `HEFT-hetero`.
pub(crate) const HETERO_SLOT: usize = ALGORITHMS.len();

/// The number of [`Engine::slot`]s.
pub(crate) const SLOTS: usize = HETERO_SLOT + 1;

/// The label serve counts and logs [`Engine::slot`] `slot` under.
pub(crate) fn slot_label(slot: usize) -> &'static str {
    ALGORITHMS
        .get(slot)
        .map_or("heft-hetero", |&(name, _)| name)
}

/// The [`ALGORITHMS`] row of the algorithm named `name`.
fn row(name: &str) -> Result<usize, String> {
    ALGORITHMS
        .iter()
        .position(|&(n, _)| n == name)
        .ok_or_else(|| format!("unknown algorithm `{name}`"))
}

/// Resolve an algorithm name (the CLI vocabulary) to a scheduler.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    row(name).map(|r| (ALGORITHMS[r].1)())
}

/// Compatibility shim for the out-of-tree benchmark crate, which still
/// schedules priced requests this way. Nothing in this workspace uses
/// it; it goes when the benchmark moves to [`Scheduler::run`].
#[doc(hidden)]
pub struct ModelScheduler(Box<dyn Scheduler>);

#[doc(hidden)]
impl ModelScheduler {
    pub fn by_name(name: &str) -> Result<ModelScheduler, String> {
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

/// The machine `comm` (`Ideal` by default) or `speeds` describes, with
/// `mem_caps` (a uniform one replicated across `procs` processors).
/// Checks which fields combine, not how many processors they cover.
pub fn build(
    comm: Option<CommModel>,
    mem_caps: Option<&MemCapsSpec>,
    speeds: Option<Vec<u32>>,
    procs: u32,
) -> Result<Machine, String> {
    exclusive(comm.is_some(), speeds.is_some())?;
    // An empty table is `MemoryCapacities::unbounded`.
    let caps = mem_caps.map_or_else(Vec::new, |spec| spec.resolve(procs));
    let Some(speeds) = speeds else {
        let comm = comm.unwrap_or(CommModel::Ideal);
        return Ok(Machine::Comm(MemoryCapacities::new(comm, caps)));
    };
    let speeds = ProcessorSpeeds::try_new(speeds).map_err(|e| format!("speeds: {e}"))?;
    Ok(Machine::Speeds(MemoryCapacities::new(speeds, caps)))
}

/// A [`Machine`] prices speeds or messages, not both.
fn exclusive(comm: bool, speeds: bool) -> Result<(), String> {
    if speeds && comm {
        return Err("`comm` cannot be combined with `speeds` (pick one machine model)".to_string());
    }
    Ok(())
}

/// A scheduler and the machine it runs on.
pub struct Engine {
    /// The resolved algorithm.
    pub scheduler: Box<dyn Scheduler>,
    /// The machine the request describes.
    pub machine: Machine,
    /// The algorithm's row in [`ALGORITHMS`], or [`HETERO_SLOT`]: serve
    /// counts and logs requests by it ([`slot_label`]).
    pub(crate) slot: usize,
}

impl Engine {
    /// The algorithm name a result reports: HEFT on a speeds machine
    /// answers as `HEFT-hetero`.
    pub fn name(&self) -> &'static str {
        match self.slot {
            HETERO_SLOT => "HEFT-hetero",
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

    /// The message serve and the CLI give a failed [`Engine::run`]: a
    /// refused machine names the algorithm and the feature, a refused
    /// DAG the algorithm and its node limit.
    pub fn failure(&self, e: &SchedulerError) -> String {
        match e {
            SchedulerError::Unsupported(feature) => format!(
                "algorithm `{}` has no scheduling path for {feature}",
                slot_label(self.slot)
            ),
            SchedulerError::TooLarge { nodes, limit } => format!(
                "algorithm `{}` accepts at most {limit} nodes; the DAG has {nodes}",
                slot_label(self.slot)
            ),
            e => format!("{}: {e}", self.name()),
        }
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
    exclusive(comm.is_some(), speeds.is_some())?;
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
        build(comm, mem_caps.as_ref(), speeds, procs)?
    };
    let row = row(algo)?;
    let scheduler = (ALGORITHMS[row].1)();
    let hetero = matches!(machine, Machine::Speeds(_)) && scheduler.name() == "HEFT";
    let slot = if hetero { HETERO_SLOT } else { row };
    let engine = Engine {
        scheduler,
        machine,
        slot,
    };
    Ok((engine, procs))
}
