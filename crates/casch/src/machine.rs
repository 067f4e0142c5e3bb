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
    Hlfet, Ish, Lc, Mcp, Md, Scheduler, Workspace,
};
use fastsched_dag::Dag;
use fastsched_schedule::{
    validate_with, CommModel, CostModel, MemCapsSpec, MemoryCapacities, ProcessorSpeeds, Schedule,
    ScheduleError,
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

/// The schedulers whose one scheduling core (`run`) serves requests and
/// CLI invocations that carry a machine model: a `comm` model, memory
/// capacities, or processor speeds.
#[derive(Debug, Clone)]
pub enum ModelScheduler {
    /// FAST under an explicit model.
    Fast(Fast),
    /// ETF under an explicit model.
    Etf(Etf),
    /// DLS under an explicit model.
    Dls(Dls),
    /// HEFT under an explicit model.
    Heft(Heft),
}

impl ModelScheduler {
    /// Resolve a CLI algorithm name to its model-aware scheduler.
    pub fn by_name(name: &str) -> Result<ModelScheduler, String> {
        Ok(match name {
            "fast" => ModelScheduler::Fast(Fast::new()),
            "etf" => ModelScheduler::Etf(Etf::new()),
            "dls" => ModelScheduler::Dls(Dls::new()),
            "heft" => ModelScheduler::Heft(Heft::new()),
            _ => {
                return Err(format!(
                    "algorithm `{name}` has no communication-model path \
                     (use fast, etf, dls, or heft)"
                ))
            }
        })
    }

    /// Display name, matching [`Scheduler::name`].
    pub fn name(&self) -> &'static str {
        match self {
            ModelScheduler::Fast(_) => "FAST",
            ModelScheduler::Etf(_) => "ETF",
            ModelScheduler::Dls(_) => "DLS",
            ModelScheduler::Heft(_) => "HEFT",
        }
    }

    /// Schedule `dag` on `procs` processors under `model` (any
    /// [`CostModel`], e.g. a [`CommModel`] or a
    /// [`fastsched_schedule::MemoryCapacities`] wrapper), with scratch
    /// from `ws` and search events recorded in `trace`.
    pub fn run<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        procs: u32,
        model: &M,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Schedule {
        match self {
            ModelScheduler::Fast(s) => s.run(dag, procs, model, ws, trace),
            ModelScheduler::Etf(s) => s.run(dag, procs, model, ws, trace),
            ModelScheduler::Dls(s) => s.run(dag, procs, model, ws, trace),
            ModelScheduler::Heft(s) => s.run(dag, procs, model, ws, trace),
        }
    }

    /// [`Self::run`] with fresh scratch.
    pub fn schedule_with_model<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        procs: u32,
        model: &M,
    ) -> Schedule {
        let mut ws = Workspace::new();
        self.run(dag, procs, model, &mut ws, &mut SearchTrace::default())
    }

    /// Whether this scheduler's probe loop honours per-processor
    /// memory capacities. Only memory-aware schedulers may run under a
    /// capacity-carrying model: a capacity-blind one (ETF, DLS) would
    /// hand the validation gate an over-capacity schedule and panic.
    pub fn is_memory_aware(&self) -> bool {
        matches!(self, ModelScheduler::Fast(_) | ModelScheduler::Heft(_))
    }
}

/// A resolved machine model.
#[derive(Debug, Clone)]
pub enum Machine {
    /// A communication model (`Ideal` when none was priced) with
    /// memory capacities — unbounded without `mem_caps`, which is
    /// byte-identical to the bare model.
    Comm(MemoryCapacities<CommModel>),
    /// Heterogeneous processor speeds (HEFT only).
    Speeds(ProcessorSpeeds),
}

impl Machine {
    /// The machine `comm`, `mem_caps` and `speeds` describe, with a
    /// uniform capacity replicated across `procs` processors. Checks
    /// which fields combine, not how many processors they cover.
    pub fn new(
        comm: Option<CommModel>,
        mem_caps: Option<&MemCapsSpec>,
        speeds: Option<Vec<u32>>,
        procs: u32,
    ) -> Result<Machine, String> {
        exclusive(comm.is_some(), mem_caps.is_some(), speeds.is_some())?;
        if let Some(speeds) = speeds {
            return ProcessorSpeeds::try_new(speeds)
                .map(Machine::Speeds)
                .map_err(|e| format!("speeds: {e}"));
        }
        let comm = comm.unwrap_or(CommModel::Ideal);
        Ok(Machine::Comm(match mem_caps {
            Some(spec) => MemoryCapacities::new(comm, spec.resolve(procs)),
            None => MemoryCapacities::unbounded(comm),
        }))
    }

    /// Check `schedule` against this machine's pricing and capacities.
    pub fn validate(&self, dag: &Dag, schedule: &Schedule) -> Result<(), ScheduleError> {
        match self {
            Machine::Comm(m) => validate_with(m, dag, schedule),
            Machine::Speeds(m) => validate_with(m, dag, schedule),
        }
    }
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
pub enum Engine {
    /// The paper's identical processors: any registered scheduler.
    Homogeneous(Box<dyn Scheduler>),
    /// A model-generic scheduler under a resolved machine model.
    Priced(ModelScheduler, Machine),
}

impl Engine {
    /// The algorithm name a result reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Homogeneous(s) => s.name(),
            Engine::Priced(_, Machine::Speeds(_)) => "HEFT-hetero",
            Engine::Priced(s, Machine::Comm(_)) => s.name(),
        }
    }

    /// Schedule `dag` on `procs` processors with scratch from `ws`,
    /// recording into `trace`. A homogeneous scheduler records only
    /// through `schedule_traced`, so it takes that entry point when
    /// `trace` is recording and the workspace path otherwise; both
    /// give the same schedule.
    pub fn run(
        &self,
        dag: &Dag,
        procs: u32,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Schedule {
        match self {
            Engine::Homogeneous(s) if trace.is_enabled() => s.schedule_traced(dag, procs, trace),
            Engine::Homogeneous(s) => s.schedule_into(dag, procs, ws),
            Engine::Priced(s, Machine::Comm(m)) => s.run(dag, procs, m, ws, trace),
            Engine::Priced(s, Machine::Speeds(m)) => s.run(dag, procs, m, ws, trace),
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

    if comm.is_none() && mem_caps.is_none() && speeds.is_none() {
        return Ok((Engine::Homogeneous(scheduler_by_name(algo)?), procs));
    }
    let scheduler = if speeds.is_some() {
        ModelScheduler::Heft(Heft::new())
    } else if mem_caps.is_some() {
        ModelScheduler::by_name(algo)
            .ok()
            .filter(ModelScheduler::is_memory_aware)
            .ok_or_else(|| {
                format!("algorithm `{algo}` has no memory-aware path (use fast or heft)")
            })?
    } else {
        ModelScheduler::by_name(algo)?
    };
    let machine = Machine::new(comm, mem_caps.as_ref(), speeds, procs)?;
    Ok((Engine::Priced(scheduler, machine), procs))
}
