//! Reusable scratch arena for the scheduling stack.
//!
//! A [`Workspace`] owns every per-schedule buffer the natively ported
//! algorithms (FAST, FAST-SA, FAST-MS, ETF, DLS, HEFT) need, under any
//! cost model, and those of the paper's two baselines DSC and MD: the
//! attribute arrays of the `list_construction` phase (DSC and MD read
//! their b-level there), the CPN-Dominate list scratch, the one
//! placement state (the list-scheduling [`ListState`] and its
//! [`DatLanes`]) the six place through and MD and DSC reuse, DSC's
//! clustering scratch, the incremental [`DeltaEvaluator`] and the
//! compaction scratch, and the correctness gate's lane scratch.
//! Buffers are *cleared, never dropped* between runs, so once every
//! buffer has reached its peak size a reused workspace performs **zero
//! heap allocations** per schedule, gate included (release builds,
//! untraced; debug assertions and a recording trace allocate by
//! design).
//!
//! ## Ownership rules
//!
//! * The workspace owns scratch; the caller owns results. A
//!   [`Scheduler::run`](crate::Scheduler::run) call returns a fresh
//!   [`Schedule`] — hand it back via [`Workspace::recycle`] to keep
//!   the steady state allocation-free across calls.
//! * A workspace may be reused across different DAGs, processor
//!   counts and algorithms in any order: every port re-initializes
//!   exactly the buffers it reads (clear + resize), so stale state
//!   from a previous run can never leak into the next (the
//!   `workspace_reuse` property suite pins this).
//! * A workspace is `!Sync` by convention — use one workspace per
//!   thread. FAST-MS keeps one `ChainSlot` (evaluator + trace) per
//!   search chain inside the workspace and hands each worker thread a
//!   disjoint `&mut` chunk.
//!
//! ## Porting an algorithm
//!
//! Write one scheduling core, generic over the [`CostModel`]:
//! `core(dag, num_procs, model, workspace, trace)`. Re-derive every
//! input from `(dag, num_procs)` into workspace buffers via the
//! `_into`/`reset` variants (`ListAttributes::compute_into`,
//! `cpn_dominate_list_into`, `ListState::reset`,
//! `DatLanes::reset`, `ReadySet::reset`, ...), borrow the evaluator
//! re-typed for the model with `lend_eval`, build the result in
//! `Workspace::staging`, and hand it out with `Workspace::finish`
//! (compacts when the model permits renumbering). The algorithm's
//! [`Scheduler::schedule_on`](crate::Scheduler::schedule_on) matches
//! on the [`fastsched_schedule::Machine`] once and calls the core with
//! the variant's model; [`Scheduler::run`](crate::Scheduler::run)
//! adds the input checks and the correctness gate. The property suite
//! compares serialized schedules across dirty reuse and across
//! identity models.

use crate::dsc::DscScratch;
use crate::list_common::{DatLanes, ListState, ReadySet};
use fastsched_dag::{AttrLanes, Cost, CpnListScratch, Dag, ListAttributes, NodeClass, NodeId};
use fastsched_schedule::{
    CompactScratch, CostModel, DeltaEvaluator, HomogeneousModel, ProcId, Schedule, ValidateScratch,
};
use fastsched_trace::SearchTrace;

/// `slot`'s warm evaluator re-typed for `model`: its buffers move out
/// (an empty evaluator is left behind), nothing is allocated. Give it
/// back with [`return_eval`].
pub(crate) fn lend_eval<'m, M: CostModel + ?Sized>(
    slot: &mut DeltaEvaluator,
    model: &'m M,
) -> DeltaEvaluator<&'m M> {
    std::mem::replace(slot, DeltaEvaluator::empty()).into_model(model)
}

/// Put a lent evaluator's buffers back into `slot`.
pub(crate) fn return_eval<M: CostModel>(slot: &mut DeltaEvaluator, eval: DeltaEvaluator<M>) {
    *slot = eval.into_model(HomogeneousModel);
}

/// Per-chain state of the multi-start search (FAST-MS): each chain
/// owns its evaluator and trace so worker threads share nothing.
pub(crate) struct ChainSlot {
    /// The chain's private incremental evaluator (committed state is
    /// the chain's current assignment).
    pub(crate) eval: DeltaEvaluator,
    /// The chain's private observability collector.
    pub(crate) trace: SearchTrace,
    /// Best makespan the chain reached.
    pub(crate) makespan: u64,
}

impl ChainSlot {
    fn new() -> Self {
        Self {
            eval: DeltaEvaluator::empty(),
            trace: SearchTrace::default(),
            makespan: 0,
        }
    }
}

/// Reusable scratch arena: every buffer the natively ported
/// schedulers need, cleared (capacity kept) between runs. See the
/// [module docs](self) for the ownership rules.
pub struct Workspace {
    // --- list_construction phase ---
    pub(crate) attr_lanes: AttrLanes,
    pub(crate) attrs: ListAttributes,
    pub(crate) cpn_scratch: CpnListScratch,
    pub(crate) list: Vec<NodeId>,
    pub(crate) blocking: Vec<NodeId>,
    // --- placement (FAST's InitialSchedule(), ETF, DLS, HEFT) ---
    pub(crate) state: ListState,
    pub(crate) dat: DatLanes,
    /// FAST's §4.2 candidate processors of the node being placed.
    pub(crate) candidates: Vec<ProcId>,
    pub(crate) ready_set: ReadySet,
    /// Per node: the static level (ETF, DLS), the upward rank (HEFT)
    /// or the ASAP time on MD's partial schedule.
    pub(crate) level: Vec<Cost>,
    // --- DSC's clustering (beside `attrs` and `state`) ---
    pub(crate) dsc: DscScratch,
    // --- local search ---
    pub(crate) eval: DeltaEvaluator,
    pub(crate) best_assignment: Vec<ProcId>,
    pub(crate) chains: Vec<ChainSlot>,
    // --- output assembly ---
    pub(crate) staging: Schedule,
    pub(crate) compact: CompactScratch,
    spare: Vec<Schedule>,
    pub(crate) validate: ValidateScratch,
}

impl Workspace {
    /// An empty workspace. Buffers grow on first use and are kept
    /// (cleared, not dropped) afterwards.
    pub fn new() -> Self {
        Self {
            attr_lanes: AttrLanes::new(),
            attrs: ListAttributes::new(),
            cpn_scratch: CpnListScratch::new(),
            list: Vec::new(),
            blocking: Vec::new(),
            state: ListState::new(0, 0),
            dat: DatLanes::new(),
            candidates: Vec::new(),
            ready_set: ReadySet::empty(),
            level: Vec::new(),
            dsc: DscScratch::default(),
            eval: DeltaEvaluator::empty(),
            best_assignment: Vec::new(),
            chains: Vec::new(),
            staging: Schedule::new(0, 1),
            compact: CompactScratch::new(),
            spare: Vec::new(),
            validate: ValidateScratch::default(),
        }
    }

    /// A schedule to build a result into: a recycled one if available
    /// (capacity warm), a fresh empty one otherwise.
    pub fn take_schedule(&mut self) -> Schedule {
        self.spare.pop().unwrap_or_else(|| Schedule::new(0, 1))
    }

    /// Return a schedule to the workspace's spare pool so its buffers
    /// are reused by a later [`Workspace::take_schedule`]. Recycling
    /// the previous result between `schedule_into` calls is what makes
    /// the steady state fully allocation-free.
    pub fn recycle(&mut self, schedule: Schedule) {
        self.spare.push(schedule);
    }

    /// Hand the result built in `staging` to the caller, in a schedule
    /// from the spare pool: lane-compacted when `model` permits
    /// processor renumbering, verbatim otherwise (compaction would
    /// reprice an identity-sensitive model).
    pub(crate) fn finish<M: CostModel + ?Sized>(&mut self, model: &M) -> Schedule {
        let mut out = self.take_schedule();
        if model.permits_renumbering() {
            self.staging.compact_into(&mut self.compact, &mut out);
        } else {
            std::mem::swap(&mut out, &mut self.staging);
        }
        out
    }

    /// Ensure the multi-start chain slots exist for `chains` chains.
    pub(crate) fn ensure_chains(&mut self, chains: usize) {
        while self.chains.len() < chains {
            self.chains.push(ChainSlot::new());
        }
    }

    /// Derive the blocking-node list (non-CPN nodes, id order) from
    /// the already-computed classes in `attrs` into `blocking`.
    pub(crate) fn blocking_from_classes(&mut self, dag: &Dag) {
        self.blocking.clear();
        let classes = &self.attrs.classes;
        self.blocking.extend(
            dag.nodes()
                .filter(|&n| classes[n.index()] != NodeClass::Cpn),
        );
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Resolve a requested worker count: `0` means "all available cores",
/// and the count is never larger than the number of items (an idle
/// worker is pure spawn overhead).
fn effective_threads(threads: usize, items: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    t.min(items).max(1)
}

/// The sharded batch driver: schedule `dags[i]` on `procs[i]`
/// processors with `schedule_one(dag, procs, workspace)` (returning a
/// schedule, or a `Result` of one) across `threads` scoped worker
/// threads, each owning a private warm [`Workspace`] and a contiguous
/// chunk of the batch. `threads == 0` uses every available core;
/// `threads <= 1` runs the chunk loop on the calling thread. Returns
/// `(schedule, seconds)` per input, in input order.
///
/// Element-wise **byte-identical** at every thread count: each item is
/// scheduled by exactly one worker, workers share nothing mutable, and
/// a workspace never changes a decision — so a schedule's bytes depend
/// only on its `(dag, procs)` pair, never on which worker produced it
/// (the `workspace_reuse` property suite pins this against per-call
/// [`Scheduler::schedule`](crate::Scheduler::schedule) at 1, 2 and 4
/// threads).
///
/// ```
/// use fastsched_algorithms::{schedule_many_par_with, Fast, Scheduler};
/// use fastsched_dag::examples::{fork_join, paper_figure1};
///
/// let dags = vec![paper_figure1(), fork_join(4, 10, 1)];
/// let fast = Fast::new();
/// let batch = schedule_many_par_with(&dags, &[4, 4], 2, |dag, procs, ws| {
///     fast.schedule_into(dag, procs, ws)
/// });
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch[0].0, fast.schedule(&dags[0], 4));
/// ```
///
/// # Panics
/// If `procs.len() != dags.len()`, or if `schedule_one` panics —
/// worker panics propagate.
pub fn schedule_many_par_with<T, F>(
    dags: &[Dag],
    procs: &[u32],
    threads: usize,
    schedule_one: F,
) -> Vec<(T, f64)>
where
    T: Send,
    F: Fn(&Dag, u32, &mut Workspace) -> T + Sync,
{
    assert_eq!(procs.len(), dags.len(), "one procs entry per DAG");
    let threads = effective_threads(threads, dags.len());
    let mut out: Vec<Option<(T, f64)>> = Vec::with_capacity(dags.len());
    out.resize_with(dags.len(), || None);
    let run_chunk = |dag_chunk: &[Dag], proc_chunk: &[u32], out_chunk: &mut [Option<(T, f64)>]| {
        let mut ws = Workspace::new();
        for ((dag, &np), slot) in dag_chunk.iter().zip(proc_chunk).zip(out_chunk.iter_mut()) {
            let t0 = std::time::Instant::now();
            let s = schedule_one(dag, np, &mut ws);
            *slot = Some((s, t0.elapsed().as_secs_f64()));
        }
    };
    if threads <= 1 {
        run_chunk(dags, procs, &mut out);
    } else {
        let chunk = dags.len().div_ceil(threads);
        crossbeam::thread::scope(|s| {
            for ((dag_chunk, proc_chunk), out_chunk) in dags
                .chunks(chunk)
                .zip(procs.chunks(chunk))
                .zip(out.chunks_mut(chunk))
            {
                let run_chunk = &run_chunk;
                s.spawn(move |_| run_chunk(dag_chunk, proc_chunk, out_chunk));
            }
        })
        .expect("batch worker panicked");
    }
    out.into_iter()
        .map(|s| s.expect("every batch slot filled"))
        .collect()
}
