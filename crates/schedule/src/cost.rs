//! The unified cost model behind every evaluator in the workspace.
//!
//! Three places used to hard-code what a placement costs — the
//! fixed-order evaluator, the list-scheduling machinery in
//! `fastsched-algorithms`, and the heterogeneous HEFT variant — each
//! with its own copy of the DAT arithmetic. [`CostModel`] is the seam
//! between "what does running node `n` on processor `p` cost" and the
//! search loops that probe placements: the evaluators are generic over
//! it, so homogeneous processors (the paper's model), per-processor
//! speed factors, and topology-aware message pricing (the simulator's
//! per-hop latency) all share one evaluation path.

use crate::schedule::ProcId;
use fastsched_dag::{Cost, Dag, NodeId};

/// What a placement costs: execution time of a node on a processor and
/// delivery time of a message between processors.
///
/// Implementations must be *consistent for co-located endpoints*:
/// `message_cost(c, p, p)` must be 0 for every `p` (data produced on a
/// processor is immediately visible there — the premise behind every
/// DAT computation in the paper).
pub trait CostModel {
    /// Execution time of `node` when run on `proc`.
    fn compute_cost(&self, dag: &Dag, node: NodeId, proc: ProcId) -> Cost;

    /// Extra delay a message of nominal cost `nominal` pays travelling
    /// from `src` to `dst`. Must be 0 when `src == dst`.
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost;

    /// Whether a message's price depends on nothing but whether its
    /// endpoints are co-located: `message_cost(c, p, q)` is the same
    /// for every `q != p`, and for every `p`. True for the homogeneous,
    /// α–β and speed models and under memory capacities; false when
    /// processor identity reprices messages — multi-group hierarchies,
    /// interconnect hops. Every processor but the sender then receives
    /// a message at the same time, which is what the list schedulers'
    /// flat DAT lanes rely on to price each parent once.
    fn prices_by_colocation(&self) -> bool {
        true
    }

    /// Whether every cost is invariant under renumbering the
    /// processors. By default that is [`Self::prices_by_colocation`];
    /// models whose compute costs or capacities are indexed by
    /// processor (speeds, finite memory capacities) answer false too.
    /// Schedules priced by an identity-sensitive model must not be
    /// [`compact`]ed: compaction reorders processor lanes, which
    /// silently reprices every cross-processor message and execution.
    ///
    /// [`compact`]: ../struct.Schedule.html#method.compact
    fn permits_renumbering(&self) -> bool {
        self.prices_by_colocation()
    }

    /// Memory capacity of processor `proc`, or `None` for unbounded.
    ///
    /// The default — every processor unbounded — is the paper's
    /// machine model; only [`MemoryCapacities`] overrides it. The
    /// validator charges each processor the *sum* of the footprints of
    /// the tasks assigned to it and rejects lanes over capacity; the
    /// memory-aware scheduler paths refuse such placements up front.
    fn capacity(&self, proc: ProcId) -> Option<Cost> {
        let _ = proc;
        None
    }

    /// `true` when some processor has a finite [`capacity`]. Lets hot
    /// paths skip capacity bookkeeping entirely (and stay
    /// byte-identical to the capacity-blind code) when everything is
    /// unbounded.
    ///
    /// [`capacity`]: CostModel::capacity
    fn has_capacities(&self) -> bool {
        false
    }
}

impl<M: CostModel + ?Sized> CostModel for &M {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, proc: ProcId) -> Cost {
        (**self).compute_cost(dag, node, proc)
    }

    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        (**self).message_cost(nominal, src, dst)
    }

    #[inline]
    fn prices_by_colocation(&self) -> bool {
        (**self).prices_by_colocation()
    }

    #[inline]
    fn permits_renumbering(&self) -> bool {
        (**self).permits_renumbering()
    }

    #[inline]
    fn capacity(&self, proc: ProcId) -> Option<Cost> {
        (**self).capacity(proc)
    }

    #[inline]
    fn has_capacities(&self) -> bool {
        (**self).has_capacities()
    }
}

/// The paper's machine model: identical processors, messages cost
/// exactly their edge weight, co-located communication is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HomogeneousModel;

impl CostModel for HomogeneousModel {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, _proc: ProcId) -> Cost {
        dag.weight(node)
    }

    /// A branchless select: the scheduling cores' DAT folds over this
    /// stay straight-line max chains.
    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        nominal * Cost::from(src != dst)
    }
}

/// Relative processor speeds, in percent of nominal — the
/// heterogeneous [`CostModel`]: execution time of node `n` on
/// processor `p` is `ceil(w(n) * 100 / speed_percent[p])` (at least
/// 1); speed 100 is nominal, 200 runs twice as fast, 50 half as fast.
/// Message cost stays the homogeneous edge weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorSpeeds {
    /// `speed_percent[p]` — 100 = nominal speed.
    pub speed_percent: Vec<u32>,
}

impl ProcessorSpeeds {
    /// `count` identical nominal-speed processors (the homogeneous
    /// special case).
    pub fn uniform(count: u32) -> Self {
        Self {
            speed_percent: vec![100; count as usize],
        }
    }

    /// Explicit speeds. Panics on an empty or zero-speed table; use
    /// [`ProcessorSpeeds::try_new`] for untrusted (network) input.
    pub fn new(speed_percent: Vec<u32>) -> Self {
        Self::try_new(speed_percent).expect("invalid processor speeds")
    }

    /// Fallible [`ProcessorSpeeds::new`]: rejects an empty table or a
    /// zero speed with a message instead of asserting, so hostile
    /// `speeds` arrays arriving over the wire can be answered with a
    /// protocol error rather than crashing a worker.
    pub fn try_new(speed_percent: Vec<u32>) -> Result<Self, String> {
        if speed_percent.is_empty() {
            return Err("speeds must not be empty".to_string());
        }
        if speed_percent.contains(&0) {
            return Err("speeds must be positive".to_string());
        }
        Ok(Self { speed_percent })
    }

    /// Processor count.
    pub fn count(&self) -> u32 {
        self.speed_percent.len() as u32
    }

    /// Execution time of a nominal-cost `w` task on processor `p`.
    /// Saturating: a weight above `u64::MAX / 100` prices at the
    /// ceiling instead of wrapping to a tiny value in release builds.
    #[inline]
    pub fn exec_time(&self, w: Cost, p: ProcId) -> Cost {
        let s = self.speed_percent[p.index()] as Cost;
        match w.checked_mul(100) {
            Some(scaled) => scaled.div_ceil(s).max(1),
            None => Cost::MAX,
        }
    }

    /// Mean execution time of a nominal-cost `w` task across all
    /// processors (HEFT's ranking cost). Saturating, like
    /// [`ProcessorSpeeds::exec_time`].
    pub fn mean_exec_time(&self, w: Cost) -> Cost {
        let total: Cost = (0..self.count())
            .map(|p| self.exec_time(w, ProcId(p)))
            .fold(0, Cost::saturating_add);
        (total / self.count() as Cost).max(1)
    }
}

impl CostModel for ProcessorSpeeds {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, proc: ProcId) -> Cost {
        self.exec_time(dag.weight(node), proc)
    }

    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        if src == dst {
            0
        } else {
            nominal
        }
    }

    /// Processor ids index the speed table — renumbering reassigns
    /// every task a different speed.
    #[inline]
    fn permits_renumbering(&self) -> bool {
        false
    }
}

/// Latency–bandwidth (α–β) communication pricing: a cross-processor
/// message of nominal cost `c` costs
/// `alpha + ceil(c * beta_num / beta_den)` — a fixed per-message
/// latency plus a bandwidth term scaling the edge weight by the
/// rational `beta_num / beta_den`. Co-located communication stays
/// free and compute stays the nominal node weight, so
/// `AlphaBeta { alpha: 0, beta_num: 1, beta_den: 1 }` reproduces
/// [`HomogeneousModel`] exactly.
///
/// All arithmetic saturates at `Cost::MAX`: adversarial edge weights
/// price at the ceiling instead of wrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlphaBeta {
    /// Fixed per-message latency.
    pub alpha: Cost,
    /// Bandwidth-term numerator.
    pub beta_num: Cost,
    /// Bandwidth-term denominator (must be positive).
    pub beta_den: Cost,
}

/// The identity pricing (`alpha` 0, `beta` 1/1): exactly the paper's
/// ideal network.
pub const IDEAL_LINK: AlphaBeta = AlphaBeta {
    alpha: 0,
    beta_num: 1,
    beta_den: 1,
};

impl AlphaBeta {
    /// New α–β pricing. Panics on a zero `beta_den`; use
    /// [`AlphaBeta::try_new`] for untrusted input.
    pub fn new(alpha: Cost, beta_num: Cost, beta_den: Cost) -> Self {
        Self::try_new(alpha, beta_num, beta_den).expect("invalid alpha-beta parameters")
    }

    /// Fallible [`AlphaBeta::new`]: a zero denominator is an error,
    /// not an assert.
    pub fn try_new(alpha: Cost, beta_num: Cost, beta_den: Cost) -> Result<Self, String> {
        if beta_den == 0 {
            return Err("alpha-beta: beta_den must be positive".to_string());
        }
        Ok(Self {
            alpha,
            beta_num,
            beta_den,
        })
    }

    /// Price of one cross-link message of nominal cost `nominal`:
    /// `alpha + ceil(nominal * beta_num / beta_den)`, saturating.
    #[inline]
    pub fn price(&self, nominal: Cost) -> Cost {
        let bandwidth = match nominal.checked_mul(self.beta_num) {
            Some(scaled) => scaled.div_ceil(self.beta_den),
            None => Cost::MAX,
        };
        self.alpha.saturating_add(bandwidth)
    }
}

impl CostModel for AlphaBeta {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, _proc: ProcId) -> Cost {
        dag.weight(node)
    }

    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        if src == dst {
            0
        } else {
            self.price(nominal)
        }
    }
}

/// Hierarchical (NUMA-shaped) communication: processors are
/// partitioned into groups (`group_of[p]` is `p`'s group), messages
/// between processors of the *same* group pay the cheap `intra`
/// [`AlphaBeta`] tier and messages crossing groups pay the expensive
/// `inter` tier. Compute stays the nominal node weight. With a single
/// group and an identity `intra` tier ([`IDEAL_LINK`]) this reproduces
/// [`HomogeneousModel`] exactly.
///
/// Pricing a processor outside the configured table is a programming
/// error and panics with a clear message (network input must be
/// validated against the table size before scheduling — the CLI and
/// `casch serve` both reject such requests at parse time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchical {
    /// `group_of[p]` — the group processor `p` belongs to.
    group_of: Vec<u32>,
    /// Pricing for messages within one group.
    intra: AlphaBeta,
    /// Pricing for messages crossing groups.
    inter: AlphaBeta,
}

impl Hierarchical {
    /// New hierarchical model from an explicit processor→group table.
    /// Panics on an empty table; use [`Hierarchical::try_new`] for
    /// untrusted input.
    pub fn new(group_of: Vec<u32>, intra: AlphaBeta, inter: AlphaBeta) -> Self {
        Self::try_new(group_of, intra, inter).expect("invalid hierarchical parameters")
    }

    /// Fallible [`Hierarchical::new`]: an empty table is an error, not
    /// an assert.
    pub fn try_new(group_of: Vec<u32>, intra: AlphaBeta, inter: AlphaBeta) -> Result<Self, String> {
        if group_of.is_empty() {
            return Err("hierarchical: group table must not be empty".to_string());
        }
        Ok(Self {
            group_of,
            intra,
            inter,
        })
    }

    /// Hierarchical model from consecutive group *sizes*: `sizes =
    /// [4, 2]` puts processors 0–3 in group 0 and 4–5 in group 1.
    /// Rejects empty specs and zero-sized groups.
    pub fn from_group_sizes(
        sizes: &[u32],
        intra: AlphaBeta,
        inter: AlphaBeta,
    ) -> Result<Self, String> {
        if sizes.is_empty() {
            return Err("hierarchical: need at least one group".to_string());
        }
        let mut group_of = Vec::new();
        for (g, &size) in sizes.iter().enumerate() {
            if size == 0 {
                return Err(format!("hierarchical: group {g} has zero processors"));
            }
            if group_of.len() as u64 + size as u64 > u32::MAX as u64 {
                return Err("hierarchical: group sizes overflow the processor id space".into());
            }
            group_of.resize(group_of.len() + size as usize, g as u32);
        }
        Self::try_new(group_of, intra, inter)
    }

    /// Processors covered by the group table.
    pub fn count(&self) -> u32 {
        self.group_of.len() as u32
    }

    /// Number of distinct group ids (`max + 1`).
    pub fn groups(&self) -> u32 {
        self.group_of.iter().copied().max().unwrap_or(0) + 1
    }

    /// The intra-group link pricing.
    pub fn intra(&self) -> AlphaBeta {
        self.intra
    }

    /// The inter-group link pricing.
    pub fn inter(&self) -> AlphaBeta {
        self.inter
    }

    /// Per-group processor counts (`sizes[g]` = processors in group
    /// `g`). For tables built by [`Hierarchical::from_group_sizes`]
    /// this round-trips the original spec.
    pub fn group_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.groups() as usize];
        for &g in &self.group_of {
            sizes[g as usize] += 1;
        }
        sizes
    }

    /// Group of processor `p`. Panics (with the table size in the
    /// message) when `p` is outside the configured table.
    #[inline]
    pub fn group_of(&self, p: ProcId) -> u32 {
        match self.group_of.get(p.index()) {
            Some(&g) => g,
            None => panic!(
                "Hierarchical cost model: processor {} out of range \
                 ({} processors configured)",
                p.0,
                self.group_of.len()
            ),
        }
    }
}

impl CostModel for Hierarchical {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, _proc: ProcId) -> Cost {
        dag.weight(node)
    }

    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        if src == dst {
            0
        } else if self.group_of(src) == self.group_of(dst) {
            self.intra.price(nominal)
        } else {
            self.inter.price(nominal)
        }
    }

    /// Processor ids index the group table — a message's price
    /// depends on which groups its endpoints sit in, and renumbering
    /// moves tasks across the intra/inter pricing boundary. With a
    /// single group that boundary does not exist and pricing
    /// degenerates to co-location-only.
    #[inline]
    fn prices_by_colocation(&self) -> bool {
        self.groups() <= 1
    }
}

/// Runtime-selected communication model — the dynamic dispatch seam
/// the CLI (`--comm`) and `casch serve` (the request's `comm` object)
/// route through. Compute cost is the nominal node weight under every
/// variant; only message pricing varies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommModel {
    /// The paper's ideal network ([`HomogeneousModel`] pricing).
    Ideal,
    /// Latency–bandwidth pricing.
    AlphaBeta(AlphaBeta),
    /// Grouped intra/inter pricing.
    Hierarchical(Hierarchical),
}

impl CommModel {
    /// Parse a CLI `--comm` spec:
    ///
    /// * `ideal` — the paper's network;
    /// * `alpha-beta:A,BN,BD` — [`AlphaBeta`] with latency `A` and
    ///   bandwidth factor `BN/BD`;
    /// * `hier:S1+S2+...@A,BN,BD@A,BN,BD` — [`Hierarchical`] with
    ///   consecutive group sizes `S1,S2,...`, then the intra-group and
    ///   inter-group α–β tiers.
    ///
    /// Errors are plain messages (no `parse:` prefix); callers add
    /// their own framing.
    pub fn parse_spec(spec: &str) -> Result<CommModel, String> {
        fn triple(s: &str, what: &str) -> Result<AlphaBeta, String> {
            const FIELDS: [&str; 3] = ["alpha", "beta_num", "beta_den"];
            let parts: Vec<&str> = s.split(',').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "{what} must be three comma-separated integers `alpha,beta_num,beta_den`, \
                     got {} value(s) in `{s}`",
                    parts.len()
                ));
            }
            let mut nums = [0 as Cost; 3];
            for ((slot, part), field) in nums.iter_mut().zip(&parts).zip(FIELDS) {
                *slot = part.trim().parse::<Cost>().map_err(|_| {
                    format!("{what}: {field} `{part}` is not a non-negative integer")
                })?;
            }
            AlphaBeta::try_new(nums[0], nums[1], nums[2])
                .map_err(|_| format!("{what}: beta_den must be positive, got `{s}`"))
        }
        if spec == "ideal" {
            return Ok(CommModel::Ideal);
        }
        if let Some(rest) = spec.strip_prefix("alpha-beta:") {
            return Ok(CommModel::AlphaBeta(triple(rest, "alpha-beta")?));
        }
        if let Some(rest) = spec.strip_prefix("hier:") {
            let parts: Vec<&str> = rest.split('@').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "hier spec must be `hier:<sizes>@<intra>@<inter>` \
                     (e.g. `hier:4+4@0,1,1@20,2,1`), got {} `@`-separated part(s) in `{spec}`",
                    parts.len()
                ));
            }
            let sizes: Result<Vec<u32>, String> = parts[0]
                .split('+')
                .map(|s| {
                    s.trim()
                        .parse::<u32>()
                        .map_err(|_| format!("hier: group size `{s}` is not a positive integer"))
                })
                .collect();
            let intra = triple(parts[1], "hier intra tier")?;
            let inter = triple(parts[2], "hier inter tier")?;
            let model = Hierarchical::from_group_sizes(&sizes?, intra, inter)
                .map_err(|e| format!("hier group sizes `{}`: {e}", parts[0]))?;
            return Ok(CommModel::Hierarchical(model));
        }
        Err(format!(
            "unknown comm model `{spec}` (expected `ideal`, `alpha-beta:A,BN,BD` \
             or `hier:<sizes>@<intra>@<inter>`)"
        ))
    }

    /// The processor count the model requires, when it requires one
    /// ([`Hierarchical`]'s group table covers a fixed machine; the
    /// other variants fit any).
    pub fn required_procs(&self) -> Option<u32> {
        match self {
            CommModel::Hierarchical(h) => Some(h.count()),
            _ => None,
        }
    }
}

impl CostModel for CommModel {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, _proc: ProcId) -> Cost {
        dag.weight(node)
    }

    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        match self {
            CommModel::Ideal => HomogeneousModel.message_cost(nominal, src, dst),
            CommModel::AlphaBeta(ab) => ab.message_cost(nominal, src, dst),
            CommModel::Hierarchical(h) => h.message_cost(nominal, src, dst),
        }
    }

    #[inline]
    fn prices_by_colocation(&self) -> bool {
        match self {
            CommModel::Ideal => true,
            CommModel::AlphaBeta(ab) => ab.prices_by_colocation(),
            CommModel::Hierarchical(h) => h.prices_by_colocation(),
        }
    }
}

/// Per-processor memory capacities layered over any inner cost model.
///
/// The wrapper changes *nothing* about pricing — compute and message
/// costs forward to `inner` — it only answers
/// [`capacity`](CostModel::capacity) from its table. `None` entries
/// (and processors beyond the table) are unbounded, so
/// [`MemoryCapacities::unbounded`] is byte-identical to the inner
/// model on every path: scheduling, validation, compaction.
///
/// With any finite capacity the wrapper stops permitting processor
/// renumbering: compaction permutes lanes, which would re-pair each
/// lane's resident set with a different capacity. (A schedule produced
/// under finite capacities is therefore never compacted, like the
/// multi-group hierarchical model.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryCapacities<M> {
    inner: M,
    caps: Vec<Option<Cost>>,
}

impl<M: CostModel> MemoryCapacities<M> {
    /// Finite capacities for the first `caps.len()` processors;
    /// processors beyond the table are unbounded.
    pub fn new(inner: M, caps: Vec<Cost>) -> Self {
        Self {
            inner,
            caps: caps.into_iter().map(Some).collect(),
        }
    }

    /// Every processor unbounded — the identity wrapper (byte-identical
    /// to `inner` everywhere).
    pub fn unbounded(inner: M) -> Self {
        Self {
            inner,
            caps: Vec::new(),
        }
    }

    /// The same finite capacity `cap` on each of `procs` processors.
    pub fn uniform(inner: M, cap: Cost, procs: u32) -> Self {
        Self::new(inner, vec![cap; procs as usize])
    }

    /// Explicit mixed table: `None` entries (and processors beyond the
    /// table) are unbounded, `Some` entries are finite capacities.
    pub fn from_option_caps(inner: M, caps: Vec<Option<Cost>>) -> Self {
        Self { inner, caps }
    }

    /// The capacity table (entries beyond it are unbounded).
    pub fn caps(&self) -> &[Option<Cost>] {
        &self.caps
    }

    /// The wrapped pricing model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: CostModel> CostModel for MemoryCapacities<M> {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, proc: ProcId) -> Cost {
        self.inner.compute_cost(dag, node, proc)
    }

    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        self.inner.message_cost(nominal, src, dst)
    }

    #[inline]
    fn prices_by_colocation(&self) -> bool {
        self.inner.prices_by_colocation()
    }

    #[inline]
    fn permits_renumbering(&self) -> bool {
        self.inner.permits_renumbering() && !self.has_capacities()
    }

    #[inline]
    fn capacity(&self, proc: ProcId) -> Option<Cost> {
        self.caps.get(proc.index()).copied().flatten()
    }

    #[inline]
    fn has_capacities(&self) -> bool {
        self.caps.iter().any(Option::is_some)
    }
}

/// A parsed `--mem-caps` capacity spec, before the processor count is
/// known:
///
/// * `uniform:C` — every processor gets capacity `C`;
/// * `C1,C2,...` — one capacity per processor, fixing the count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemCapsSpec {
    /// One capacity replicated across all processors.
    Uniform(Cost),
    /// Explicit per-processor capacities (fixes the processor count).
    PerProc(Vec<Cost>),
}

impl MemCapsSpec {
    /// Parse a `--mem-caps` spec. Errors are plain messages (no
    /// `parse:` prefix); callers add their own framing.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(rest) = spec.strip_prefix("uniform:") {
            let cap = rest.trim().parse::<Cost>().map_err(|_| {
                format!("mem-caps: uniform capacity `{rest}` is not a non-negative integer")
            })?;
            return Ok(MemCapsSpec::Uniform(cap));
        }
        let caps: Result<Vec<Cost>, String> = spec
            .split(',')
            .map(|s| {
                s.trim().parse::<Cost>().map_err(|_| {
                    format!(
                        "mem-caps: capacity `{s}` is not a non-negative integer \
                         (expected `uniform:C` or a comma-separated list `C1,C2,...`)"
                    )
                })
            })
            .collect();
        Ok(MemCapsSpec::PerProc(caps?))
    }

    /// The processor count the spec requires, when it fixes one (an
    /// explicit per-processor list covers exactly its own length).
    pub fn required_procs(&self) -> Option<u32> {
        match self {
            MemCapsSpec::PerProc(caps) => Some(caps.len() as u32),
            MemCapsSpec::Uniform(_) => None,
        }
    }

    /// Materialize the per-processor capacity table for `procs`
    /// processors.
    pub fn resolve(&self, procs: u32) -> Vec<Cost> {
        match self {
            MemCapsSpec::Uniform(cap) => vec![*cap; procs as usize],
            MemCapsSpec::PerProc(caps) => caps.clone(),
        }
    }
}

/// Data arrival time of `node` on processor `proc` under `model`: the
/// maximum over all parents of `finish(parent) + message_cost(edge)`.
/// Entry nodes have DAT 0. `finish` and `assignment` are indexed by
/// node; every parent of `node` must already have final values there.
///
/// This is *the* shared DAT primitive — the fixed-order evaluator, the
/// incremental [`crate::incremental::DeltaEvaluator`], and the
/// list-scheduling machinery in `fastsched-algorithms` all call it.
#[inline]
pub fn data_arrival_time_with<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    node: NodeId,
    proc: ProcId,
    finish: &[Cost],
    assignment: &[ProcId],
) -> Cost {
    let mut dat = 0;
    for e in dag.preds(node) {
        let p = e.node.index();
        let arrival = finish[p] + model.message_cost(e.cost, assignment[p], proc);
        if arrival > dat {
            dat = arrival;
        }
    }
    dat
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::DagBuilder;

    fn sample() -> Dag {
        // a(2) →4→ b(3); a →1→ c(5); b,c → d(1) with costs 2, 1.
        let mut b = DagBuilder::new();
        let a = b.add_task(2);
        let nb = b.add_task(3);
        let nc = b.add_task(5);
        let nd = b.add_task(1);
        b.add_edge(a, nb, 4).unwrap();
        b.add_edge(a, nc, 1).unwrap();
        b.add_edge(nb, nd, 2).unwrap();
        b.add_edge(nc, nd, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn homogeneous_model_matches_paper_semantics() {
        let g = sample();
        let m = HomogeneousModel;
        assert_eq!(m.compute_cost(&g, NodeId(2), ProcId(3)), 5);
        assert_eq!(m.message_cost(7, ProcId(1), ProcId(1)), 0);
        assert_eq!(m.message_cost(7, ProcId(1), ProcId(2)), 7);
    }

    #[test]
    fn speeds_scale_compute_but_not_messages() {
        let g = sample();
        let s = ProcessorSpeeds::new(vec![100, 200, 50]);
        assert_eq!(s.compute_cost(&g, NodeId(2), ProcId(0)), 5);
        assert_eq!(s.compute_cost(&g, NodeId(2), ProcId(1)), 3); // ceil(5/2)
        assert_eq!(s.compute_cost(&g, NodeId(2), ProcId(2)), 10);
        assert_eq!(s.message_cost(7, ProcId(0), ProcId(2)), 7);
        assert_eq!(s.message_cost(7, ProcId(2), ProcId(2)), 0);
    }

    #[test]
    fn exec_time_scaling() {
        let s = ProcessorSpeeds::new(vec![100, 200, 50]);
        assert_eq!(s.exec_time(10, ProcId(0)), 10);
        assert_eq!(s.exec_time(10, ProcId(1)), 5);
        assert_eq!(s.exec_time(10, ProcId(2)), 20);
        assert_eq!(s.mean_exec_time(10), (10 + 5 + 20) / 3);
    }

    #[test]
    fn exec_time_saturates_instead_of_wrapping() {
        // Regression: `(w * 100).div_ceil(s)` wrapped for weights
        // above u64::MAX / 100, silently producing tiny exec times in
        // release builds. The adversarial weight below must price at
        // least as large as its nominal value, never smaller.
        let s = ProcessorSpeeds::new(vec![100, 50]);
        let w = u64::MAX / 50;
        assert!(s.exec_time(w, ProcId(0)) >= w, "wrapped on nominal speed");
        assert_eq!(s.exec_time(w, ProcId(1)), Cost::MAX);
        assert!(s.mean_exec_time(w) >= w / 2);
        // The sum saturates before the division, so the mean stays
        // huge instead of wrapping toward zero.
        assert!(s.mean_exec_time(u64::MAX) >= Cost::MAX / 2);
    }

    #[test]
    fn try_new_rejects_hostile_speeds() {
        assert!(ProcessorSpeeds::try_new(vec![]).is_err());
        assert!(ProcessorSpeeds::try_new(vec![100, 0]).is_err());
        assert_eq!(
            ProcessorSpeeds::try_new(vec![100, 50]).unwrap(),
            ProcessorSpeeds::new(vec![100, 50])
        );
    }

    #[test]
    fn alpha_beta_prices_latency_plus_bandwidth() {
        let g = sample();
        let ab = AlphaBeta::new(5, 3, 2);
        // Compute stays nominal.
        assert_eq!(ab.compute_cost(&g, NodeId(2), ProcId(1)), 5);
        // Co-located communication stays free.
        assert_eq!(ab.message_cost(7, ProcId(1), ProcId(1)), 0);
        // 5 + ceil(7 * 3 / 2) = 5 + 11 = 16.
        assert_eq!(ab.message_cost(7, ProcId(0), ProcId(1)), 16);
        // A zero-cost edge still pays the latency.
        assert_eq!(ab.message_cost(0, ProcId(0), ProcId(1)), 5);
    }

    #[test]
    fn alpha_beta_identity_is_the_homogeneous_model() {
        for nominal in [0u64, 1, 7, 1_000_003] {
            for (src, dst) in [(0, 0), (0, 1), (3, 2)] {
                assert_eq!(
                    IDEAL_LINK.message_cost(nominal, ProcId(src), ProcId(dst)),
                    HomogeneousModel.message_cost(nominal, ProcId(src), ProcId(dst)),
                );
            }
        }
    }

    #[test]
    fn alpha_beta_saturates() {
        let ab = AlphaBeta::new(u64::MAX - 1, 1, 1);
        assert_eq!(ab.message_cost(100, ProcId(0), ProcId(1)), u64::MAX);
        let wide = AlphaBeta::new(0, u64::MAX, 1);
        assert_eq!(wide.message_cost(2, ProcId(0), ProcId(1)), u64::MAX);
    }

    #[test]
    fn alpha_beta_rejects_zero_denominator() {
        assert!(AlphaBeta::try_new(1, 1, 0).is_err());
    }

    #[test]
    fn hierarchical_prices_by_group() {
        // Procs 0-1 in group 0, procs 2-3 in group 1; cheap intra
        // (latency 1, factor 1), dear inter (latency 10, factor 3).
        let h = Hierarchical::from_group_sizes(
            &[2, 2],
            AlphaBeta::new(1, 1, 1),
            AlphaBeta::new(10, 3, 1),
        )
        .unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.groups(), 2);
        assert_eq!(h.message_cost(7, ProcId(0), ProcId(0)), 0);
        assert_eq!(h.message_cost(7, ProcId(0), ProcId(1)), 8); // 1 + 7
        assert_eq!(h.message_cost(7, ProcId(1), ProcId(2)), 31); // 10 + 21
        assert_eq!(h.message_cost(7, ProcId(3), ProcId(2)), 8);
    }

    #[test]
    fn single_group_identity_hierarchical_is_homogeneous() {
        let h = Hierarchical::from_group_sizes(&[4], IDEAL_LINK, AlphaBeta::new(9, 9, 1)).unwrap();
        for nominal in [0u64, 3, 19] {
            for (src, dst) in [(0u32, 0u32), (0, 3), (2, 1)] {
                assert_eq!(
                    h.message_cost(nominal, ProcId(src), ProcId(dst)),
                    HomogeneousModel.message_cost(nominal, ProcId(src), ProcId(dst)),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hierarchical_panics_loudly_on_unknown_processor() {
        let h = Hierarchical::from_group_sizes(&[2], IDEAL_LINK, IDEAL_LINK).unwrap();
        h.message_cost(1, ProcId(0), ProcId(7));
    }

    #[test]
    fn hierarchical_rejects_bad_specs() {
        assert!(Hierarchical::try_new(vec![], IDEAL_LINK, IDEAL_LINK).is_err());
        assert!(Hierarchical::from_group_sizes(&[], IDEAL_LINK, IDEAL_LINK).is_err());
        assert!(Hierarchical::from_group_sizes(&[2, 0], IDEAL_LINK, IDEAL_LINK).is_err());
    }

    #[test]
    fn comm_model_spec_round_trips() {
        assert_eq!(CommModel::parse_spec("ideal").unwrap(), CommModel::Ideal);
        assert_eq!(
            CommModel::parse_spec("alpha-beta:5,3,2").unwrap(),
            CommModel::AlphaBeta(AlphaBeta::new(5, 3, 2))
        );
        let h = CommModel::parse_spec("hier:2+2@1,1,1@10,3,1").unwrap();
        assert_eq!(h.required_procs(), Some(4));
        assert_eq!(h.message_cost(7, ProcId(1), ProcId(2)), 31);
        assert_eq!(h.message_cost(7, ProcId(0), ProcId(1)), 8);

        for bad in [
            "nope",
            "alpha-beta:1,2",
            "alpha-beta:1,2,0",
            "alpha-beta:a,b,c",
            "hier:4",
            "hier:4@0,1,1",
            "hier:0@0,1,1@1,1,1",
            "hier:2+x@0,1,1@1,1,1",
        ] {
            assert!(CommModel::parse_spec(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parse_spec_errors_name_the_offending_branch() {
        // Each malformed spec must produce a message specific to the
        // branch that rejected it, not a generic parse failure.
        for (bad, needle) in [
            ("nope", "unknown comm model `nope`"),
            (
                "alpha-beta:1,2",
                "alpha-beta must be three comma-separated integers",
            ),
            ("alpha-beta:1,2", "got 2 value(s)"),
            (
                "alpha-beta:1,x,1",
                "alpha-beta: beta_num `x` is not a non-negative integer",
            ),
            ("alpha-beta:1,2,0", "alpha-beta: beta_den must be positive"),
            ("hier:4", "got 1 `@`-separated part(s)"),
            (
                "hier:4@0,1,1",
                "hier spec must be `hier:<sizes>@<intra>@<inter>`",
            ),
            (
                "hier:2+x@0,1,1@1,1,1",
                "hier: group size `x` is not a positive integer",
            ),
            (
                "hier:2+0@0,1,1@1,1,1",
                "hier group sizes `2+0`: hierarchical: group 1 has zero processors",
            ),
            (
                "hier:4@0,1,1@1,1,0",
                "hier inter tier: beta_den must be positive",
            ),
            (
                "hier:4@0,y,1@1,1,1",
                "hier intra tier: beta_num `y` is not a non-negative integer",
            ),
        ] {
            let err = CommModel::parse_spec(bad).unwrap_err();
            assert!(
                err.contains(needle),
                "spec `{bad}`: expected `{needle}` in `{err}`"
            );
        }
    }

    #[test]
    fn memory_capacities_forward_pricing_and_answer_caps() {
        let g = sample();
        let m = MemoryCapacities::new(HomogeneousModel, vec![100, 50]);
        assert_eq!(m.compute_cost(&g, NodeId(2), ProcId(0)), 5);
        assert_eq!(m.message_cost(7, ProcId(0), ProcId(1)), 7);
        assert_eq!(m.message_cost(7, ProcId(1), ProcId(1)), 0);
        assert_eq!(m.capacity(ProcId(0)), Some(100));
        assert_eq!(m.capacity(ProcId(1)), Some(50));
        // Beyond the table: unbounded.
        assert_eq!(m.capacity(ProcId(9)), None);
        assert!(m.has_capacities());
        // Finite caps pin processor identity.
        assert!(!m.permits_renumbering());
    }

    #[test]
    fn unbounded_capacities_are_the_identity_wrapper() {
        let m = MemoryCapacities::unbounded(HomogeneousModel);
        assert!(!m.has_capacities());
        assert_eq!(m.capacity(ProcId(0)), None);
        assert!(m.permits_renumbering());
        // Composing with an identity-sensitive model keeps its rule.
        let hetero = MemoryCapacities::unbounded(ProcessorSpeeds::new(vec![100, 200]));
        assert!(!hetero.permits_renumbering());
        // The default on every other model: no capacities anywhere.
        assert!(!HomogeneousModel.has_capacities());
        assert_eq!(HomogeneousModel.capacity(ProcId(3)), None);
    }

    #[test]
    fn mem_caps_spec_parses_uniform_and_per_proc() {
        let u = MemCapsSpec::parse("uniform:64").unwrap();
        assert_eq!(u, MemCapsSpec::Uniform(64));
        assert_eq!(u.required_procs(), None);
        assert_eq!(u.resolve(3), vec![64, 64, 64]);

        let p = MemCapsSpec::parse("10,20,30").unwrap();
        assert_eq!(p, MemCapsSpec::PerProc(vec![10, 20, 30]));
        assert_eq!(p.required_procs(), Some(3));
        assert_eq!(p.resolve(3), vec![10, 20, 30]);

        for (bad, needle) in [
            ("uniform:x", "uniform capacity `x`"),
            ("10,oops,30", "capacity `oops`"),
            ("", "capacity ``"),
        ] {
            let err = MemCapsSpec::parse(bad).unwrap_err();
            assert!(err.contains(needle), "`{bad}`: `{needle}` not in `{err}`");
        }
    }

    #[test]
    fn generic_dat_matches_hand_computation() {
        let g = sample();
        let finish = vec![2, 5, 8, 0];
        let assignment = vec![ProcId(0), ProcId(0), ProcId(1), ProcId(0)];
        // d on P0: b local → 5; c remote → 8 + 1 = 9.
        let dat = data_arrival_time_with(
            &HomogeneousModel,
            &g,
            NodeId(3),
            ProcId(0),
            &finish,
            &assignment,
        );
        assert_eq!(dat, 9);
        // Entry node: no parents.
        let dat = data_arrival_time_with(
            &HomogeneousModel,
            &g,
            NodeId(0),
            ProcId(0),
            &finish,
            &assignment,
        );
        assert_eq!(dat, 0);
    }
}
