//! FAST — Fast Assignment using Search Technique (§4 of the paper).
//!
//! Phase 1 ([`Fast::initial_schedule`]): classical list scheduling over
//! the CPN-Dominate list. To stay O(e), no slot insertion is performed
//! — a node is appended at the *ready time* of a processor — and only
//! the processors accommodating the node's parents plus one unused
//! processor are probed (§4.2).
//!
//! Phase 2: local neighbourhood search (§4.3–4.4). The neighbourhood
//! is defined by the static *blocking-node list* (all IBNs and OBNs);
//! `MAXSTEP` times, a random blocking node is transferred to a random
//! processor and the move is reverted unless it strictly improves.
//! Probes run through the incremental
//! [`DeltaEvaluator`], which
//! re-evaluates only the order suffix the transfer dirties while
//! producing makespans bit-identical to a full O(v + e) replay — the
//! search trajectory is unchanged, only cheaper. The evaluator is
//! seeded with the placement's finish times rather than a replay: the
//! placement appended every node at `max(DAT, ready)` in list order,
//! which is exactly what the replay computes. Each probe is bounded
//! by the incumbent makespan, so the evaluator rejects a transfer of a
//! node off the schedule's critical cone (no chain of tight edges from
//! it reaches a makespan node) without walking at all, and stops any
//! other rejected walk as soon as it reaches the cutoff.

use crate::list_common::ListState;
use crate::scheduler::{priced, Scheduler, SchedulerError};
use crate::workspace::{lend_eval, return_eval, Workspace};
use fastsched_dag::{cpn_dominate_list_into, CpnListConfig, Dag, NodeId, ObnOrder};
use fastsched_schedule::{
    data_arrival_time_with, CostModel, DeltaEvaluator, HomogeneousModel, Machine, ProcId, Schedule,
};
use fastsched_trace::{EvalStats, Phase, SearchTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `InitialSchedule()` placement loop of §4.2 under `model`, on
/// the workspace's list-scheduling state: `ws.state` is reset and
/// every node of `ws.list` placed on it; message arrival and execution
/// time are priced by `model`. The candidates of a node are the
/// distinct processors of its parents (as the DAT lanes record them)
/// plus the next unused processor.
///
/// Each candidate is priced by its start, never by its DAT: the node
/// is appended at the candidate's ready time, which already covers
/// every message from a parent placed there, so one
/// [`DatLanes::fill_bound`] pass over the parents and an O(1)
/// [`RemoteBound::not_from`] per candidate give `max(DAT, ready)`
/// (a walk over the parents under a model the lanes are not exact
/// for).
/// The winner is the first candidate with the least start, picked
/// without a branch. A recording trace also gets each candidate's
/// exact DAT, walked from the parents only then and not counted in
/// `placement_pred_reads`.
///
/// Under finite memory capacities the probe loop rejects over-capacity
/// placements ([`ListState::fits`]): candidates whose lane cannot hold
/// the node's footprint are dropped, and if that empties the §4.2
/// candidate set the probe widens to every processor with room
/// (earliest start, ties to the lower id). When no processor can hold
/// a node's footprint the loop stops with
/// [`SchedulerError::Infeasible`].
///
/// [`DatLanes::fill_bound`]: crate::list_common::DatLanes::fill_bound
/// [`RemoteBound::not_from`]: crate::list_common::RemoteBound::not_from
fn place_by_list<M: CostModel + ?Sized>(
    model: &M,
    dag: &Dag,
    num_procs: u32,
    ws: &mut Workspace,
    trace: &mut SearchTrace,
) -> Result<(), SchedulerError> {
    let Workspace {
        list,
        state,
        dat,
        candidates,
        staging,
        ..
    } = ws;
    state.reset(dag.node_count(), num_procs);
    dat.reset(dag, model);
    let capped = model.has_capacities();
    let recording = trace.is_enabled();
    let mut used_procs = 0u32;

    for &n in list.iter() {
        let bound = dat.fill_bound(model, dag, state, n);
        candidates.clear();
        candidates.extend_from_slice(dat.parent_procs());
        if used_procs < num_procs {
            candidates.push(ProcId(used_procs)); // the "new" processor
        }
        let need = dag.mem(n);
        let mut fallback = false;
        if capped {
            candidates.retain(|&p| state.fits(model, p, need));
            if candidates.is_empty() {
                // Every preferred processor is at capacity (or the
                // node had none): widen the probe to the whole
                // machine, keeping only lanes with room.
                candidates.extend(
                    (0..num_procs)
                        .map(ProcId)
                        .filter(|&p| state.fits(model, p, need)),
                );
                if candidates.is_empty() {
                    return Err(SchedulerError::Infeasible {
                        node: n.0,
                        footprint: need,
                    });
                }
            }
        } else if candidates.is_empty() {
            // No parents and no unused processor left: fall back to
            // the least-loaded used processor.
            fallback = true;
            let p = (0..used_procs)
                .map(ProcId)
                .min_by_key(|&p| state.ready_time(p))
                .expect("some processor must exist");
            candidates.push(p);
        }

        let mut best_p = candidates[0];
        let mut best_start = u64::MAX;
        for &p in candidates.iter() {
            let ready = state.ready_time(p);
            let start = match bound {
                Some(bound) => ready.max(bound.not_from(p)),
                None => ready.max(dat.arrival(model, dag, state, n, p)),
            };
            best_p = if start < best_start { p } else { best_p };
            best_start = best_start.min(start);
            if recording {
                let arrival = data_arrival_time_with(model, dag, n, p, &state.finish, &state.proc);
                trace.candidate_probed(n.0, p.0, ready, arrival, start);
            }
        }
        let reason = if fallback {
            "fallback-least-loaded"
        } else if candidates.len() == 1 {
            "only-candidate"
        } else {
            "earliest-start"
        };
        trace.node_placed(n.0, best_p.0, best_start, reason);

        if best_p.0 >= used_procs {
            used_procs = best_p.0 + 1;
        }
        let duration = model.compute_cost(dag, n, best_p);
        state.place_with_duration(dag, n, best_p, best_start, duration);
    }
    trace.eval.placement_pred_reads += dat.pred_reads();
    state.write_schedule(dag, staging);
    Ok(())
}

/// The §4.3–4.4 random-transfer hill climb over `blocking`, shared by
/// FAST (one chain) and FAST-MS (one call per chain). The evaluator
/// must hold the initial assignment; on return it holds the refined
/// one. Returns the best makespan reached. Probes are priced by the
/// evaluator's [`CostModel`].
///
/// With `mem: Some(state)` the walk refuses transfers whose target
/// lane cannot hold the node's footprint ([`ListState::fits`] on the
/// state's resident sums) — counted as skipped steps, like
/// same-processor picks — and moves the footprint on every commit.
/// `None` leaves the trajectory byte-identical to the capacity-blind
/// climb.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hill_climb<M: CostModel>(
    dag: &Dag,
    blocking: &[NodeId],
    eval: &mut DeltaEvaluator<M>,
    num_procs: u32,
    max_steps: u32,
    seed: u64,
    trace: &mut SearchTrace,
    mut mem: Option<&mut ListState>,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    // Random processor pool: the processors in use plus one spare.
    let mut max_used = eval.assignment().iter().map(|p| p.0).max().unwrap_or(0);
    let mut best = eval.makespan();

    for step in 0..max_steps {
        let node = blocking[rng.gen_range(0..blocking.len())];
        let pool = (max_used + 2).min(num_procs);
        let target = ProcId(rng.gen_range(0..pool));
        if target == eval.assignment()[node.index()] {
            trace.step_skipped();
            continue;
        }
        if let Some(state) = mem.as_deref() {
            if !state.fits(eval.model(), target, dag.mem(node)) {
                trace.step_skipped();
                continue;
            }
        }
        trace.probe_attempted();
        let from = eval.assignment()[node.index()];
        // A move is accepted only when it strictly improves, so
        // `best` doubles as the bounded probe's cutoff: the walk
        // bails out as soon as the makespan provably reaches it.
        match eval.probe_transfer_bounded(dag, node, target, best) {
            Some(makespan) => {
                best = makespan;
                max_used = max_used.max(target.0);
                eval.commit();
                if let Some(state) = mem.as_deref_mut() {
                    state.move_footprint(from, target, dag.mem(node));
                }
                trace.probe_accepted(step as u64, best);
                trace.node_transferred(step as u64, node.0, from.0, target.0, best, true);
            }
            None => {
                eval.revert(); // §4.4 step 8
                trace.probe_reverted(step as u64, best);
                trace.node_transferred(step as u64, node.0, from.0, target.0, best, false);
            }
        }
    }

    trace.absorb_eval(eval.stats());
    best
}

/// Run the `list_construction` phase (the fused attribute sweep with
/// the CPN/IBN/OBN classification, then the CPN-Dominate list) into
/// workspace buffers: `ws.attrs` and `ws.list` are (re)filled in
/// place, and the entries read are added to `stats`.
pub(crate) fn list_construction_into(
    dag: &Dag,
    obn_order: ObnOrder,
    ws: &mut Workspace,
    stats: &mut EvalStats,
) {
    stats.attr_edge_reads += ws.attrs.compute_into(dag, &mut ws.attr_lanes);
    stats.list_pred_reads += cpn_dominate_list_into(
        dag,
        &ws.attrs.t_level,
        &ws.attrs.b_level,
        &ws.attrs.classes,
        CpnListConfig { obn_order },
        &mut ws.cpn_scratch,
        &mut ws.list,
    );
}

/// Phase 1 against workspace buffers, shared by FAST, FAST-SA and
/// FAST-MS: list construction (lapped as [`Phase::List`]) plus the
/// placement loop under `model` (lapped as [`Phase::Place`]). Fills
/// `ws.list`, `ws.attrs`, `ws.blocking` and `ws.state` (the initial
/// assignment is its `proc` lane), and builds the initial schedule in
/// `ws.staging`.
pub(crate) fn initial_schedule_ws<M: CostModel + ?Sized>(
    dag: &Dag,
    num_procs: u32,
    obn_order: ObnOrder,
    model: &M,
    ws: &mut Workspace,
    trace: &mut SearchTrace,
) -> Result<(), SchedulerError> {
    trace.clock.start();
    list_construction_into(dag, obn_order, ws, &mut trace.eval);
    ws.blocking_from_classes(dag);
    trace.clock.lap(Phase::List);
    place_by_list(model, dag, num_procs, ws, trace)?;
    trace.clock.lap(Phase::Place);
    Ok(())
}

/// Tunables of the FAST algorithm.
#[derive(Debug, Clone, Copy)]
pub struct FastConfig {
    /// `MAXSTEP` of §4.4 — number of local-search probes. The paper
    /// fixes 64 for all results and observes 100 suffices even for
    /// DAGs with tens of thousands of nodes.
    pub max_steps: u32,
    /// RNG seed for the random node/processor picks (the paper's
    /// algorithm is randomized; a fixed seed makes runs reproducible).
    pub seed: u64,
    /// OBN tail ordering of the CPN-Dominate list.
    pub obn_order: ObnOrder,
}

impl Default for FastConfig {
    fn default() -> Self {
        Self {
            max_steps: 64,
            seed: 0xFA57,
            obn_order: ObnOrder::Decreasing,
        }
    }
}

/// The FAST scheduler (initial schedule + local search).
#[derive(Debug, Clone, Default)]
pub struct Fast {
    config: FastConfig,
}

impl Fast {
    /// FAST with default configuration (MAXSTEP = 64).
    pub fn new() -> Self {
        Self::default()
    }

    /// FAST with an explicit configuration.
    pub fn with_config(config: FastConfig) -> Self {
        Self { config }
    }

    /// Phase 1 only (`InitialSchedule()` of §4.2), exposed for the
    /// paper's Figure 4(a) comparison and for ablation benches.
    ///
    /// Returns the schedule together with the CPN-Dominate list and
    /// the node→processor assignment, which phase 2 consumes.
    pub fn initial_schedule(
        &self,
        dag: &Dag,
        num_procs: u32,
    ) -> (Schedule, Vec<NodeId>, Vec<ProcId>) {
        self.initial_schedule_with(&HomogeneousModel, dag, num_procs)
            .expect("the homogeneous machine has no capacities")
    }

    /// [`Self::initial_schedule`] priced by `model`: the placement the
    /// local search starts from under that model. Fails only when a
    /// memory capacity leaves some node no processor.
    pub fn initial_schedule_with<M: CostModel + ?Sized>(
        &self,
        model: &M,
        dag: &Dag,
        num_procs: u32,
    ) -> Result<(Schedule, Vec<NodeId>, Vec<ProcId>), SchedulerError> {
        assert!(num_procs >= 1, "need at least one processor");
        let mut ws = Workspace::new();
        initial_schedule_ws(
            dag,
            num_procs,
            self.config.obn_order,
            model,
            &mut ws,
            &mut SearchTrace::default(),
        )?;
        Ok((ws.staging, ws.list, ws.state.proc))
    }

    /// The two phases of §4 — the one scheduling core: CPN-Dominate
    /// placement, then the random-transfer hill climb through the
    /// workspace's [`DeltaEvaluator`], both priced by `model` and both
    /// timed in `trace` (phases [`Phase::List`], [`Phase::Place`],
    /// [`Phase::Search`]). Under finite capacities the
    /// placement and the climb both refuse over-capacity lanes.
    fn core<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        num_procs: u32,
        model: &M,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        initial_schedule_ws(dag, num_procs, self.config.obn_order, model, ws, trace)?;
        if !ws.blocking.is_empty() && num_procs >= 2 {
            let mut eval = lend_eval(&mut ws.eval, model);
            eval.reset_with_finish(dag, &ws.list, &ws.state.proc, &ws.state.finish, num_procs);
            let mem = model.has_capacities().then_some(&mut ws.state);
            hill_climb(
                dag,
                &ws.blocking,
                &mut eval,
                num_procs,
                self.config.max_steps,
                self.config.seed,
                trace,
                mem,
            );
            eval.write_schedule(&mut ws.staging);
            return_eval(&mut ws.eval, eval);
        }
        trace.clock.lap(Phase::Search);
        Ok(ws.finish(model))
    }

    /// Blocking-node list of §4.3: all IBNs and OBNs, in id order.
    pub fn blocking_nodes(dag: &Dag) -> Vec<NodeId> {
        let mut ws = Workspace::new();
        list_construction_into(dag, ObnOrder::default(), &mut ws, &mut EvalStats::default());
        ws.blocking_from_classes(dag);
        ws.blocking
    }
}

impl Scheduler for Fast {
    fn name(&self) -> &'static str {
        "FAST"
    }

    fn schedule_on(
        &self,
        dag: &Dag,
        num_procs: u32,
        machine: &Machine,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        priced!(machine, |m| self.core(dag, num_procs, m, ws, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::examples::{paper_figure1, paper_node};
    use fastsched_schedule::validate;

    #[test]
    fn figure1_initial_schedule_is_valid_and_reproducible() {
        let g = paper_figure1();
        let fast = Fast::new();
        let (s1, list, _) = fast.initial_schedule(&g, 9);
        assert_eq!(validate(&g, &s1), Ok(()));
        // The CPN-Dominate list drives the schedule; it must match §4.2.
        let expected: Vec<_> = [1, 3, 2, 7, 6, 5, 4, 8, 9]
            .iter()
            .map(|&k| paper_node(k))
            .collect();
        assert_eq!(list, expected);
        let (s2, _, _) = fast.initial_schedule(&g, 9);
        assert_eq!(s1.makespan(), s2.makespan());
    }

    #[test]
    fn figure1_initial_schedule_hand_replay() {
        // Hand replay of InitialSchedule() over the reconstructed
        // Figure 1 graph (see examples.rs for the derivation): the
        // makespan is 19.
        let g = paper_figure1();
        let (s, _, _) = Fast::new().initial_schedule(&g, 9);
        assert_eq!(s.makespan(), 19);
        // n1, n3, n2, n7 pack onto the first processor.
        let p = s.proc_of(paper_node(1)).unwrap();
        for k in [3, 2, 7] {
            assert_eq!(s.proc_of(paper_node(k)).unwrap(), p);
        }
        assert_eq!(s.start_of(paper_node(7)), Some(8));
    }

    #[test]
    fn local_search_never_worsens_initial_schedule() {
        let g = paper_figure1();
        let fast = Fast::new();
        let (initial, _, _) = fast.initial_schedule(&g, 9);
        let refined = fast.schedule(&g, 9);
        assert_eq!(validate(&g, &refined), Ok(()));
        assert!(refined.makespan() <= initial.makespan());
    }

    #[test]
    fn blocking_list_matches_paper() {
        let g = paper_figure1();
        let blocking = Fast::blocking_nodes(&g);
        let labels: Vec<u32> = blocking.iter().map(|n| n.0 + 1).collect();
        assert_eq!(labels, vec![2, 3, 4, 5, 6, 8]); // §4.3
    }

    #[test]
    fn single_processor_degenerates_to_serial_order() {
        let g = paper_figure1();
        let s = Fast::new().schedule(&g, 1);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), g.total_computation());
        assert_eq!(s.processors_used(), 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = paper_figure1();
        let a = Fast::with_config(FastConfig {
            seed: 42,
            ..Default::default()
        })
        .schedule(&g, 9);
        let b = Fast::with_config(FastConfig {
            seed: 42,
            ..Default::default()
        })
        .schedule(&g, 9);
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn more_search_steps_never_hurt() {
        let g = paper_figure1();
        let short = Fast::with_config(FastConfig {
            max_steps: 4,
            seed: 7,
            ..Default::default()
        })
        .schedule(&g, 9);
        let long = Fast::with_config(FastConfig {
            max_steps: 512,
            seed: 7,
            ..Default::default()
        })
        .schedule(&g, 9);
        assert!(long.makespan() <= short.makespan());
    }

    #[test]
    fn all_cpn_chain_skips_search() {
        // A pure chain has no blocking nodes; FAST returns the initial
        // schedule (everything on one processor).
        let g = fastsched_dag::examples::chain(6, 3, 2);
        let s = Fast::new().schedule(&g, 4);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.processors_used(), 1);
        assert_eq!(s.makespan(), 18);
    }
}
