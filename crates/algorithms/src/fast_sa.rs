//! FAST-SA — simulated-annealing refinement over FAST's neighbourhood,
//! an extension addressing the paper's own closing caveat: "the local
//! search process may get stuck in a poor local minimum point in the
//! solution space" (§6).
//!
//! Same moves as FAST (transfer a random blocking node to a random
//! processor), but worse moves are accepted with probability
//! `exp(-Δ/T)` under a geometric cooling schedule, letting the search
//! escape plateaus the hill climber cannot. Deterministic for a fixed
//! seed; the final answer is the best assignment ever visited (so
//! FAST-SA never returns worse than its initial schedule).

use crate::fast::initial_schedule_ws;
use crate::scheduler::{priced, Feature, Scheduler, SchedulerError};
use crate::workspace::{lend_eval, return_eval, Workspace};
use fastsched_dag::{Dag, NodeId, ObnOrder};
use fastsched_schedule::{CostModel, DeltaEvaluator, Machine, ProcId, Schedule};
use fastsched_trace::{Phase, SearchTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Annealing parameters.
#[derive(Debug, Clone, Copy)]
pub struct FastSaConfig {
    /// Total probes (the hill climber's MAXSTEP analogue; SA needs a
    /// larger budget to amortize its uphill excursions).
    pub steps: u32,
    /// Initial temperature as a fraction of the initial makespan.
    pub initial_temp_fraction: f64,
    /// Geometric cooling factor applied every step.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FastSaConfig {
    fn default() -> Self {
        Self {
            steps: 4096,
            initial_temp_fraction: 0.05,
            cooling: 0.999,
            seed: 0x5A5A,
        }
    }
}

/// The simulated-annealing FAST variant.
#[derive(Debug, Clone, Default)]
pub struct FastSa {
    config: FastSaConfig,
}

impl FastSa {
    /// FAST-SA with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// FAST-SA with explicit parameters.
    pub fn with_config(config: FastSaConfig) -> Self {
        Self { config }
    }

    /// FAST's phase 1 (default configuration) followed by the annealing
    /// walk — the one scheduling core, priced by `model` and recorded
    /// in `trace`. The walk is capacity-blind, so machines with memory
    /// capacities are `Unsupported`: use FAST for them.
    fn core<M: CostModel + ?Sized>(
        &self,
        dag: &Dag,
        num_procs: u32,
        model: &M,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        initial_schedule_ws(dag, num_procs, ObnOrder::default(), model, ws, trace)?;
        if !ws.blocking.is_empty() && num_procs >= 2 && self.config.steps > 0 {
            let mut eval = lend_eval(&mut ws.eval, model);
            eval.reset_with_finish(dag, &ws.list, &ws.state.proc, &ws.state.finish, num_procs);
            anneal(
                &self.config,
                dag,
                &ws.blocking,
                &mut eval,
                num_procs,
                &mut ws.best_assignment,
                trace,
            );
            // The evaluator's committed state is bit-identical to a
            // full replay, so re-seeding it with the best assignment
            // yields the best schedule.
            eval.reset(dag, &ws.list, &ws.best_assignment, num_procs);
            eval.write_schedule(&mut ws.staging);
            return_eval(&mut ws.eval, eval);
        }
        trace.clock.lap(Phase::Search);
        Ok(ws.finish(model))
    }
}

/// The simulated-annealing walk over `blocking`: same moves as FAST's
/// hill climb, uphill acceptance with probability `exp(-Δ/T)`. The
/// evaluator must hold the initial assignment; on return
/// `best_assignment` (cleared + refilled here) holds the best
/// assignment ever visited.
fn anneal<M: CostModel>(
    config: &FastSaConfig,
    dag: &Dag,
    blocking: &[NodeId],
    eval: &mut DeltaEvaluator<M>,
    num_procs: u32,
    best_assignment: &mut Vec<ProcId>,
    trace: &mut SearchTrace,
) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut max_used = eval.assignment().iter().map(|p| p.0).max().unwrap_or(0);
    best_assignment.clear();
    best_assignment.extend_from_slice(eval.assignment());
    // SA commits every accepted move (including uphill ones), so
    // the evaluator's committed state tracks `current`, not `best`.
    let mut current = eval.makespan();
    let mut best = current;
    let mut temp = (current as f64 * config.initial_temp_fraction).max(1.0);

    for step in 0..config.steps {
        let node = blocking[rng.gen_range(0..blocking.len())];
        let pool = (max_used + 2).min(num_procs);
        let target = ProcId(rng.gen_range(0..pool));
        temp *= config.cooling;
        if target == eval.assignment()[node.index()] {
            trace.step_skipped();
            continue;
        }
        trace.probe_attempted();
        let from = eval.assignment()[node.index()];
        let m = eval.probe_transfer(dag, node, target);
        let accept = if m <= current {
            true
        } else {
            let delta = (m - current) as f64;
            rng.gen::<f64>() < (-delta / temp).exp()
        };
        if accept {
            eval.commit();
            current = m;
            max_used = max_used.max(target.0);
            if m < best {
                best = m;
                best_assignment.copy_from_slice(eval.assignment());
            }
            // The SA trajectory records the *current* walk, uphill
            // moves included — that is the interesting signal.
            trace.probe_accepted(step as u64, current);
            trace.node_transferred(step as u64, node.0, from.0, target.0, current, true);
        } else {
            eval.revert();
            trace.probe_reverted(step as u64, current);
            trace.node_transferred(step as u64, node.0, from.0, target.0, m, false);
        }
    }

    trace.absorb_eval(eval.stats());
}

impl Scheduler for FastSa {
    fn name(&self) -> &'static str {
        "FAST-SA"
    }

    fn schedule_on(
        &self,
        dag: &Dag,
        num_procs: u32,
        machine: &Machine,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        if machine.has_capacities() {
            return Err(SchedulerError::Unsupported(Feature::MemoryCapacities));
        }
        priced!(machine, |m| self.core(dag, num_procs, m, ws, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::{Fast, FastConfig};
    use fastsched_dag::examples::paper_figure1;
    use fastsched_schedule::validate;
    use fastsched_workloads::{random_layered_dag, RandomDagConfig, TimingDatabase};

    #[test]
    fn valid_and_deterministic() {
        let g = paper_figure1();
        let sa = FastSa::new();
        let a = sa.schedule(&g, 9);
        let b = sa.schedule(&g, 9);
        assert_eq!(validate(&g, &a), Ok(()));
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn never_worse_than_initial_schedule() {
        let db = TimingDatabase::paragon();
        let g = random_layered_dag(&RandomDagConfig::paper(150, &db), 3);
        let fast = Fast::with_config(FastConfig {
            max_steps: 0,
            ..Default::default()
        });
        let (initial, _, _) = fast.initial_schedule(&g, 24);
        let sa = FastSa::new().schedule(&g, 24);
        assert_eq!(validate(&g, &sa), Ok(()));
        assert!(sa.makespan() <= initial.makespan());
    }

    #[test]
    fn zero_steps_returns_initial() {
        let g = paper_figure1();
        let sa = FastSa::with_config(FastSaConfig {
            steps: 0,
            ..Default::default()
        });
        let s = sa.schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
    }

    #[test]
    fn sa_matches_or_beats_plain_fast_with_a_budget() {
        let db = TimingDatabase::paragon();
        let g = random_layered_dag(&RandomDagConfig::paper(200, &db), 5);
        let procs = 28;
        let plain = Fast::new().schedule(&g, procs).makespan();
        let sa = FastSa::with_config(FastSaConfig {
            steps: 8192,
            ..Default::default()
        })
        .schedule(&g, procs)
        .makespan();
        // SA tracks the best-ever assignment, so with a larger budget
        // it should not lose to 64 hill-climbing steps by much.
        assert!(sa <= plain + plain / 20, "SA {sa} vs FAST {plain}");
    }
}
