//! Multi-start parallel FAST (the authors' follow-up idea, published
//! as FASTEST): run several independent local-search chains from the
//! same initial schedule on separate threads and keep the best
//! refinement.
//!
//! The search phase of FAST is embarrassingly parallel — each chain
//! only needs the immutable DAG, the CPN-Dominate order and a private
//! copy of the assignment vector — so this is a natural
//! crossbeam-scoped-threads extension. Results are deterministic for a
//! fixed `(seed, chains)` pair: chain `i` uses seed `seed + i` and the
//! winner is the lowest `(makespan, chain index)`.

use crate::fast::{hill_climb, initial_schedule_ws};
use crate::scheduler::{priced, Scheduler, SchedulerError};
use crate::workspace::{lend_eval, return_eval, Workspace};
use fastsched_dag::{Dag, ObnOrder};
use fastsched_schedule::evaluate::evaluate_fixed_order_into_with;
use fastsched_schedule::{CostModel, Machine, Schedule};
use fastsched_trace::SearchTrace;

/// Tunables of the multi-start search.
#[derive(Debug, Clone, Copy)]
pub struct FastParallelConfig {
    /// Independent search chains. The chain count — not the thread
    /// count — is what the result depends on.
    pub chains: u32,
    /// Probes per chain (each chain gets the full MAXSTEP budget).
    pub max_steps_per_chain: u32,
    /// Base RNG seed; chain `i` uses `seed + i`.
    pub seed: u64,
    /// Worker threads the chains are partitioned over; `0` means one
    /// thread per chain. Chains are statically assigned round-robin
    /// (`chain i → worker i % threads`) and results are re-keyed by
    /// chain index, so the schedule and the merged trace are
    /// byte-identical for any thread count.
    pub threads: u32,
}

impl Default for FastParallelConfig {
    fn default() -> Self {
        Self {
            chains: 4,
            max_steps_per_chain: 64,
            seed: 0xFA57,
            threads: 0,
        }
    }
}

/// The multi-start parallel FAST scheduler.
#[derive(Debug, Clone, Default)]
pub struct FastParallel {
    config: FastParallelConfig,
}

impl FastParallel {
    /// Multi-start FAST with default configuration (4 chains).
    pub fn new() -> Self {
        Self::default()
    }

    /// Multi-start FAST with an explicit configuration.
    pub fn with_config(config: FastParallelConfig) -> Self {
        Self { config }
    }

    /// FAST's phase 1 (default configuration) followed by `chains`
    /// independent hill climbs — the one scheduling core, priced by
    /// `model`. Chains are capacity-blind, so machines with memory
    /// capacities are `Unsupported`: use FAST for them.
    ///
    /// One `ChainSlot` (evaluator + trace) per chain lives in the
    /// workspace; each worker thread gets a disjoint contiguous chunk
    /// of slots and records into the slots' private traces — no shared
    /// atomics near the probe loop. A chain's outcome depends only on
    /// its seed `seed + i`, so the partition shape cannot change
    /// results: the winner is the lowest `(makespan, chain index)`, and
    /// the chain traces merge into `trace` in chain-index order.
    fn core<M: CostModel + Sync + ?Sized>(
        &self,
        dag: &Dag,
        num_procs: u32,
        model: &M,
        ws: &mut Workspace,
        trace: &mut SearchTrace,
    ) -> Result<Schedule, SchedulerError> {
        initial_schedule_ws(dag, num_procs, ObnOrder::default(), model, ws, trace)?;
        trace.phase_start("local_search");
        let chains = self.config.chains as usize;
        if !ws.blocking.is_empty() && num_procs >= 2 && chains > 0 {
            ws.ensure_chains(chains);
            let workers = match self.config.threads {
                0 => chains,
                t => (t as usize).min(chains),
            };
            let (max_steps, base_seed) = (self.config.max_steps_per_chain, self.config.seed);
            let (order, init, blocking) = (&ws.list, &ws.assignment, &ws.blocking);
            // Chains record in the caller's mode, so a traced run keeps
            // every chain's trajectory and provenance.
            let fresh = &trace.empty_like();
            let chunk = chains.div_ceil(workers);
            crossbeam::thread::scope(|scope| {
                for (w, slice) in ws.chains[..chains].chunks_mut(chunk).enumerate() {
                    scope.spawn(move |_| {
                        for (j, slot) in slice.iter_mut().enumerate() {
                            let seed = base_seed + (w * chunk + j) as u64;
                            slot.trace = fresh.clone();
                            let mut eval = lend_eval(&mut slot.eval, model);
                            eval.reset(dag, order, init, num_procs);
                            slot.makespan = hill_climb(
                                dag,
                                blocking,
                                &mut eval,
                                num_procs,
                                max_steps,
                                seed,
                                &mut slot.trace,
                                None,
                            );
                            return_eval(&mut slot.eval, eval);
                        }
                    });
                }
            })
            .expect("search chains do not panic");

            for slot in &ws.chains[..chains] {
                trace.merge(&slot.trace);
            }
            let best = (0..chains)
                .min_by_key(|&i| (ws.chains[i].makespan, i))
                .expect("at least one chain");
            evaluate_fixed_order_into_with(
                model,
                dag,
                &ws.list,
                ws.chains[best].eval.assignment(),
                num_procs,
                &mut ws.proc_ready,
                &mut ws.node_finish,
                &mut ws.staging,
            );
        }
        trace.phase_end("local_search");
        Ok(ws.finish(model))
    }
}

impl Scheduler for FastParallel {
    fn name(&self) -> &'static str {
        "FAST-MS"
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
            return Err(SchedulerError::Unsupported);
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

    #[test]
    fn valid_and_deterministic() {
        let g = paper_figure1();
        let sched = FastParallel::new();
        let a = sched.schedule(&g, 9);
        let b = sched.schedule(&g, 9);
        assert_eq!(validate(&g, &a), Ok(()));
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn multi_start_at_least_matches_single_chain() {
        let g = paper_figure1();
        let single = Fast::with_config(FastConfig {
            max_steps: 64,
            seed: 0xFA57,
            ..Default::default()
        })
        .schedule(&g, 9);
        let multi = FastParallel::with_config(FastParallelConfig {
            chains: 4,
            max_steps_per_chain: 64,
            seed: 0xFA57,
            threads: 0,
        })
        .schedule(&g, 9);
        assert!(multi.makespan() <= single.makespan());
    }

    #[test]
    fn thread_count_never_changes_the_schedule() {
        let g = paper_figure1();
        let reference = FastParallel::with_config(FastParallelConfig {
            chains: 5,
            threads: 0,
            ..Default::default()
        })
        .schedule(&g, 9);
        for threads in [1, 2, 3, 8] {
            let s = FastParallel::with_config(FastParallelConfig {
                chains: 5,
                threads,
                ..Default::default()
            })
            .schedule(&g, 9);
            assert_eq!(
                fastsched_schedule::io::to_json(&s),
                fastsched_schedule::io::to_json(&reference),
                "threads = {threads} diverged"
            );
        }
    }

    #[test]
    fn zero_chains_returns_initial_schedule() {
        let g = paper_figure1();
        let sched = FastParallel::with_config(FastParallelConfig {
            chains: 0,
            ..Default::default()
        });
        let s = sched.schedule(&g, 9);
        assert_eq!(validate(&g, &s), Ok(()));
        let (initial, _, _) = Fast::new().initial_schedule(&g, 9);
        assert_eq!(s.makespan(), initial.makespan());
    }
}
