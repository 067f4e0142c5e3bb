//! Exhaustive branch-and-bound reference scheduler for tiny graphs.
//!
//! Enumerates every *non-delay* schedule — at each decision point a
//! ready node is placed on a processor and starts at
//! `max(processor ready time, DAT)` — and returns the best one found.
//! Non-delay schedules do not cover deliberate-idling optima, so this
//! is a (tight in practice) upper bound on the true optimum and an
//! exact optimum within the non-delay class that every list scheduler
//! in this crate inhabits. Complexity is exponential: intended for
//! `v ≤ ~12`, `p ≤ ~3`, as the quality-reference in tests and
//! ablations.
//!
//! The search carries a state cap (`max_states`) as a runaway guard;
//! when the cap truncates the enumeration the returned incumbent is
//! *not* an optimum and heuristics may legitimately beat it. Callers
//! that use the result as a bound must go through
//! [`BranchAndBound::solve`] and check [`OracleOutcome::complete`].

use crate::scheduler::HomogeneousOnly;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{ProcId, Schedule};

/// The exhaustive reference scheduler.
#[derive(Debug, Clone, Copy)]
pub struct BranchAndBound {
    /// Safety cap on explored states (default 5 million); the search
    /// returns the best schedule found when exhausted.
    pub max_states: u64,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self {
            max_states: 5_000_000,
        }
    }
}

impl BranchAndBound {
    /// New reference scheduler with the default state cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run the exhaustive search and report whether it completed.
    ///
    /// [`crate::Scheduler::schedule`] silently returns the incumbent when the
    /// state cap truncates the search; tests that use the result as an
    /// optimality bound must check [`OracleOutcome::complete`] first —
    /// a truncated incumbent is an upper bound on nothing.
    pub fn solve(&self, dag: &Dag, num_procs: u32) -> OracleOutcome {
        self.solve_with_caps(dag, num_procs, &[])
    }

    /// [`Self::solve`] under per-processor memory capacities: the
    /// enumeration never places a node on a processor whose resident
    /// footprint sum would exceed its capacity, so a `complete`
    /// outcome is the exact non-delay optimum *within the capacity
    /// constraint* — the optimality floor the differential harness
    /// compares memory-aware heuristics against. `caps` is indexed by
    /// processor; `None` (or out-of-table) lanes are unbounded, and an
    /// empty slice reproduces [`Self::solve`] exactly. With any finite
    /// capacity the returned schedule is *not* compacted (lane
    /// identity is part of the answer).
    ///
    /// # Panics
    ///
    /// Panics when no complete schedule fits the capacities (the
    /// instance is memory-infeasible).
    pub fn solve_with_caps(
        &self,
        dag: &Dag,
        num_procs: u32,
        caps: &[Option<Cost>],
    ) -> OracleOutcome {
        assert!(num_procs >= 1);
        let v = dag.node_count();
        assert!(v <= 16, "exhaustive search is for tiny graphs (v <= 16)");
        let capped = caps.iter().any(Option::is_some);

        // Computation-only b-level (ignores communication): admissible.
        let mut comp = vec![0 as Cost; v];
        for &n in dag.topo_order().iter().rev() {
            let best = dag
                .succs(n)
                .iter()
                .map(|e| comp[e.node.index()])
                .max()
                .unwrap_or(0);
            comp[n.index()] = dag.weight(n) + best;
        }

        let mut search = Search {
            dag,
            num_procs,
            comp_blevel: comp,
            caps,
            best: Cost::MAX,
            best_plan: Vec::new(),
            plan: Vec::new(),
            states: 0,
            max_states: self.max_states,
        };
        let mut indeg: Vec<u32> = dag.nodes().map(|n| dag.in_degree(n) as u32).collect();
        let mut ready = dag.entry_nodes();
        let mut finish = vec![0 as Cost; v];
        let mut proc = vec![ProcId(0); v];
        let mut proc_ready = vec![0 as Cost; num_procs as usize];
        let mut proc_mem = vec![0 as Cost; num_procs as usize];
        search.dfs(
            &mut indeg,
            &mut ready,
            &mut finish,
            &mut proc,
            &mut proc_ready,
            &mut proc_mem,
            0,
            0,
        );
        assert!(
            !capped || v == 0 || !search.best_plan.is_empty(),
            "memory-infeasible instance: no complete schedule fits the capacities"
        );

        // Replay the best plan into a Schedule.
        let mut schedule = Schedule::new(v, num_procs);
        let mut fin = vec![0 as Cost; v];
        let mut pr = vec![0 as Cost; num_procs as usize];
        let mut pa = vec![ProcId(0); v];
        for &(n, p) in &search.best_plan {
            let mut dat = 0;
            for e in dag.preds(n) {
                let f = fin[e.node.index()];
                dat = dat.max(if pa[e.node.index()] == p {
                    f
                } else {
                    f + e.cost
                });
            }
            let start = dat.max(pr[p.index()]);
            let end = start + dag.weight(n);
            fin[n.index()] = end;
            pa[n.index()] = p;
            pr[p.index()] = end;
            schedule.place(n, p, start, end);
        }
        // With finite capacities lane identity is part of the answer:
        // compaction would renumber processors out from under the
        // capacity table, so the schedule is returned as placed.
        OracleOutcome {
            schedule: if capped { schedule } else { schedule.compact() },
            complete: search.states <= search.max_states,
            states: search.states.min(search.max_states),
        }
    }
}

/// Result of an exhaustive [`BranchAndBound::solve`] run.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// The best schedule found (the exact optimum iff `complete`).
    pub schedule: Schedule,
    /// True when the pruned tree was enumerated in full; false when
    /// `max_states` truncated the search, in which case `schedule` is
    /// only the best incumbent and proves no bound.
    pub complete: bool,
    /// States explored (capped at `max_states`).
    pub states: u64,
}

struct Search<'a> {
    dag: &'a Dag,
    num_procs: u32,
    comp_blevel: Vec<Cost>,   // computation-only b-level: admissible bound
    caps: &'a [Option<Cost>], // per-proc memory capacity, empty = unbounded
    best: Cost,
    best_plan: Vec<(NodeId, ProcId)>,
    plan: Vec<(NodeId, ProcId)>,
    states: u64,
    max_states: u64,
}

impl Search<'_> {
    #[allow(clippy::too_many_arguments)] // explicit-undo DFS state
    fn dfs(
        &mut self,
        indeg: &mut [u32],
        ready: &mut Vec<NodeId>,
        finish: &mut [Cost],
        proc: &mut [ProcId],
        proc_ready: &mut [Cost],
        proc_mem: &mut [Cost],
        makespan: Cost,
        placed: usize,
    ) {
        self.states += 1;
        if self.states > self.max_states || makespan >= self.best {
            return;
        }
        if placed == self.dag.node_count() {
            self.best = makespan;
            self.best_plan = self.plan.clone();
            return;
        }
        // Admissible lower bound: some ready node still has its whole
        // computation-only b-level ahead of it, starting no earlier
        // than its DAT lower bound (max over placed parents).
        for &n in ready.iter() {
            let mut lb = 0;
            for e in self.dag.preds(n) {
                lb = lb.max(finish[e.node.index()]); // same-proc best case
            }
            if lb + self.comp_blevel[n.index()] >= self.best {
                return;
            }
        }

        let snapshot: Vec<NodeId> = ready.clone();
        for n in snapshot {
            let need = self.dag.mem(n);
            // Symmetry breaking: probing more than one *empty*
            // processor is redundant on identical machines — but a
            // capacity table makes lanes distinguishable, so the
            // shortcut is disabled whenever one is present.
            let mut tried_empty = false;
            for pi in 0..self.num_procs {
                let p = ProcId(pi);
                if let Some(cap) = self.caps.get(p.index()).copied().flatten() {
                    if proc_mem[p.index()].saturating_add(need) > cap {
                        continue; // over capacity: lane is closed to n
                    }
                }
                let empty = proc_ready[p.index()] == 0;
                if empty && tried_empty && self.caps.is_empty() {
                    continue;
                }
                if empty {
                    tried_empty = true;
                }
                // Non-delay start.
                let mut dat = 0;
                for e in self.dag.preds(n) {
                    let f = finish[e.node.index()];
                    dat = dat.max(if proc[e.node.index()] == p {
                        f
                    } else {
                        f + e.cost
                    });
                }
                let start = dat.max(proc_ready[p.index()]);
                let end = start + self.dag.weight(n);

                // Apply.
                let ready_pos = ready.iter().position(|&x| x == n).unwrap();
                ready.swap_remove(ready_pos);
                let mut released = Vec::new();
                for e in self.dag.succs(n) {
                    indeg[e.node.index()] -= 1;
                    if indeg[e.node.index()] == 0 {
                        ready.push(e.node);
                        released.push(e.node);
                    }
                }
                let (old_finish, old_proc, old_ready) =
                    (finish[n.index()], proc[n.index()], proc_ready[p.index()]);
                finish[n.index()] = end;
                proc[n.index()] = p;
                proc_ready[p.index()] = end;
                proc_mem[p.index()] += need;
                self.plan.push((n, p));

                self.dfs(
                    indeg,
                    ready,
                    finish,
                    proc,
                    proc_ready,
                    proc_mem,
                    makespan.max(end),
                    placed + 1,
                );

                // Undo, in exact reverse: pull released children out
                // of the ready set, restore every successor's
                // in-degree, restore the machine state, re-add n.
                self.plan.pop();
                finish[n.index()] = old_finish;
                proc[n.index()] = old_proc;
                proc_ready[p.index()] = old_ready;
                proc_mem[p.index()] -= need;
                for r in released.drain(..) {
                    let pos = ready.iter().position(|&x| x == r).unwrap();
                    ready.swap_remove(pos);
                }
                for e in self.dag.succs(n) {
                    indeg[e.node.index()] += 1;
                }
                ready.push(n);
            }
        }
    }
}

impl HomogeneousOnly for BranchAndBound {
    const NAME: &'static str = "B&B";

    fn schedule_homogeneous(&self, dag: &Dag, num_procs: u32) -> Schedule {
        self.solve(dag, num_procs).schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use fastsched_dag::examples::{chain, fork_join, paper_figure1};
    use fastsched_dag::DagBuilder;
    use fastsched_schedule::validate;

    #[test]
    fn chain_optimum_is_serial() {
        let g = chain(4, 3, 10);
        let s = BranchAndBound::new().schedule(&g, 3);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), 12);
        assert_eq!(s.processors_used(), 1);
    }

    #[test]
    fn independent_tasks_spread_perfectly() {
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_task(5);
        }
        let g = b.build().unwrap();
        let s = BranchAndBound::new().schedule(&g, 2);
        assert_eq!(validate(&g, &s), Ok(()));
        assert_eq!(s.makespan(), 10); // 4 × 5 over 2 procs
    }

    #[test]
    fn fork_join_cheap_comm_optimum() {
        let g = fork_join(3, 4, 1); // fork 4, three 4s, join 4
        let s = BranchAndBound::new().schedule(&g, 3);
        assert_eq!(validate(&g, &s), Ok(()));
        // fork 0-4; a local worker 4-8; two remote workers 5-9; the
        // join waits for the last remote message (9 + 1): 10-14. No
        // arrangement does better: serializing two workers locally
        // pushes the join to 12, and everything-local to 16.
        assert_eq!(s.makespan(), 14);
    }

    #[test]
    fn solve_reports_truncation_honestly() {
        let g = paper_figure1();
        let full = BranchAndBound::new().solve(&g, 3);
        assert!(full.complete, "9 nodes x 3 procs should enumerate fully");
        assert!(full.states > 0);
        // Starve the same search: the incumbent comes back flagged.
        let starved = BranchAndBound { max_states: 50 }.solve(&g, 3);
        assert!(!starved.complete);
        assert!(starved.schedule.makespan() >= full.schedule.makespan());
    }

    #[test]
    fn optimum_lower_bounds_every_heuristic_on_the_example() {
        let g = paper_figure1();
        let opt = BranchAndBound::new().schedule(&g, 3);
        assert_eq!(validate(&g, &opt), Ok(()));
        for s in crate::scheduler::all_schedulers(5) {
            let h = s.schedule(&g, 3);
            assert!(
                h.makespan() >= opt.makespan(),
                "{} beat the exhaustive optimum?!",
                s.name()
            );
        }
        // FAST specifically should be close to optimal here.
        let fast = crate::fast::Fast::new().schedule(&g, 3);
        assert!(fast.makespan() <= opt.makespan() + opt.makespan() / 4);
    }
}
