//! The recording side: the collectors.
//!
//! A collector is owned by exactly one search (or one search chain):
//! all counters are plain `u64`s bumped on the owning thread — no
//! atomics anywhere near the probe loop. Counters and the phase clock
//! always run; a [`SearchTrace`]'s runtime `enabled` flag gates only
//! the hooks that allocate (metadata, trajectory, provenance).
//! Parallel drivers give each chain its own [`SearchTrace`] and fold
//! them together with [`SearchTrace::merge`] after joining, in chain
//! order, so the merged totals are deterministic for a fixed
//! `(seed, chains)` pair.

use crate::clock::{Phase, PhaseClock};
use crate::event::TraceEvent;
use crate::report::Report;

/// Default bound of the trajectory ring buffer (entries).
pub const DEFAULT_TRAJECTORY_CAPACITY: usize = 8192;

/// Low-level work counters: how much work each probe's dirty-suffix
/// walk in the incremental evaluation engine
/// ([`DeltaEvaluator`](../fastsched_schedule/struct.DeltaEvaluator.html))
/// actually did, and how many parent entries the placement loop's DAT
/// lanes read. Plain counters: they always count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Incremental (dirty-suffix) probe evaluations started.
    pub incremental_probes: u64,
    /// Bounded probes that bailed out early at the cutoff.
    pub incremental_probes_aborted: u64,
    /// Full O(v + e) replays (evaluator seeding).
    pub full_evaluations: u64,
    /// Order positions inspected by dirty-suffix walks (clean skips
    /// included — this is the true suffix length walked).
    pub dirty_nodes_visited: u64,
    /// Nodes whose start/finish a walk actually recomputed.
    pub nodes_recomputed: u64,
    /// Successor edges tested for a dirty mark.
    pub edge_marks_tested: u64,
    /// Successor entries read by probe walks' scans: every out-edge of
    /// the moved node and of each recomputed node whose finish moved.
    pub walk_succ_reads: u64,
    /// Critical-mask rebuilds (after seeding and commits, on the first
    /// bounded probe that can prune).
    pub mask_rebuilds: u64,
    /// Probes accepted into the committed state.
    pub commits: u64,
    /// Probes rolled back from the undo log.
    pub reverts: u64,
    /// Pred-lane entries the placement loop's DAT lanes read (FAST's
    /// initial schedule, ETF, DLS, HEFT): `e` for a run that fills
    /// each node once under a co-location-priced model.
    pub placement_pred_reads: u64,
    /// Bounded probes rejected before any walk because the moved node
    /// cannot reach a makespan node through committed-tight
    /// constraints (counted in `incremental_probes_aborted` too).
    pub probes_pruned: u64,
    /// Pred entries read by probe walks' full data-arrival recomputes.
    pub probe_pred_reads: u64,
    /// Edges read by evaluator seeding (the full replay; none when the
    /// evaluator adopts a placement's finish times) and by the
    /// critical-mask rebuilds after seeding and commits.
    pub seed_edge_reads: u64,
    /// Edge entries FAST's list attribute sweep read (`2e`: one
    /// forward and one backward pass).
    pub attr_edge_reads: u64,
    /// Pred and succ entries the CPN-Dominate list read: the ancestor
    /// pull's parent scans and cursor advances, and the OBN pass.
    pub list_pred_reads: u64,
}

macro_rules! bump {
    ($($(#[$doc:meta])* $method:ident => $field:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $method(&mut self) {
                self.$field += 1;
            }
        )+
    };
}

impl EvalStats {
    bump! {
        /// Count one incremental probe evaluation.
        on_probe => incremental_probes,
        /// Count one bounded probe aborting at its cutoff.
        on_probe_aborted => incremental_probes_aborted,
        /// Count one full O(v + e) replay.
        on_full_eval => full_evaluations,
        /// Count one order position visited by a dirty-suffix walk.
        on_node_walked => dirty_nodes_visited,
        /// Count one node recompute inside a walk.
        on_node_recomputed => nodes_recomputed,
        /// Count one successor edge tested for a mark.
        on_edge_mark => edge_marks_tested,
        /// Count one critical-mask rebuild.
        on_mask_rebuild => mask_rebuilds,
        /// Count one committed probe.
        on_commit => commits,
        /// Count one reverted probe.
        on_revert => reverts,
        /// Count one bounded probe pruned before its walk.
        on_probe_pruned => probes_pruned,
    }

    /// Add another collector's totals into this one.
    pub fn merge(&mut self, other: &EvalStats) {
        self.incremental_probes += other.incremental_probes;
        self.incremental_probes_aborted += other.incremental_probes_aborted;
        self.full_evaluations += other.full_evaluations;
        self.dirty_nodes_visited += other.dirty_nodes_visited;
        self.nodes_recomputed += other.nodes_recomputed;
        self.edge_marks_tested += other.edge_marks_tested;
        self.walk_succ_reads += other.walk_succ_reads;
        self.mask_rebuilds += other.mask_rebuilds;
        self.commits += other.commits;
        self.reverts += other.reverts;
        self.placement_pred_reads += other.placement_pred_reads;
        self.probes_pruned += other.probes_pruned;
        self.probe_pred_reads += other.probe_pred_reads;
        self.seed_edge_reads += other.seed_edge_reads;
        self.attr_edge_reads += other.attr_edge_reads;
        self.list_pred_reads += other.list_pred_reads;
    }

    /// `(name, value)` pairs in emission order (the NDJSON counter
    /// names of DESIGN.md § Observability).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("incremental_probes", self.incremental_probes),
            (
                "incremental_probes_aborted",
                self.incremental_probes_aborted,
            ),
            ("full_evaluations", self.full_evaluations),
            ("dirty_nodes_visited", self.dirty_nodes_visited),
            ("nodes_recomputed", self.nodes_recomputed),
            ("edge_marks_tested", self.edge_marks_tested),
            ("walk_succ_reads", self.walk_succ_reads),
            ("mask_rebuilds", self.mask_rebuilds),
            ("commits", self.commits),
            ("reverts", self.reverts),
            ("placement_pred_reads", self.placement_pred_reads),
            ("probes_pruned", self.probes_pruned),
            ("probe_pred_reads", self.probe_pred_reads),
            ("seed_edge_reads", self.seed_edge_reads),
            ("attr_edge_reads", self.attr_edge_reads),
            ("list_pred_reads", self.list_pred_reads),
        ]
    }
}

/// Bounded ring buffer of `(step, makespan, accepted)` trajectory
/// entries: pushes past the capacity overwrite the oldest entry and
/// are tallied in `dropped`.
#[derive(Debug, Clone, Default)]
struct Ring {
    buf: Vec<(u64, u64, bool)>,
    cap: usize,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn with_capacity(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, entry: (u64, u64, bool)) {
        if self.cap == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.cap {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Entries oldest to newest.
    fn iter(&self) -> impl Iterator<Item = &(u64, u64, bool)> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// Per-search observability collector: the phase clock, search-event
/// counters and the bounded schedule-length trajectory.
///
/// Search drivers thread one of these through a run (see
/// `Scheduler::run`). [`SearchTrace::default`] is off: it keeps the
/// counters and the clock but never touches the heap, so untraced
/// runs stay allocation-free. [`SearchTrace::recording`] also records
/// metadata, the trajectory and placement provenance.
#[derive(Debug, Clone, Default)]
pub struct SearchTrace {
    /// Probes actually evaluated by the driver (same-processor picks
    /// are skipped before probing and counted in `steps_skipped`).
    pub probes_attempted: u64,
    /// Probes whose move was committed.
    pub probes_accepted: u64,
    /// Probes whose move was rolled back.
    pub probes_reverted: u64,
    /// Driver steps that never probed (random pick landed on the
    /// node's current processor).
    pub steps_skipped: u64,
    /// Evaluation-engine counters absorbed via [`Self::absorb_eval`].
    pub eval: EvalStats,
    /// Time per [`Phase`] the run lapped.
    pub clock: PhaseClock,
    enabled: bool,
    meta: Vec<(String, String)>,
    trajectory: Ring,
    /// Placement-provenance stream: `Candidate`/`Placed` events from
    /// the initial-schedule loop and `Transfer` events from the local
    /// search, in recording order. Bounded by the driver (O(v + e)
    /// candidates plus one transfer per probe).
    provenance: Vec<TraceEvent>,
}

impl SearchTrace {
    /// A recording collector with the default trajectory bound
    /// ([`DEFAULT_TRAJECTORY_CAPACITY`]).
    pub fn recording() -> Self {
        Self::with_capacity(DEFAULT_TRAJECTORY_CAPACITY)
    }

    /// A recording collector whose trajectory ring holds at most `cap`
    /// steps (older steps are overwritten; the overflow count is
    /// emitted as the `trajectory_dropped` counter).
    pub fn with_capacity(cap: usize) -> Self {
        SearchTrace {
            enabled: true,
            trajectory: Ring::with_capacity(cap),
            ..Self::default()
        }
    }

    /// An empty collector in this one's mode and trajectory bound —
    /// what a parallel driver hands each chain before merging it back.
    pub fn empty_like(&self) -> Self {
        SearchTrace {
            enabled: self.enabled,
            trajectory: Ring::with_capacity(self.trajectory.cap),
            ..Self::default()
        }
    }

    /// `true` for a recording collector; `false` for the default one,
    /// which keeps only the counters and the clock.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attach a `key = value` metadata pair (workload label, seed, …).
    pub fn set_meta(&mut self, key: &str, value: &str) {
        if !self.enabled {
            return;
        }
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Count a probe evaluation.
    #[inline]
    pub fn probe_attempted(&mut self) {
        self.probes_attempted += 1;
    }

    /// Count an accepted probe and record the trajectory step
    /// (`makespan` is the best-known schedule length after the step).
    #[inline]
    pub fn probe_accepted(&mut self, step: u64, makespan: u64) {
        self.probes_accepted += 1;
        if self.enabled {
            self.trajectory.push((step, makespan, true));
        }
    }

    /// Count a reverted probe and record the trajectory step.
    #[inline]
    pub fn probe_reverted(&mut self, step: u64, makespan: u64) {
        self.probes_reverted += 1;
        if self.enabled {
            self.trajectory.push((step, makespan, false));
        }
    }

    /// Count a driver step that skipped probing.
    #[inline]
    pub fn step_skipped(&mut self) {
        self.steps_skipped += 1;
    }

    /// Record one candidate processor probed while placing `node`:
    /// the processor's ready time, the node's data-arrival time there
    /// and the start time the candidate offers.
    #[inline]
    pub fn candidate_probed(&mut self, node: u32, proc: u32, ready: u64, dat: u64, start: u64) {
        if self.enabled {
            self.provenance.push(TraceEvent::Candidate {
                node: node as u64,
                proc: proc as u64,
                ready,
                dat,
                start,
            });
        }
    }

    /// Record the decision that closed `node`'s candidate probes:
    /// which processor won, the start time it got, and why it won.
    #[inline]
    pub fn node_placed(&mut self, node: u32, proc: u32, start: u64, reason: &'static str) {
        if self.enabled {
            self.provenance.push(TraceEvent::Placed {
                node: node as u64,
                proc: proc as u64,
                start,
                reason: reason.to_string(),
            });
        }
    }

    /// Record one local-search transfer probe with its end points
    /// (companion to [`Self::probe_accepted`]/[`Self::probe_reverted`],
    /// which carry only the makespan).
    #[inline]
    pub fn node_transferred(
        &mut self,
        step: u64,
        node: u32,
        from: u32,
        to: u32,
        makespan: u64,
        accepted: bool,
    ) {
        if self.enabled {
            self.provenance.push(TraceEvent::Transfer {
                step,
                node: node as u64,
                from: from as u64,
                to: to as u64,
                makespan,
                accepted,
            });
        }
    }

    /// Fold an evaluation engine's counters into this trace (drivers
    /// call this once, after the search loop).
    pub fn absorb_eval(&mut self, stats: &EvalStats) {
        self.eval.merge(stats);
    }

    /// Fold another chain's trace into this one: counters and phase
    /// times sum, metadata and trajectory entries append in order (a
    /// collector that is off takes only the counters and the clock).
    /// Merging chains in a fixed order (chain 0, 1, …) after joining
    /// keeps multi-threaded totals deterministic.
    pub fn merge(&mut self, other: &SearchTrace) {
        self.probes_attempted += other.probes_attempted;
        self.probes_accepted += other.probes_accepted;
        self.probes_reverted += other.probes_reverted;
        self.steps_skipped += other.steps_skipped;
        self.eval.merge(&other.eval);
        self.clock.merge(&other.clock);
        if !self.enabled {
            return;
        }
        for (k, v) in &other.meta {
            self.meta.push((k.clone(), v.clone()));
        }
        for &entry in other.trajectory.iter() {
            self.trajectory.push(entry);
        }
        self.trajectory.dropped += other.trajectory.dropped;
        self.provenance.extend(other.provenance.iter().cloned());
    }

    /// Steps dropped from the bounded trajectory ring so far.
    pub fn trajectory_dropped(&self) -> u64 {
        self.trajectory.dropped
    }

    /// Flatten into the event stream: metadata, one phase per lapped
    /// [`Phase`] in enum order, counters, provenance, then trajectory
    /// steps oldest to newest.
    pub fn to_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for (k, v) in &self.meta {
            events.push(TraceEvent::meta(k.clone(), v.clone()));
        }
        for p in Phase::ALL {
            if self.clock.laps(p) > 0 {
                events.push(TraceEvent::Phase {
                    name: p.name().to_string(),
                    micros: self.clock.micros(p),
                });
            }
        }
        for (name, value) in [
            ("probes_attempted", self.probes_attempted),
            ("probes_accepted", self.probes_accepted),
            ("probes_reverted", self.probes_reverted),
            ("steps_skipped", self.steps_skipped),
        ] {
            events.push(TraceEvent::Counter {
                name: name.to_string(),
                value,
            });
        }
        for (name, value) in self.eval.counters() {
            events.push(TraceEvent::Counter {
                name: name.to_string(),
                value,
            });
        }
        if self.trajectory.dropped > 0 {
            events.push(TraceEvent::Counter {
                name: "trajectory_dropped".to_string(),
                value: self.trajectory.dropped,
            });
        }
        events.extend(self.provenance.iter().cloned());
        for &(step, makespan, accepted) in self.trajectory.iter() {
            events.push(TraceEvent::Step {
                step,
                makespan,
                accepted,
            });
        }
        events
    }

    /// [`Self::to_events`] wrapped as a [`Report`].
    pub fn to_report(&self) -> Report {
        Report::new(self.to_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_trajectory_flow_into_the_report() {
        let mut t = SearchTrace::recording();
        t.set_meta("algo", "FAST");
        t.clock.start();
        t.clock.lap(Phase::Search);
        t.probe_attempted();
        t.probe_accepted(0, 18);
        t.probe_attempted();
        t.probe_reverted(1, 18);
        t.step_skipped();
        let mut stats = EvalStats::default();
        stats.on_probe();
        stats.on_probe();
        stats.on_node_walked();
        stats.on_probe_pruned();
        stats.probe_pred_reads += 3;
        stats.seed_edge_reads += 7;
        stats.walk_succ_reads += 5;
        stats.attr_edge_reads += 4;
        stats.list_pred_reads += 6;
        stats.on_mask_rebuild();
        t.absorb_eval(&stats);

        let r = t.to_report();
        assert_eq!(r.counter("probes_attempted"), Some(2));
        assert_eq!(r.counter("probes_accepted"), Some(1));
        assert_eq!(r.counter("probes_reverted"), Some(1));
        assert_eq!(r.counter("steps_skipped"), Some(1));
        assert_eq!(r.counter("incremental_probes"), Some(2));
        assert_eq!(r.counter("dirty_nodes_visited"), Some(1));
        assert_eq!(r.counter("probes_pruned"), Some(1));
        assert_eq!(r.counter("probe_pred_reads"), Some(3));
        assert_eq!(r.counter("seed_edge_reads"), Some(7));
        assert_eq!(r.counter("walk_succ_reads"), Some(5));
        assert_eq!(r.counter("mask_rebuilds"), Some(1));
        assert_eq!(r.counter("attr_edge_reads"), Some(4));
        assert_eq!(r.counter("list_pred_reads"), Some(6));
        assert_eq!(r.trajectory(), vec![18, 18]);
        assert_eq!(r.phase_totals().len(), 1);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = SearchTrace::with_capacity(3);
        for step in 0..5u64 {
            t.probe_accepted(step, 100 - step);
        }
        assert_eq!(t.trajectory_dropped(), 2);
        let r = t.to_report();
        assert_eq!(r.trajectory(), vec![98, 97, 96]);
        assert_eq!(r.counter("trajectory_dropped"), Some(2));
    }

    #[test]
    fn merge_sums_counters_and_appends_trajectories() {
        let mut a = SearchTrace::recording();
        a.probe_attempted();
        a.probe_accepted(0, 10);
        a.clock.lap(Phase::Search);
        let mut b = SearchTrace::recording();
        b.probe_attempted();
        b.probe_reverted(0, 12);
        b.clock.lap(Phase::Search);
        b.set_meta("chain", "1");
        a.merge(&b);
        assert_eq!(a.probes_attempted, 2);
        assert_eq!(a.probes_accepted, 1);
        assert_eq!(a.probes_reverted, 1);
        assert_eq!(a.to_report().trajectory(), vec![10, 12]);
        assert_eq!(a.to_report().phase_totals().len(), 1);
        assert_eq!(a.clock.laps(Phase::Search), 2);
    }

    #[test]
    fn provenance_flows_into_the_report_in_order() {
        let mut t = SearchTrace::recording();
        t.candidate_probed(3, 0, 5, 9, 9);
        t.candidate_probed(3, 1, 0, 12, 12);
        t.node_placed(3, 0, 9, "earliest-start");
        t.node_transferred(0, 3, 0, 2, 17, true);
        let r = t.to_report();
        let placements = r.placements_of(3);
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].proc, 0);
        assert_eq!(placements[0].reason, "earliest-start");
        assert_eq!(placements[0].candidates.len(), 2);
        assert_eq!(placements[0].candidates[1].dat, 12);
        let transfers = r.transfers_of(3);
        assert_eq!(transfers.len(), 1);
        assert!(transfers[0].accepted);
        // Round-trips through NDJSON like every other event.
        let back = crate::Report::from_ndjson(&r.to_ndjson()).unwrap();
        assert_eq!(back.placements_of(3).len(), 1);
    }

    #[test]
    fn merge_appends_provenance() {
        let mut a = SearchTrace::recording();
        a.node_placed(0, 0, 0, "only-candidate");
        let mut b = SearchTrace::recording();
        b.node_placed(1, 1, 4, "earliest-start");
        a.merge(&b);
        let r = a.to_report();
        assert_eq!(r.placements_of(0).len(), 1);
        assert_eq!(r.placements_of(1).len(), 1);
    }

    /// Every hook once, in both modes: the default collector must
    /// count and time exactly what its recording twin does while
    /// emitting nothing but counters and phases.
    #[test]
    fn default_trace_counts_like_a_recording_one_but_records_nothing() {
        let drive = |t: &mut SearchTrace| {
            t.clock.start();
            t.clock.lap(Phase::List);
            t.set_meta("algo", "FAST");
            t.probe_attempted();
            t.probe_accepted(0, 10);
            t.probe_attempted();
            t.probe_reverted(1, 10);
            t.step_skipped();
            t.candidate_probed(0, 0, 0, 3, 3);
            t.node_placed(0, 0, 3, "earliest-start");
            t.node_transferred(0, 0, 0, 1, 10, true);
            let mut stats = EvalStats::default();
            stats.on_probe();
            stats.on_node_walked();
            stats.on_edge_mark();
            t.absorb_eval(&stats);
            let mut chain = t.empty_like();
            chain.probe_attempted();
            chain.probe_accepted(2, 9);
            chain.set_meta("chain", "0");
            t.merge(&chain);
            t.clock.lap(Phase::Search);
        };
        let (mut off, mut on) = (SearchTrace::default(), SearchTrace::recording());
        drive(&mut off);
        drive(&mut on);
        assert!(!off.is_enabled() && on.is_enabled());

        let counters = |t: &SearchTrace| -> Vec<TraceEvent> {
            t.to_events()
                .into_iter()
                .filter(|e| matches!(e, TraceEvent::Counter { .. }))
                .collect()
        };
        let phases = |t: &SearchTrace| -> Vec<String> {
            t.to_report()
                .phase_totals()
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        assert_eq!(counters(&off), counters(&on));
        assert_eq!(phases(&off), ["list_construction", "local_search"]);
        assert_eq!(phases(&off), phases(&on));
        assert_eq!(off.probes_attempted, 3);
        assert_eq!(off.eval.dirty_nodes_visited, 1);
        assert!(
            off.to_events()
                .iter()
                .all(|e| matches!(e, TraceEvent::Counter { .. } | TraceEvent::Phase { .. })),
            "a default trace emitted more than counters and phases: {:?}",
            off.to_events()
        );
        // The recording twin did record every kind of event.
        let on_events = on.to_events();
        let has = |f: fn(&TraceEvent) -> bool| on_events.iter().any(f);
        assert!(has(|e| matches!(e, TraceEvent::Meta { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Phase { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Step { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Candidate { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Placed { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Transfer { .. })));
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut t = SearchTrace::with_capacity(0);
        t.probe_accepted(0, 1);
        assert_eq!(t.trajectory_dropped(), 1);
        assert!(t.to_report().trajectory().is_empty());
    }
}
