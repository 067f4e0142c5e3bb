//! Search work is O(v + e) per FAST run, counted rather than timed.
//!
//! FAST's §4.4 hill climb makes `MAXSTEP` bounded transfer probes
//! through the incremental evaluator and keeps only strict
//! improvements. The evaluator counts its work in [`EvalStats`]
//! (always on): order positions walked, successor edges tested for a
//! dirty mark, pred entries its full data-arrival recomputes read,
//! successor entries its walks scan, and edges read while seeding and
//! rebuilding its critical mask. Each count divided by `v + e` must
//! stay inside a fixed band on the paper's random DAGs from 100 to
//! 2000 nodes and on the in-degree sweeps of `tests/placement_work.rs`.
//!
//! [`EvalStats`]: fastsched::trace::EvalStats

mod shapes;

use fastsched::prelude::*;
use fastsched::schedule::{AlphaBeta, CommModel};
use fastsched::trace::EvalStats;
use shapes::{size, sweep, PROCS};

/// Allowed walk work per `v + e` of one FAST run: positions walked,
/// edge marks tested and pred entries read, summed over all probes.
/// Almost every probe of the climb is a rejection; one that walks
/// until it meets the makespan node costs about `v + e` of its own,
/// so a search that walks each rejected probe reads 2.9–4.5 per
/// `v + e` on the random DAGs and 13–19 on the stars. Pruning the
/// probes whose moved node cannot reach a makespan node keeps the
/// run at 0–1.6. A run may prune every probe, hence the zero floor.
const WALK_BAND: (f64, f64) = (0.0, 2.0);

/// Allowed successor scanning per `v + e` of one FAST run: every
/// walked probe reads the out-edges of the moved node and of each
/// node whose finish it moved, once each.
const SUCC_BAND: (f64, f64) = (0.0, 2.0);

/// Allowed seeding work per `v + e` of one FAST run. FAST seeds its
/// evaluator from the placement's finish times, reading no edge; each
/// critical-mask rebuild (before the first probe and after a commit)
/// reads at most `e`. Replaying the placement cost another `e` per
/// run and read up to 2.91 per `v + e`.
const SEED_MAX: f64 = 2.5;

/// The evaluator counters of one traced FAST run.
fn search_stats(dag: &Dag, machine: &Machine) -> EvalStats {
    let mut trace = SearchTrace::default();
    Fast::new()
        .run(dag, PROCS, machine, &mut Workspace::new(), &mut trace)
        .expect("schedulable");
    trace.eval
}

#[test]
fn search_work_stays_linear_in_v_plus_e() {
    let alpha_beta: Machine = CommModel::AlphaBeta(AlphaBeta::new(25, 3, 2)).into();
    for (name, dag) in sweep() {
        for (model, machine) in [
            ("plain", &Machine::Homogeneous),
            ("alpha-beta", &alpha_beta),
        ] {
            let s = search_stats(&dag, machine);
            let walk = (s.dirty_nodes_visited + s.edge_marks_tested + s.probe_pred_reads) as f64
                / size(&dag);
            let succ = s.walk_succ_reads as f64 / size(&dag);
            let seed = s.seed_edge_reads as f64 / size(&dag);
            assert!(
                (WALK_BAND.0..=WALK_BAND.1).contains(&walk),
                "FAST {name} {model}: {walk:.3} walk reads per (v + e), outside {WALK_BAND:?}"
            );
            assert!(
                (SUCC_BAND.0..=SUCC_BAND.1).contains(&succ),
                "FAST {name} {model}: {succ:.3} successor reads per (v + e), outside {SUCC_BAND:?}"
            );
            assert!(
                s.seed_edge_reads > 0 && seed <= SEED_MAX,
                "FAST {name} {model}: {seed:.3} seeding edge reads per (v + e), above {SEED_MAX}"
            );
        }
    }
}
