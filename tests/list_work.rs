//! List construction is O(v + e), counted rather than timed.
//!
//! FAST's list phase counts its work in [`EvalStats`] (always on): the
//! edge entries its attribute sweep reads (`attr_edge_reads`, one
//! forward and one backward pass) and the pred and succ entries the
//! CPN-Dominate list reads (`list_pred_reads`: the ancestor pull's
//! parent scans and cursor advances, and the OBN pass). Each count
//! divided by `v + e` must stay inside a fixed band on the paper's
//! random DAGs from 100 to 2000 nodes, fan-in stars and dense
//! bipartite layers.
//!
//! [`EvalStats`]: fastsched::trace::EvalStats

mod shapes;

use fastsched::prelude::*;
use fastsched::trace::EvalStats;
use shapes::{size, sweep, PROCS};

/// Allowed `attr_edge_reads / (v + e)`: two passes read `2e`, below 2.
/// Three passes plus a reverse DFS read up to `4e`.
const ATTR_BAND: (f64, f64) = (0.25, 2.0);

/// Allowed `list_pred_reads / (v + e)`. The pull reads each parent of
/// a pulled node at most twice (scan and cursor) and the OBN pass each
/// edge of an OBN at most twice, so the list reads at most `2e`; it
/// reads 0.94–1.02 on every shape here. A pull that re-scanned every
/// parent on each return to a node read about `d²` for `d` unlisted
/// parents: its scans alone read 7.8–507 per `v + e` on the stars and
/// 1.4–2.0 on the random DAGs and layers. The floor keeps a counter
/// that stopped counting from passing.
const LIST_BAND: (f64, f64) = (0.25, 2.0);

/// The list counters of one traced FAST run.
fn list_stats(dag: &Dag) -> EvalStats {
    let mut trace = SearchTrace::default();
    Fast::new()
        .run(
            dag,
            PROCS,
            &Machine::Homogeneous,
            &mut Workspace::new(),
            &mut trace,
        )
        .expect("schedulable");
    trace.eval
}

#[test]
fn list_work_stays_linear_in_v_plus_e() {
    for (name, dag) in sweep() {
        let s = list_stats(&dag);
        let attr = s.attr_edge_reads as f64 / size(&dag);
        let list = s.list_pred_reads as f64 / size(&dag);
        assert!(
            (ATTR_BAND.0..=ATTR_BAND.1).contains(&attr),
            "FAST {name}: {attr:.3} attribute edge reads per (v + e), outside {ATTR_BAND:?}"
        );
        assert!(
            (LIST_BAND.0..=LIST_BAND.1).contains(&list),
            "FAST {name}: {list:.3} list pred reads per (v + e), outside {LIST_BAND:?}"
        );
    }
}
