//! Topology-aware pricing of the abstract schedule model.
//!
//! [`TopologyCostModel`] implements the workspace-wide
//! [`CostModel`] trait over an interconnect [`Topology`]: compute
//! costs are the nominal task weights (the simulated machine is
//! homogeneous, like the Paragon), but a remote message pays its
//! nominal cost *plus* `hops × hop_latency_us` router traversals.
//! This is exactly the distance term the [`crate::network`] timing
//! charges — expressed as a cost model, so the same pricing can drive
//! the fixed-order evaluator or the incremental `DeltaEvaluator` when
//! a search wants to optimize for the simulated machine instead of
//! the abstract one.

use crate::topology::Topology;
use fastsched_dag::{Cost, Dag, NodeId};
use fastsched_schedule::{CostModel, ProcId};

/// A [`CostModel`] charging per-hop router latency on top of nominal
/// message costs, using a [`Topology`]'s hop distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyCostModel {
    topology: Topology,
    hop_latency_us: Cost,
}

impl TopologyCostModel {
    /// Model over `topology` with the given per-hop router latency.
    pub fn new(topology: Topology, hop_latency_us: Cost) -> Self {
        Self {
            topology,
            hop_latency_us,
        }
    }

    /// The interconnect.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Router latency per hop.
    pub fn hop_latency_us(&self) -> Cost {
        self.hop_latency_us
    }
}

impl CostModel for TopologyCostModel {
    #[inline]
    fn compute_cost(&self, dag: &Dag, node: NodeId, _proc: ProcId) -> Cost {
        dag.weight(node)
    }

    #[inline]
    fn message_cost(&self, nominal: Cost, src: ProcId, dst: ProcId) -> Cost {
        if src == dst {
            0
        } else {
            // Saturate: adversarial weights must cap at `Cost::MAX`,
            // not wrap into a cheap-looking message.
            let distance =
                (self.topology.hops(src, dst) as Cost).saturating_mul(self.hop_latency_us);
            nominal.saturating_add(distance)
        }
    }

    /// Hop counts depend on where processors sit in the interconnect —
    /// a message's price depends on its endpoints, and renumbering
    /// reroutes every message. Only a fully connected machine, where
    /// every remote message takes one hop, prices by co-location.
    #[inline]
    fn prices_by_colocation(&self) -> bool {
        matches!(self.topology, Topology::FullyConnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsched_dag::examples::chain;

    #[test]
    fn message_cost_charges_hop_latency() {
        let m = TopologyCostModel::new(
            Topology::Mesh2D {
                width: 3,
                height: 3,
            },
            5,
        );
        // 0 → 8: 4 hops under XY routing.
        assert_eq!(m.message_cost(100, ProcId(0), ProcId(8)), 120);
        assert_eq!(m.message_cost(100, ProcId(4), ProcId(4)), 0);
    }

    #[test]
    fn hierarchical_topology_prices_leader_hops() {
        let m = TopologyCostModel::new(Topology::Hierarchical { group_size: 4 }, 7);
        // Same group: one crossbar hop.
        assert_eq!(m.message_cost(100, ProcId(5), ProcId(7)), 107);
        // Cross group, non-leaders: climb + cross + descend = 3 hops.
        assert_eq!(m.message_cost(100, ProcId(5), ProcId(10)), 121);
        assert_eq!(m.message_cost(100, ProcId(6), ProcId(6)), 0);
    }

    #[test]
    fn message_cost_saturates_instead_of_wrapping() {
        let m = TopologyCostModel::new(
            Topology::Mesh2D {
                width: 3,
                height: 3,
            },
            Cost::MAX,
        );
        assert_eq!(
            m.message_cost(Cost::MAX - 1, ProcId(0), ProcId(8)),
            Cost::MAX
        );
    }

    #[test]
    fn only_the_fully_connected_machine_prices_by_colocation() {
        let full = TopologyCostModel::new(Topology::FullyConnected, 5);
        assert!(full.prices_by_colocation() && full.permits_renumbering());
        for topology in [
            Topology::Mesh2D {
                width: 3,
                height: 3,
            },
            Topology::Hypercube { dim: 3 },
            Topology::Hierarchical { group_size: 4 },
        ] {
            let m = TopologyCostModel::new(topology, 5);
            assert!(!m.prices_by_colocation(), "{topology:?}");
            assert!(!m.permits_renumbering(), "{topology:?}");
        }
    }

    #[test]
    fn compute_cost_is_the_nominal_weight() {
        let g = chain(2, 7, 3);
        let m = TopologyCostModel::new(Topology::FullyConnected, 5);
        assert_eq!(m.compute_cost(&g, NodeId(1), ProcId(6)), 7);
    }

    #[test]
    fn evaluator_prices_remote_edges_with_distance() {
        // The generic fixed-order evaluator, driven by the topology
        // model, reproduces the network's distance arithmetic.
        use fastsched_schedule::evaluate_fixed_order_with;
        let g = chain(2, 10, 100);
        let order: Vec<_> = g.topo_order().to_vec();
        let m = TopologyCostModel::new(
            Topology::Mesh2D {
                width: 3,
                height: 3,
            },
            5,
        );
        // Corner to corner: 4 hops → message costs 100 + 20.
        let s = evaluate_fixed_order_with(&m, &g, &order, &[ProcId(0), ProcId(8)], 9);
        assert_eq!(s.makespan(), 10 + 100 + 20 + 10);
    }
}
