//! Message timing and link contention.
//!
//! A DAG edge's weight `c` is the message's *nominal* transfer time —
//! what the abstract schedule model charges. On the simulated machine
//! a remote message additionally pays:
//!
//! * **distance**: `hops × hop_latency_us` router traversals;
//! * **contention**: under [`ContentionModel::Links`], the message
//!   holds every link on its XY route for `max(1, c / pipelining)`
//!   time units; if any link is busy the message waits until the whole
//!   path is free. This approximates the Paragon's wormhole routing,
//!   where a blocked worm stalls in place holding its path, but where
//!   link occupancy is only a small fraction of the software-dominated
//!   nominal message cost `c`.

use crate::cost::TopologyCostModel;
use crate::report::LinkHold;
use crate::topology::{LinkId, Topology};
use fastsched_dag::Cost;
use fastsched_schedule::{CostModel, ProcId};
use std::collections::HashMap;

/// How link conflicts are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionModel {
    /// Links are never contended (infinite bandwidth routers).
    None,
    /// Each directed mesh link serves one message at a time; a message
    /// holds its route for `max(1, c / pipelining)` time units.
    /// `pipelining` models wormhole flit pipelining: only a fraction
    /// of the nominal transfer time is spent occupying any one link
    /// (the Paragon's links ran much faster than its software
    /// per-message overhead, which dominates the nominal cost `c`).
    Links {
        /// Divisor applied to the nominal cost to get the link hold
        /// time. 1 = circuit switching (most pessimistic).
        pipelining: Cost,
    },
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel::Links { pipelining: 8 }
    }
}

/// Mutable network state: per-link busy-until times.
#[derive(Debug)]
pub struct Network {
    cost: TopologyCostModel,
    model: ContentionModel,
    busy_until: HashMap<LinkId, Cost>,
    record_holds: bool,
    /// Total time messages spent waiting for busy links.
    pub contention_delay: Cost,
    /// Remote messages delivered.
    pub messages: u64,
    /// Per-link occupancy intervals; only populated after
    /// [`Network::record_holds`] and only under
    /// [`ContentionModel::Links`].
    pub holds: Vec<LinkHold>,
}

impl Network {
    /// Fresh network over `topology` with the given per-hop router
    /// latency.
    pub fn new(topology: Topology, hop_latency_us: Cost, model: ContentionModel) -> Self {
        Self {
            cost: TopologyCostModel::new(topology, hop_latency_us),
            model,
            busy_until: HashMap::new(),
            record_holds: false,
            contention_delay: 0,
            messages: 0,
            holds: Vec::new(),
        }
    }

    /// Keep a [`LinkHold`] record of every link occupancy interval
    /// (costs O(hops) memory per message — off by default).
    pub fn record_holds(&mut self, on: bool) {
        self.record_holds = on;
    }

    /// The interconnect.
    pub fn topology(&self) -> Topology {
        self.cost.topology()
    }

    /// Deliver a message of nominal cost `c` from `src` to `dst`,
    /// entering the network at `send_time`. Returns the arrival time
    /// at `dst`. Local messages (same processor) arrive instantly.
    pub fn deliver(&mut self, src: ProcId, dst: ProcId, c: Cost, send_time: Cost) -> Cost {
        if src == dst {
            return send_time;
        }
        self.messages += 1;
        // Distance pricing (nominal + hops × hop latency) comes from
        // the shared cost model; contention is layered on top.
        let latency = self.cost.message_cost(c, src, dst);

        match self.model {
            ContentionModel::None => send_time + latency,
            ContentionModel::Links { pipelining } => {
                let route = self.cost.topology().route(src, dst);
                let hold = (c / pipelining.max(1)).max(1);
                // Wait until the whole path is free.
                let mut start = send_time;
                for link in &route {
                    if let Some(&b) = self.busy_until.get(link) {
                        start = start.max(b);
                    }
                }
                self.contention_delay += start - send_time;
                let release = start + hold;
                for link in route {
                    self.busy_until.insert(link, release);
                    if self.record_holds {
                        self.holds.push(LinkHold {
                            from: link.from,
                            to: link.to,
                            start,
                            release,
                            wait: start - send_time,
                        });
                    }
                }
                start + latency
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh3() -> Topology {
        Topology::Mesh2D {
            width: 3,
            height: 3,
        }
    }

    #[test]
    fn local_messages_are_free() {
        let mut n = Network::new(mesh3(), 5, ContentionModel::Links { pipelining: 1 });
        assert_eq!(n.deliver(ProcId(4), ProcId(4), 100, 7), 7);
        assert_eq!(n.messages, 0);
    }

    #[test]
    fn remote_message_pays_hop_latency() {
        let mut n = Network::new(mesh3(), 5, ContentionModel::None);
        // 0 → 8: 4 hops. arrival = 10 + 100 + 4*5.
        assert_eq!(n.deliver(ProcId(0), ProcId(8), 100, 10), 130);
        assert_eq!(n.messages, 1);
    }

    #[test]
    fn contention_serializes_shared_links() {
        let mut n = Network::new(mesh3(), 0, ContentionModel::Links { pipelining: 1 });
        // Two messages over the same first link 0→1 at the same time.
        let a = n.deliver(ProcId(0), ProcId(1), 50, 0);
        let b = n.deliver(ProcId(0), ProcId(2), 50, 0);
        assert_eq!(a, 50);
        // Second message waits for the 0→1 link: starts at 50.
        assert_eq!(b, 100);
        assert_eq!(n.contention_delay, 50);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let mut n = Network::new(mesh3(), 0, ContentionModel::Links { pipelining: 1 });
        let a = n.deliver(ProcId(0), ProcId(1), 50, 0);
        let b = n.deliver(ProcId(3), ProcId(4), 50, 0);
        assert_eq!(a, 50);
        assert_eq!(b, 50);
        assert_eq!(n.contention_delay, 0);
    }

    #[test]
    fn no_contention_model_ignores_link_state() {
        let mut n = Network::new(mesh3(), 0, ContentionModel::None);
        let a = n.deliver(ProcId(0), ProcId(1), 50, 0);
        let b = n.deliver(ProcId(0), ProcId(1), 50, 0);
        assert_eq!(a, b);
        assert_eq!(n.contention_delay, 0);
    }

    #[test]
    fn holds_record_each_link_on_the_route() {
        let mut n = Network::new(mesh3(), 0, ContentionModel::Links { pipelining: 1 });
        n.record_holds(true);
        // 0 → 2 crosses links 0→1 and 1→2.
        n.deliver(ProcId(0), ProcId(2), 50, 0);
        assert_eq!(n.holds.len(), 2);
        assert!(n.holds.iter().all(|h| h.start == 0 && h.release == 50));
        // A second message over 0→1 waits and records the wait.
        n.deliver(ProcId(0), ProcId(1), 50, 10);
        assert_eq!(n.holds.len(), 3);
        let h = n.holds.last().unwrap();
        assert_eq!((h.from, h.to), (0, 1));
        assert_eq!((h.start, h.release, h.wait), (50, 100, 40));
        // Off by default.
        let mut quiet = Network::new(mesh3(), 0, ContentionModel::Links { pipelining: 1 });
        quiet.deliver(ProcId(0), ProcId(2), 50, 0);
        assert!(quiet.holds.is_empty());
    }

    #[test]
    fn fully_connected_never_contends() {
        let mut n = Network::new(
            Topology::FullyConnected,
            5,
            ContentionModel::Links { pipelining: 1 },
        );
        let a = n.deliver(ProcId(0), ProcId(1), 50, 0);
        let b = n.deliver(ProcId(0), ProcId(1), 50, 0);
        // 1 hop each, no shared state.
        assert_eq!(a, 55);
        assert_eq!(b, 55);
    }
}
