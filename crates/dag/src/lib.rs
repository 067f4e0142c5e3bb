//! # fastsched-dag
//!
//! Weighted task-graph (DAG) model for static multiprocessor scheduling,
//! built for the reproduction of *FAST: A Low-Complexity Algorithm for
//! Efficient Scheduling of DAGs on Parallel Processors* (Kwok, Ahmad and
//! Gu, ICPP 1996).
//!
//! A parallel program is modeled as a node- and edge-weighted directed
//! acyclic graph `G = (V, E)`: nodes are tasks with a *computation cost*
//! `w(n)`, edges are messages with a *communication cost* `c(n_i, n_j)`.
//! This crate provides:
//!
//! * [`Dag`] — an immutable, cache-friendly CSR representation with a
//!   frozen topological order, produced by [`DagBuilder`];
//! * [`attributes`] — the O(e) passes the paper relies on: *t-level*
//!   (ASAP), *b-level*, *static level* (SL), *ALAP*, critical-path
//!   length, and critical-path-node identification;
//! * [`classify`] — the CPN / IBN / OBN node partition of §4.1;
//! * [`cpn_list`] — the CPN-Dominate list construction of §4.1;
//! * [`io`] — DOT export and JSON (de)serialization. [`io::DagSpec`]
//!   is the declarative `{nodes, edges}` form used by DAG files on
//!   disk *and* as the `"dag"` field of `casch serve`'s wire
//!   protocol; `DagSpec::from_dag` / `DagSpec::build` round-trip
//!   losslessly, and `build()` re-runs full [`DagBuilder`] validation
//!   (unknown endpoints, self-loops, duplicate edges, cycles), so
//!   deserialized graphs are as trustworthy as constructed ones.
//!   Specs are decoded by `DagSpec::read_json` on a [`json::Reader`];
//! * [`io_text`] — the compact `.tg` text format for hand-written
//!   fixtures;
//! * [`json`] — a pull reader over JSON text, linear in the input and
//!   with bounded nesting, shared by DAG files and serve requests;
//! * [`examples`] — the reconstructed Figure 1 example graph and other
//!   small graphs used across the workspace tests.
//!
//! [`Dag::build`](DagBuilder::build) stores the edges as two
//! structure-of-arrays CSRs (predecessors keyed by node id, successors
//! keyed by topo position) that the O(e) sweeps and the schedulers'
//! hot loops run on; [`Dag::preds`] and [`Dag::succs`] are views over
//! them — see `graph` and DESIGN.md §13. Layout never changes a
//! computed value, only where its bytes live.
//!
//! ## Quick example
//!
//! ```
//! use fastsched_dag::{DagBuilder, attributes::GraphAttributes};
//!
//! let mut b = DagBuilder::new();
//! let a = b.add_node("a", 2);
//! let c = b.add_node("c", 3);
//! b.add_edge(a, c, 4).unwrap();
//! let dag = b.build().unwrap();
//!
//! let attrs = GraphAttributes::compute(&dag);
//! assert_eq!(attrs.cp_length, 2 + 4 + 3);
//! assert!(attrs.is_cpn(a) && attrs.is_cpn(c));
//! ```

#![warn(missing_docs)]

pub mod attributes;
pub mod classify;
pub mod cpn_list;
pub mod error;
pub mod examples;
pub mod graph;
pub mod io;
pub mod io_text;
pub mod json;
pub mod stats;
pub mod topo;
pub mod transform;

pub use attributes::{AttrLanes, GraphAttributes, ListAttributes};
pub use classify::{classify_nodes, NodeClass};
pub use cpn_list::{
    cpn_dominate_list, cpn_dominate_list_into, CpnListConfig, CpnListScratch, ObnOrder,
};
pub use error::DagError;
pub use graph::{Adjacency, Cost, Dag, DagBuilder, EdgeRef, NodeId, TopoCsr};
pub use stats::DagStats;
pub use transform::{merge_linear_chains, scale_communication, ChainMerge};
