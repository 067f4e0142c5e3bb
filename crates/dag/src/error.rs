//! Error types for DAG construction and i/o.

use std::fmt;

/// Errors produced while building or loading a [`crate::Dag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge referenced a node id that does not exist.
    UnknownNode(u32),
    /// A self-loop `(n, n)` was added; DAGs cannot contain them.
    SelfLoop(u32),
    /// The same directed edge was added twice.
    DuplicateEdge(u32, u32),
    /// The edge set contains a cycle, so no topological order exists.
    /// Carries one node id known to be on a cycle.
    Cycle(u32),
    /// The graph has no nodes; schedulers require at least one task.
    Empty,
    /// A node weight of zero was rejected (task costs must be positive;
    /// zero-cost tasks make *relative mobility* in the MD algorithm
    /// undefined).
    ZeroWeight(u32),
    /// A DAG file could not be read (malformed JSON or `.tg` text),
    /// carrying the reader's message.
    Parse(String),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownNode(n) => write!(f, "edge references unknown node id {n}"),
            DagError::SelfLoop(n) => write!(f, "self-loop on node {n} is not allowed in a DAG"),
            DagError::DuplicateEdge(s, d) => write!(f, "duplicate edge ({s}, {d})"),
            DagError::Cycle(n) => write!(f, "graph contains a cycle through node {n}"),
            DagError::Empty => write!(f, "graph has no nodes"),
            DagError::ZeroWeight(n) => write!(f, "node {n} has zero computation cost"),
            DagError::Parse(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for DagError {}
