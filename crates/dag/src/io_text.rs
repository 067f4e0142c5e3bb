//! A human-writable text format for task graphs, for hand-authoring
//! small examples without JSON ceremony:
//!
//! ```text
//! # comments run to end of line
//! task load   20      # task <name> <computation cost> [memory]
//! task parse  40 128  # optional trailing memory footprint
//! task index  35
//! edge load  parse 15 # edge <src> <dst> <communication cost>
//! edge parse index 10
//! ```
//!
//! Names are arbitrary non-whitespace identifiers; node ids are
//! assigned in declaration order. The `casch` CLI accepts this format
//! for any `--dag` file ending in `.tg`.

use crate::error::DagError;
use crate::graph::{Dag, DagBuilder, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parse the text task-graph format.
///
/// Errors are reported as [`DagError::Parse`] with a line number.
pub fn from_text(input: &str) -> Result<Dag, DagError> {
    let mut builder = DagBuilder::new();
    let mut names: HashMap<String, NodeId> = HashMap::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |msg: &str| DagError::Parse(format!("line {}: {msg}", lineno + 1));
        match parts.next() {
            Some("task") => {
                let name = parts.next().ok_or_else(|| err("task needs a name"))?;
                let weight: u64 = parts
                    .next()
                    .ok_or_else(|| err("task needs a weight"))?
                    .parse()
                    .map_err(|_| err("task weight must be a positive integer"))?;
                let mem: u64 = match parts.next() {
                    Some(tok) => tok
                        .parse()
                        .map_err(|_| err("task memory must be a non-negative integer"))?,
                    None => 0,
                };
                if parts.next().is_some() {
                    return Err(err("trailing tokens after task declaration"));
                }
                if names.contains_key(name) {
                    return Err(err(&format!("duplicate task name `{name}`")));
                }
                let id = builder.add_node(name, weight);
                builder.set_mem(id, mem);
                names.insert(name.to_string(), id);
            }
            Some("edge") => {
                let src = parts.next().ok_or_else(|| err("edge needs a source"))?;
                let dst = parts
                    .next()
                    .ok_or_else(|| err("edge needs a destination"))?;
                let cost: u64 = parts
                    .next()
                    .ok_or_else(|| err("edge needs a cost"))?
                    .parse()
                    .map_err(|_| err("edge cost must be a non-negative integer"))?;
                if parts.next().is_some() {
                    return Err(err("trailing tokens after edge declaration"));
                }
                let &s = names
                    .get(src)
                    .ok_or_else(|| err(&format!("unknown task `{src}`")))?;
                let &d = names
                    .get(dst)
                    .ok_or_else(|| err(&format!("unknown task `{dst}`")))?;
                builder.add_edge(s, d, cost)?;
            }
            Some(other) => {
                return Err(err(&format!(
                    "unknown directive `{other}` (expected `task` or `edge`)"
                )))
            }
            None => unreachable!("empty lines were skipped"),
        }
    }
    builder.build()
}

/// Render a graph in the text format (round-trips through
/// [`from_text`]).
pub fn to_text(dag: &Dag) -> String {
    let mut out = String::new();
    for n in dag.nodes() {
        match dag.mem(n) {
            0 => writeln!(out, "task {} {}", dag.name(n), dag.weight(n)).unwrap(),
            m => writeln!(out, "task {} {} {m}", dag.name(n), dag.weight(n)).unwrap(),
        }
    }
    for (s, d, c) in dag.edges() {
        writeln!(out, "edge {} {} {c}", dag.name(s), dag.name(d)).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a tiny pipeline
task load  20
task parse 40   # heavy
task save  10

edge load parse 15
edge parse save 5
";

    #[test]
    fn parses_the_documented_example() {
        let g = from_text(SAMPLE).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.name(NodeId(1)), "parse");
        assert_eq!(g.weight(NodeId(1)), 40);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(15));
    }

    #[test]
    fn roundtrip() {
        let g = from_text(SAMPLE).unwrap();
        let text = to_text(&g);
        let g2 = from_text(&text).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert!(g.edges().eq(g2.edges()));
        assert_eq!(g.weights(), g2.weights());
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let e = from_text("task a 5\nedge a b 1").unwrap_err();
        assert!(
            matches!(&e, DagError::Parse(m) if m.contains("line 2")),
            "{e}"
        );
        let e = from_text("task a").unwrap_err();
        assert!(
            matches!(&e, DagError::Parse(m) if m.contains("line 1")),
            "{e}"
        );
    }

    #[test]
    fn rejects_duplicates_and_unknown_directives() {
        assert!(from_text("task a 1\ntask a 2").is_err());
        assert!(from_text("node a 1").is_err());
        assert!(from_text("task a 1\ntask b 1\nedge a b 1 extra").is_err());
    }

    #[test]
    fn optional_memory_token_parses_and_roundtrips() {
        let g = from_text("task a 5 64\ntask b 7\nedge a b 3").unwrap();
        assert_eq!(g.mems(), &[64, 0]);
        let text = to_text(&g);
        assert!(text.contains("task a 5 64"), "{text}");
        assert!(text.contains("task b 7\n"), "{text}");
        let g2 = from_text(&text).unwrap();
        assert_eq!(g2.mems(), g.mems());
        // A fourth token is still rejected; a malformed third reports
        // the memory-specific message.
        assert!(from_text("task a 1 2 3").is_err());
        let e = from_text("task a 1 big").unwrap_err();
        assert!(
            matches!(&e, DagError::Parse(m) if m.contains("memory")),
            "{e}"
        );
    }

    #[test]
    fn structural_errors_propagate() {
        // Cycle through the builder's validation.
        let e = from_text("task a 1\ntask b 1\nedge a b 1\nedge b a 1").unwrap_err();
        assert!(matches!(e, DagError::Cycle(_)));
    }
}
