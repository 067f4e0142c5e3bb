//! DAG (de)serialization: Graphviz DOT export and a JSON interchange
//! format used by the `casch` CLI.

use crate::error::DagError;
use crate::graph::{Cost, Dag, DagBuilder, NodeId};
use crate::json::{self, Reader, Writer};

/// Serializable description of a task graph.
///
/// This is the on-disk format consumed and produced by the `casch`
/// CLI (`casch schedule --dag graph.json ...`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagSpec {
    /// Tasks, in id order.
    pub nodes: Vec<NodeSpec>,
    /// Message edges.
    pub edges: Vec<EdgeSpec>,
}

/// One task in a [`DagSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Human-readable name.
    pub name: String,
    /// Computation cost `w(n)`.
    pub weight: Cost,
    /// Memory footprint `mem(n)`; omitted from the JSON when zero, so
    /// files written before the memory axis existed parse unchanged.
    pub mem: Cost,
}

/// One message edge in a [`DagSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Communication cost `c(src, dst)`.
    pub cost: Cost,
}

impl DagSpec {
    /// Capture an existing graph as a spec.
    pub fn from_dag(dag: &Dag) -> Self {
        let nodes = dag
            .nodes()
            .map(|n| NodeSpec {
                name: dag.name(n).to_string(),
                weight: dag.weight(n),
                mem: dag.mem(n),
            })
            .collect();
        let edges = dag
            .edges()
            .map(|(s, d, c)| EdgeSpec {
                src: s.0,
                dst: d.0,
                cost: c,
            })
            .collect();
        Self { nodes, edges }
    }

    /// Decode a spec from JSON text holding one `{nodes, edges}`
    /// object (see [`DagSpec::read_json`]).
    pub fn from_json_str(s: &str) -> Result<DagSpec, json::Error> {
        let mut r = Reader::new(s);
        let spec = Self::read_json(&mut r)?;
        r.end()?;
        Ok(spec)
    }

    /// Decode the `{nodes, edges}` object at the reader's cursor,
    /// straight into the spec's vectors: an allocation per node name,
    /// none per edge. Nodes are
    /// `{name, weight, mem?}` (`mem` defaults to 0), edges
    /// `{src, dst, cost}`. The first occurrence of a repeated key
    /// wins; unknown keys are skipped, their syntax still checked.
    pub fn read_json(r: &mut Reader<'_>) -> Result<DagSpec, json::Error> {
        let (mut nodes, mut edges) = (None, None);
        r.object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "nodes" if nodes.is_none() => nodes = Some(r.list(read_node)?),
                "edges" if edges.is_none() => edges = Some(r.list(read_edge)?),
                _ => r.skip()?,
            }
        }
        Ok(DagSpec {
            nodes: nodes.ok_or_else(|| r.err("missing field `nodes`"))?,
            edges: edges.ok_or_else(|| r.err("missing field `edges`"))?,
        })
    }

    /// Write the `{nodes, edges}` object [`DagSpec::read_json`] reads:
    /// nodes as `{name, weight}` plus `mem` when it is not zero, edges
    /// as `{src, dst, cost}`.
    pub fn write_json(&self, w: &mut Writer) {
        w.begin_object().key("nodes").begin_array();
        for n in &self.nodes {
            w.begin_object()
                .key("name")
                .str(&n.name)
                .field("weight", n.weight);
            if n.mem != 0 {
                w.field("mem", n.mem);
            }
            w.end_object();
        }
        w.end_array().key("edges").begin_array();
        for e in &self.edges {
            w.begin_object()
                .field("src", e.src.into())
                .field("dst", e.dst.into())
                .field("cost", e.cost)
                .end_object();
        }
        w.end_array().end_object();
    }

    /// Validate and build the described graph.
    pub fn build(&self) -> Result<Dag, DagError> {
        let mut b = DagBuilder::with_capacity(self.nodes.len(), self.edges.len());
        for n in &self.nodes {
            let id = b.add_node(&n.name, n.weight);
            b.set_mem(id, n.mem);
        }
        for e in &self.edges {
            b.add_edge(NodeId(e.src), NodeId(e.dst), e.cost)?;
        }
        b.build()
    }
}

fn read_node(r: &mut Reader<'_>) -> Result<NodeSpec, json::Error> {
    let (mut name, mut weight, mut mem) = (None, None, None);
    r.object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "name" if name.is_none() => name = Some(r.str()?.into_owned()),
            "weight" if weight.is_none() => weight = Some(r.u64()?),
            "mem" if mem.is_none() => mem = Some(r.u64()?),
            _ => r.skip()?,
        }
    }
    Ok(NodeSpec {
        name: name.ok_or_else(|| r.err("missing field `name`"))?,
        weight: weight.ok_or_else(|| r.err("missing field `weight`"))?,
        mem: mem.unwrap_or(0),
    })
}

fn read_edge(r: &mut Reader<'_>) -> Result<EdgeSpec, json::Error> {
    let (mut src, mut dst, mut cost) = (None, None, None);
    r.object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "src" if src.is_none() => src = Some(r.u32()?),
            "dst" if dst.is_none() => dst = Some(r.u32()?),
            "cost" if cost.is_none() => cost = Some(r.u64()?),
            _ => r.skip()?,
        }
    }
    Ok(EdgeSpec {
        src: src.ok_or_else(|| r.err("missing field `src`"))?,
        dst: dst.ok_or_else(|| r.err("missing field `dst`"))?,
        cost: cost.ok_or_else(|| r.err("missing field `cost`"))?,
    })
}

/// A graph as pretty-printed JSON (two-space indent, no trailing
/// newline).
pub fn to_json(dag: &Dag) -> String {
    let mut w = Writer::pretty();
    DagSpec::from_dag(dag).write_json(&mut w);
    w.finish()
}

/// Parse a graph from JSON produced by [`to_json`].
pub fn from_json(s: &str) -> Result<Dag, DagError> {
    DagSpec::from_json_str(s)
        .map_err(|e| DagError::Parse(e.to_string()))?
        .build()
}

/// Render the graph in Graphviz DOT syntax. Node labels show
/// `name (weight)`; edge labels show the communication cost.
pub fn to_dot(dag: &Dag) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(64 * dag.node_count());
    out.push_str("digraph dag {\n  rankdir=TB;\n  node [shape=circle];\n");
    for n in dag.nodes() {
        writeln!(
            out,
            "  {} [label=\"{} ({})\"];",
            n.0,
            dag.name(n),
            dag.weight(n)
        )
        .unwrap();
    }
    for (s, d, c) in dag.edges() {
        writeln!(out, "  {} -> {} [label=\"{}\"];", s.0, d.0, c).unwrap();
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node("src", 2);
        let c = b.add_node("dst", 3);
        b.add_edge(a, c, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let g = sample();
        let json = to_json(&g);
        let g2 = from_json(&json).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        assert_eq!(g2.name(NodeId(0)), "src");
        assert_eq!(g2.weight(NodeId(1)), 3);
        assert_eq!(g2.edge_cost(NodeId(0), NodeId(1)), Some(4));
    }

    #[test]
    fn spec_roundtrip_is_identity() {
        let g = sample();
        let spec = DagSpec::from_dag(&g);
        let spec2 = DagSpec::from_dag(&spec.build().unwrap());
        assert_eq!(spec, spec2);
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = DagSpec {
            nodes: vec![NodeSpec {
                name: "a".into(),
                weight: 1,
                mem: 0,
            }],
            edges: vec![EdgeSpec {
                src: 0,
                dst: 5,
                cost: 1,
            }],
        };
        assert_eq!(spec.build().unwrap_err(), DagError::UnknownNode(5));
    }

    #[test]
    fn mem_roundtrips_and_is_omitted_when_zero() {
        let mut b = DagBuilder::new();
        let a = b.add_node("src", 2);
        let c = b.add_node("dst", 3);
        b.add_edge(a, c, 4).unwrap();
        b.set_mem(c, 77);
        let g = b.build().unwrap();
        let json = to_json(&g);
        // The zero-footprint node serializes without a `mem` key.
        assert_eq!(json.matches("\"mem\"").count(), 1, "{json}");
        let g2 = from_json(&json).unwrap();
        assert_eq!(g2.mems(), &[0, 77]);
        // Pre-memory files (no `mem` keys at all) parse to zero lanes.
        let legacy = from_json(r#"{"nodes":[{"name":"a","weight":1}],"edges":[]}"#).unwrap();
        assert_eq!(legacy.mems(), &[0]);
    }

    #[test]
    fn malformed_json_reports_the_byte_offset() {
        assert_eq!(
            from_json("{oops").unwrap_err(),
            DagError::Parse("expected string key at byte 1".into())
        );
    }

    /// Pretty output as the earlier value-tree writer laid it out:
    /// quotes, backslashes and control characters escaped, multi-byte
    /// text and `/` copied, `mem` only where it is not zero.
    #[test]
    fn pretty_layout_is_pinned() {
        let mut b = DagBuilder::new();
        let a = b.add_node("a\"q\\b\u{1}c", 1);
        let m = b.add_node("mid", 10);
        let t = b.add_node("t\tz", 10);
        let z = b.add_node("é😀/", 2);
        b.set_mem(m, 5);
        b.add_edge(a, m, 1).unwrap();
        b.add_edge(a, t, 1).unwrap();
        b.add_edge(m, z, 2).unwrap();
        b.add_edge(t, z, 1).unwrap();
        let text = to_json(&b.build().unwrap());
        let expected = r#"{
  "nodes": [
    {
      "name": "a\"q\\b\u0001c",
      "weight": 1
    },
    {
      "name": "mid",
      "weight": 10,
      "mem": 5
    },
    {
      "name": "t\tz",
      "weight": 10
    },
    {
      "name": "é😀/",
      "weight": 2
    }
  ],
  "edges": [
    {
      "src": 0,
      "dst": 1,
      "cost": 1
    },
    {
      "src": 0,
      "dst": 2,
      "cost": 1
    },
    {
      "src": 1,
      "dst": 3,
      "cost": 2
    },
    {
      "src": 2,
      "dst": 3,
      "cost": 1
    }
  ]
}"#;
        assert_eq!(text, expected);
        let mut w = Writer::compact();
        DagSpec::from_dag(&from_json(&text).unwrap()).write_json(&mut w);
        assert_eq!(w.finish(), expected.split_whitespace().collect::<String>());
    }

    /// Every committed fixture is a file this writer produced: reading
    /// and writing it again gives back the same bytes.
    #[test]
    fn fixtures_roundtrip_byte_for_byte() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fixtures");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                assert_eq!(to_json(&from_json(&text).unwrap()), text, "{path:?}");
                seen += 1;
            }
        }
        assert!(seen >= 3, "only {seen} fixtures");
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let dot = to_dot(&sample());
        assert!(dot.starts_with("digraph dag {"));
        assert!(dot.contains("0 [label=\"src (2)\"];"));
        assert!(dot.contains("0 -> 1 [label=\"4\"];"));
        assert!(dot.ends_with("}\n"));
    }
}
