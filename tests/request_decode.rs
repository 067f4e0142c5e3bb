//! The serve request decoder against a reference built on the value
//! tree, and its allocation bound.
//!
//! `Request::parse` reads a line in one pass of `dag::json::Reader`.
//! [`oracle`] decodes the same line the straightforward way: parse it
//! whole with `serde_json::from_str::<Value>`, then look fields up in
//! the tree (first occurrence of a key wins). On every fuzz-corpus
//! request, and on reordered, duplicated, padded, escaped, retyped,
//! truncated and broken variants of it, both must return the same
//! `Request` or both an error with the `parse:` wire prefix.

use fastsched::casch::protocol::{CommSpec, Request, ScheduleRequest};
use fastsched::counting_alloc::CountingAlloc;
use fastsched::dag::io::{DagSpec, EdgeSpec, NodeSpec};
use fastsched::prelude::*;
use fastsched::schedule::MemCapsSpec;
use fastsched::workloads::fuzz::{assign_mems, fuzz_corpus};
use serde::Value;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocation counter is process-wide, so the tests run one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

// ------------------------------------------------------------- oracle

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, x)| x),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(x) => Some(*x),
        _ => None,
    }
}

fn as_u32(v: &Value) -> Option<u32> {
    as_u64(v).and_then(|x| u32::try_from(x).ok())
}

fn u64_array(v: &Value) -> Option<Vec<u64>> {
    match v {
        Value::Array(xs) => xs.iter().map(as_u64).collect(),
        _ => None,
    }
}

fn oracle_dag(v: &Value) -> Option<DagSpec> {
    let items = |key| match field(v, key) {
        Some(Value::Array(xs)) => Some(xs),
        _ => None,
    };
    let nodes = items("nodes")?
        .iter()
        .map(|n| {
            Some(NodeSpec {
                name: match field(n, "name")? {
                    Value::String(s) => s.clone(),
                    _ => return None,
                },
                weight: as_u64(field(n, "weight")?)?,
                mem: match field(n, "mem") {
                    None => 0,
                    Some(m) => as_u64(m)?,
                },
            })
        })
        .collect::<Option<_>>()?;
    let edges = items("edges")?
        .iter()
        .map(|e| {
            Some(EdgeSpec {
                src: as_u32(field(e, "src")?)?,
                dst: as_u32(field(e, "dst")?)?,
                cost: as_u64(field(e, "cost")?)?,
            })
        })
        .collect::<Option<_>>()?;
    Some(DagSpec { nodes, edges })
}

/// `comm` decoding (`parse_comm`) is shared by both paths, so the
/// oracle hands its `comm` value to it through a minimal request.
fn oracle_comm(v: &Value) -> Result<CommSpec, String> {
    let line = format!(
        "{{\"dag\":{{\"nodes\":[],\"edges\":[]}},\"comm\":{}}}",
        serde_json::to_string(v).expect("render comm")
    );
    match Request::parse(&line, 0)? {
        Request::Schedule(r) => Ok(r.comm.expect("comm present")),
        other => panic!("unexpected {other:?}"),
    }
}

/// Present and not `null`.
fn given<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    field(v, key).filter(|x| **x != Value::Null)
}

fn oracle(line: &str, default_id: u64) -> Result<Request, String> {
    let bad = |what: &str| format!("parse: {what}");
    let v: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
    if !matches!(v, Value::Object(_)) {
        return Err(bad("not an object"));
    }
    let id = match given(&v, "id") {
        None => default_id,
        Some(x) => as_u64(x).ok_or_else(|| bad("id"))?,
    };
    let op = match field(&v, "op") {
        None => "schedule",
        Some(Value::String(s)) => s.as_str(),
        Some(_) => return Err(bad("op")),
    };
    match op {
        "stats" => return Ok(Request::Stats { id }),
        "shutdown" => return Ok(Request::Shutdown { id }),
        "schedule" => {}
        _ => return Err(bad("unknown op")),
    }
    let dag = oracle_dag(field(&v, "dag").ok_or_else(|| bad("dag"))?).ok_or_else(|| bad("dag"))?;
    let algo = match given(&v, "algo") {
        None => "fast".to_string(),
        Some(Value::String(s)) => s.clone(),
        Some(_) => return Err(bad("algo")),
    };
    let procs = match given(&v, "procs") {
        None => None,
        Some(x) => Some(as_u32(x).filter(|&p| p > 0).ok_or_else(|| bad("procs"))?),
    };
    let speeds = match given(&v, "speeds") {
        None => None,
        Some(Value::Array(xs)) => {
            let pcts: Option<Vec<u32>> = xs.iter().map(|x| as_u32(x).filter(|&p| p > 0)).collect();
            Some(
                pcts.filter(|p| !p.is_empty())
                    .ok_or_else(|| bad("speeds"))?,
            )
        }
        Some(_) => return Err(bad("speeds")),
    };
    let timeout_ms = match given(&v, "timeout_ms") {
        None => None,
        Some(x) => Some(as_u64(x).ok_or_else(|| bad("timeout_ms"))?),
    };
    let comm = given(&v, "comm").map(oracle_comm).transpose()?;
    let mem_caps = match given(&v, "mem_caps") {
        None => None,
        Some(x @ Value::Array(_)) => Some(MemCapsSpec::PerProc(
            u64_array(x)
                .filter(|c| !c.is_empty())
                .ok_or_else(|| bad("mem_caps"))?,
        )),
        Some(x) => Some(MemCapsSpec::Uniform(
            as_u64(x).ok_or_else(|| bad("mem_caps"))?,
        )),
    };
    Ok(Request::Schedule(ScheduleRequest {
        id,
        dag,
        algo,
        procs,
        speeds,
        timeout_ms,
        comm,
        mem_caps,
    }))
}

// ------------------------------------------------------------- inputs

/// How [`render`] writes a value.
#[derive(Clone, Copy)]
struct Style {
    /// Write every string character as a `\u` escape.
    escape_all: bool,
    /// Pad around every token.
    spaced: bool,
}

fn render(v: &Value, style: Style, out: &mut String) {
    let pad = if style.spaced { " \t" } else { "" };
    match v {
        Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                if style.escape_all {
                    let mut units = [0u16; 2];
                    for u in c.encode_utf16(&mut units) {
                        write!(out, "\\u{u:04x}").unwrap();
                    }
                } else {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                        c => out.push(c),
                    }
                }
            }
            out.push('"');
        }
        Value::Array(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(pad);
                render(x, style, out);
                out.push_str(pad);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, x)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(pad);
                render(&Value::String(k.clone()), style, out);
                out.push_str(pad);
                out.push(':');
                out.push_str(pad);
                render(x, style, out);
                out.push_str(pad);
            }
            out.push('}');
        }
        other => out.push_str(&serde_json::to_string(other).unwrap()),
    }
}

fn to_text(v: &Value, style: Style) -> String {
    let mut out = String::new();
    render(v, style, &mut out);
    out
}

const PLAIN: Style = Style {
    escape_all: false,
    spaced: false,
};

fn pairs_mut(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Object(pairs) => pairs,
        other => panic!("not an object: {other:?}"),
    }
}

fn dag_nodes_mut(v: &mut Value) -> &mut Vec<Value> {
    let dag = pairs_mut(v)
        .iter_mut()
        .find(|(k, _)| k == "dag")
        .map(|(_, d)| d)
        .expect("dag");
    match pairs_mut(dag).iter_mut().find(|(k, _)| k == "nodes") {
        Some((_, Value::Array(nodes))) => nodes,
        _ => panic!("nodes"),
    }
}

/// A nested value for unknown keys: every JSON type, two levels deep.
fn junk() -> Value {
    Value::Object(vec![
        (
            "a".into(),
            Value::Array(vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(-1.5e-3),
                Value::Int(-7),
                Value::String("é\"\\😀".into()),
            ]),
        ),
        ("b".into(), Value::Object(vec![])),
    ])
}

/// Structurally different spellings of `base` (a valid request line)
/// that decode to the same request, plus retyped, truncated and broken
/// ones that both decoders must reject — or, with `op:"stats"`,
/// accept without reading the rest.
fn variants(base: &str) -> Vec<String> {
    let tree: Value = serde_json::from_str(base).expect("base line is JSON");
    let mut out = vec![base.to_string()];
    let edit = |f: &dyn Fn(&mut Value)| {
        let mut v = tree.clone();
        f(&mut v);
        to_text(&v, PLAIN)
    };
    // Reordered keys, at the top and inside every node.
    out.push(edit(&|v| pairs_mut(v).reverse()));
    out.push(edit(&|v| pairs_mut(v).rotate_left(2)));
    out.push(edit(&|v| {
        for n in dag_nodes_mut(v) {
            pairs_mut(n).reverse();
        }
    }));
    // Duplicated keys: the first occurrence wins, even when a later
    // one is ill-typed, and a retyped first one fails.
    out.push(edit(&|v| {
        let p = pairs_mut(v);
        let dup = p.clone();
        p.extend(dup);
    }));
    out.push(edit(&|v| {
        let p = pairs_mut(v);
        p.push(("procs".into(), Value::String("x".into())));
        p.push(("dag".into(), Value::Null));
    }));
    out.push(edit(&|v| {
        pairs_mut(v).insert(0, ("dag".into(), Value::Bool(false)));
    }));
    out.push(edit(&|v| {
        for n in dag_nodes_mut(v) {
            let p = pairs_mut(n);
            p.push(("name".into(), Value::String("later".into())));
            p.push(("weight".into(), Value::Int(-1)));
        }
    }));
    // Unknown keys with nested values, everywhere.
    out.push(edit(&|v| {
        pairs_mut(v).insert(1, ("extra".into(), junk()));
        for n in dag_nodes_mut(v) {
            pairs_mut(n).push(("note".into(), junk()));
        }
    }));
    // Escaped and multi-byte names.
    out.push(edit(&|v| {
        for (i, n) in dag_nodes_mut(v).iter_mut().enumerate() {
            pairs_mut(n)[0] = ("name".into(), Value::String(format!("é{i}😀\"\\\u{1}")));
        }
    }));
    let mut escaped = tree.clone();
    for (i, n) in dag_nodes_mut(&mut escaped).iter_mut().enumerate() {
        pairs_mut(n)[0] = ("name".into(), Value::String(format!("ü→{i}😀")));
    }
    out.push(to_text(
        &escaped,
        Style {
            escape_all: true,
            spaced: false,
        },
    ));
    // Extra whitespace.
    out.push(to_text(
        &tree,
        Style {
            escape_all: false,
            spaced: true,
        },
    ));
    out.push(format!(" \r\n{base}\t "));
    // Ill-typed fields.
    for (key, value) in [
        ("id", Value::Int(-1)),
        ("id", Value::Float(1.0)),
        ("op", Value::Null),
        ("op", Value::String("nope".into())),
        ("algo", Value::UInt(3)),
        ("procs", Value::UInt(0)),
        ("procs", Value::UInt(1 << 32)),
        ("speeds", Value::Array(vec![])),
        ("speeds", Value::Array(vec![Value::UInt(4_294_967_346)])),
        ("speeds", Value::UInt(100)),
        ("timeout_ms", Value::String("1".into())),
        ("mem_caps", Value::Array(vec![Value::Int(-1)])),
        ("mem_caps", Value::Object(vec![])),
        ("comm", Value::UInt(7)),
        ("dag", Value::Array(vec![])),
    ] {
        out.push(edit(&|v| {
            let p = pairs_mut(v);
            p.retain(|(k, _)| k != key);
            p.insert(0, (key.into(), value.clone()));
        }));
    }
    out.push(edit(&|v| {
        for n in dag_nodes_mut(v).iter_mut().take(1) {
            pairs_mut(n).retain(|(k, _)| k != "weight");
        }
    }));
    // `op:"stats"` reads nothing else: an ill-typed dag is fine.
    out.push(edit(&|v| {
        let p = pairs_mut(v);
        p.retain(|(k, _)| k != "op");
        p.push(("op".into(), Value::String("stats".into())));
        p.insert(0, ("dag".into(), Value::UInt(5)));
    }));
    // Truncated lines, cut at character boundaries.
    let cuts = [1, 2, base.len() / 3, base.len() / 2, base.len() - 1];
    for cut in cuts {
        let cut = (cut..base.len())
            .find(|&c| base.is_char_boundary(c))
            .unwrap();
        out.push(base[..cut].to_string());
    }
    // Malformed syntax: a trailing comma, a missing colon, a bare
    // word, leading zeros, a raw control character, trailing garbage,
    // too deep a nesting.
    out.push(base.replacen('}', ",}", 1));
    out.push(base.replacen("\":", "\"", 1));
    out.push(base.replacen("\"fast\"", "fast", 1));
    out.push(base.replacen("\"weight\":", "\"weight\":0", 1));
    out.push(base.replacen("\"name\":\"", "\"name\":\"\t", 1));
    out.push(format!("{base} {{}}"));
    out.push(format!(
        "{},\"x\":{}1{}}}",
        &base[..base.len() - 1],
        "[".repeat(200),
        "]".repeat(200)
    ));
    out
}

/// One request line per corpus DAG, cycling through the optional
/// fields so every one of them is decoded somewhere.
fn corpus_lines() -> Vec<(String, usize)> {
    fuzz_corpus(0xD1FF, 60)
        .into_iter()
        .enumerate()
        .map(|(i, case)| {
            let dag = if i % 3 == 0 {
                assign_mems(&case.dag, i as u64)
            } else {
                case.dag
            };
            let mut req = ScheduleRequest::new(i as u64 + 1, DagSpec::from_dag(&dag));
            match i % 6 {
                1 => {
                    req.algo = "etf".into();
                    req.procs = Some(case.procs);
                    req.timeout_ms = Some(250);
                }
                2 => {
                    req.algo = "heft".into();
                    req.speeds = Some(vec![100, 50, 200]);
                }
                3 => {
                    req.comm = Some(CommSpec::AlphaBeta {
                        alpha: 20,
                        beta_num: 3,
                        beta_den: 2,
                    });
                    req.mem_caps = Some(MemCapsSpec::Uniform(1000));
                }
                4 => {
                    req.comm = Some(CommSpec::Hier {
                        groups: vec![2, 2],
                        intra: [0, 1, 1],
                        inter: [40, 2, 1],
                    });
                    req.mem_caps = Some(MemCapsSpec::PerProc(vec![100, 200, 300, 400]));
                }
                5 => req.procs = Some(case.procs),
                _ => {}
            }
            (req.to_line(), dag.node_count())
        })
        .collect()
}

#[test]
fn decoder_agrees_with_the_value_tree_oracle() {
    let _serial = serial();
    let (mut same, mut rejected) = (0, 0);
    for (base, _) in corpus_lines() {
        for line in variants(&base) {
            match (Request::parse(&line, 9), oracle(&line, 9)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "decoders disagree on {line}");
                    same += 1;
                }
                (Err(a), Err(b)) => {
                    assert!(a.starts_with("parse:"), "{a} for {line}");
                    assert!(b.starts_with("parse:"), "{b} for {line}");
                    rejected += 1;
                }
                (a, b) => panic!("decoder {a:?} but oracle {b:?} on {line}"),
            }
        }
    }
    // Both outcomes are exercised in bulk.
    assert!(
        same > 500 && rejected > 1500,
        "{same} agreed, {rejected} rejected"
    );
}

#[test]
fn decoding_allocates_about_once_per_node() {
    let _serial = serial();
    let db = TimingDatabase::paragon();
    let big = random_layered_dag(&RandomDagConfig::paper(1000, &db), 3);
    let big_line = ScheduleRequest::new(1, DagSpec::from_dag(&big)).to_line();
    let mut lines = corpus_lines();
    lines.push((big_line, big.node_count()));
    for (line, nodes) in lines {
        let before = ALLOC.allocations();
        let parsed = Request::parse(&line, 1);
        let allocations = ALLOC.allocations() - before;
        assert!(parsed.is_ok(), "{parsed:?}");
        drop(parsed);
        assert!(
            allocations <= nodes as u64 + 64,
            "{allocations} allocations decoding {nodes} nodes ({} bytes)",
            line.len()
        );
    }
}
