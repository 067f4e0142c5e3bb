//! The traced run: replay a workload's requests in process through the
//! public function of each layer, recording a span around every call.
//!
//! Spans carry a name, start, end, parent span and request id, plus the
//! allocations and live-heap change inside them. They are kept in a
//! preallocated buffer (so recording allocates nothing) and written out
//! as NDJSON at the end. The same replay without spans gives the
//! tracing overhead.

use crate::corpus::Item;
use crate::ALLOC;
use fastsched::algorithms::{Fast, Workspace};
use fastsched::casch::protocol::{Request, Response, ScheduleResponse};
use fastsched::dag::io::DagSpec;
use fastsched::dag::{classify_nodes, cpn_dominate_list, CpnListConfig, GraphAttributes};
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub req: u32,
    /// 1-based index of the parent span; 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: i64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn room(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    /// Open a span; returns its 1-based id.
    fn open(&mut self, name: &'static str, req: u32, parent: u32) -> u32 {
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: ALLOC.allocs(),
            bytes: ALLOC.live_bytes(),
        });
        let span = self.spans.last_mut().expect("just pushed");
        span.start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.len() as u32
    }

    fn close(&mut self, id: u32) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.allocs = ALLOC.allocs() - span.allocs;
        span.bytes = ALLOC.live_bytes() - span.bytes;
    }

    /// Write every span as one NDJSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"allocs\":{},\"bytes\":{}}}",
                s.name, s.req, s.parent, s.start_ns, s.end_ns, s.allocs, s.bytes
            )?;
        }
        out.flush()
    }
}

/// Spans one request can open.
const SPANS_PER_REQUEST: usize = 8;

/// `open`/`close` that do nothing when tracing is off.
fn open(tr: &mut Option<&mut Tracer>, name: &'static str, req: u32, parent: u32) -> u32 {
    tr.as_deref_mut().map_or(0, |t| t.open(name, req, parent))
}

fn close(tr: &mut Option<&mut Tracer>, id: u32) {
    if let Some(t) = tr.as_deref_mut() {
        t.close(id);
    }
}

/// One request through every layer. The request span covers the path
/// a served request takes (parse, build, schedule, render); `list`,
/// `initial_schedule` and `validate` are separate root spans with the
/// same request id, because they are extra calls made to split the
/// scheduler from outside.
fn one(
    item: &Item,
    line: Option<&str>,
    spec: Option<&DagSpec>,
    req: u32,
    ws: &mut Workspace,
    tr: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    let root = open(tr, "request", req, 0);
    let parsed;
    let spec = match line {
        Some(line) => {
            let s = open(tr, "protocol.parse", req, root);
            let r = Request::parse(line, 0);
            close(tr, s);
            parsed = match r {
                Ok(Request::Schedule(r)) => r.dag,
                other => return Err(format!("replayed line did not parse: {other:?}")),
            };
            &parsed
        }
        None => spec.ok_or("no request line and no DAG spec")?,
    };
    let s = open(tr, "dag.build", req, root);
    let dag = spec.build().map_err(|e| e.to_string())?;
    close(tr, s);
    let s = open(tr, "schedule", req, root);
    let schedule = item.engine.schedule(&dag, item.procs, ws);
    close(tr, s);
    let s = open(tr, "protocol.render", req, root);
    let resp = ScheduleResponse::from_schedule(
        u64::from(req),
        item.engine.name(),
        item.procs,
        &schedule,
        0,
        0,
    );
    let rendered = Response::Schedule(resp).to_line();
    close(tr, s);
    close(tr, root);

    if item.engine.is_plain_fast() {
        let s = open(tr, "list", req, 0);
        let attrs = GraphAttributes::compute(&dag);
        let classes = classify_nodes(&dag, &attrs);
        black_box(cpn_dominate_list(
            &dag,
            &attrs,
            &classes,
            CpnListConfig::default(),
        ));
        close(tr, s);
        let s = open(tr, "initial_schedule", req, 0);
        black_box(Fast::new().initial_schedule(&dag, item.procs));
        close(tr, s);
    }
    let s = open(tr, "validate", req, 0);
    let valid = item.engine.validate(&dag, &schedule);
    close(tr, s);
    valid?;
    let expected = std::str::from_utf8(&item.expected).expect("expected bytes are ASCII");
    if !rendered.contains(expected) {
        return Err(format!("in-process answer differs for request {req}"));
    }
    item.engine.recycle(ws, schedule);
    Ok(())
}

/// Replay outcome: spans plus the traced and untraced request rates.
pub struct Replay {
    pub tracer: Tracer,
    pub traced_rps: f64,
    pub untraced_rps: f64,
    pub requests: u64,
}

/// Alternate untraced and traced passes over the items for `budget`
/// (at least one of each), until the span buffer is full.
pub fn run(items: &[Item], budget: Duration) -> Result<Replay, String> {
    // Served items replay their request line; `paper` items have none
    // and start from a DAG spec.
    let lines: Vec<Option<String>> = items
        .iter()
        .enumerate()
        .map(|(k, it)| (!it.suffix.is_empty()).then(|| it.line(k as u64)))
        .collect();
    let specs: Vec<Option<DagSpec>> = items
        .iter()
        .map(|it| it.suffix.is_empty().then(|| it.graph.spec()))
        .collect();
    let per_pass = items.len() * SPANS_PER_REQUEST;
    let mut tracer = Tracer::with_capacity(per_pass.max(60_000));
    let mut ws = Workspace::new();
    let (mut traced, mut untraced) = ((0u64, Duration::ZERO), (0u64, Duration::ZERO));
    // A discarded pass grows the workspace before anything is timed.
    for (k, item) in items.iter().enumerate() {
        one(
            item,
            lines[k].as_deref(),
            specs[k].as_ref(),
            0,
            &mut ws,
            &mut None,
        )?;
    }
    let deadline = Instant::now() + budget;
    let mut pass = 0u32;
    loop {
        let tracing = pass % 2 == 1;
        if tracing && tracer.room() < per_pass {
            break;
        }
        let t0 = Instant::now();
        for (k, item) in items.iter().enumerate() {
            let req = pass * items.len() as u32 + k as u32;
            let mut tr = if tracing { Some(&mut tracer) } else { None };
            one(
                item,
                lines[k].as_deref(),
                specs[k].as_ref(),
                req,
                &mut ws,
                &mut tr,
            )?;
        }
        let dt = t0.elapsed();
        let acc = if tracing { &mut traced } else { &mut untraced };
        acc.0 += items.len() as u64;
        acc.1 += dt;
        pass += 1;
        if pass >= 2 && pass.is_multiple_of(2) && Instant::now() >= deadline {
            break;
        }
    }
    Ok(Replay {
        tracer,
        traced_rps: traced.0 as f64 / traced.1.as_secs_f64(),
        untraced_rps: untraced.0 as f64 / untraced.1.as_secs_f64(),
        requests: traced.0,
    })
}

/// Per-layer figures from the spans.
pub fn layers(items: &[Item], r: &Replay) -> Vec<(&'static str, f64)> {
    let n = items.len();
    // Per-layer totals, plus per-item schedule and parse time for the
    // size classes.
    #[derive(Default, Clone, Copy)]
    struct Acc {
        count: f64,
        ns: f64,
        allocs: f64,
        bytes: f64,
        edges: f64,
        req_bytes: f64,
    }
    let names = [
        "protocol.parse",
        "dag.build",
        "schedule",
        "protocol.render",
        "list",
        "initial_schedule",
        "validate",
        "fast.schedule",
    ];
    let mut acc = [Acc::default(); 8];
    let mut item_sched_ns = vec![0f64; n];
    let mut item_parse_ns = vec![0f64; n];
    let mut item_count = vec![0f64; n];
    for s in &r.tracer.spans {
        let k = s.req as usize % n;
        let item = &items[k];
        let ns = (s.end_ns - s.start_ns) as f64;
        let mut add = |i: usize| {
            let a = &mut acc[i];
            a.count += 1.0;
            a.ns += ns;
            a.allocs += s.allocs as f64;
            a.bytes += s.bytes as f64;
            a.edges += item.edges() as f64;
            a.req_bytes += item.line_len(k) as f64;
        };
        if let Some(i) = names.iter().position(|&x| x == s.name) {
            add(i);
        }
        match s.name {
            "schedule" => {
                item_sched_ns[k] += ns;
                item_count[k] += 1.0;
                if item.engine.is_plain_fast() {
                    add(7);
                }
            }
            "protocol.parse" => item_parse_ns[k] += ns,
            _ => {}
        }
    }
    let [parse, build, sched, render, list, initial, validate, fast_sched] = acc;
    let mean_us = |a: Acc| {
        if a.count > 0.0 {
            a.ns / a.count / 1e3
        } else {
            0.0
        }
    };
    let per = |x: f64, d: f64| if d > 0.0 { x / d } else { 0.0 };

    // Size classes: items ordered by request bytes (parse) or by edges
    // (schedule), summing ns and size over each class.
    let class_ratio = |ns: &[f64], size: &dyn Fn(usize) -> f64, parts: usize, which: usize| {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| size(a).total_cmp(&size(b)).then(a.cmp(&b)));
        let lo = which * n / parts;
        let hi = (which + 1) * n / parts;
        let (t, s) = order[lo..hi].iter().fold((0.0, 0.0), |(t, s), &k| {
            (t + ns[k], s + size(k) * item_count[k])
        });
        per(t, s)
    };
    let req_bytes = |k: usize| items[k].line_len(k) as f64;
    // An edgeless DAG (2 nodes on `tiny`) counts as one edge, so its
    // class still reports a cost.
    let edges = |k: usize| items[k].edges().max(1) as f64;
    let path_ns = parse.ns + build.ns + sched.ns + render.ns;

    // On `paper` nothing is parsed, so the protocol.parse figures are 0.
    let mut out = vec![
        ("protocol.parse_us", mean_us(parse)),
        ("protocol.parse_ns_per_byte", per(parse.ns, parse.req_bytes)),
        (
            "protocol.parse_ns_per_byte.small",
            class_ratio(&item_parse_ns, &req_bytes, 3, 0),
        ),
        (
            "protocol.parse_ns_per_byte.large",
            class_ratio(&item_parse_ns, &req_bytes, 3, 2),
        ),
        ("protocol.parse_allocs", per(parse.allocs, parse.count)),
        ("protocol.request_bytes", per(parse.req_bytes, parse.count)),
        ("protocol.render_us", mean_us(render)),
        ("dag.build_us", mean_us(build)),
        ("dag.build_ns_per_edge", per(build.ns, build.edges)),
        ("dag.build_allocs", per(build.allocs, build.count)),
        ("dag.heap_bytes_per_edge", per(build.bytes, build.edges)),
        ("list.us", mean_us(list)),
        ("list.ns_per_edge", per(list.ns, list.edges)),
        ("place.us", mean_us(initial) - mean_us(list)),
        ("search.us", mean_us(fast_sched) - mean_us(initial)),
        ("schedule.us", mean_us(sched)),
        ("schedule.ns_per_edge", per(sched.ns, sched.edges)),
    ];
    const CLASSES: [&str; 5] = [
        "schedule.ns_per_edge.c1",
        "schedule.ns_per_edge.c2",
        "schedule.ns_per_edge.c3",
        "schedule.ns_per_edge.c4",
        "schedule.ns_per_edge.c5",
    ];
    for (i, name) in CLASSES.into_iter().enumerate() {
        out.push((name, class_ratio(&item_sched_ns, &edges, 5, i)));
    }
    out.extend([
        ("schedule.allocs", per(sched.allocs, sched.count)),
        ("validate.us", mean_us(validate)),
        ("validate.share", per(validate.ns, path_ns)),
        (
            "trace.overhead_frac",
            1.0 - per(r.traced_rps, r.untraced_rps),
        ),
    ]);
    out
}
