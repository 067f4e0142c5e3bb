//! Workload inputs: seeded paper DAGs, rendered once as request lines,
//! each paired with the library's answer for the same request.
//!
//! The generator and the request renderer are the benchmark's own, so
//! the input bytes stay fixed when the code under test changes (a new
//! serializer or DAG layout cannot alter the corpus it is measured on).

use fastsched::algorithms::{HeftHetero, ProcessorSpeeds, Scheduler, Workspace};
use fastsched::casch::serve::{scheduler_by_name, ModelScheduler};
use fastsched::dag::io::{DagSpec, EdgeSpec, NodeSpec};
use fastsched::dag::Dag;
use fastsched::schedule::{
    validate_with, AlphaBeta, CommModel, Hierarchical, HomogeneousModel, MemoryCapacities, Schedule,
};
use std::fmt::Write as _;

/// Every request line starts with these bytes, followed by the id.
pub const PREFIX: &[u8] = b"{\"op\":\"schedule\",\"id\":";

/// §5.2 weights against the Paragon timing database: node costs around
/// `compute_cost(16) = 48`, edge costs around `message_cost(16) = 56`,
/// each drawn uniformly from half to twice that (CCR near one).
const NODE_WEIGHT: (u64, u64) = (24, 96);
const EDGE_WEIGHT: (u64, u64) = (28, 112);
/// §5.2 "deliberately made denser": 20–50 out-edges drawn per node.
const OUT_DEGREE: (u64, u64) = (20, 50);

/// Graphs drawn per corpus item; the one with the median edge count is kept.
const CANDIDATES: u64 = 9;

/// Speeds (percent of nominal) of the heterogeneous requests.
const SPEEDS: [u32; 8] = [200, 150, 100, 100, 100, 75, 50, 50];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tiny,
    Large,
    Models,
    Paper,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Tiny,
        Workload::Large,
        Workload::Models,
        Workload::Paper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tiny => "tiny",
            Workload::Large => "large",
            Workload::Models => "models",
            Workload::Paper => "paper",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests in flight per connection: a pipelined window on
    /// `tiny`, one at a time elsewhere. `None` for the in-process
    /// workload.
    pub fn window(self) -> Option<usize> {
        match self {
            Workload::Tiny => Some(16),
            Workload::Large | Workload::Models => Some(1),
            Workload::Paper => None,
        }
    }
}

/// splitmix64: small, seedable, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A task graph as plain numbers. Edges are sorted by `(src, dst)` and
/// always point from a lower to a higher node id.
pub struct Graph {
    pub weights: Vec<u64>,
    pub mems: Vec<u64>,
    pub edges: Vec<(u32, u32, u64)>,
}

/// The §5.2 random layered DAG: height and layer widths uniform with
/// mean about √v, each node wired to random nodes of later layers, and
/// every node below the first layer given at least one parent.
pub fn layered(v: usize, rng: &mut Rng) -> Graph {
    let sq = ((v as f64).sqrt().round() as u64).max(1);
    let (lo, hi) = ((sq / 2).max(1), sq + sq / 2);
    let height = (rng.range(lo, hi) as usize).min(v);
    let mut sizes: Vec<usize> = (0..height).map(|_| rng.range(lo, hi) as usize).collect();
    let drawn: usize = sizes.iter().sum();
    for s in &mut sizes {
        *s = (*s * v / drawn).max(1);
    }
    let mut i = 0;
    while sizes.iter().sum::<usize>() < v {
        sizes[i % height] += 1;
        i += 1;
    }
    while sizes.iter().sum::<usize>() > v {
        if sizes[i % height] > 1 {
            sizes[i % height] -= 1;
        }
        i += 1;
    }
    let mut start = vec![0usize; height + 1];
    for (l, s) in sizes.iter().enumerate() {
        start[l + 1] = start[l] + s;
    }

    let weights: Vec<u64> = (0..v)
        .map(|_| rng.range(NODE_WEIGHT.0, NODE_WEIGHT.1))
        .collect();
    let mut edges = Vec::new();
    let mut has_parent = vec![false; v];
    let mut targets: Vec<u64> = Vec::new();
    for l in 0..height.saturating_sub(1) {
        for src in start[l]..start[l + 1] {
            targets.clear();
            for _ in 0..rng.range(OUT_DEGREE.0, OUT_DEGREE.1) {
                targets.push(rng.range(start[l + 1] as u64, v as u64 - 1));
            }
            targets.sort_unstable();
            targets.dedup();
            for &dst in &targets {
                has_parent[dst as usize] = true;
                edges.push((
                    src as u32,
                    dst as u32,
                    rng.range(EDGE_WEIGHT.0, EDGE_WEIGHT.1),
                ));
            }
        }
    }
    for l in 1..height {
        let orphans = (start[l]..start[l + 1]).filter(|&dst| !has_parent[dst]);
        for dst in orphans.collect::<Vec<_>>() {
            let src = rng.range(start[l - 1] as u64, start[l] as u64 - 1);
            edges.push((
                src as u32,
                dst as u32,
                rng.range(EDGE_WEIGHT.0, EDGE_WEIGHT.1),
            ));
        }
    }
    edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
    Graph {
        weights,
        mems: vec![0; v],
        edges,
    }
}

impl Graph {
    pub fn spec(&self) -> DagSpec {
        DagSpec {
            nodes: self
                .weights
                .iter()
                .zip(&self.mems)
                .enumerate()
                .map(|(i, (&weight, &mem))| NodeSpec {
                    name: format!("n{i}"),
                    weight,
                    mem,
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|&(src, dst, cost)| EdgeSpec { src, dst, cost })
                .collect(),
        }
    }

    /// Sum of computation costs on the critical path (the longest
    /// path counting computation and communication), the denominator
    /// of the paper's normalized schedule length. Computed here rather
    /// than by `dag::attributes`, so NSL does not trust the code under
    /// test.
    pub fn cp_computation(&self) -> u64 {
        let mut len = self.weights.clone();
        let mut comp = self.weights.clone();
        // Edges are sorted by source and point forward, so every path
        // into `src` is final before its out-edges are relaxed.
        for &(s, d, c) in &self.edges {
            let (s, d) = (s as usize, d as usize);
            let cand = (len[s] + c + self.weights[d], comp[s] + self.weights[d]);
            if cand > (len[d], comp[d]) {
                (len[d], comp[d]) = cand;
            }
        }
        (0..len.len())
            .max_by_key(|&n| (len[n], comp[n]))
            .map_or(1, |n| comp[n])
    }
}

/// The machine model a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Plain,
    AlphaBeta,
    Hier,
    /// Loose uniform `mem_caps`: each processor could hold the whole
    /// DAG, so the capacity never binds but the memory-aware path runs.
    Mem,
    Speeds,
}

/// The `models` mix: four schedulers under no model, α–β and
/// hierarchical pricing, the two memory-aware ones under loose caps,
/// and HEFT on heterogeneous speeds.
const MODEL_KINDS: [(&str, Model); 15] = [
    ("fast", Model::Plain),
    ("etf", Model::Plain),
    ("dls", Model::Plain),
    ("heft", Model::Plain),
    ("fast", Model::AlphaBeta),
    ("etf", Model::AlphaBeta),
    ("dls", Model::AlphaBeta),
    ("heft", Model::AlphaBeta),
    ("fast", Model::Hier),
    ("etf", Model::Hier),
    ("dls", Model::Hier),
    ("heft", Model::Hier),
    ("fast", Model::Mem),
    ("heft", Model::Mem),
    ("heft", Model::Speeds),
];

/// How the library answers one request, resolved the way `casch serve`
/// resolves it.
pub enum Engine {
    Plain(Box<dyn Scheduler>),
    Comm(ModelScheduler, CommModel),
    Mem(ModelScheduler, MemoryCapacities<CommModel>),
    Speeds(HeftHetero, ProcessorSpeeds),
}

impl Engine {
    fn new(algo: &str, model: Model, procs: u32, cap: u64) -> Result<Engine, String> {
        let by_name = || ModelScheduler::by_name(algo);
        Ok(match model {
            Model::Plain => Engine::Plain(scheduler_by_name(algo)?),
            Model::AlphaBeta => Engine::Comm(
                by_name()?,
                CommModel::AlphaBeta(AlphaBeta::try_new(25, 3, 2)?),
            ),
            Model::Hier => Engine::Comm(
                by_name()?,
                CommModel::Hierarchical(Hierarchical::from_group_sizes(
                    &[4, 4],
                    AlphaBeta::try_new(0, 1, 1)?,
                    AlphaBeta::try_new(50, 2, 1)?,
                )?),
            ),
            Model::Mem => Engine::Mem(
                by_name()?,
                MemoryCapacities::new(CommModel::Ideal, vec![cap; procs as usize]),
            ),
            Model::Speeds => {
                let speeds = ProcessorSpeeds::try_new(SPEEDS.to_vec())?;
                Engine::Speeds(HeftHetero::new(speeds.clone()), speeds)
            }
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Engine::Plain(s) => s.name(),
            Engine::Comm(s, _) | Engine::Mem(s, _) => s.name(),
            Engine::Speeds(..) => "HEFT-hetero",
        }
    }

    /// The library call `casch serve` makes for this request.
    pub fn schedule(&self, dag: &Dag, procs: u32, ws: &mut Workspace) -> Schedule {
        match self {
            Engine::Plain(s) => s.schedule_into(dag, procs, ws),
            Engine::Comm(s, m) => s.schedule_with_model(dag, procs, m),
            Engine::Mem(s, m) => s.schedule_with_model(dag, procs, m),
            Engine::Speeds(h, _) => h.schedule(dag),
        }
    }

    /// `validate_with` under the request's own model.
    pub fn validate(&self, dag: &Dag, schedule: &Schedule) -> Result<(), String> {
        match self {
            Engine::Plain(_) => validate_with(&HomogeneousModel, dag, schedule),
            Engine::Comm(_, m) => validate_with(m, dag, schedule),
            Engine::Mem(_, m) => validate_with(m, dag, schedule),
            Engine::Speeds(_, m) => validate_with(m, dag, schedule),
        }
        .map_err(|e| format!("{e:?}"))
    }

    /// Hand a workspace-path schedule back, as the serve workers do.
    pub fn recycle(&self, ws: &mut Workspace, schedule: Schedule) {
        if let Engine::Plain(_) = self {
            ws.recycle(schedule);
        }
    }

    /// Homogeneous FAST: the requests whose list/place/search split the
    /// traced run reports.
    pub fn is_plain_fast(&self) -> bool {
        matches!(self, Engine::Plain(s) if s.name() == "FAST")
    }
}

/// One distinct request of a workload.
pub struct Item {
    pub graph: Graph,
    pub dag: Dag,
    pub engine: Engine,
    pub procs: u32,
    /// The request line after its id, newline included (served
    /// workloads only).
    pub suffix: Vec<u8>,
    /// `"makespan":M,"placements":[[p,s,f],...]` as the library
    /// renders the answer.
    pub expected: Vec<u8>,
    pub placements: Vec<(u32, u64, u64)>,
    pub nsl: f64,
}

impl Item {
    pub fn edges(&self) -> usize {
        self.graph.edges.len()
    }

    /// The whole request line with `id`, without its newline.
    pub fn line(&self, id: u64) -> String {
        let body = &self.suffix[..self.suffix.len() - 1];
        format!(
            "{}{id}{}",
            String::from_utf8_lossy(PREFIX),
            String::from_utf8_lossy(body)
        )
    }

    /// Bytes of [`Item::line`] for `id`; 0 when the item has no line.
    pub fn line_len(&self, id: usize) -> usize {
        match self.suffix.len() {
            0 => 0,
            n => PREFIX.len() + id.to_string().len() + n - 1,
        }
    }

    /// Whether `schedule` is byte-for-byte the expected answer.
    pub fn matches(&self, schedule: &Schedule) -> bool {
        schedule.num_nodes() == self.placements.len()
            && schedule
                .tasks()
                .zip(&self.placements)
                .all(|(t, &(p, s, f))| (t.proc.0, t.start, t.finish) == (p, s, f))
    }
}

/// The distinct requests of `workload` for `seed`: graph sizes are
/// stratified so every seed covers the same size range, and the seed
/// drives structure and weights. Each item's answer is computed with
/// the library and checked by `validate_with` here, once.
pub fn build(workload: Workload, seed: u64) -> Result<Vec<Item>, String> {
    // Enough distinct requests that the cost of a seed's structures
    // averages out: with fewer, one seed's DAGs schedule measurably
    // faster than another's.
    let plan: Vec<(usize, &str, Model, u32)> = match workload {
        // 2–6 nodes, like the serve-ab corpus.
        Workload::Tiny => (0..256)
            .map(|k| (2 + k % 5, "fast", Model::Plain, 8))
            .collect(),
        Workload::Large => (0..96)
            .map(|k| (40 + 80 * k / 95, "fast", Model::Plain, 8))
            .collect(),
        Workload::Models => (0..120)
            .map(|k| {
                let (algo, model) = MODEL_KINDS[k % MODEL_KINDS.len()];
                (20 + 40 * k / 119, algo, model, 8)
            })
            .collect(),
        Workload::Paper => [100, 250, 500, 1000, 2000]
            .into_iter()
            .flat_map(|v| [v; 10])
            .map(|v| (v, "fast", Model::Plain, 64))
            .collect(),
    };
    let mut ws = Workspace::new();
    plan.into_iter()
        .enumerate()
        .map(|(k, (v, algo, model, procs))| {
            // The median of several draws by edge count: the random
            // height makes edge counts (and the quadratic parse) swing
            // widely between seeds, and a seed must not move the
            // workload's cost, only its structure. Draws are
            // regenerated rather than kept, so the corpus does not
            // inflate the peak memory of the `paper` process.
            let base = seed ^ (k as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let draw = |j: u64| {
                let mut rng = Rng::new(base ^ j.wrapping_mul(0xA076_1D64_78BD_642F));
                rng.next();
                (layered(v, &mut rng), rng)
            };
            let mut sizes: Vec<(usize, u64)> = (0..CANDIDATES)
                .map(|j| (draw(j).0.edges.len(), j))
                .collect();
            sizes.sort_unstable();
            let (mut graph, mut rng) = draw(sizes[sizes.len() / 2].1);
            let mut cap = 0;
            if model == Model::Mem {
                graph.mems = (0..v).map(|_| rng.range(1, 100)).collect();
                cap = graph.mems.iter().sum();
            }
            let engine = Engine::new(algo, model, procs, cap)?;
            let dag = graph
                .spec()
                .build()
                .map_err(|e| format!("corpus DAG: {e}"))?;
            let schedule = engine.schedule(&dag, procs, &mut ws);
            engine.validate(&dag, &schedule).map_err(|e| {
                format!(
                    "{} item {k}: library schedule invalid: {e}",
                    workload.name()
                )
            })?;
            let placements: Vec<(u32, u64, u64)> = schedule
                .tasks()
                .map(|t| (t.proc.0, t.start, t.finish))
                .collect();
            let mut expected = format!("\"makespan\":{},\"placements\":[", schedule.makespan());
            for (i, (p, s, f)) in placements.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(expected, "{sep}[{p},{s},{f}]");
            }
            expected.push(']');
            let nsl = schedule.makespan() as f64 / graph.cp_computation().max(1) as f64;
            let suffix = match workload {
                Workload::Paper => Vec::new(),
                _ => request_suffix(&graph, algo, model, procs, cap).into_bytes(),
            };
            engine.recycle(&mut ws, schedule);
            Ok(Item {
                graph,
                dag,
                engine,
                procs,
                suffix,
                expected: expected.into_bytes(),
                placements,
                nsl,
            })
        })
        .collect()
}

/// Render everything after the id, in the `casch serve` wire format.
fn request_suffix(g: &Graph, algo: &str, model: Model, procs: u32, cap: u64) -> String {
    let mut s = format!(",\"algo\":\"{algo}\",\"procs\":{procs}");
    match model {
        Model::Plain => {}
        Model::AlphaBeta => s.push_str(
            ",\"comm\":{\"model\":\"alpha-beta\",\"alpha\":25,\"beta_num\":3,\"beta_den\":2}",
        ),
        Model::Hier => s.push_str(
            ",\"comm\":{\"model\":\"hier\",\"groups\":[4,4],\"intra\":[0,1,1],\"inter\":[50,2,1]}",
        ),
        Model::Mem => {
            let _ = write!(s, ",\"mem_caps\":{cap}");
        }
        Model::Speeds => {
            let speeds: Vec<String> = SPEEDS.iter().map(u32::to_string).collect();
            let _ = write!(s, ",\"speeds\":[{}]", speeds.join(","));
        }
    }
    s.push_str(",\"dag\":{\"nodes\":[");
    for (i, (w, m)) in g.weights.iter().zip(&g.mems).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}{{\"name\":\"n{i}\",\"weight\":{w}");
        if *m != 0 {
            let _ = write!(s, ",\"mem\":{m}");
        }
        s.push('}');
    }
    s.push_str("],\"edges\":[");
    for (i, (src, dst, cost)) in g.edges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}{{\"src\":{src},\"dst\":{dst},\"cost\":{cost}}}");
    }
    s.push_str("]}}\n");
    s
}
