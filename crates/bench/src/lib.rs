//! # fastsched-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! the paper's evaluation (§5). Each figure has a dedicated binary:
//!
//! | binary          | paper artefact | contents |
//! |-----------------|----------------|----------|
//! | `table-fig2-4`  | Figures 2–4    | per-algorithm schedules of the example DAG |
//! | `table-gauss`   | Figure 5(a–c)  | Gaussian elimination, N = 4..32 |
//! | `table-laplace` | Figure 6(a–c)  | Laplace solver, N = 4..32 |
//! | `table-fft`     | Figure 7(a–c)  | FFT, 16..512 points |
//! | `table-random`  | Figure 8(a–c)  | random DAGs, v = 2000..5000 |
//! | `ablation`      | §4/§6 claims   | CPN-Dominate vs plain lists, MAXSTEP sweep, neighbourhood choice |
//!
//! Every binary prints the same row/column layout the paper reports
//! (normalized execution times, processors used, scheduling times) so
//! EXPERIMENTS.md can be regenerated by running them. Criterion
//! micro-benches for the O(e) claims live in `benches/`.

#![warn(missing_docs)]

use fastsched::prelude::*;
use std::time::{Duration, Instant};

/// Wall-clock minimum, in seconds, over `runs` invocations of `f` —
/// machine-load noise only ever inflates a timing, so the minimum is
/// the noise-robust estimate for an A/B whose sides run apart.
pub fn min_of(runs: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// `BENCH_eval.json` at the workspace root.
pub const BENCH_EVAL_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");

/// Set the top-level `"<name>": <body>` entry of `BENCH_eval.json`
/// (`body` is the JSON value's text), replacing a previous value in
/// place or appending a new key; every other entry is kept verbatim,
/// so each bench rewrites only what it measures. Returns the path.
pub fn write_section(name: &str, body: &str) -> &'static str {
    let old = std::fs::read_to_string(BENCH_EVAL_PATH).unwrap_or_default();
    let mut entries = top_level_entries(&old);
    match entries.iter_mut().find(|(k, _)| k == name) {
        Some((_, v)) => *v = body.to_string(),
        None => entries.push((name.to_string(), body.to_string())),
    }
    let lines: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(BENCH_EVAL_PATH, json).expect("write BENCH_eval.json");
    BENCH_EVAL_PATH
}

/// The `(key, raw value text)` pairs of a JSON object's top level, in
/// order (empty for anything that is not an object).
fn top_level_entries(json: &str) -> Vec<(String, String)> {
    let b = json.as_bytes();
    let (mut entries, mut depth, mut in_str, mut esc) = (Vec::new(), 0usize, false, false);
    let (mut key_start, mut key, mut value_start) = (0, None::<String>, 0);
    for (i, &c) in b.iter().enumerate() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, b'\\') => esc = true,
                (false, b'"') => {
                    in_str = false;
                    if depth == 1 && key.is_none() {
                        key = Some(json[key_start..i].to_string());
                    }
                }
                _ => {}
            }
            continue;
        }
        match c {
            b'"' => {
                in_str = true;
                key_start = i + 1;
            }
            b':' if depth == 1 => value_start = i + 1,
            b'{' | b'[' => depth += 1,
            b'}' | b']' | b',' => {
                if c != b',' {
                    depth = depth.saturating_sub(1);
                }
                if depth == usize::from(c == b',') {
                    if let Some(k) = key.take() {
                        entries.push((k, json[value_start..i].trim().to_string()));
                    }
                }
            }
            _ => {}
        }
    }
    entries
}

/// One (algorithm × workload-size) measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Simulated application execution time (the paper's headline).
    pub execution_time: u64,
    /// Static schedule length.
    pub makespan: u64,
    /// Processors used.
    pub processors: u32,
    /// Wall-clock scheduling time.
    pub scheduling_time: Duration,
}

/// Measure one scheduler on one DAG: schedule (timed), validate,
/// simulate.
pub fn measure(dag: &Dag, scheduler: &dyn Scheduler, procs: u32, sim: &SimConfig) -> Cell {
    // Take the fastest of three runs: scheduling times on small graphs
    // are microseconds and a single sample is dominated by cache and
    // allocator jitter.
    let mut scheduling_time = Duration::MAX;
    let mut schedule = scheduler.schedule(dag, procs);
    for _ in 0..3 {
        let t0 = Instant::now();
        schedule = scheduler.schedule(dag, procs);
        scheduling_time = scheduling_time.min(t0.elapsed());
    }
    validate(dag, &schedule)
        .unwrap_or_else(|e| panic!("{} produced an invalid schedule: {e}", scheduler.name()));
    let report = simulate(dag, &schedule, sim);
    Cell {
        execution_time: report.execution_time,
        makespan: schedule.makespan(),
        processors: schedule.processors_used(),
        scheduling_time,
    }
}

/// Render the three sub-tables of one paper figure — (a) normalized
/// execution (or schedule-length) ratios against the first algorithm,
/// (b) processors used, (c) scheduling times — for a grid of
/// algorithms × workload sizes.
pub fn render_figure(
    title: &str,
    col_labels: &[String],
    algo_names: &[&str],
    cells: &[Vec<Cell>], // cells[algo][column]
    normalize_on_makespan: bool,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let header = |out: &mut String, sub: &str| {
        writeln!(out, "\n({sub})").unwrap();
        write!(out, "{:<10}", "Algorithm").unwrap();
        for c in col_labels {
            write!(out, "{c:>12}").unwrap();
        }
        writeln!(out).unwrap();
    };

    writeln!(out, "== {title} ==").unwrap();

    header(
        &mut out,
        if normalize_on_makespan {
            "normalized schedule lengths"
        } else {
            "normalized execution times"
        },
    );
    for (ai, name) in algo_names.iter().enumerate() {
        write!(out, "{name:<10}").unwrap();
        for (ci, _) in col_labels.iter().enumerate() {
            let reference = if normalize_on_makespan {
                cells[0][ci].makespan
            } else {
                cells[0][ci].execution_time
            }
            .max(1) as f64;
            let val = if normalize_on_makespan {
                cells[ai][ci].makespan
            } else {
                cells[ai][ci].execution_time
            } as f64;
            write!(out, "{:>12.2}", val / reference).unwrap();
        }
        writeln!(out).unwrap();
    }

    header(&mut out, "number of processors used");
    for (ai, name) in algo_names.iter().enumerate() {
        write!(out, "{name:<10}").unwrap();
        for (ci, _) in col_labels.iter().enumerate() {
            write!(out, "{:>12}", cells[ai][ci].processors).unwrap();
        }
        writeln!(out).unwrap();
    }

    header(&mut out, "scheduling times (ms)");
    for (ai, name) in algo_names.iter().enumerate() {
        write!(out, "{name:<10}").unwrap();
        for (ci, _) in col_labels.iter().enumerate() {
            write!(
                out,
                "{:>12.3}",
                cells[ai][ci].scheduling_time.as_secs_f64() * 1e3
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Value of the `--trace <path>` command-line flag shared by all the
/// table binaries, if present.
pub fn trace_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Run `scheduler` once more with a recording collector attached and
/// write the search trace (phase timers, probe counters,
/// schedule-length trajectory) as NDJSON to `path`.
pub fn write_search_trace(
    path: &str,
    dag: &Dag,
    scheduler: &dyn Scheduler,
    procs: u32,
    workload: &str,
) -> Result<(), String> {
    let mut trace = fastsched::trace::SearchTrace::recording();
    trace.set_meta("tool", "fastsched-bench");
    trace.set_meta("workload", workload);
    trace.set_meta("algorithm", scheduler.name());
    trace.set_meta("nodes", &dag.node_count().to_string());
    trace.set_meta("procs", &procs.to_string());
    scheduler
        .run(
            dag,
            procs,
            &Machine::Homogeneous,
            &mut Workspace::new(),
            &mut trace,
        )
        .map_err(|e| format!("{}: {e}", scheduler.name()))?;
    std::fs::write(path, trace.to_report().to_ndjson())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote search trace to {path} (render with `casch trace --in {path}`)");
    Ok(())
}

/// `scheduler` on `machine` with fresh scratch, as a one-off caller
/// runs it.
///
/// # Panics
/// On a [`SchedulerError`]: the bench corpora are schedulable.
pub fn run_on(scheduler: &dyn Scheduler, dag: &Dag, procs: u32, machine: &Machine) -> Schedule {
    let (ws, trace) = (&mut Workspace::new(), &mut SearchTrace::default());
    let result = scheduler.run(dag, procs, machine, ws, trace);
    result.unwrap_or_else(|e| panic!("{}: {e}", scheduler.name()))
}

/// Run a whole figure: `dags` are the workload instances (columns),
/// `schedulers` the rows; `procs(dag)` chooses the processor budget.
pub fn run_figure(
    title: &str,
    col_labels: Vec<String>,
    dags: &[Dag],
    schedulers: &[Box<dyn Scheduler>],
    procs: impl Fn(&Dag) -> u32,
    sim: &SimConfig,
    normalize_on_makespan: bool,
) -> String {
    let names: Vec<&str> = schedulers.iter().map(|s| s.name()).collect();
    let cells: Vec<Vec<Cell>> = schedulers
        .iter()
        .map(|s| {
            dags.iter()
                .map(|d| measure(d, s.as_ref(), procs(d), sim))
                .collect()
        })
        .collect();
    render_figure(title, &col_labels, &names, &cells, normalize_on_makespan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_consistent_cell() {
        let db = TimingDatabase::paragon();
        let dag = fft_dag(16, &db);
        let cell = measure(&dag, &Fast::new(), 8, &SimConfig::default());
        assert!(cell.execution_time >= cell.makespan);
        assert!(cell.processors >= 1);
    }

    #[test]
    fn render_contains_all_sections() {
        let db = TimingDatabase::paragon();
        let dag = fft_dag(16, &db);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![Box::new(Fast::new()), Box::new(Dsc::new())];
        let out = run_figure(
            "test",
            vec!["16".into()],
            &[dag],
            &schedulers,
            |_| 8,
            &SimConfig::default(),
            false,
        );
        assert!(out.contains("normalized execution times"));
        assert!(out.contains("number of processors used"));
        assert!(out.contains("scheduling times"));
        assert!(out.contains("FAST"));
        assert!(out.contains("DSC"));
    }

    #[test]
    fn top_level_entries_split_only_the_outer_object() {
        let json = "{\n  \"n\": 3,\n  \"s\": \"a,}\\\"b\",\n  \"o\": { \"x\": [1, {\"y\": 2}] },\n  \"l\": []\n}\n";
        let entries = top_level_entries(json);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["n", "s", "o", "l"]);
        assert_eq!(entries[0].1, "3");
        assert_eq!(entries[1].1, "\"a,}\\\"b\"");
        assert_eq!(entries[2].1, "{ \"x\": [1, {\"y\": 2}] }");
        assert_eq!(entries[3].1, "[]");
        assert!(top_level_entries("").is_empty());
    }
}
