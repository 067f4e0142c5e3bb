//! One benchmark for the whole fastsched request path.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <tiny|large|models|paper> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. The serve workloads build `casch` and
//! drive a `casch serve` child closed-loop; `paper` calls FAST in
//! process. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer ones
//! from a replay that records a span around every layer call. See
//! README.md next to this file for the workloads and metrics.

mod alloc;
mod client;
mod corpus;
mod replay;

use client::Server;
use corpus::{Item, Workload};
use fastsched::algorithms::Workspace;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting::new();

/// `casch serve --threads`, client connections, and client threads.
/// Each must stay at or below `nproc`.
const WORKERS: usize = 2;
const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("nsl_mean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 34] = [
    ("protocol.parse_us", "us"),
    ("protocol.parse_ns_per_byte", "ns/B"),
    ("protocol.parse_ns_per_byte.small", "ns/B"),
    ("protocol.parse_ns_per_byte.large", "ns/B"),
    ("protocol.parse_allocs", "count"),
    ("protocol.request_bytes", "B"),
    ("protocol.render_us", "us"),
    ("dag.build_us", "us"),
    ("dag.build_ns_per_edge", "ns/edge"),
    ("dag.build_allocs", "count"),
    ("dag.heap_bytes_per_edge", "B/edge"),
    ("list.us", "us"),
    ("list.ns_per_edge", "ns/edge"),
    ("place.us", "us"),
    ("search.us", "us"),
    ("schedule.us", "us"),
    ("schedule.ns_per_edge", "ns/edge"),
    ("schedule.ns_per_edge.c1", "ns/edge"),
    ("schedule.ns_per_edge.c2", "ns/edge"),
    ("schedule.ns_per_edge.c3", "ns/edge"),
    ("schedule.ns_per_edge.c4", "ns/edge"),
    ("schedule.ns_per_edge.c5", "ns/edge"),
    ("schedule.allocs", "count"),
    ("validate.us", "us"),
    ("validate.share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.schedule_us_p50", "us"),
    ("serve.serialize_us_p50", "us"),
    ("serve.write_us_p50", "us"),
    ("serve.rejected_frac", "ratio"),
    ("serve.pre_admission_us", "us"),
    ("client.cpu_us_per_op", "us"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The result line. Metric names must match the registry for the
    /// mode, in order.
    fn json(&self, registry: &[(&str, &str)]) -> Result<String, String> {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = registry.iter().map(|m| m.0).collect();
        if names != expected {
            return Err(format!("metric set {names:?} differs from {expected:?}"));
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .zip(registry)
            .map(|(&(name, value), &(_, unit))| {
                if value.is_finite() {
                    Ok(format!(
                        "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
                    ))
                } else {
                    Err(format!("metric {name} is not finite"))
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        ))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        match smoke() {
            Ok(()) => println!("smoke ok"),
            Err(e) => {
                eprintln!("benchmark smoke: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let result = parse_args(&argv).and_then(|args| {
        let outcome = run(&args)?;
        let registry: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let line = outcome.json(registry)?;
        Ok((provenance(&args), line))
    });
    match result {
        Ok((provenance, line)) => {
            println!("{provenance}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::by_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds takes a positive number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        },
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if WORKERS.max(CONNS) > nproc {
        return Err(format!(
            "refusing to run: {WORKERS} server workers and {CONNS} client connections/threads \
             exceed nproc = {nproc}"
        ));
    }
    let items = corpus::build(args.workload, args.seed)?;
    match args.workload.window() {
        Some(window) => served(args, &items, window),
        None => in_process(args, &items),
    }
}

/// `tiny`, `large`, `models`: a `casch serve` child driven closed-loop.
fn served(args: &Args, items: &[Item], window: usize) -> Result<Outcome, String> {
    let bin = build_casch()?;
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    let mut warm_failed = 0;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.shutdown()?;
        }
        let t0 = Instant::now();
        let s = Server::spawn(&bin, WORKERS)?;
        let warm = client::drive(&s.addr, items, window, None, &mut [0; CONNS]);
        setups.push(t0.elapsed().as_secs_f64());
        report_errors("warm pass", &warm);
        warm_failed += warm.failed;
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let mut failed = warm_failed;
    if args.trace {
        let cpu0 = cpu_seconds()?;
        let until = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
        let load = client::drive(&server.addr, items, window, Some(until), &mut [0; CONNS]);
        let cpu = cpu_seconds()? - cpu0;
        report_errors("measured run", &load);
        let scrape = server.scrape()?;
        server.shutdown()?;
        failed += load.failed;
        let ops = load.rtt_ns.len() as f64;
        let mean_rtt_us = load.rtt_ns.iter().sum::<u64>() as f64 / 1e3 / ops.max(1.0);
        let replay = replay::run(items, Duration::from_secs_f64(args.seconds / 2.0))?;
        write_spans(args, &replay)?;
        let mut metrics = replay::layers(items, &replay);
        let phase = |name| client::phase(&scrape, name);
        let (queue, sched, ser, write) = (
            phase("queue")?,
            phase("schedule")?,
            phase("serialize")?,
            phase("write")?,
        );
        let accepted = client::counter(&scrape, "accepted")? as f64;
        let rejected = client::counter(&scrape, "rejected")? as f64;
        metrics.extend([
            ("serve.queue_us_p50", queue.p50_us),
            ("serve.queue_us_p99", queue.p99_us),
            ("serve.schedule_us_p50", sched.p50_us),
            ("serve.serialize_us_p50", ser.p50_us),
            ("serve.write_us_p50", write.p50_us),
            (
                "serve.rejected_frac",
                rejected / (accepted + rejected).max(1.0),
            ),
            (
                "serve.pre_admission_us",
                mean_rtt_us - (queue.mean_us + sched.mean_us + ser.mean_us + write.mean_us),
            ),
            ("client.cpu_us_per_op", cpu * 1e6 / ops.max(1.0)),
        ]);
        return Ok(Outcome {
            correct: failed == 0 && ops > 0.0,
            attempted: load.attempted + warm_failed,
            failed,
            metrics,
        });
    }

    let mut attempted = warm_failed;
    let mut first_error = None;
    let mut cursors = [0; CONNS];
    let windows = measure(args.seconds, |part| {
        let until = Instant::now() + part;
        let load = client::drive(&server.addr, items, window, Some(until), &mut cursors);
        attempted += load.attempted;
        failed += load.failed;
        first_error = first_error.take().or(load.first_error);
        (load.rtt_ns, load.elapsed)
    });
    if let Some(e) = first_error {
        eprintln!("measured run: {failed} failed; first: {e}");
    }
    let rss_kib = server.peak_rss_kib()?;
    server.shutdown()?;
    let mut metrics = timing(args, &windows).to_vec();
    metrics.extend([
        ("nsl_mean", nsl_mean(items)),
        ("setup_s", median(setups) * windows[0].speed),
        ("peak_rss_mb", rss_kib as f64 / 1024.0),
    ]);
    Ok(Outcome {
        correct: failed == 0 && metrics[0].1 > 0.0,
        attempted,
        failed,
        metrics,
    })
}

/// `paper`: FAST through `schedule_into` with one warm workspace.
fn in_process(args: &Args, items: &[Item]) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut failed = 0;
    let mut ws = Workspace::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        ws = Workspace::new();
        for it in items {
            let s = it.engine.schedule(&it.dag, it.procs, &mut ws);
            failed += u64::from(!it.matches(&s));
            it.engine.recycle(&mut ws, s);
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    if args.trace {
        let replay = replay::run(items, Duration::from_secs_f64(args.seconds))?;
        write_spans(args, &replay)?;
        let mut metrics = replay::layers(items, &replay);
        // No socket, queue or load generator on this workload's path.
        metrics.extend(PER_LAYER[26..].iter().map(|&(name, _)| (name, 0.0)));
        return Ok(Outcome {
            correct: failed == 0,
            attempted: replay.requests.max(1),
            failed,
            metrics,
        });
    }

    let mut k = 0;
    let windows = measure(args.seconds, |part| {
        let t0 = Instant::now();
        let mut lat_ns = Vec::new();
        while t0.elapsed() < part {
            let it = &items[k % items.len()];
            let t = Instant::now();
            let s = it.engine.schedule(&it.dag, it.procs, &mut ws);
            lat_ns.push(t.elapsed().as_nanos() as u64);
            failed += u64::from(!it.matches(&s));
            it.engine.recycle(&mut ws, s);
            k += 1;
        }
        (lat_ns, t0.elapsed())
    });
    let rss_kib = client::peak_rss_kib("/proc/self/status")?;
    let mut metrics = timing(args, &windows).to_vec();
    metrics.extend([
        ("nsl_mean", nsl_mean(items)),
        ("setup_s", median(setups) * windows[0].speed),
        ("peak_rss_mb", rss_kib as f64 / 1024.0),
    ]);
    Ok(Outcome {
        correct: failed == 0,
        attempted: k as u64,
        failed,
        metrics,
    })
}

/// Parts a measured run is cut into, with a host-speed probe between
/// consecutive parts and at both ends.
const WINDOWS: usize = 10;
/// Samples per latency slice: a p99 then has at least ten samples
/// beyond it in every slice.
const SLICE: usize = 1000;
/// Length of one host-speed probe.
const PROBE: Duration = Duration::from_millis(200);
/// The host speed timing figures are scaled to, in reference graphs
/// per second (see [`host_speed`]).
const NOMINAL_SPEED: f64 = 10_000.0;

/// One measured part of a run.
struct Window {
    /// Latency of each verified operation, in nanoseconds.
    lat_ns: Vec<u64>,
    elapsed: Duration,
    /// Host speed around the part, relative to [`NOMINAL_SPEED`].
    speed: f64,
}

/// How many reference graphs (from the benchmark's own generator, so
/// the probe does not change with the program) `WORKERS` threads build
/// per second while the program under test is idle.
fn host_speed() -> f64 {
    let start = Instant::now();
    let built: u64 = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..WORKERS as u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = corpus::Rng::new(t);
                    let mut n = 0;
                    while start.elapsed() < PROBE {
                        std::hint::black_box(corpus::layered(200, &mut rng));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("probe thread panicked"))
            .sum()
    });
    built as f64 / start.elapsed().as_secs_f64()
}

/// Run `part` (which returns the latencies of its operations and its
/// elapsed time) for `seconds` in total, cut into [`WINDOWS`] parts.
fn measure(seconds: f64, mut part: impl FnMut(Duration) -> (Vec<u64>, Duration)) -> Vec<Window> {
    let length = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut before = host_speed();
    (0..WINDOWS)
        .map(|_| {
            let (lat_ns, elapsed) = part(length);
            let after = host_speed();
            let speed = (before + after) / 2.0 / NOMINAL_SPEED;
            before = after;
            Window {
                lat_ns,
                elapsed,
                speed,
            }
        })
        .collect()
}

/// Throughput and latency quantiles at nominal host speed. A shared
/// host can run at well under its usual speed for tens of seconds, so
/// each part's wall time is scaled by the host speed measured around
/// it; a slow phase of the host then does not read as a slower
/// program.
fn timing(args: &Args, windows: &[Window]) -> [(&'static str, f64); 3] {
    let ops = windows.iter().map(|w| w.lat_ns.len()).sum::<usize>() as f64;
    let wall: f64 = windows.iter().map(|w| w.elapsed.as_secs_f64()).sum();
    let scaled: f64 = windows
        .iter()
        .map(|w| w.elapsed.as_secs_f64() * w.speed)
        .sum();
    let lat_us: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.lat_ns.iter().map(move |&ns| ns as f64 / 1e3 * w.speed))
        .collect();
    // Each quantile is the median over consecutive slices of at least
    // SLICE samples, so one stall moves one slice, not the figure.
    let slices = (lat_us.len() / SLICE).clamp(1, WINDOWS);
    let sliced = |q: f64| {
        let n = lat_us.len();
        median(
            (0..slices)
                .map(|i| {
                    quantile(
                        &mut lat_us[i * n / slices..(i + 1) * n / slices].to_vec(),
                        q,
                    )
                })
                .collect(),
        )
    };
    eprintln!(
        "{}: {ops} verified in {wall:.2} s ({:.1}/s); host at {:.2} of nominal speed",
        args.workload.name(),
        ops / wall,
        scaled / wall
    );
    [
        ("ops_per_s", ops / scaled),
        ("latency_p50_us", sliced(0.50)),
        ("latency_p99_us", sliced(0.99)),
    ]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Normalized schedule length averaged over the distinct requests.
fn nsl_mean(items: &[Item]) -> f64 {
    items.iter().map(|it| it.nsl).sum::<f64>() / items.len() as f64
}

/// Nearest-rank quantile (sorts `xs`).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn report_errors(what: &str, load: &client::Load) {
    if let Some(e) = &load.first_error {
        eprintln!("{what}: {} failed; first: {e}", load.failed);
    }
}

/// User plus system CPU time of this process, in seconds.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // After the command name: state is field 3, utime 14, stime 15.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("unreadable /proc/self/stat".to_string()),
    }
}

/// Build `casch` from the checkout and return its path.
fn build_casch() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "fastsched-casch", "--bin", "casch"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building casch failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(target.join("release").join("casch"))
}

fn write_spans(args: &Args, replay: &replay::Replay) -> Result<(), String> {
    let path = PathBuf::from(format!(
        "benchmark/out/spans-{}-{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    replay
        .tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Where and what was measured, printed next to the result.
fn provenance(args: &Args) -> String {
    let output = |cmd: &str, argv: &[&str]| {
        Command::new(cmd)
            .args(argv)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let host_cores = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |c| {
        c.lines().filter(|l| l.starts_with("processor")).count()
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host_cores\":{host_cores},\"nproc\":{nproc},\"server_workers\":{WORKERS},\
         \"client_connections\":{CONNS},\"client_threads\":{CONNS},\"window\":{},\
         \"commit\":\"{}\",\"rustc\":\"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        args.workload.window().unwrap_or(0),
        output("git", &["rev-parse", "HEAD"]),
        output("rustc", &["--version"]),
    )
}

/// A short run of every workload in both modes, plus checks on the
/// metric names and on corpus determinism.
fn smoke() -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let valid = |s: &str| {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-/%".contains(&b))
    };
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if !valid(name) || name.contains(['/', '%']) || !valid(unit) {
            return Err(format!("bad metric name or unit: {name} [{unit}]"));
        }
        if !declared.contains(&format!("\"name\": \"{name}\"")) {
            return Err(format!("{name} is not declared in BENCHMARK.json"));
        }
    }
    for w in Workload::ALL {
        if !declared.contains(&format!("\"name\": \"{}\"", w.name())) {
            return Err(format!(
                "workload {} is not declared in BENCHMARK.json",
                w.name()
            ));
        }
        let fingerprint = |seed| -> Result<Vec<u8>, String> {
            let mut out = Vec::new();
            for it in corpus::build(w, seed)? {
                out.extend(format!("{:?}{:?}", it.graph.weights, it.graph.edges).bytes());
                out.extend(&it.suffix);
                out.extend(&it.expected);
            }
            Ok(out)
        };
        if fingerprint(7)? != fingerprint(7)? {
            return Err(format!(
                "{}: the same seed gave different corpora",
                w.name()
            ));
        }
        if fingerprint(7)? == fingerprint(8)? {
            return Err(format!(
                "{}: different seeds gave the same corpus",
                w.name()
            ));
        }
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 7,
                seconds: 1.0,
                trace,
            };
            let outcome = run(&args)?;
            let registry: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let line = outcome.json(registry)?;
            if !outcome.correct || outcome.failed > 0 {
                return Err(format!("{} trace={trace}: incorrect run: {line}", w.name()));
            }
            eprintln!("smoke {} trace={trace}: {line}", w.name());
        }
    }
    Ok(())
}
