//! Integration tests for the `casch` CLI binary.

use std::process::Command;

fn casch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_casch"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = casch().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = casch().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_info_schedule_roundtrip() {
    let dir = std::env::temp_dir().join(format!("casch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("gauss.json");

    // generate
    let out = casch()
        .args(["generate", "--app", "gauss", "--size", "4", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dag_path.exists());

    // info
    let out = casch()
        .args(["info", "--dag"])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes:        20"), "{text}");
    assert!(text.contains("CP length"));

    // dot
    let out = casch()
        .args(["dot", "--dag"])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));

    // schedule with gantt
    let out = casch()
        .args([
            "schedule", "--algo", "fast", "--procs", "8", "--gantt", "--dag",
        ])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("algorithm:        FAST"));
    assert!(text.contains("schedule length:"));
    assert!(text.contains("PE0"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schedule_simulate_roundtrip_with_svg() {
    let dir = std::env::temp_dir().join(format!("casch-sim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("fft.json");
    let sched_path = dir.join("sched.json");
    let svg_path = dir.join("gantt.svg");

    let out = casch()
        .args(["generate", "--app", "fft", "--size", "16", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = casch()
        .args(["schedule", "--algo", "dcp", "--procs", "6"])
        .args(["--dag"])
        .arg(&dag_path)
        .args(["--out-schedule"])
        .arg(&sched_path)
        .args(["--svg"])
        .arg(&svg_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(sched_path.exists() && svg_path.exists());
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));

    // Re-simulate the saved schedule on a hypercube with overheads.
    let out = casch()
        .args(["simulate", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .args(["--topology", "hypercube", "--send-overhead", "10"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("measured execution:"));
    assert!(text.contains("slowdown:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extension_algorithms_are_reachable_from_cli() {
    let dir = std::env::temp_dir().join(format!("casch-ext-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("g.json");
    casch()
        .args(["generate", "--app", "gauss", "--size", "4", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();
    for algo in ["ish", "ez", "lc", "fast-sa", "hlfet", "mcp", "heft"] {
        let out = casch()
            .args(["schedule", "--algo", algo, "--procs", "8", "--dag"])
            .arg(&dag_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_accepts_legal_schedules_and_rejects_corrupted_ones() {
    let dir = std::env::temp_dir().join(format!("casch-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("g.json");
    let sched_path = dir.join("sched.json");
    let report_path = dir.join("report.json");

    casch()
        .args(["generate", "--app", "gauss", "--size", "4", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();
    let out = casch()
        .args(["schedule", "--algo", "fast", "--procs", "4", "--dag"])
        .arg(&dag_path)
        .args(["--out-schedule"])
        .arg(&sched_path)
        .output()
        .unwrap();
    assert!(out.status.success());

    // A legal schedule verifies under the homogeneous model.
    let out = casch()
        .args(["verify", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("OK:"), "{text}");
    assert!(text.contains("makespan"), "{text}");

    // Corrupt the JSON by swapping the first task's start and finish
    // keys (a reversed-duration task): verify must reject with a
    // structured violation and a nonzero exit.
    let json = std::fs::read_to_string(&sched_path).unwrap();
    let corrupted = json
        .replacen("\"start\"", "\"__tmp__\"", 1)
        .replacen("\"finish\"", "\"start\"", 1)
        .replacen("\"__tmp__\"", "\"finish\"", 1);
    assert_ne!(json, corrupted, "corruption must land");
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, corrupted).unwrap();
    let out = casch()
        .args(["verify", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&bad_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("INVALID:"), "{text}");

    // A homogeneous schedule fails under a 2x-speed hetero model
    // (durations are nominal, the model expects them halved)…
    let out = casch()
        .args(["verify", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .args(["--speeds", "200,200,200,200"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("INVALID:"));

    // …and passes when every speed is nominal.
    let out = casch()
        .args(["verify", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .args(["--speeds", "100,100,100,100"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Too few --speeds entries for the schedule is a usage error.
    let out = casch()
        .args(["verify", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .args(["--speeds", "100"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--speeds"));

    // Report cross-check: a matching simulator report is consistent…
    let out = casch()
        .args(["simulate", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .args(["--out-report"])
        .arg(&report_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = casch()
        .args(["verify", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .args(["--report"])
        .arg(&report_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("report is consistent"));

    // …and a report for a different schedule is caught.
    let other_sched = dir.join("other.json");
    let out = casch()
        .args(["schedule", "--algo", "hlfet", "--procs", "2", "--dag"])
        .arg(&dag_path)
        .args(["--out-schedule"])
        .arg(&other_sched)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = casch()
        .args(["verify", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&other_sched)
        .args(["--report"])
        .arg(&report_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("INVALID:"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `casch batch` over a directory and a manifest: one NDJSON object
/// per DAG, schema-complete, with makespans identical to per-call
/// `casch schedule` (the shared workspace must not change results).
#[test]
fn batch_emits_schema_complete_ndjson_matching_per_call_runs() {
    use serde::Value;

    let dir = std::env::temp_dir().join(format!("casch-batch-{}", std::process::id()));
    let dag_dir = dir.join("dags");
    std::fs::create_dir_all(&dag_dir).unwrap();

    for (app, size, name) in [
        ("gauss", "4", "a-gauss.json"),
        ("fft", "8", "b-fft.json"),
        ("random", "30", "c-rand.json"),
    ] {
        let out = casch()
            .args(["generate", "--app", app, "--size", size, "--out"])
            .arg(dag_dir.join(name))
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    // A non-DAG file in the directory must be ignored.
    std::fs::write(dag_dir.join("notes.txt"), "not a dag").unwrap();

    let out = casch()
        .args(["batch", "--algo", "fast", "--procs", "8", "--dir"])
        .arg(&dag_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ndjson = String::from_utf8_lossy(&out.stdout).to_string();
    let all_lines: Vec<&str> = ndjson.lines().collect();
    // 3 per-DAG lines plus the aggregate summary line.
    assert_eq!(all_lines.len(), 4, "{ndjson}");
    let (summary, lines) = all_lines.split_last().unwrap();

    let field = |line: &str, key: &str| -> Value {
        let doc: Value = serde_json::from_str(line).expect("each line must be JSON");
        let Value::Object(pairs) = doc else {
            panic!("line must be an object")
        };
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing {key} in {line}"))
    };
    for line in lines {
        for key in [
            "dag", "nodes", "edges", "algo", "procs", "threads", "makespan", "seconds",
        ] {
            field(line, key);
        }
        assert_eq!(field(line, "algo"), Value::String("FAST".to_string()));
        assert_eq!(field(line, "procs"), Value::UInt(8));
        assert_eq!(field(line, "threads"), Value::UInt(1));
    }
    // The summary line aggregates the whole batch.
    assert_eq!(field(summary, "summary"), Value::Bool(true));
    assert_eq!(field(summary, "dags"), Value::UInt(3));
    assert_eq!(field(summary, "algo"), Value::String("FAST".to_string()));
    field(summary, "seconds");
    field(summary, "dags_per_sec");
    // --dir output is sorted by file name.
    assert!(matches!(field(lines[0], "dag"), Value::String(s) if s.ends_with("a-gauss.json")));
    assert!(matches!(field(lines[2], "dag"), Value::String(s) if s.ends_with("c-rand.json")));

    // Batch makespans equal the per-call command's.
    for line in lines {
        let Value::String(dag_path) = field(line, "dag") else {
            panic!("dag must be a string")
        };
        let out = casch()
            .args(["schedule", "--algo", "fast", "--procs", "8", "--dag"])
            .arg(&dag_path)
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let per_call = text
            .lines()
            .find_map(|l| l.strip_prefix("schedule length:"))
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap();
        assert_eq!(field(line, "makespan"), Value::UInt(per_call), "{dag_path}");
    }

    // Manifest mode (with blanks and comments) + --out to a file.
    let manifest = dir.join("manifest.txt");
    std::fs::write(
        &manifest,
        format!(
            "# batch manifest\n\n{}\n{}\n",
            dag_dir.join("c-rand.json").display(),
            dag_dir.join("a-gauss.json").display()
        ),
    )
    .unwrap();
    let out_path = dir.join("batch.ndjson");
    let out = casch()
        .args(["batch", "--algo", "dls", "--procs", "4", "--manifest"])
        .arg(&manifest)
        .args(["--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).unwrap();
    // 2 per-DAG lines plus the summary.
    assert_eq!(written.lines().count(), 3);
    for line in written.lines() {
        assert_eq!(field(line, "algo"), Value::String("DLS".to_string()));
    }

    // Usage errors: neither or both sources, and an empty directory.
    let out = casch().args(["batch", "--algo", "fast"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dir or --manifest"));
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = casch()
        .args(["batch", "--algo", "fast", "--dir"])
        .arg(&empty)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no DAG files"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `casch batch --threads` shards the batch without changing any
/// result: per-DAG makespans at 2 and 4 workers are identical to the
/// serial run, lines stay in sorted input order, and each line carries
/// the requested thread count.
#[test]
fn batch_threads_shard_without_changing_results() {
    use serde::Value;

    let dir = std::env::temp_dir().join(format!("casch-batch-par-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (seed, name) in [
        ("1", "a.json"),
        ("2", "b.json"),
        ("3", "c.json"),
        ("4", "d.json"),
        ("5", "e.json"),
    ] {
        let out = casch()
            .args([
                "generate", "--app", "random", "--size", "40", "--seed", seed, "--out",
            ])
            .arg(dir.join(name))
            .output()
            .unwrap();
        assert!(out.status.success());
    }

    let field = |line: &str, key: &str| -> Value {
        let doc: Value = serde_json::from_str(line).expect("each line must be JSON");
        let Value::Object(pairs) = doc else {
            panic!("line must be an object")
        };
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing {key} in {line}"))
    };
    // Per-DAG (dag, makespan) pairs, summary line stripped.
    let run = |threads: &str| -> Vec<(Value, Value)> {
        let out = casch()
            .args([
                "batch",
                "--algo",
                "fast",
                "--procs",
                "8",
                "--threads",
                threads,
                "--dir",
            ])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let all: Vec<&str> = text.lines().collect();
        assert_eq!(all.len(), 6, "5 DAG lines + summary: {text}");
        let (summary, lines) = all.split_last().unwrap();
        let want_threads = Value::UInt(threads.parse().unwrap());
        assert_eq!(field(summary, "threads"), want_threads.clone());
        lines
            .iter()
            .map(|l| {
                assert_eq!(field(l, "threads"), want_threads.clone());
                (field(l, "dag"), field(l, "makespan"))
            })
            .collect()
    };

    let serial = run("1");
    for threads in ["2", "4"] {
        assert_eq!(run(threads), serial, "--threads {threads} diverged");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_runs_all_paper_algorithms() {
    let out = casch()
        .args(["compare", "--app", "fft", "--size", "16"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for algo in ["FAST", "DSC", "MD", "ETF", "DLS"] {
        assert!(text.contains(algo), "missing {algo}: {text}");
    }
}

#[test]
fn schedule_rejects_unknown_algorithm() {
    let out = casch()
        .args([
            "schedule",
            "--algo",
            "quantum",
            "--dag",
            "/nonexistent.json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn generate_rejects_unknown_app() {
    let out = casch()
        .args(["generate", "--app", "doom", "--size", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown app"));
}

#[test]
fn gantt_width_flag_is_clamped_and_requires_gantt() {
    let dir = std::env::temp_dir().join(format!("casch-gw-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("g.json");
    casch()
        .args(["generate", "--app", "gauss", "--size", "4", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();

    let chart = |width: &str| {
        let out = casch()
            .args([
                "schedule",
                "--algo",
                "fast",
                "--procs",
                "8",
                "--gantt",
                "--gantt-width",
                width,
                "--dag",
            ])
            .arg(&dag_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "width {width}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let narrow = chart("30");
    let wide = chart("120");
    assert!(narrow.contains("PE0") && wide.contains("PE0"));
    // Only the chart's bar lines (PE-prefixed): the header includes a
    // wall-clock scheduling-time line whose printed length varies.
    let widest_line = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("PE"))
            .map(str::len)
            .max()
            .unwrap_or(0)
    };
    assert!(
        widest_line(&wide) > widest_line(&narrow),
        "wider chart must produce longer lines"
    );
    // Out-of-range widths are clamped, not rejected.
    let tiny = chart("1");
    assert_eq!(widest_line(&tiny), widest_line(&chart("20")));

    // --gantt-width alone is a user error.
    let out = casch()
        .args([
            "schedule",
            "--algo",
            "fast",
            "--gantt-width",
            "100",
            "--dag",
        ])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--gantt"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance bar for the Perfetto exporter: a simulator run on a
/// 16-processor random DAG must produce a JSON document that parses,
/// whose slices are monotone and non-overlapping per track, and whose
/// flow arrows pair up start/finish with consistent timestamps.
#[test]
fn perfetto_export_from_simulator_round_trips() {
    use serde::Value;

    let dir = std::env::temp_dir().join(format!("casch-pf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("rand.json");
    let sched_path = dir.join("sched.json");
    let trace_path = dir.join("sim.perfetto.json");

    casch()
        .args([
            "generate", "--app", "random", "--size", "80", "--seed", "7", "--out",
        ])
        .arg(&dag_path)
        .output()
        .unwrap();
    let out = casch()
        .args(["schedule", "--algo", "fast", "--procs", "16", "--dag"])
        .arg(&dag_path)
        .args(["--out-schedule"])
        .arg(&sched_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = casch()
        .args(["simulate", "--dag"])
        .arg(&dag_path)
        .args(["--schedule"])
        .arg(&sched_path)
        .args(["--perfetto"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Round-trip: the document must parse as JSON.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc: Value = serde_json::from_str(&text).expect("perfetto output must be valid JSON");
    let Value::Object(fields) = &doc else {
        panic!("top level must be an object")
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents array");
    let Value::Array(events) = events else {
        panic!("traceEvents must be an array")
    };
    assert!(!events.is_empty());

    let str_of = |e: &Value, key: &str| -> Option<String> {
        let Value::Object(pairs) = e else { return None };
        pairs.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let Value::String(s) = v {
                Some(s.clone())
            } else {
                None
            }
        })
    };
    let num_of = |e: &Value, key: &str| -> Option<u64> {
        let Value::Object(pairs) = e else { return None };
        pairs.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let Value::UInt(x) = v {
                Some(*x)
            } else {
                None
            }
        })
    };

    // Per-track slices must be monotone and non-overlapping.
    let mut tracks: std::collections::HashMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    let mut slices = 0usize;
    for e in events {
        if str_of(e, "ph").as_deref() == Some("X") {
            slices += 1;
            let key = (num_of(e, "pid").unwrap(), num_of(e, "tid").unwrap());
            tracks
                .entry(key)
                .or_default()
                .push((num_of(e, "ts").unwrap(), num_of(e, "dur").unwrap()));
        }
    }
    assert!(slices >= 80, "one slice per task, {slices} found");
    for ((pid, tid), mut spans) in tracks {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "overlapping slices on track ({pid},{tid}): {w:?}"
            );
        }
    }

    // Flow events must pair up: each id has exactly one start and one
    // finish, and the finish never precedes the start.
    let mut flows: std::collections::HashMap<u64, (Vec<u64>, Vec<u64>)> =
        std::collections::HashMap::new();
    for e in events {
        match str_of(e, "ph").as_deref() {
            Some("s") => flows
                .entry(num_of(e, "id").unwrap())
                .or_default()
                .0
                .push(num_of(e, "ts").unwrap()),
            Some("f") => flows
                .entry(num_of(e, "id").unwrap())
                .or_default()
                .1
                .push(num_of(e, "ts").unwrap()),
            _ => {}
        }
    }
    assert!(!flows.is_empty(), "a 16-processor run must send messages");
    for (id, (starts, finishes)) in flows {
        assert_eq!(starts.len(), 1, "flow {id} must start exactly once");
        assert_eq!(finishes.len(), 1, "flow {id} must finish exactly once");
        assert!(
            starts[0] <= finishes[0],
            "flow {id} finishes before it starts"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schedule_perfetto_export_is_valid_json() {
    use serde::Value;
    let dir = std::env::temp_dir().join(format!("casch-spf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("g.json");
    let trace_path = dir.join("sched.perfetto.json");
    casch()
        .args(["generate", "--app", "fft", "--size", "16", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();
    let out = casch()
        .args(["schedule", "--algo", "fast", "--procs", "8", "--dag"])
        .arg(&dag_path)
        .args(["--perfetto"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    assert!(matches!(doc, Value::Object(_)));
    assert!(text.contains("\"ph\":\"X\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_localizes_schedule_and_report_divergence() {
    let dir = std::env::temp_dir().join(format!("casch-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("g.json");
    casch()
        .args(["generate", "--app", "gauss", "--size", "5", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();
    let sched = |algo: &str, out_path: &std::path::Path| {
        let out = casch()
            .args(["schedule", "--algo", algo, "--procs", "8", "--dag"])
            .arg(&dag_path)
            .args(["--out-schedule"])
            .arg(out_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let a = dir.join("fast.json");
    let b = dir.join("heft.json");
    sched("fast", &a);
    sched("heft", &b);

    // Two different algorithms: the diff localizes the divergence.
    let out = casch()
        .args(["diff", "--a"])
        .arg(&a)
        .args(["--b"])
        .arg(&b)
        .args(["--dag"])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan:"), "{text}");

    // A schedule against itself is identical.
    let out = casch()
        .args(["diff", "--a"])
        .arg(&a)
        .args(["--b"])
        .arg(&a)
        .args(["--dag"])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("identical"));

    // Execution reports diff too, without needing --dag.
    let report = |hop: &str, out_path: &std::path::Path| {
        let out = casch()
            .args(["simulate", "--dag"])
            .arg(&dag_path)
            .args(["--schedule"])
            .arg(&a)
            .args(["--hop", hop, "--out-report"])
            .arg(out_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let ra = dir.join("ra.json");
    let rb = dir.join("rb.json");
    report("0", &ra);
    report("40", &rb);
    let out = casch()
        .args(["diff", "--a"])
        .arg(&ra)
        .args(["--b"])
        .arg(&rb)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("execution time:"));

    // Mixing payload kinds is rejected.
    let out = casch()
        .args(["diff", "--a"])
        .arg(&a)
        .args(["--b"])
        .arg(&ra)
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

/// `casch explain` must answer from the recorded provenance: every
/// candidate processor probed, the chosen one, and the local-search
/// transfers.
#[test]
fn explain_reports_candidates_and_transfers() {
    let dir = std::env::temp_dir().join(format!("casch-ex-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag_path = dir.join("g.json");
    casch()
        .args(["generate", "--app", "gauss", "--size", "5", "--out"])
        .arg(&dag_path)
        .output()
        .unwrap();

    // Re-run mode: schedule inline and explain one node.
    let out = casch()
        .args([
            "explain", "--algo", "fast", "--procs", "8", "--node", "0", "--dag",
        ])
        .arg(&dag_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("placed on"), "{text}");
    assert!(text.contains("candidates probed:"), "{text}");
    assert!(text.contains("<- chosen"), "{text}");

    // File mode: explain from a saved NDJSON trace.
    let trace_path = dir.join("trace.ndjson");
    let out = casch()
        .args(["schedule", "--algo", "fast", "--procs", "8", "--dag"])
        .arg(&dag_path)
        .args(["--trace"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = casch()
        .args(["explain", "--node", "3", "--in"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("node 3 placed on"));

    // Without --node, summarize what the trace can explain.
    let out = casch()
        .args(["explain", "--in"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("placement provenance for"), "{text}");
    assert!(!text.contains("for 0 node(s)"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_reports_rejected_inputs_without_aborting() {
    use serde::Value;

    let dir = std::env::temp_dir().join(format!("casch-batch-rej-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = casch()
        .args(["generate", "--app", "gauss", "--size", "4", "--out"])
        .arg(dir.join("good.json"))
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(dir.join("broken.json"), "this is not json").unwrap();
    std::fs::write(dir.join("broken.tg"), "nor a task graph {{{").unwrap();

    let out = casch()
        .args(["batch", "--algo", "fast", "--procs", "4", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    // Two bad files must not abort the batch.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let field = |line: &str, key: &str| -> Option<Value> {
        let Value::Object(pairs) = serde_json::from_str(line).expect("line must be JSON") else {
            panic!("line must be an object")
        };
        pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let ndjson = String::from_utf8_lossy(&out.stdout).to_string();
    let lines: Vec<&str> = ndjson.lines().collect();
    // 2 rejected rows + 1 result row + the summary.
    assert_eq!(lines.len(), 4, "{ndjson}");
    let rejected: Vec<&&str> = lines
        .iter()
        .filter(|l| field(l, "rejected") == Some(Value::Bool(true)))
        .collect();
    assert_eq!(rejected.len(), 2, "{ndjson}");
    for line in &rejected {
        assert!(matches!(field(line, "dag"), Some(Value::String(_))));
        assert!(
            matches!(field(line, "error"), Some(Value::String(e)) if !e.is_empty()),
            "rejected rows carry the reason: {line}"
        );
    }
    let summary = lines.last().unwrap();
    assert_eq!(field(summary, "summary"), Some(Value::Bool(true)));
    assert_eq!(field(summary, "dags"), Some(Value::UInt(1)));
    assert_eq!(field(summary, "rejected"), Some(Value::UInt(2)));
    // The good DAG is still scheduled normally.
    let scheduled = lines
        .iter()
        .find(|l| field(l, "makespan").is_some())
        .expect("one scheduled row");
    assert!(matches!(field(scheduled, "dag"), Some(Value::String(s)) if s.ends_with("good.json")));

    // A batch with no valid inputs at all is still an error.
    std::fs::remove_file(dir.join("good.json")).unwrap();
    let out = casch()
        .args(["batch", "--algo", "fast", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("rejected"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The checked-in fixture DAGs.
fn fixtures() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fixtures")
}

const HIER: &str = "hier:4+4@0,1,1@50,2,1";

/// `--procs 0` is refused once, by the machine resolver: every
/// scheduling command exits 1 with a clean `error:` line, whatever
/// model flags ride along.
#[test]
fn procs_zero_is_a_clean_error() {
    let dag = fixtures().join("gauss5.json");
    let dir = fixtures();
    let runs: [(&[&str], &std::path::Path); 4] = [
        (
            &["schedule", "--algo", "fast", "--procs", "0", "--dag"],
            &dag,
        ),
        (
            &[
                "schedule",
                "--algo",
                "fast",
                "--comm",
                "alpha-beta:25,3,2",
                "--procs",
                "0",
                "--dag",
            ],
            &dag,
        ),
        (
            &[
                "schedule",
                "--algo",
                "fast",
                "--mem-caps",
                "uniform:1000",
                "--procs",
                "0",
                "--dag",
            ],
            &dag,
        ),
        (&["batch", "--algo", "fast", "--procs", "0", "--dir"], &dir),
    ];
    for (args, path) in runs {
        let out = casch().args(args).arg(path).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: `procs` must be at least 1"),
            "{args:?}: {stderr}"
        );
    }
}

/// The tables that fix the processor count (a hier group table, a
/// per-processor `--mem-caps` list) must agree with `--procs` and with
/// each other, and `--mem-caps` needs an algorithm whose core prices
/// capacities.
#[test]
fn model_flags_are_reconciled_with_procs() {
    let dag = fixtures().join("gauss5.json");
    let cases: [(&[&str], &str); 4] = [
        (
            &["--algo", "fast", "--procs", "5", "--comm", HIER],
            "`procs` (5) disagrees with the hier group table (8 processor(s))",
        ),
        (
            &["--algo", "fast", "--procs", "2", "--mem-caps", "10,10,10"],
            "`procs` (2) disagrees with `mem_caps` length (3)",
        ),
        (
            &["--algo", "heft", "--comm", HIER, "--mem-caps", "10,10,10"],
            "`mem_caps` length (3) disagrees with the hier group table (8 processor(s))",
        ),
        (
            &["--algo", "etf", "--mem-caps", "uniform:10"],
            "algorithm `etf` has no scheduling path for memory capacities",
        ),
    ];
    for (args, needle) in cases {
        let out = casch()
            .arg("schedule")
            .args(args)
            .arg("--dag")
            .arg(&dag)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// A command that parsed but failed prints exactly one `error:` line;
/// the usage text follows only a malformed command line (a flag
/// without its value, an unknown command). A refused algorithm/machine
/// pair reads the same in `schedule`, `batch` and `explain`.
#[test]
fn failed_commands_print_one_error_line() {
    let dag = fixtures().join("gauss5.json");
    let (dir, _) = temp_dag("refused", &std::fs::read_to_string(&dag).unwrap());
    for (cmd, input, path) in [
        ("schedule", "--dag", &dag),
        ("explain", "--dag", &dag),
        ("batch", "--dir", &dir),
    ] {
        let out = casch()
            .args([cmd, "--algo", "etf", "--mem-caps", "uniform:50", input])
            .arg(path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert_eq!(
            stderr, "error: algorithm `etf` has no scheduling path for memory capacities\n",
            "{cmd}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    for args in [&["schedule", "--dag"][..], &["frobnicate"]] {
        let out = casch().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
}

/// Each command accepts only the flags it reads: any other flag is one
/// `error:` line naming the flag and the command (the usage text
/// follows), exit 1, and the command never runs. The refused `serve`
/// would fail to bind if it ran.
#[test]
fn unknown_flags_are_refused_per_command() {
    let dag = fixtures().join("gauss5.json");
    let dag = dag.to_str().unwrap();
    for (args, flag) in [
        (
            &["schedule", "--dag", dag, "--algo", "fast", "--prox", "4"][..],
            "--prox",
        ),
        (
            &["serve", "--procs", "4", "--addr", "256.0.0.1:1"],
            "--procs",
        ),
        (
            &["compare", "--app", "gauss", "--size", "4", "--gantt"],
            "--gantt",
        ),
        (&["info", "--dag", dag, "--algo", "fast"], "--algo"),
    ] {
        let out = casch().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        let error = format!("error: unknown flag `{flag}` for `casch {}`\n", args[0]);
        assert!(stderr.starts_with(&error), "{args:?}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
}

/// A flag or switch given twice is one `error:` line naming it and the
/// command (the usage text follows), exit 1, and the command never
/// runs: no value silently wins.
#[test]
fn repeated_flags_are_refused() {
    let dag = fixtures().join("gauss5.json");
    let dag = dag.to_str().unwrap();
    for (args, flag) in [
        (
            &[
                "schedule", "--dag", dag, "--algo", "fast", "--procs", "2", "--procs", "8",
            ][..],
            "--procs",
        ),
        (
            &[
                "schedule", "--dag", dag, "--gantt", "--algo", "fast", "--gantt",
            ],
            "--gantt",
        ),
        (&["info", "--dag", dag, "--dag", dag], "--dag"),
    ] {
        let out = casch().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        let error = format!("error: flag `{flag}` given twice for `casch {}`\n", args[0]);
        assert!(stderr.starts_with(&error), "{args:?}: {stderr}");
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
}

/// A model batch shards like a plain one: the hier table fixes every
/// row's processor count, and two workers reproduce the serial
/// makespans.
#[test]
fn hier_batch_threads_keep_makespans() {
    use serde::Value;

    let field = |line: &str, key: &str| -> Value {
        let Value::Object(pairs) = serde_json::from_str(line).expect("line must be JSON") else {
            panic!("line must be an object")
        };
        pairs
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing {key} in {line}"))
    };
    let run = |threads: &str| -> Vec<(Value, Value)> {
        let out = casch()
            .args([
                "batch",
                "--algo",
                "fast",
                "--comm",
                HIER,
                "--threads",
                threads,
            ])
            .arg("--dir")
            .arg(fixtures())
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let lines: Vec<&str> = text.lines().collect();
        let (summary, rows) = lines.split_last().expect("summary line");
        assert_eq!(field(summary, "rejected"), Value::UInt(0), "{text}");
        assert_eq!(rows.len(), 4, "one row per fixture: {text}");
        rows.iter()
            .map(|l| {
                assert_eq!(field(l, "procs"), Value::UInt(8), "{l}");
                assert_eq!(field(l, "algo"), Value::String("FAST".into()), "{l}");
                (field(l, "dag"), field(l, "makespan"))
            })
            .collect()
    };
    assert_eq!(run("2"), run("1"), "--threads 2 diverged");
}

/// A model run records into the search trace like a plain one, so
/// `casch explain` can answer from it.
#[test]
fn comm_schedule_trace_feeds_explain() {
    let dir = std::env::temp_dir().join(format!("casch-comm-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("t.ndjson");
    let out = casch()
        .args(["schedule", "--algo", "fast", "--comm", "alpha-beta:25,3,2"])
        .arg("--dag")
        .arg(fixtures().join("gauss5.json"))
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = casch()
        .args(["explain", "--node", "0", "--in"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("node 0 placed on P"), "{text}");
    assert!(text.contains("<- chosen"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A DAG file of its own in a fresh temp dir; returns (dir, file).
fn temp_dag(tag: &str, json: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("casch-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.json"));
    std::fs::write(&path, json).unwrap();
    (dir, path)
}

/// Node `a` has a 50-unit footprint: no lane of capacity 10 holds it.
const INFEASIBLE_DAG: &str = r#"{"nodes":[{"name":"a","weight":5,"mem":50},
    {"name":"b","weight":5,"mem":1}],"edges":[{"src":0,"dst":1,"cost":1}]}"#;

/// A 3-node chain whose middle weight is u64::MAX - 5.
const OVERFLOW_DAG: &str = r#"{"nodes":[{"name":"a","weight":3},
    {"name":"b","weight":18446744073709551610},{"name":"c","weight":2}],
    "edges":[{"src":0,"dst":1,"cost":1},{"src":1,"dst":2,"cost":1}]}"#;

/// Run `casch args...` and check it fails with exit 1, an `error:`
/// line carrying `needle`, and no panic.
fn assert_clean_error(args: &[&str], path: &std::path::Path, needle: &str) {
    let out = casch().args(args).arg(path).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// A node no processor has room for is a typed error: `schedule` and
/// `explain` exit 1, and a batch gives the file a `rejected` row.
#[test]
fn memory_infeasible_instances_are_clean_errors() {
    let (dir, dag) = temp_dag("infeasible", INFEASIBLE_DAG);
    let needle = "no processor can hold node n0 (footprint 50)";
    let caps = ["--mem-caps", "uniform:10", "--dag"];
    for algo in ["fast", "heft"] {
        let args = [&["schedule", "--algo", algo][..], &caps].concat();
        assert_clean_error(&args, &dag, needle);
    }
    let args = [&["explain", "--algo", "fast"][..], &caps].concat();
    assert_clean_error(&args, &dag, needle);

    // gauss5 carries no footprints, so it still schedules.
    std::fs::copy(fixtures().join("gauss5.json"), dir.join("gauss5.json")).unwrap();
    let out = casch()
        .args([
            "batch",
            "--algo",
            "fast",
            "--mem-caps",
            "uniform:10",
            "--dir",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    let rejected: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"rejected\":true"))
        .collect();
    assert_eq!(rejected.len(), 1, "{text}");
    assert!(
        rejected[0].contains("infeasible.json") && rejected[0].contains(needle),
        "{text}"
    );
    assert!(
        text.contains("\"summary\":true,\"dags\":1,\"rejected\":1"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Weights whose times cannot be represented are refused before any
/// scheduler runs, whatever the algorithm.
#[test]
fn overflowing_weights_are_clean_errors() {
    let (dir, dag) = temp_dag("overflow", OVERFLOW_DAG);
    for algo in ["fast", "heft", "dsc", "mcp"] {
        assert_clean_error(
            &["schedule", "--algo", algo, "--dag"],
            &dag,
            "time arithmetic overflows u64",
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `bnb` searches at most 16 nodes: a larger DAG is refused with a
/// typed error before any search, never a worker panic.
#[test]
fn oversized_bnb_runs_are_clean_errors() {
    let gauss5 = fixtures().join("gauss5.json");
    let needle = "algorithm `bnb` accepts at most 16 nodes; the DAG has 27";
    for cmd in ["schedule", "explain"] {
        assert_clean_error(&[cmd, "--algo", "bnb", "--dag"], &gauss5, needle);
    }
}

/// `compare` builds its own scheduler list, so the resolver never sees
/// its `--procs`; the entry point refuses 0 with the same message.
#[test]
fn compare_procs_zero_is_a_clean_error() {
    let needle = "error: `procs` must be at least 1";
    let runs: [&[&str]; 2] = [
        &["compare", "--app", "gauss", "--size", "4", "--procs", "0"],
        &[
            "compare",
            "--procs",
            "0",
            "--dag",
            "results/fixtures/gauss5.json",
        ],
    ];
    for args in runs {
        let out = casch()
            .current_dir(fixtures().join("../.."))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(needle), "{args:?}: {stderr}");
    }
}

/// The shipped server answers both defects, and a DAG too large for
/// `bnb`, with a typed error and writes no panic to its stderr.
#[test]
fn serve_answers_infeasible_and_overflow_without_panicking() {
    use std::io::{BufRead, BufReader, Write};
    let mut child = casch()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    let gauss5 = std::fs::read_to_string(fixtures().join("gauss5.json")).unwrap();
    let lines = format!(
        "{{\"op\":\"schedule\",\"id\":1,\"algo\":\"fast\",\"mem_caps\":10,\"dag\":{}}}\n\
         {{\"op\":\"schedule\",\"id\":2,\"algo\":\"fast\",\"dag\":{}}}\n\
         {{\"op\":\"schedule\",\"id\":3,\"algo\":\"bnb\",\"dag\":{}}}\n",
        squash(INFEASIBLE_DAG),
        squash(OVERFLOW_DAG),
        squash(&gauss5)
    );
    stream.write_all(lines.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut answers = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        answers.push(line);
    }
    answers.sort();
    assert!(
        answers[0].contains("\"id\":1") && answers[0].contains("\"error\":\"infeasible: "),
        "{answers:?}"
    );
    assert!(
        answers[1].contains("\"id\":2") && answers[1].contains("\"error\":\"parse: "),
        "{answers:?}"
    );
    assert!(
        answers[2].contains("\"id\":3") && answers[2].contains("\"error\":\"too_large: "),
        "{answers:?}"
    );
    stream
        .write_all(b"{\"op\":\"shutdown\",\"id\":4}\n")
        .unwrap();
    let status = child.wait().unwrap();
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).unwrap();
    assert!(status.success(), "{rest}");
    assert!(!rest.contains("panicked"), "{rest}");
}

/// A reader that takes one line and closes the pipe (`casch ... |
/// head -1`) ends the command quietly: exit 0, nothing on stderr. The
/// generated DAG and its DOT rendering outgrow a pipe buffer, so those
/// writes are certain to meet the closed pipe.
#[test]
fn closed_stdout_ends_commands_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let (dir, big) = temp_dag("pipe", "{}");
    let out = casch()
        .args(["generate", "--app", "random", "--size", "400", "--out"])
        .arg(&big)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let big = big.to_str().unwrap();
    for args in [
        &["generate", "--app", "random", "--size", "400"][..],
        &["dot", "--dag", big],
        &[
            "schedule", "--dag", big, "--algo", "fast", "--procs", "4", "--gantt",
        ],
    ] {
        let mut child = casch()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(!line.is_empty(), "{args:?}: no first line");
        // The reader is dropped here, closing the pipe.
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
