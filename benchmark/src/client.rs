//! The `casch serve` child process and the closed-loop client that
//! drives it.
//!
//! The client stays off the code under test: request lines were
//! rendered during set-up, and responses are matched by scanning for
//! `"id":` and comparing the raw `"makespan":…,"placements":[…]` bytes
//! with the expected ones. No protocol type or JSON parser of the
//! program runs here, so a faster parser in the program cannot speed
//! up the load generator.

use crate::corpus::{Item, PREFIX};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A running `casch serve`, killed on drop if it has not exited.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: String,
    pub metrics_addr: String,
}

impl Server {
    /// Spawn `casch serve` on free loopback ports and wait until it
    /// announces both of them.
    pub fn spawn(bin: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
            ])
            .args(["--threads", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child,
            stderr,
            addr: String::new(),
            metrics_addr: String::new(),
        };
        let mut line = String::new();
        while server.addr.is_empty() {
            line.clear();
            if server
                .stderr
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err("casch serve exited before listening".to_string());
            }
            if let Some(rest) = line.split("http://").nth(1) {
                server.metrics_addr = rest.split("/metrics").next().unwrap_or("").to_string();
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest.split(' ').next().unwrap_or("").to_string();
            }
        }
        if server.metrics_addr.is_empty() {
            return Err("casch serve announced no metrics listener".to_string());
        }
        Ok(server)
    }

    /// The `/metrics.json` body: the same counters `op:"stats"` returns.
    pub fn scrape(&self) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.metrics_addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics.json HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut page = String::new();
        s.read_to_string(&mut page).map_err(|e| e.to_string())?;
        page.split("\r\n\r\n")
            .nth(1)
            .map(str::to_string)
            .ok_or_else(|| "malformed /metrics.json reply".to_string())
    }

    /// Peak resident set (`VmHWM`) of the server process, in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask for a drain-and-exit and wait for it (bounded).
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(b"{\"op\":\"shutdown\",\"id\":0}\n")
            .map_err(|e| e.to_string())?;
        let mut ack = String::new();
        BufReader::new(s)
            .read_line(&mut ack)
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                let mut rest = String::new();
                let _ = self.stderr.read_to_string(&mut rest);
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("casch serve did not exit after shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in KiB.
pub fn peak_rss_kib(status_path: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// What one closed-loop run saw.
#[derive(Default)]
pub struct Load {
    /// Round-trip times of the verified responses, in nanoseconds.
    pub rtt_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// First sent request to last response read.
    pub elapsed: Duration,
    pub first_error: Option<String>,
}

/// Drive the server closed-loop: `conns` connections, each on its own
/// thread with up to `window` requests in flight, and the next request
/// sent only when a response comes back. Connection `c` cycles through
/// items `c, c + conns, ...`, resuming at its entry of `cursors`, which
/// is advanced past the requests sent, so consecutive calls keep the
/// mix even. `until` is `None` for exactly one pass over the corpus, or
/// the time after which no new request is sent.
pub fn drive(
    addr: &str,
    items: &[Item],
    window: usize,
    until: Option<Instant>,
    cursors: &mut [usize],
) -> Load {
    let conns = cursors.len();
    let barrier = Barrier::new(conns);
    let results: Vec<(Load, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(c, cursor)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let share: Vec<usize> = (c..items.len()).step_by(conns).collect();
                    connection(addr, items, &share, cursor, window, until, barrier)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load::default();
    let start = results.iter().map(|r| r.1).min();
    let end = results.iter().map(|r| r.2).max();
    for (l, _, _) in results {
        load.rtt_ns.extend(l.rtt_ns);
        load.attempted += l.attempted;
        load.failed += l.failed;
        load.first_error = load.first_error.or(l.first_error);
    }
    if let (Some(s), Some(e)) = (start, end) {
        load.elapsed = e.saturating_duration_since(s);
    }
    load
}

/// One connection's loop; returns its load and its first-send and
/// last-receive instants.
fn connection(
    addr: &str,
    items: &[Item],
    share: &[usize],
    cursor: &mut usize,
    window: usize,
    until: Option<Instant>,
    barrier: &Barrier,
) -> (Load, Instant, Instant) {
    let mut load = Load::default();
    let fail = |load: &mut Load, n: u64, why: String| {
        load.failed += n;
        load.first_error.get_or_insert(why);
    };
    let stream = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(s)
    });
    barrier.wait();
    let start = Instant::now();
    let stream = match stream {
        Ok(s) => s,
        Err(e) => {
            load.attempted = 1;
            fail(&mut load, 1, format!("connect: {e}"));
            return (load, start, start);
        }
    };
    let mut writer = BufWriter::with_capacity(1 << 16, stream.try_clone().expect("clone socket"));
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut inflight: Vec<(u64, usize, Instant)> = Vec::with_capacity(window);
    let mut line = Vec::with_capacity(1 << 12);
    let mut id_buf = Vec::with_capacity(20);
    let mut next = 0usize;
    let mut end = start;
    loop {
        let mut wrote = false;
        while inflight.len() < window
            && match until {
                Some(t) => Instant::now() < t,
                None => next < share.len(),
            }
        {
            let item = share[(*cursor + next) % share.len()];
            let id = next as u64;
            next += 1;
            id_buf.clear();
            let _ = write!(id_buf, "{id}");
            let sent = Instant::now();
            let res = writer
                .write_all(PREFIX)
                .and_then(|_| writer.write_all(&id_buf))
                .and_then(|_| writer.write_all(&items[item].suffix));
            load.attempted += 1;
            if let Err(e) = res {
                fail(&mut load, 1, format!("write: {e}"));
                continue;
            }
            inflight.push((id, item, sent));
            wrote = true;
        }
        if wrote {
            if let Err(e) = writer.flush() {
                let n = inflight.len() as u64;
                fail(&mut load, n, format!("flush: {e}"));
                break;
            }
        }
        if inflight.is_empty() {
            break;
        }
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(n) if n > 0 && line.ends_with(b"\n") => {}
            res => {
                let n = inflight.len() as u64;
                fail(&mut load, n, format!("unanswered ({res:?})"));
                break;
            }
        }
        let now = Instant::now();
        end = now;
        let Some(pos) = response_id(&line).and_then(|id| inflight.iter().position(|r| r.0 == id))
        else {
            fail(
                &mut load,
                1,
                format!("unmatched response: {}", preview(&line)),
            );
            continue;
        };
        let (_, item, sent) = inflight.swap_remove(pos);
        if verified(&line, &items[item].expected) {
            load.rtt_ns.push((now - sent).as_nanos() as u64);
        } else {
            fail(&mut load, 1, format!("wrong answer: {}", preview(&line)));
        }
    }
    *cursor += next;
    (load, start, end)
}

/// The id of a response line, which starts `{"id":N,`.
fn response_id(line: &[u8]) -> Option<u64> {
    let digits = line.strip_prefix(b"{\"id\":")?;
    let len = digits.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&digits[..len]).ok()?.parse().ok()
}

/// A success line whose makespan and placements bytes equal `expected`.
fn verified(line: &[u8], expected: &[u8]) -> bool {
    const KEY: &[u8] = b"\"makespan\":";
    const NEXT: &[u8] = b",\"queue_us\":";
    let Some(at) = find(line, KEY) else {
        return false;
    };
    let rest = &line[at..];
    find(&line[..at], b"\"ok\":true").is_some()
        && rest.starts_with(expected)
        && rest[expected.len()..].starts_with(NEXT)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn preview(line: &[u8]) -> String {
    String::from_utf8_lossy(&line[..line.len().min(160)])
        .trim_end()
        .to_string()
}

/// Per-phase server figures from a `/metrics.json` body.
pub struct Phase {
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Phase `name` (`queue`, `schedule`, `serialize`, `write`).
pub fn phase(body: &str, name: &str) -> Result<Phase, String> {
    let at = body
        .find(&format!("\"{name}\":{{"))
        .ok_or_else(|| format!("/metrics.json has no `{name}` phase"))?;
    let obj = &body[at..];
    let obj = &obj[..obj.find('}').unwrap_or(obj.len())];
    Ok(Phase {
        mean_us: counter(obj, "mean_us")? as f64,
        p50_us: counter(obj, "p50_us")? as f64,
        p99_us: counter(obj, "p99_us")? as f64,
    })
}

/// The first integer field `key` in `body`.
pub fn counter(body: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .ok_or_else(|| format!("no `{key}` in scrape"))?
        + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("`{key}` is not a number"))
}
