//! A persistent worker pool over pinned [`Workspace`]s — the
//! long-running sibling of [`crate::workspace::schedule_many_par_with`].
//!
//! The sharded batch driver spawns scoped threads per batch and
//! tears them down when the batch returns; a service front-end (e.g.
//! `casch serve`) instead wants workers that *outlive* any one
//! request. [`WorkerPool`] spawns a fixed set of threads at
//! construction, keeps one [`Workspace`] per thread for its whole
//! life, and feeds the threads jobs through a **bounded** queue:
//!
//! * [`WorkerPool::try_submit`] is the one admission call — it never
//!   blocks, and returns the job to the caller when the queue is
//!   full, so the caller can turn backpressure into an explicit
//!   "overloaded" rejection instead of unbounded memory growth;
//! * [`WorkerPool::try_claim`] lets the caller run a job itself in
//!   place of an idle worker when nothing is queued, which saves the
//!   hand-off to another thread and back;
//! * [`WorkerPool::shutdown`] (and `Drop`) **drains**: already-queued
//!   jobs still run to completion before the threads exit, so a
//!   graceful shutdown never abandons accepted work.
//!
//! A running job holds one workspace, so at most `threads` jobs run at
//! once, wherever they run. A job receives that workspace's index and
//! a `&mut` to it. Once the workspace buffers have grown to the
//! workload's peak, repeated [`crate::Scheduler::schedule_into`] calls
//! inside jobs hit the same zero-allocation steady state as the batch
//! path — the pool adds one queue push/pop (and the job box) per
//! request, never a fresh arena.
//!
//! Jobs are **panic-isolated**: a job that panics (e.g. a scheduler
//! tripping over hostile input) is caught on the worker, logged, and
//! the worker keeps serving with a fresh workspace — pool capacity
//! never silently shrinks, and `shutdown`/`Drop` never re-panic on
//! join. Cleanup a job must guarantee (counters, response lines)
//! belongs in a drop guard inside the job, which runs during the
//! unwind.
//!
//! The pool is **self-instrumenting**, always: each workspace has a
//! shard of lock-free histograms ([`fastsched_metrics`]) —
//! queue wait (enqueue to pop; zero for a claimed run) and job run
//! time, both in microseconds. A shard is written only by the job
//! holding its workspace, so recording never contends; a scrape
//! merges the shard snapshots via [`PoolMetrics::merged_queue_us`] /
//! [`PoolMetrics::merged_run_us`].

use crate::workspace::Workspace;
use fastsched_metrics::{Histogram, HistogramSnapshot};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work: runs on one worker thread with the index of the
/// workspace it holds and that scratch workspace.
pub type Job = Box<dyn FnOnce(usize, &mut Workspace) + Send + 'static>;

/// One workspace's metrics shard. Written only by the job holding
/// that workspace; read (snapshotted) by scrapers at any time.
#[derive(Default)]
struct PoolShard {
    /// Microseconds each job spent queued (enqueue to worker pop;
    /// zero for a claimed run).
    queue_us: Histogram,
    /// Microseconds each job spent running (including panicked ones).
    run_us: Histogram,
}

/// Per-worker metrics shards for one [`WorkerPool`], merged at scrape
/// time. See the [module docs](self).
pub struct PoolMetrics {
    shards: Vec<PoolShard>,
}

impl PoolMetrics {
    /// Queue-wait distribution merged across all workers.
    pub fn merged_queue_us(&self) -> HistogramSnapshot {
        self.merged(|s| &s.queue_us)
    }

    /// Job-run distribution merged across all workers.
    pub fn merged_run_us(&self) -> HistogramSnapshot {
        self.merged(|s| &s.run_us)
    }

    fn merged(&self, pick: impl Fn(&PoolShard) -> &Histogram) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for shard in &self.shards {
            out.merge(&pick(shard).snapshot());
        }
        out
    }
}

struct QueueState {
    /// Each entry carries its enqueue instant.
    jobs: VecDeque<(Instant, Job)>,
    /// Indices of the workspaces no running job holds.
    idle: Vec<usize>,
    closing: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers sleep here while there is no job or no idle workspace.
    job_ready: Condvar,
    capacity: usize,
    /// One per worker thread. Whoever took index `i` out of
    /// [`QueueState::idle`] is the only user of `workspaces[i]`, so
    /// its lock never contends.
    workspaces: Vec<Mutex<Workspace>>,
}

impl Shared {
    /// Run `job` with workspace `index`, which the caller holds:
    /// timed and panic-isolated the same way wherever it runs.
    fn run(&self, metrics: &PoolMetrics, index: usize, job: impl FnOnce(usize, &mut Workspace)) {
        let started = Instant::now();
        let mut ws = self.workspaces[index].lock().expect("workspace lock");
        // Isolate job panics: one hostile request must not cost the
        // pool a worker for the rest of the process lifetime. The
        // workspace is replaced because an unwound scheduler may have
        // left its scratch internally inconsistent.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job(index, &mut ws);
        }));
        metrics.shards[index]
            .run_us
            .record(started.elapsed().as_micros() as u64);
        if result.is_err() {
            eprintln!("fastsched worker {index}: job panicked; worker continues");
            *ws = Workspace::new();
        }
    }
}

/// Fixed pool of worker threads, one [`Workspace`] per thread, fed
/// through a bounded job queue. See the [module docs](self).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    thread_count: usize,
    metrics: Arc<PoolMetrics>,
}

impl WorkerPool {
    /// Spawn `threads` workers (`0` = all available cores) behind a
    /// queue bounded at `queue_depth` pending jobs (min 1).
    pub fn new(threads: usize, queue_depth: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let metrics = Arc::new(PoolMetrics {
            shards: (0..threads).map(|_| PoolShard::default()).collect(),
        });
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                idle: (0..threads).rev().collect(),
                closing: false,
            }),
            job_ready: Condvar::new(),
            capacity: queue_depth.max(1),
            workspaces: (0..threads).map(|_| Mutex::new(Workspace::new())).collect(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || worker_loop(&shared, &metrics))
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
            thread_count: threads,
            metrics,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.thread_count
    }

    /// The pool's per-worker metrics shards.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Pending (not yet started) jobs.
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("pool lock").jobs.len()
    }

    /// Take an idle worker's place: when no job is queued and a
    /// workspace is idle, hold that workspace for the calling thread,
    /// which then runs a job itself with [`Claim::run`]. `None` when
    /// a job is queued, every workspace is busy, or the pool is
    /// shutting down; [`WorkerPool::try_submit`] is the fallback.
    ///
    /// A claimed run saves the two thread hand-offs of a queued job
    /// (caller to worker, worker back to whoever waits for the
    /// result), and it still counts against the pool's `threads`.
    pub fn try_claim(&self) -> Option<Claim<'_>> {
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.closing || !state.jobs.is_empty() {
            return None;
        }
        let index = state.idle.pop()?;
        Some(Claim { pool: self, index })
    }

    /// Non-blocking submit: enqueue `job`, or hand it back when the
    /// queue is at capacity (or the pool is shutting down). This is
    /// the admission-control edge — a `Err` is the caller's cue to
    /// reject the request explicitly.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        let stamp = Instant::now();
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.closing || state.jobs.len() >= self.shared.capacity {
            return Err(job);
        }
        state.jobs.push_back((stamp, job));
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Graceful shutdown: refuse new submissions, run every
    /// already-queued job to completion, and join the workers.
    /// Idempotent (later calls return immediately) and callable
    /// through a shared reference, so an `Arc<WorkerPool>` owner can
    /// drain it. Called automatically on `Drop`.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            if state.closing {
                return;
            }
            state.closing = true;
        }
        self.shared.job_ready.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("pool workers lock"));
        for handle in handles {
            // Jobs are panic-isolated inside worker_loop, so a worker
            // thread itself should never die panicked; if one somehow
            // does, losing it at shutdown is not worth panicking in
            // Drop over.
            if handle.join().is_err() {
                eprintln!("fastsched worker pool: a worker thread panicked");
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A workspace held by the calling thread (see
/// [`WorkerPool::try_claim`]); dropping it gives the workspace back.
pub struct Claim<'a> {
    pool: &'a WorkerPool,
    index: usize,
}

impl Claim<'_> {
    /// Run `job` on the calling thread with the claimed workspace,
    /// timed and panic-isolated like a worker's job (its queue wait
    /// is zero), then give the workspace back.
    pub fn run(self, job: impl FnOnce(usize, &mut Workspace)) {
        let metrics = &self.pool.metrics;
        metrics.shards[self.index].queue_us.record(0);
        self.pool.shared.run(metrics, self.index, job);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let shared = &self.pool.shared;
        let mut state = shared.state.lock().expect("pool lock");
        state.idle.push(self.index);
        // A job queued while every workspace was busy may be waiting
        // for this one.
        let pending = !state.jobs.is_empty();
        drop(state);
        if pending {
            shared.job_ready.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared, metrics: &PoolMetrics) {
    let mut held = None;
    loop {
        let (index, stamp, job) = {
            let mut state = shared.state.lock().expect("pool lock");
            state.idle.extend(held.take());
            loop {
                if !state.jobs.is_empty() {
                    if let Some(index) = state.idle.pop() {
                        let (stamp, job) = state.jobs.pop_front().expect("queue is not empty");
                        break (index, stamp, job);
                    }
                }
                if state.closing && state.jobs.is_empty() {
                    return;
                }
                state = shared.job_ready.wait(state).expect("pool lock");
            }
        };
        metrics.shards[index]
            .queue_us
            .record(stamp.elapsed().as_micros() as u64);
        shared.run(metrics, index, job);
        held = Some(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fast, Scheduler};
    use fastsched_dag::examples::paper_figure1;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_produce_real_schedules() {
        // The queue holds every job, so each one is admitted.
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        for _ in 0..16 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |_, ws| {
                let dag = paper_figure1();
                let s = Fast::new().schedule_into(&dag, 9, ws);
                tx.send(s.makespan()).unwrap();
            }))
            .unwrap_or_else(|_| panic!("submit refused a job"));
        }
        drop(tx);
        let makespans: Vec<u64> = rx.iter().collect();
        assert_eq!(makespans.len(), 16);
        assert!(makespans.iter().all(|&m| m == 18));
    }

    #[test]
    fn try_submit_rejects_when_queue_is_full() {
        let pool = WorkerPool::new(1, 1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // Occupy the single worker until released.
        pool.try_submit(Box::new(move |_, _| {
            gate_rx.recv().ok();
        }))
        .unwrap_or_else(|_| panic!("first job rejected"));
        // Wait for the worker to actually pick the blocker up, then
        // fill the single queue slot.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(Box::new(|_, _| {}))
            .unwrap_or_else(|_| panic!("queue slot refused"));
        // Worker busy + queue full: admission control must now kick in.
        assert!(pool.try_submit(Box::new(|_, _| {})).is_err());
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        static DONE: AtomicUsize = AtomicUsize::new(0);
        DONE.store(0, Ordering::SeqCst);
        let pool = WorkerPool::new(1, 64);
        for _ in 0..32 {
            pool.try_submit(Box::new(|_, _| {
                DONE.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("submit failed"));
        }
        pool.shutdown();
        assert_eq!(DONE.load(Ordering::SeqCst), 32);
        // Post-shutdown submissions bounce.
        assert!(pool.try_submit(Box::new(|_, _| {})).is_err());
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.try_submit(Box::new(|_, _| panic!("hostile input")))
            .unwrap_or_else(|_| panic!("submit failed"));
        // The single worker must survive the panic and keep producing
        // correct schedules from a sane workspace.
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |_, ws| {
                let dag = paper_figure1();
                let s = Fast::new().schedule_into(&dag, 9, ws);
                tx.send(s.makespan()).unwrap();
            }))
            .unwrap_or_else(|_| panic!("submit after panic failed"));
        }
        drop(tx);
        let makespans: Vec<u64> = rx.iter().collect();
        assert_eq!(makespans, vec![18; 4]);
        // Shutdown joins cleanly — no re-panic from the dead job.
        pool.shutdown();
    }

    #[test]
    fn pool_metrics_count_jobs_and_timings() {
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |_, _| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                tx.send(()).unwrap();
            }))
            .unwrap_or_else(|_| panic!("submit failed"));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
        // Join the workers first: the run-time record lands after the
        // job body (and its channel send) returns.
        pool.shutdown();
        let m = pool.metrics();
        let run = m.merged_run_us();
        assert_eq!(run.count(), 8);
        assert!(run.quantile(0.5) >= 200, "p50 run {}", run.quantile(0.5));
        assert_eq!(m.merged_queue_us().count(), 8);
    }

    #[test]
    fn workers_report_distinct_indices() {
        let pool = WorkerPool::new(3, 16);
        assert_eq!(pool.threads(), 3);
        let (tx, rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(gate_rx));
        for _ in 0..3 {
            let tx = tx.clone();
            let gate = Arc::clone(&gate);
            pool.try_submit(Box::new(move |index, _| {
                tx.send(index).unwrap();
                gate.lock().unwrap().recv().ok();
            }))
            .unwrap_or_else(|_| panic!("submit failed"));
        }
        drop(tx);
        let mut seen: Vec<usize> = (0..3).map(|_| rx.recv().unwrap()).collect();
        for _ in 0..3 {
            gate_tx.send(()).unwrap();
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn claimed_runs_use_the_calling_thread_and_a_pool_workspace() {
        let pool = WorkerPool::new(1, 4);
        let claim = pool.try_claim().expect("idle pool lends its workspace");
        // The only workspace is held: neither a second claim nor a
        // worker may use it.
        assert!(pool.try_claim().is_none());
        let caller = std::thread::current().id();
        let mut ran = None;
        claim.run(|index, ws| {
            let s = Fast::new().schedule_into(&paper_figure1(), 9, ws);
            ran = Some((index, std::thread::current().id(), s.makespan()));
        });
        assert_eq!(ran, Some((0, caller, 18)));
        let m = pool.metrics();
        assert_eq!(m.merged_run_us().count(), 1);
        assert_eq!(m.merged_queue_us().count(), 1);
        assert_eq!(m.merged_queue_us().quantile(1.0), 0);
        // Given back: the worker and later claims can use it again.
        let (tx, rx) = mpsc::channel();
        pool.try_submit(Box::new(move |index, _| tx.send(index).unwrap()))
            .unwrap_or_else(|_| panic!("submit failed"));
        assert_eq!(rx.recv().unwrap(), 0);
        pool.shutdown();
        assert!(pool.try_claim().is_none(), "no claims after shutdown");
    }

    #[test]
    fn claims_never_jump_queued_jobs() {
        let pool = WorkerPool::new(2, 4);
        let held = pool.try_claim().expect("idle workspace");
        // Jobs that report their start, then wait for the gate.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(gate_rx));
        let (started_tx, started_rx) = mpsc::channel();
        let gated = || -> Job {
            let gate = Arc::clone(&gate);
            let started = started_tx.clone();
            Box::new(move |_, _| {
                started.send(()).unwrap();
                gate.lock().unwrap().recv().ok();
            })
        };
        pool.try_submit(gated())
            .unwrap_or_else(|_| panic!("first job rejected"));
        started_rx.recv().unwrap();
        // Both workspaces are busy, so this job waits in the queue.
        pool.try_submit(gated())
            .unwrap_or_else(|_| panic!("queue slot refused"));
        assert!(pool.try_claim().is_none());
        // Let the worker woken by that submit find no idle workspace
        // and sleep again, so only the give-back below can wake it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Giving the workspace back hands it to the queued job, which
        // then holds it until its gate opens: no claim gets it.
        drop(held);
        assert!(pool.try_claim().is_none());
        started_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the queued job started on the given-back workspace");
        assert!(pool.try_claim().is_none());
        for _ in 0..2 {
            gate_tx.send(()).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn panicking_claimed_run_leaves_a_sane_workspace() {
        let pool = WorkerPool::new(1, 4);
        pool.try_claim()
            .expect("idle workspace")
            .run(|_, _| panic!("hostile input"));
        let mut makespan = 0;
        pool.try_claim()
            .expect("workspace given back after the panic")
            .run(|_, ws| {
                makespan = Fast::new()
                    .schedule_into(&paper_figure1(), 9, ws)
                    .makespan()
            });
        assert_eq!(makespan, 18);
        assert_eq!(pool.metrics().merged_run_us().count(), 2);
    }
}
