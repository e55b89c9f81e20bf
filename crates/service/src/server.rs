//! `radionetd` itself: the accept loop, the connection handlers, and the
//! worker pool, wired around the cache and the queue.
//!
//! Thread shape (all std, no async runtime):
//!
//! ```text
//! client ──TCP──▶ accept loop ──▶ connection thread (one per client)
//!                                      │  submit/status/result/stats
//!                                      ▼
//!                                 JobQueue (bounded, backpressured)
//!                                      │
//!                                      ▼
//!                              worker pool (N threads)
//!                                      │
//!                                      ▼
//!                               ResultCache ──miss──▶ Driver::run
//! ```
//!
//! `sweep` requests bypass the queue: the connection thread serves the
//! specs through [`ResultCache::serve`], the same audited path a `submit`
//! job takes, in blocks of `shards` cells that run at once, and answers
//! in request order — so a repeated sweep is almost entirely cache traffic.
//!
//! Shutdown is cooperative: the `shutdown` command (or
//! [`ServiceHandle::request_shutdown`]) stops intake, wakes blocked
//! workers, lets accepted jobs drain, and unblocks the accept loop with a
//! loopback connection to itself; [`ServiceHandle::join`] then reaps the
//! threads.

use crate::cache::{CacheConfig, ResultCache, Served};
use crate::protocol::{Request, Response, ServiceStats};
use crate::queue::{JobQueue, JobSnapshot, SubmitError};
use radionet_api::{Driver, RunError};
use radionet_telemetry::{MetricsSnapshot, Registry, Stopwatch};
use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address. Port 0 picks a free port — read it back from
    /// [`ServiceHandle::addr`].
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Queue high-water mark (submissions beyond it are rejected).
    pub queue_capacity: usize,
    /// Result-cache configuration.
    pub cache: CacheConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 256,
            cache: CacheConfig::default(),
        }
    }
}

/// Everything the threads share.
struct Shared {
    driver: Driver,
    /// The daemon's telemetry registry; the driver carries a clone, so
    /// worker runs land in the same store the `metrics` command reads.
    registry: Registry,
    cache: ResultCache,
    queue: JobQueue,
    rejected: AtomicU64,
    connections: AtomicU64,
    stopping: AtomicBool,
    workers: u64,
    addr: SocketAddr,
}

impl Shared {
    /// Stops intake and wakes everything that could be blocked.
    fn begin_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        self.queue.shutdown();
        // The accept loop blocks in `accept()`; a throwaway loopback
        // connection delivers the wake-up.
        let _ = TcpStream::connect(self.addr);
    }

    fn stats(&self) -> ServiceStats {
        let (live, terminal) = self.queue.counts();
        ServiceStats {
            cache: self.cache.stats(),
            jobs_live: live,
            jobs_terminal: terminal,
            rejected: self.rejected.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            workers: self.workers,
            queue_latency: self.queue.latency(),
        }
    }

    /// The telemetry snapshot the `metrics` command answers with: the
    /// registry's live counters and histograms, overlaid with the cache
    /// and queue gauges that are tracked as plain atomics elsewhere.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        let cache = self.cache.stats();
        snap.push_counter("cache_hits", cache.hits);
        snap.push_counter("cache_misses", cache.misses);
        snap.push_counter("cache_evictions", cache.evictions);
        snap.push_counter("cache_audits", cache.audits);
        snap.push_counter("cache_audit_failures", cache.audit_failures);
        snap.push_counter("cache_persist_hits", cache.persist_hits);
        snap.push_counter("cache_persist_stale", cache.persist_stale);
        snap.push_counter("connections", self.connections.load(Ordering::Relaxed));
        snap.push_counter("rejected", self.rejected.load(Ordering::Relaxed));
        let (live, terminal) = self.queue.counts();
        snap.push_gauge("cache_entries", cache.entries);
        snap.push_gauge("cache_bytes", cache.bytes);
        snap.push_gauge("jobs_live", live);
        snap.push_gauge("jobs_terminal", terminal);
        snap.push_gauge("workers", self.workers);
        if let Some(latency) = self.queue.latency() {
            snap.push_gauge("queue_wait_p50_micros", latency.queued_p50_micros);
            snap.push_gauge("queue_wait_p99_micros", latency.queued_p99_micros);
            snap.push_gauge("job_run_p50_micros", latency.run_p50_micros);
            snap.push_gauge("job_run_p99_micros", latency.run_p99_micros);
        }
        snap
    }
}

/// The service constructor (all the state lives in [`ServiceHandle`]).
pub struct Service;

impl Service {
    /// Binds, spawns the worker pool and the accept loop, and returns the
    /// running service's handle.
    ///
    /// # Errors
    ///
    /// Bind failures and persistent-cache open failures.
    pub fn start(config: ServiceConfig) -> io::Result<ServiceHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let registry = Registry::default();
        let shared = Arc::new(Shared {
            driver: Driver::standard().with_telemetry(registry.clone()),
            registry,
            cache: ResultCache::open(config.cache)?,
            queue: JobQueue::new(config.queue_capacity),
            rejected: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            workers: workers as u64,
            addr,
        });
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(ServiceHandle { shared, accept: Some(accept), workers: worker_handles })
    }
}

/// A running service: its address, its stats, and its shutdown.
pub struct ServiceHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A live snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Initiates shutdown without waiting (idempotent; a client's
    /// `shutdown` command does the same thing from inside).
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the service shuts down — a client's `shutdown`
    /// command or [`ServiceHandle::request_shutdown`] — then joins the
    /// accept loop and the worker pool. Accepted jobs drain first. This
    /// never *initiates* shutdown: a foreground daemon parks here until a
    /// client asks it to stop.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker thread: drain the queue through the cache until shutdown.
fn worker_loop(shared: &Shared) {
    while let Some((id, spec)) = shared.queue.take() {
        let serve = Stopwatch::start(true);
        let outcome = match shared.cache.serve(&shared.driver, &spec) {
            Ok(served) => Ok((served.report, served.hit)),
            Err(e) => Err(e.to_string()),
        };
        serve.stop(Some(&shared.registry), "service_cache_serve_micros");
        shared.queue.complete(id, outcome);
        // The job is terminal now, so its timing is final.
        if let Some(snap) = shared.queue.status(id) {
            shared.registry.observe("service_queue_wait_micros", snap.queued_micros);
            shared.registry.observe("service_job_run_micros", snap.run_micros);
        }
        shared.registry.count("service_jobs", 1);
    }
}

/// The accept loop: one connection thread per client until shutdown.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let shared = shared.clone();
        std::thread::spawn(move || {
            let _ = serve_connection(&shared, stream);
        });
    }
}

/// One client session: request lines in, response lines out, until EOF or
/// a `shutdown` command.
fn serve_connection(shared: &Shared, mut stream: TcpStream) -> io::Result<()> {
    let reader = io::BufReader::new(stream.try_clone()?);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let request_watch = Stopwatch::start(true);
        let (response, stop) = match serde_json::from_str::<Request>(&line) {
            Ok(request) => dispatch(shared, request),
            Err(e) => (Response::err(format!("unparseable request: {e}")), false),
        };
        request_watch.stop(Some(&shared.registry), "service_request_micros");
        shared.registry.count("service_requests", 1);
        let mut encoded = serde_json::to_string(&response)
            .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"encode: {e}\"}}"));
        // One write per line: a newline sent on its own would wait out the
        // client's delayed ACK under Nagle's algorithm.
        encoded.push('\n');
        stream.write_all(encoded.as_bytes())?;
        if stop {
            shared.begin_shutdown();
            break;
        }
    }
    Ok(())
}

/// Executes one request; the bool asks the session loop to begin
/// shutdown after the response is sent.
fn dispatch(shared: &Shared, request: Request) -> (Response, bool) {
    match request.cmd.as_str() {
        "submit" => (handle_submit(shared, request), false),
        "status" => (handle_status(shared, request, false), false),
        "result" => (handle_status(shared, request, true), false),
        "sweep" => (handle_sweep(shared, request), false),
        "stats" => (Response { stats: Some(shared.stats()), ..Response::ok() }, false),
        "metrics" => {
            (Response { metrics: Some(shared.metrics_snapshot()), ..Response::ok() }, false)
        }
        "shutdown" => (Response::ok(), true),
        other => (
            Response::err(format!(
                "unknown cmd {other:?}; submit, status, result, sweep, stats, metrics, or \
                 shutdown"
            )),
            false,
        ),
    }
}

fn handle_submit(shared: &Shared, request: Request) -> Response {
    let Some(spec) = request.spec else {
        return Response::err("submit needs a \"spec\"");
    };
    match shared.queue.submit(spec) {
        Ok(id) => {
            if request.wait.unwrap_or(false) {
                let snap = shared.queue.wait_terminal(id).expect("job just submitted");
                snapshot_response(snap, true)
            } else {
                Response { id: Some(id), state: Some("queued".into()), ..Response::ok() }
            }
        }
        Err(e) => {
            if matches!(e, SubmitError::QueueFull { .. }) {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Response::err(e.to_string())
        }
    }
}

fn handle_status(shared: &Shared, request: Request, with_report: bool) -> Response {
    let Some(id) = request.id else {
        return Response::err("status/result need an \"id\"");
    };
    match shared.queue.status(id) {
        Some(snap) => snapshot_response(snap, with_report),
        None => Response::err(format!("unknown job id {id}")),
    }
}

/// Renders a job snapshot as a response; `result`-style responses carry
/// the report, `status`-style ones only the state and timing.
fn snapshot_response(snap: JobSnapshot, with_report: bool) -> Response {
    Response {
        id: Some(snap.id),
        state: Some(snap.state.name().into()),
        error: snap.error,
        cache_hit: snap.cache_hit,
        report: if with_report { snap.report } else { None },
        queued_micros: Some(snap.queued_micros),
        run_micros: Some(snap.run_micros),
        ..Response::ok()
    }
}

/// `sweep`: serve every cell through the cache in blocks of `shards`
/// cells, each cell of a block on its own thread and timed like a job,
/// and answer in request order. The first failing cell fails the request.
fn handle_sweep(shared: &Shared, request: Request) -> Response {
    let Some(specs) = request.specs else {
        return Response::err("sweep needs \"specs\"");
    };
    let mut reports = Vec::with_capacity(specs.len());
    let mut cache_hits = Vec::with_capacity(specs.len());
    for block in specs.chunks(request.shards.unwrap_or(1).max(1)) {
        let served: Vec<Result<Served, RunError>> = std::thread::scope(|s| {
            let serve = |spec| {
                let watch = Stopwatch::start(true);
                let served = shared.cache.serve(&shared.driver, spec);
                watch.stop(Some(&shared.registry), "service_cache_serve_micros");
                served
            };
            let cells: Vec<_> = block.iter().map(|spec| s.spawn(move || serve(spec))).collect();
            cells.into_iter().map(|cell| cell.join().expect("a sweep cell panicked")).collect()
        });
        for served in served {
            match served {
                Ok(served) => {
                    reports.push(served.report);
                    cache_hits.push(served.hit);
                }
                Err(e) => return Response::err(e.to_string()),
            }
        }
    }
    Response { reports: Some(reports), cache_hits: Some(cache_hits), ..Response::ok() }
}
