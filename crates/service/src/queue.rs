//! The bounded job queue: backpressure and monotone job states over std
//! `Mutex`/`Condvar` — no new dependencies.
//!
//! Producers [`submit`](JobQueue::submit) specs; beyond the capacity
//! high-water mark submission fails fast with
//! [`SubmitError::QueueFull`] instead of buffering unboundedly (the
//! client retries or sheds load — the service never falls over from queue
//! growth). Workers [`take`](JobQueue::take) jobs (blocking) or
//! [`try_take`](JobQueue::try_take) them (non-blocking, what the
//! deterministic property tests drive), run them, and
//! [`complete`](JobQueue::complete) them.
//!
//! **State machine.** `Queued → Running → Done | Failed`. Transitions are
//! checked at the single mutation point (the private `Inner::transition`),
//! so an illegal move (e.g. completing a job twice) is impossible by
//! construction — the queue-semantics proptest then verifies the
//! *observable* story: states only ever move forward, and every accepted
//! job reaches a terminal state once workers drain the queue.

// Nearest-rank quantiles come from the workspace-shared helper so the
// queue's latency summary and the traffic layer's delivery percentiles can
// never drift apart in semantics.
use radionet_analysis::percentile;
use radionet_api::{RunReport, RunSpec};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Identifies one submitted job (monotone per queue, starting at 1).
pub type JobId = u64;

/// The lifecycle state of a job. Ordered: a job's state only ever moves to
/// a strictly larger [`JobState::rank`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a report.
    Done,
    /// Finished with an error.
    Failed,
}

impl JobState {
    /// Monotonicity rank: legal transitions strictly increase it.
    pub fn rank(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done | JobState::Failed => 2,
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(self) -> bool {
        self.rank() == 2
    }

    /// The wire name (`queued`, `running`, `done`, `failed`).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its high-water mark; retry later or shed load.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The queue is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs pending); retry later")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// An observable snapshot of one job (what `status`/`result` return).
#[derive(Clone, Debug)]
pub struct JobSnapshot {
    /// The job's id.
    pub id: JobId,
    /// Its state at snapshot time.
    pub state: JobState,
    /// The report, once `Done`.
    pub report: Option<RunReport>,
    /// Whether the result came from the cache, once `Done`.
    pub cache_hit: Option<bool>,
    /// The failure message, once `Failed`.
    pub error: Option<String>,
    /// Microseconds spent waiting in the queue (final once running).
    pub queued_micros: u64,
    /// Microseconds spent executing (final once terminal; 0 while queued).
    pub run_micros: u64,
}

/// Queue wait / run-time quantiles over terminal jobs (nearest-rank, in
/// microseconds) — the `stats` response's latency summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueLatency {
    /// Terminal jobs the quantiles were computed over.
    pub samples: u64,
    /// Median queue wait.
    pub queued_p50_micros: u64,
    /// 99th-percentile queue wait.
    pub queued_p99_micros: u64,
    /// Median execution time.
    pub run_p50_micros: u64,
    /// 99th-percentile execution time.
    pub run_p99_micros: u64,
}

/// One job's full record.
struct Job {
    spec: RunSpec,
    state: JobState,
    report: Option<RunReport>,
    cache_hit: Option<bool>,
    error: Option<String>,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
}

impl Job {
    /// `(queued_micros, run_micros)` as [`JobSnapshot`] defines them: the
    /// wait so far while queued, and the run time so far while running.
    fn timings(&self) -> (u64, u64) {
        let queued = match self.started {
            Some(t) => t.duration_since(self.submitted),
            None => self.submitted.elapsed(),
        };
        let run = match (self.started, self.finished) {
            (Some(s), Some(f)) => f.duration_since(s),
            (Some(s), None) => s.elapsed(),
            _ => Duration::ZERO,
        };
        (queued.as_micros() as u64, run.as_micros() as u64)
    }
}

struct Inner {
    next_id: JobId,
    /// Accepted-but-untaken ids in FIFO order.
    pending: VecDeque<JobId>,
    jobs: HashMap<JobId, Job>,
    /// Jobs in a terminal state, kept by `transition`.
    terminal: u64,
    shutdown: bool,
}

impl Inner {
    /// The single mutation point for job states: checks monotonicity,
    /// stamps timing and keeps the terminal count.
    fn transition(&mut self, id: JobId, to: JobState) {
        let job = self.jobs.get_mut(&id).expect("transition of unknown job");
        assert!(to.rank() > job.state.rank(), "illegal job transition {:?} → {to:?}", job.state);
        match to {
            JobState::Running => job.started = Some(Instant::now()),
            JobState::Done | JobState::Failed => {
                job.finished = Some(Instant::now());
                self.terminal += 1;
            }
            JobState::Queued => unreachable!("rank check rejects moves back to Queued"),
        }
        job.state = to;
    }
}

/// The bounded MPMC job queue (see the module docs).
pub struct JobQueue {
    inner: Mutex<Inner>,
    /// Signalled when `pending` gains work or shutdown begins.
    ready: Condvar,
    /// Signalled when any job reaches a terminal state.
    settled: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue rejecting submissions beyond `capacity` pending jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                next_id: 1,
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                terminal: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            settled: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured high-water mark.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accepts a job, or rejects it when the backlog is at capacity.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at the high-water mark,
    /// [`SubmitError::ShuttingDown`] after [`JobQueue::shutdown`].
    pub fn submit(&self, spec: RunSpec) -> Result<JobId, SubmitError> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.pending.len() >= self.capacity {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                report: None,
                cache_hit: None,
                error: None,
                submitted: Instant::now(),
                started: None,
                finished: None,
            },
        );
        inner.pending.push_back(id);
        self.ready.notify_one();
        Ok(id)
    }

    /// Blocking worker intake: waits for a queued job, marks it running,
    /// and returns it. `None` once the queue shuts down and drains.
    pub fn take(&self) -> Option<(JobId, RunSpec)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(found) = Self::pop_queued(&mut inner) {
                return Some(found);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue poisoned");
        }
    }

    /// Non-blocking intake (the property tests' deterministic worker
    /// step): like [`JobQueue::take`] but `None` when nothing is queued.
    pub fn try_take(&self) -> Option<(JobId, RunSpec)> {
        Self::pop_queued(&mut self.inner.lock().expect("queue poisoned"))
    }

    /// Pops the oldest pending id and marks it running.
    fn pop_queued(inner: &mut Inner) -> Option<(JobId, RunSpec)> {
        let id = inner.pending.pop_front()?;
        inner.transition(id, JobState::Running);
        Some((id, inner.jobs[&id].spec.clone()))
    }

    /// Worker hand-back: a running job finished with a served report
    /// (`Ok(report, cache_hit)`) or an error message. Returns the job's
    /// final `(queued_micros, run_micros)`, the timings a later
    /// [`JobQueue::status`] reports.
    pub fn complete(&self, id: JobId, outcome: Result<(RunReport, bool), String>) -> (u64, u64) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.transition(id, if outcome.is_ok() { JobState::Done } else { JobState::Failed });
        let job = inner.jobs.get_mut(&id).expect("transition checked existence");
        match outcome {
            Ok((report, cache_hit)) => {
                job.report = Some(report);
                job.cache_hit = Some(cache_hit);
            }
            Err(message) => job.error = Some(message),
        }
        let timings = job.timings();
        self.settled.notify_all();
        timings
    }

    /// A snapshot of one job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("queue poisoned");
        inner.jobs.get(&id).map(|job| snapshot(id, job))
    }

    /// Blocks until the job reaches a terminal state, then snapshots it.
    /// `None` for an unknown id.
    pub fn wait_terminal(&self, id: JobId) -> Option<JobSnapshot> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            match inner.jobs.get(&id) {
                None => return None,
                Some(job) if job.state.is_terminal() => return Some(snapshot(id, job)),
                Some(_) => inner = self.settled.wait(inner).expect("queue poisoned"),
            }
        }
    }

    /// Jobs accepted so far, by terminality: `(live, terminal)`. Constant
    /// time: the terminal count is kept as jobs settle.
    pub fn counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("queue poisoned");
        (inner.jobs.len() as u64 - inner.terminal, inner.terminal)
    }

    /// Queue wait / run-time quantiles over every terminal job, or `None`
    /// before the first job finishes.
    pub fn latency(&self) -> Option<QueueLatency> {
        let inner = self.inner.lock().expect("queue poisoned");
        // Only terminal jobs are stamped `finished`.
        let (mut queued, mut run): (Vec<u64>, Vec<u64>) =
            inner.jobs.values().filter(|job| job.finished.is_some()).map(Job::timings).unzip();
        // The quantiles need no lock.
        drop(inner);
        if queued.is_empty() {
            return None;
        }
        queued.sort_unstable();
        run.sort_unstable();
        Some(QueueLatency {
            samples: queued.len() as u64,
            queued_p50_micros: percentile(&queued, 0.50),
            queued_p99_micros: percentile(&queued, 0.99),
            run_p50_micros: percentile(&run, 0.50),
            run_p99_micros: percentile(&run, 0.99),
        })
    }

    /// Stops intake and wakes every blocked worker; pending jobs already
    /// accepted still drain.
    pub fn shutdown(&self) {
        self.inner.lock().expect("queue poisoned").shutdown = true;
        self.ready.notify_all();
        self.settled.notify_all();
    }
}

/// Builds the observable snapshot of a job record.
fn snapshot(id: JobId, job: &Job) -> JobSnapshot {
    let (queued_micros, run_micros) = job.timings();
    JobSnapshot {
        id,
        state: job.state,
        report: job.report.clone(),
        cache_hit: job.cache_hit,
        error: job.error.clone(),
        queued_micros,
        run_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::families::Family;

    fn spec(seed: u64) -> RunSpec {
        RunSpec::new("luby-mis", Family::Path, 8).with_seed(seed)
    }

    fn report(seed: u64) -> RunReport {
        radionet_api::Driver::standard().run(&spec(seed)).unwrap()
    }

    #[test]
    fn lifecycle_and_timing() {
        let q = JobQueue::new(4);
        let id = q.submit(spec(1)).unwrap();
        assert_eq!(q.status(id).unwrap().state, JobState::Queued);
        let (taken, s) = q.try_take().unwrap();
        assert_eq!((taken, &s), (id, &spec(1)));
        assert_eq!(q.status(id).unwrap().state, JobState::Running);
        q.complete(id, Ok((report(1), false)));
        let snap = q.status(id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(snap.report.is_some());
        assert_eq!(snap.cache_hit, Some(false));
        assert_eq!(q.counts(), (0, 1));
    }

    #[test]
    fn complete_returns_the_final_timings() {
        let q = JobQueue::new(4);
        for outcome in [Ok((report(1), true)), Err("failed".to_string())] {
            let id = q.submit(spec(1)).unwrap();
            q.try_take().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
            let timings = q.complete(id, outcome);
            assert!(timings.1 >= 2_000, "run time {timings:?} misses the sleep");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let snap = q.status(id).unwrap();
            assert_eq!((snap.queued_micros, snap.run_micros), timings);
        }
    }

    #[test]
    fn kept_terminal_count_matches_a_scan() {
        let scan = |q: &JobQueue| {
            let inner = q.inner.lock().unwrap();
            let terminal = inner.jobs.values().filter(|j| j.state.is_terminal()).count() as u64;
            (inner.jobs.len() as u64 - terminal, terminal)
        };
        let q = JobQueue::new(8);
        let done = report(1);
        for round in 0..6u64 {
            for k in 0..3 {
                q.submit(spec(round * 3 + k)).unwrap();
            }
            assert_eq!(q.counts(), scan(&q), "after round {round}'s submits");
            // Take two, settle one of them (done or failed by turns), and
            // leave the other running.
            let (first, _) = q.try_take().unwrap();
            let (_second, _) = q.try_take().unwrap();
            assert_eq!(q.counts(), scan(&q), "after round {round}'s takes");
            let outcome = if round % 2 == 0 { Ok((done.clone(), false)) } else { Err("x".into()) };
            q.complete(first, outcome);
            assert_eq!(q.counts(), scan(&q), "after round {round}'s completion");
        }
        assert_eq!(q.counts(), (12, 6));
    }

    #[test]
    fn backpressure_is_a_clean_rejection() {
        let q = JobQueue::new(2);
        q.submit(spec(1)).unwrap();
        q.submit(spec(2)).unwrap();
        let err = q.submit(spec(3)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        // Taking a pending job frees its slot immediately.
        let (id, _) = q.try_take().unwrap();
        assert!(q.submit(spec(4)).is_ok(), "running job {id} must not eat capacity");
    }

    #[test]
    fn blocking_take_wakes_on_submit_and_shutdown() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut served = 0;
                while let Some((id, _)) = q.take() {
                    q.complete(id, Err("drained".into()));
                    served += 1;
                }
                served
            })
        };
        let id = q.submit(spec(1)).unwrap();
        let snap = q.wait_terminal(id).unwrap();
        assert_eq!((snap.state, snap.error.as_deref()), (JobState::Failed, Some("drained")));
        q.shutdown();
        assert_eq!(worker.join().unwrap(), 1);
        assert_eq!(q.submit(spec(2)).unwrap_err(), SubmitError::ShuttingDown);
    }
}
