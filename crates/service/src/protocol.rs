//! The wire protocol: newline-delimited JSON, one request object per line
//! in, one response object per line out, over a plain TCP stream.
//!
//! Both shapes are **flat structs with optional fields** rather than
//! tagged enums: a hand-written client (or a CI shell script piping
//! through `radionet call`) only ever has to emit
//! `{"cmd": "submit", "spec": {…}}` — field order free, absent and `null`
//! interchangeable, exactly the serde laxness the canonical spec hash was
//! built to absorb. Unknown commands get an `ok: false` response, never a
//! dropped connection; a connection stays open for any number of
//! request/response rounds.
//!
//! | `cmd`      | request fields        | response fields                      |
//! |------------|-----------------------|--------------------------------------|
//! | `submit`   | `spec`, `wait?`       | `id` (+ terminal fields when `wait`) |
//! | `status`   | `id`                  | `state`, timing                      |
//! | `result`   | `id`                  | `state`, `report?`, `cache_hit?`     |
//! | `sweep`    | `specs`, `shards?`    | `reports`, `cache_hits`              |
//! | `stats`    | —                     | `stats`                              |
//! | `metrics`  | —                     | `metrics` (telemetry snapshot)       |
//! | `shutdown` | —                     | `ok` (then the service drains)       |

use crate::cache::CacheStats;
use crate::queue::QueueLatency;
use radionet_api::{RunReport, RunSpec};
use radionet_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// One request line (see the module table for which fields each `cmd`
/// reads; unread fields are ignored).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The command: `submit`, `status`, `result`, `sweep`, `stats`,
    /// `metrics`, or `shutdown`.
    pub cmd: String,
    /// `submit`: the spec to run.
    pub spec: Option<RunSpec>,
    /// `sweep`: the specs to sweep, in order.
    pub specs: Option<Vec<RunSpec>>,
    /// `status` / `result`: the job id.
    pub id: Option<u64>,
    /// `sweep`: at most this many of the request's cells are queued at
    /// once (default 1, clamped between 1 and the service's `--workers`).
    pub shards: Option<usize>,
    /// `submit`: block until the job is terminal and return its result in
    /// the same response (default `false`).
    pub wait: Option<bool>,
}

impl Request {
    /// A bare command with no arguments.
    fn bare(cmd: &str) -> Request {
        Request { cmd: cmd.into(), spec: None, specs: None, id: None, shards: None, wait: None }
    }

    /// `submit` — enqueue one spec; `wait` blocks for the result.
    pub fn submit(spec: RunSpec, wait: bool) -> Request {
        Request { spec: Some(spec), wait: Some(wait), ..Request::bare("submit") }
    }

    /// `status` — job-state snapshot.
    pub fn status(id: u64) -> Request {
        Request { id: Some(id), ..Request::bare("status") }
    }

    /// `result` — job-state snapshot plus the report once done.
    pub fn result(id: u64) -> Request {
        Request { id: Some(id), ..Request::bare("result") }
    }

    /// `sweep` — run a spec list as queue jobs, at most `shards` of them
    /// queued at once (capped at the service's worker count).
    pub fn sweep(specs: Vec<RunSpec>, shards: usize) -> Request {
        Request { specs: Some(specs), shards: Some(shards), ..Request::bare("sweep") }
    }

    /// `stats` — service counters.
    pub fn stats() -> Request {
        Request::bare("stats")
    }

    /// `metrics` — the daemon's live telemetry snapshot.
    pub fn metrics() -> Request {
        Request::bare("metrics")
    }

    /// `shutdown` — acknowledge, then drain and stop the service.
    pub fn shutdown() -> Request {
        Request::bare("shutdown")
    }
}

/// Aggregated service counters (the `stats` response payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Jobs accepted and still live (queued or running).
    pub jobs_live: u64,
    /// Jobs in a terminal state (done or failed).
    pub jobs_terminal: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Queue wait / run-time quantiles over terminal jobs (`None` until a
    /// job has finished; also absent in responses from older daemons).
    pub queue_latency: Option<QueueLatency>,
}

/// One response line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request was served. `false` ⇒ `error` explains why.
    pub ok: bool,
    /// The failure message when `ok` is `false`.
    pub error: Option<String>,
    /// `submit`: the accepted job's id; `status`/`result`: echoed back.
    pub id: Option<u64>,
    /// Job state name (`queued`, `running`, `done`, `failed`).
    pub state: Option<String>,
    /// Whether the result came from the cache.
    pub cache_hit: Option<bool>,
    /// The report (`result`, or `submit` with `wait`).
    pub report: Option<RunReport>,
    /// `sweep`: the merged reports, in request order.
    pub reports: Option<Vec<RunReport>>,
    /// `sweep`: per-cell cache hit/miss, aligned with `reports`.
    pub cache_hits: Option<Vec<bool>>,
    /// `stats`: the counters.
    pub stats: Option<ServiceStats>,
    /// Microseconds the job waited in the queue, when known.
    pub queued_micros: Option<u64>,
    /// Microseconds the job spent executing, when known.
    pub run_micros: Option<u64>,
    /// `metrics`: the daemon's telemetry snapshot.
    pub metrics: Option<MetricsSnapshot>,
}

impl Response {
    /// An empty success to be filled in field-by-field.
    pub fn ok() -> Response {
        Response {
            ok: true,
            error: None,
            id: None,
            state: None,
            cache_hit: None,
            report: None,
            reports: None,
            cache_hits: None,
            stats: None,
            queued_micros: None,
            run_micros: None,
            metrics: None,
        }
    }

    /// A failure response carrying `message`.
    pub fn err(message: impl Into<String>) -> Response {
        Response { ok: false, error: Some(message.into()), ..Response::ok() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::families::Family;

    #[test]
    fn requests_round_trip() {
        let spec = RunSpec::new("broadcast", Family::Grid, 36).with_seed(7);
        for req in [
            Request::submit(spec.clone(), true),
            Request::status(3),
            Request::result(3),
            Request::sweep(vec![spec], 4),
            Request::stats(),
            Request::shutdown(),
        ] {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'), "one request per line");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn hand_written_requests_parse() {
        // Minimal fields, arbitrary order — what a shell client sends.
        let req: Request = serde_json::from_str(r#"{"id": 12, "cmd": "status"}"#).unwrap();
        assert_eq!(req, Request::status(12));
        let req: Request = serde_json::from_str(r#"{"cmd": "stats"}"#).unwrap();
        assert_eq!(req, Request::stats());
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response { id: Some(4), state: Some("queued".into()), ..Response::ok() };
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
        let fail = Response::err("queue full");
        assert!(!fail.ok);
        assert_eq!(fail.error.as_deref(), Some("queue full"));
    }
}
