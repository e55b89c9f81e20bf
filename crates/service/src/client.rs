//! The typed client side of the wire protocol: one TCP connection, one
//! request/response round per call.

use crate::protocol::{Request, Response, ServiceStats};
use radionet_api::{RunReport, RunSpec};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// A connected protocol client. Each method performs one request line and
/// reads one response line; the connection stays open across calls.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServiceClient {
    /// Connects to a running service (e.g. `"127.0.0.1:7177"`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> io::Result<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        Ok(ServiceClient { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// One raw protocol round: send `request`, read its [`Response`].
    ///
    /// # Errors
    ///
    /// I/O failures and unparseable response lines. A transport-level
    /// error is distinct from `ok: false`, which this returns unchanged.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let mut line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // One write per line: a separate write of the newline would wait
        // out the peer's delayed ACK under Nagle's algorithm.
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "service closed"));
        }
        serde_json::from_str(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Like [`ServiceClient::call`] but turns `ok: false` into an error.
    fn call_ok(&mut self, request: &Request) -> io::Result<Response> {
        let response = self.call(request)?;
        if response.ok {
            Ok(response)
        } else {
            Err(io::Error::other(response.error.unwrap_or_else(|| "unspecified error".into())))
        }
    }

    /// Submits a spec without waiting; returns the job id.
    ///
    /// # Errors
    ///
    /// Transport failures plus service rejections (e.g. backpressure).
    pub fn submit(&mut self, spec: &RunSpec) -> io::Result<u64> {
        let response = self.call_ok(&Request::submit(spec.clone(), false))?;
        response.id.ok_or_else(|| io::Error::other("submit response without id"))
    }

    /// Submits a spec and blocks until its terminal response.
    ///
    /// # Errors
    ///
    /// Transport failures plus service rejections.
    pub fn submit_wait(&mut self, spec: &RunSpec) -> io::Result<Response> {
        self.call_ok(&Request::submit(spec.clone(), true))
    }

    /// Snapshots a job's state.
    ///
    /// # Errors
    ///
    /// Transport failures and unknown ids.
    pub fn status(&mut self, id: u64) -> io::Result<Response> {
        self.call_ok(&Request::status(id))
    }

    /// Snapshots a job's state including its report, once done.
    ///
    /// # Errors
    ///
    /// Transport failures and unknown ids.
    pub fn result(&mut self, id: u64) -> io::Result<Response> {
        self.call_ok(&Request::result(id))
    }

    /// Runs a sweep as queue jobs served through the cache, at most
    /// `shards` cells queued at once (capped at the service's worker
    /// count); returns the in-order reports and the per-cell hit flags.
    ///
    /// # Errors
    ///
    /// Transport failures and failing cells.
    pub fn sweep(
        &mut self,
        specs: &[RunSpec],
        shards: usize,
    ) -> io::Result<(Vec<RunReport>, Vec<bool>)> {
        let response = self.call_ok(&Request::sweep(specs.to_vec(), shards))?;
        match (response.reports, response.cache_hits) {
            (Some(reports), Some(hits)) => Ok((reports, hits)),
            _ => Err(io::Error::other("sweep response without reports")),
        }
    }

    /// Fetches the service counters.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> io::Result<ServiceStats> {
        let response = self.call_ok(&Request::stats())?;
        response.stats.ok_or_else(|| io::Error::other("stats response without stats"))
    }

    /// Asks the service to shut down (acknowledged, then it drains).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.call_ok(&Request::shutdown()).map(|_| ())
    }
}
