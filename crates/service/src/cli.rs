//! Shared command implementations behind the `radionetd` binary and the
//! `radionet serve / submit / status / fetch / call` subcommands — one
//! place parses flags and speaks the protocol, two binaries expose it.

use crate::client::ServiceClient;
use crate::protocol::Request;
use crate::server::{Service, ServiceConfig};
use radionet_api::sweep::worker_loop;
use radionet_api::{Driver, RunSpec};
use radionet_graph::families::Family;
use radionet_sim::Kernel;
use std::io::{BufRead, Write};

/// The default loopback endpoint shared by server and client commands.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7177";

/// A tiny `--key value` / `--switch` cursor (mirrors the root CLI's).
struct Args<'a> {
    rest: &'a [String],
    i: usize,
}

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Self {
        Args { rest, i: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.rest.get(self.i)?;
        self.i += 1;
        Some(flag.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let v = self.rest.get(self.i).ok_or_else(|| format!("{flag} needs a value"))?;
        self.i += 1;
        Ok(v.as_str())
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

/// `serve`: run the daemon in the foreground until a client sends
/// `shutdown`.
///
/// Flags: `--addr A` (default [`DEFAULT_ADDR`]; port 0 picks a free
/// port), `--workers N`, `--queue-cap N`, `--cache-bytes N`,
/// `--audit-fraction F`, `--persist FILE`.
///
/// # Errors
///
/// Flag, bind, and persistent-store failures, as printable text.
pub fn serve_cmd(rest: &[String]) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut config = ServiceConfig { addr: DEFAULT_ADDR.into(), ..ServiceConfig::default() };
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => config.addr = args.value(flag)?.to_string(),
            "--workers" => config.workers = parse(flag, args.value(flag)?)?,
            "--queue-cap" => config.queue_capacity = parse(flag, args.value(flag)?)?,
            "--cache-bytes" => config.cache.max_bytes = parse(flag, args.value(flag)?)?,
            "--audit-fraction" => config.cache.audit_fraction = parse(flag, args.value(flag)?)?,
            "--persist" => config.cache.persist = Some(args.value(flag)?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let handle = Service::start(config).map_err(|e| e.to_string())?;
    // The exact line CI greps for; flushed so a piped supervisor sees it
    // before the first request arrives.
    println!("radionetd listening on {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    handle.join();
    eprintln!("radionetd: drained and stopped");
    Ok(())
}

/// `--worker`: the subprocess shard worker — spec JSONL on stdin, report
/// JSONL on stdout (see [`worker_loop`]).
///
/// # Errors
///
/// I/O and run failures, as printable text.
pub fn worker_cmd() -> Result<(), String> {
    let driver = Driver::standard();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    worker_loop(&driver, stdin.lock(), stdout.lock()).map_err(|e| e.to_string())
}

/// Builds the spec a `submit` command describes: either `--spec FILE|-`
/// (a full JSON document) or the quick flags
/// `--task/--family/--n/--seed/--kernel`.
fn spec_from_flags(args: &mut Args<'_>, flag: &str, spec: &mut RunSpec) -> Result<bool, String> {
    match flag {
        "--task" => spec.task = args.value(flag)?.to_string(),
        "--family" => {
            let name = args.value(flag)?;
            spec.family = Family::ALL
                .into_iter()
                .find(|f| f.name() == name)
                .ok_or_else(|| format!("unknown family {name:?}"))?;
        }
        "--n" => spec.n = parse(flag, args.value(flag)?)?,
        "--seed" => spec.seed = parse(flag, args.value(flag)?)?,
        "--kernel" => {
            spec.kernel = match args.value(flag)? {
                "sparse" => Kernel::Sparse,
                "dense" => Kernel::Dense,
                "event" => Kernel::Event,
                other => return Err(format!("unknown kernel {other:?}")),
            };
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Reads a full spec document from a file or stdin (`-`).
fn spec_from_file(path: &str) -> Result<RunSpec, String> {
    let json = if path == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string())?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    serde_json::from_str(&json).map_err(|e| format!("bad spec in {path}: {e}"))
}

/// `submit`: send one spec to a running service.
///
/// Flags: `--addr A`, `--spec FILE|-` or the quick spec flags, `--wait`
/// (block for the terminal response). Prints the response as pretty JSON.
///
/// # Errors
///
/// Flag, transport, and service failures, as printable text.
pub fn submit_cmd(rest: &[String]) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut addr = DEFAULT_ADDR.to_string();
    let mut spec = RunSpec::new("broadcast", Family::Grid, 36);
    let mut spec_file: Option<String> = None;
    let mut wait = false;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => addr = args.value(flag)?.to_string(),
            "--spec" => spec_file = Some(args.value(flag)?.to_string()),
            "--wait" => wait = true,
            other => {
                if !spec_from_flags(&mut args, other, &mut spec)? {
                    return Err(format!("unknown flag {other:?}"));
                }
            }
        }
    }
    if let Some(path) = spec_file {
        spec = spec_from_file(&path)?;
    }
    let mut client = ServiceClient::connect(&addr).map_err(|e| e.to_string())?;
    let response = client.call(&Request::submit(spec, wait)).map_err(|e| e.to_string())?;
    println!("{}", serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?);
    if response.ok {
        Ok(())
    } else {
        Err(response.error.unwrap_or_else(|| "unspecified service error".into()))
    }
}

/// `status` / `fetch`: query a submitted job. `fetch` includes the
/// report; with `--report-only` it prints just the report as one compact
/// JSON line (byte-comparable across requests — what the CI smoke diffs).
///
/// # Errors
///
/// Flag, transport, and service failures, as printable text.
pub fn status_cmd(rest: &[String], with_report: bool) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut addr = DEFAULT_ADDR.to_string();
    let mut id: Option<u64> = None;
    let mut report_only = false;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => addr = args.value(flag)?.to_string(),
            "--id" => id = Some(parse(flag, args.value(flag)?)?),
            "--report-only" if with_report => report_only = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let id = id.ok_or("--id is required")?;
    let mut client = ServiceClient::connect(&addr).map_err(|e| e.to_string())?;
    let request = if with_report { Request::result(id) } else { Request::status(id) };
    let response = client.call(&request).map_err(|e| e.to_string())?;
    if report_only {
        let report = response
            .report
            .as_ref()
            .ok_or_else(|| format!("job {id} has no report (state: {:?})", response.state))?;
        println!("{}", serde_json::to_string(report).map_err(|e| e.to_string())?);
    } else {
        println!("{}", serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?);
    }
    if response.ok {
        Ok(())
    } else {
        Err(response.error.unwrap_or_else(|| "unspecified service error".into()))
    }
}

/// `metrics`: scrape a running daemon's telemetry and render it as
/// Prometheus-style text (the default) or raw JSON (`--json`).
///
/// Flags: `--addr A`, `--json`.
///
/// # Errors
///
/// Flag, transport, and service failures, as printable text.
pub fn metrics_cmd(rest: &[String]) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut addr = DEFAULT_ADDR.to_string();
    let mut json = false;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => addr = args.value(flag)?.to_string(),
            "--json" => json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mut client = ServiceClient::connect(&addr).map_err(|e| e.to_string())?;
    let response = client.call(&Request::metrics()).map_err(|e| e.to_string())?;
    if !response.ok {
        return Err(response.error.unwrap_or_else(|| "unspecified service error".into()));
    }
    let snapshot = response.metrics.ok_or("response carried no metrics snapshot")?;
    if json {
        println!("{}", serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?);
    } else {
        print!("{}", radionet_telemetry::render_prometheus(&snapshot));
    }
    Ok(())
}

/// `call`: the raw protocol passthrough — request JSON lines on stdin,
/// response JSON lines on stdout. CI drives `sweep`, `stats`, and
/// `shutdown` through this without bespoke flags.
///
/// # Errors
///
/// Flag and transport failures, plus any `ok: false` response (after
/// printing it), as printable text.
pub fn call_cmd(rest: &[String]) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut addr = DEFAULT_ADDR.to_string();
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => addr = args.value(flag)?.to_string(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mut client = ServiceClient::connect(&addr).map_err(|e| e.to_string())?;
    let mut failures = 0usize;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let request: Request =
            serde_json::from_str(&line).map_err(|e| format!("bad request line: {e}"))?;
        let response = client.call(&request).map_err(|e| e.to_string())?;
        if !response.ok {
            failures += 1;
        }
        println!("{}", serde_json::to_string(&response).map_err(|e| e.to_string())?);
    }
    if failures > 0 {
        return Err(format!("{failures} request(s) answered ok: false"));
    }
    Ok(())
}
