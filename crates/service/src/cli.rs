//! Shared command implementations behind the `radionetd` binary and the
//! `radionet` subcommands — one place parses flags (the [`Args`] cursor
//! and the [`SpecFlags`] that `run` and `submit` share) and speaks the
//! protocol, two binaries expose it.

use crate::client::ServiceClient;
use crate::protocol::Request;
use crate::server::{Service, ServiceConfig};
use radionet_api::{Dynamics, RunSpec};
use radionet_graph::families::Family;
use radionet_sim::{Kernel, ReceptionMode, SinrConfig};
use std::io::{BufRead, Write};

/// The default loopback endpoint shared by server and client commands.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7177";

/// A tiny `--key value` / `--switch` cursor over an argument list.
pub struct Args<'a> {
    rest: &'a [String],
    i: usize,
}

impl<'a> Args<'a> {
    /// A cursor at the first argument of `rest`.
    pub fn new(rest: &'a [String]) -> Self {
        Args { rest, i: 0 }
    }

    /// The next argument, if any.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.rest.get(self.i)?;
        self.i += 1;
        Some(flag.as_str())
    }

    /// The value following `flag`; an error if `flag` came last.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let v = self.rest.get(self.i).ok_or_else(|| format!("{flag} needs a value"))?;
        self.i += 1;
        Ok(v.as_str())
    }
}

/// Parses a flag's value, naming the flag and the value on failure.
pub fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

/// Parses a `--kernel` value: `sparse` or `dense`.
pub fn parse_kernel(name: &str) -> Result<Kernel, String> {
    match name {
        "sparse" => Ok(Kernel::Sparse),
        "dense" => Ok(Kernel::Dense),
        other => Err(format!("unknown kernel {other:?}; sparse or dense")),
    }
}

/// The spec flags `radionet run` and `radionet submit` share: either
/// `--spec FILE|-` (a full JSON document, stdin for `-`) or the quick
/// flags `--task`, `--family`, `--n`, `--seed`, `--reception`,
/// `--kernel`, `--dynamics` and `--steps` over a command's default spec.
pub struct SpecFlags {
    spec: RunSpec,
    file: Option<String>,
    quick: usize,
}

impl SpecFlags {
    /// Starts from a command's default spec.
    pub fn new(default: RunSpec) -> Self {
        SpecFlags { spec: default, file: None, quick: 0 }
    }

    /// Consumes `flag` (and its value from `args`) if it is a spec flag;
    /// `Ok(false)` leaves any other flag to the caller. Errors name a
    /// missing or malformed value.
    pub fn take(&mut self, args: &mut Args<'_>, flag: &str) -> Result<bool, String> {
        let spec = &mut self.spec;
        match flag {
            "--spec" => {
                self.file = Some(args.value(flag)?.to_string());
                return Ok(true);
            }
            "--task" => spec.task = args.value(flag)?.to_string(),
            "--family" => {
                let name = args.value(flag)?;
                let known = || Family::ALL.map(Family::name).join(", ");
                spec.family = Family::ALL
                    .into_iter()
                    .find(|f| f.name() == name)
                    .ok_or_else(|| format!("unknown family {name:?}; one of: {}", known()))?;
            }
            "--n" => spec.n = parse(flag, args.value(flag)?)?,
            "--seed" => spec.seed = parse(flag, args.value(flag)?)?,
            "--reception" => {
                spec.reception = match args.value(flag)? {
                    "protocol" => ReceptionMode::Protocol,
                    "protocol+cd" | "cd" => ReceptionMode::ProtocolCd,
                    // Geometry-sourced physical reception: positions come
                    // from the family's own embedding (static) or the live
                    // moving point set (mobility dynamics) — no
                    // hand-shipped coordinates. Custom physics or explicit
                    // snapshots go through --spec.
                    "sinr" => ReceptionMode::Sinr(SinrConfig::geometric()),
                    other => {
                        return Err(format!(
                            "unknown reception {other:?}; protocol, protocol+cd, or sinr \
                             (geometric families; custom SINR configs go through --spec)"
                        ))
                    }
                };
            }
            "--kernel" => spec.kernel = parse_kernel(args.value(flag)?)?,
            "--dynamics" => {
                let name = args.value(flag)?;
                spec.dynamics = Dynamics::preset(name).ok_or_else(|| {
                    format!("unknown dynamics {name:?}; one of: {}", Dynamics::PRESETS.join(", "))
                })?;
            }
            "--steps" => spec.steps = Some(parse(flag, args.value(flag)?)?),
            _ => return Ok(false),
        }
        self.quick += 1;
        Ok(true)
    }

    /// The spec the flags describe: the `--spec` document, or the default
    /// spec with the quick flags applied. Errors on `--spec` together with
    /// a quick flag, an unreadable file, or a document that is not a
    /// `RunSpec`.
    pub fn finish(self) -> Result<RunSpec, String> {
        let Some(path) = self.file else { return Ok(self.spec) };
        if self.quick > 0 {
            return Err("--spec replaces the whole spec; drop the other spec flags".into());
        }
        let json = if path == "-" {
            std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string())?
        } else {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
        };
        serde_json::from_str(&json).map_err(|e| format!("bad spec in {path}: {e}"))
    }
}

/// The [`ServiceConfig`] the `serve` flags describe: `--addr A` (default
/// [`DEFAULT_ADDR`]; port 0 picks a free port), `--workers N` and
/// `--queue-cap N` (each at least 1), `--cache-bytes N`,
/// `--audit-fraction F` (within `[0, 1]`) and `--persist FILE`.
///
/// # Errors
///
/// An unknown flag, or a missing, malformed or out-of-range value, naming
/// the flag.
pub fn serve_config(rest: &[String]) -> Result<ServiceConfig, String> {
    let mut args = Args::new(rest);
    let mut config = ServiceConfig { addr: DEFAULT_ADDR.into(), ..ServiceConfig::default() };
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => config.addr = args.value(flag)?.to_string(),
            "--workers" => config.workers = parse_positive(flag, args.value(flag)?)?,
            "--queue-cap" => config.queue_capacity = parse_positive(flag, args.value(flag)?)?,
            "--cache-bytes" => config.cache.max_bytes = parse(flag, args.value(flag)?)?,
            "--audit-fraction" => {
                let value = args.value(flag)?;
                let fraction: f64 = parse(flag, value)?;
                // `contains` is false for NaN, which `parse` accepts.
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!("{flag} {value}: must be a fraction within [0, 1]"));
                }
                config.cache.audit_fraction = fraction;
            }
            "--persist" => config.cache.persist = Some(args.value(flag)?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(config)
}

/// Parses a count flag's value, refusing 0.
fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    match parse(flag, value)? {
        0 => Err(format!("{flag} 0: must be at least 1")),
        count => Ok(count),
    }
}

/// `serve`: run the daemon with the [`serve_config`] flags in the
/// foreground until a client sends `shutdown`.
///
/// # Errors
///
/// Flag, bind, and persistent-store failures, as printable text.
pub fn serve_cmd(rest: &[String]) -> Result<(), String> {
    let handle = Service::start(serve_config(rest)?).map_err(|e| e.to_string())?;
    // The exact line CI greps for; flushed so a piped supervisor sees it
    // before the first request arrives.
    println!("radionetd listening on {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    handle.join();
    eprintln!("radionetd: drained and stopped");
    Ok(())
}

/// `submit`: send one spec to a running service.
///
/// Flags: `--addr A`, the [`SpecFlags`] (default: broadcast on a 36-node
/// grid), `--wait` (block for the terminal response). Prints the response
/// as pretty JSON.
///
/// # Errors
///
/// Flag, transport, and service failures, as printable text.
pub fn submit_cmd(rest: &[String]) -> Result<(), String> {
    let mut args = Args::new(rest);
    let mut addr = DEFAULT_ADDR.to_string();
    let mut spec = SpecFlags::new(RunSpec::new("broadcast", Family::Grid, 36));
    let mut wait = false;
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => addr = args.value(flag)?.to_string(),
            "--wait" => wait = true,
            other if spec.take(&mut args, other)? => {}
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let spec = spec.finish()?;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The spec `submit`'s flag loop builds from `argv`.
    fn spec_of(argv: &[&str]) -> Result<RunSpec, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut args = Args::new(&argv);
        let mut flags = SpecFlags::new(RunSpec::new("broadcast", Family::Grid, 36));
        while let Some(flag) = args.next_flag() {
            if !flags.take(&mut args, flag)? {
                return Err(format!("unknown flag {flag:?}"));
            }
        }
        flags.finish()
    }

    #[test]
    fn serve_flags_refuse_out_of_range_values() {
        let config =
            |argv: &[&str]| serve_config(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = config(&["--workers", "3", "--queue-cap", "8", "--audit-fraction", "1"]).unwrap();
        assert_eq!((ok.workers, ok.queue_capacity, ok.cache.audit_fraction), (3, 8, 1.0));
        assert_eq!(ok.addr, DEFAULT_ADDR);
        for argv in [
            ["--workers", "0"],
            ["--queue-cap", "0"],
            ["--audit-fraction", "1.5"],
            ["--audit-fraction", "-0.1"],
            ["--audit-fraction", "nan"],
        ] {
            let err = config(&argv).unwrap_err();
            assert!(err.starts_with(&format!("{} {}:", argv[0], argv[1])), "{argv:?}: {err}");
        }
    }

    #[test]
    fn spec_flags_cover_every_axis_and_guard_spec_documents() {
        let spec = spec_of(&[
            "--family",
            "unit-disk",
            "--reception",
            "sinr",
            "--dynamics",
            "mobility:waypoint",
            "--steps",
            "50",
            "--kernel",
            "dense",
        ])
        .unwrap();
        assert_eq!(spec.family, Family::UnitDisk);
        assert_eq!(spec.reception, ReceptionMode::Sinr(SinrConfig::geometric()));
        assert_eq!(spec.dynamics, Dynamics::preset("mobility:waypoint").unwrap());
        assert_eq!((spec.steps, spec.kernel), (Some(50), Kernel::Dense));
        assert_eq!((spec.task.as_str(), spec.n), ("broadcast", 36), "the defaults survive");
        // A spec document replaces the whole spec, so mixing is refused
        // (before stdin is read).
        let err = spec_of(&["--spec", "-", "--n", "9"]).unwrap_err();
        assert!(err.contains("--spec replaces the whole spec"), "{err}");
        let err = spec_of(&["--family", "nope"]).unwrap_err();
        assert!(err.contains("one of: path, cycle, grid"), "{err}");
        // The retired `event` kernel is refused by name, as a flag and in a
        // spec document, with the kernels that remain.
        let err = spec_of(&["--kernel", "event"]).unwrap_err();
        assert!(err.contains("unknown kernel") && err.contains("sparse or dense"), "{err}");
        let doc = serde_json::to_string(&RunSpec::new("broadcast", Family::Grid, 36)).unwrap();
        let doc = doc.replace(r#""kernel":"Sparse""#, r#""kernel":"Event""#);
        assert!(doc.contains(r#""kernel":"Event""#), "{doc}");
        let path = std::env::temp_dir().join(format!("radionet-event-{}.json", std::process::id()));
        std::fs::write(&path, doc).unwrap();
        let err = spec_of(&["--spec", path.to_str().unwrap()]).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(["`Event`", "Sparse", "Dense"].iter().all(|w| err.contains(w)), "{err}");
    }
}
