//! `radionetd` — the deterministic run service daemon.
//!
//! ```text
//! radionetd [--addr A] [--workers N] [--queue-cap N] [--cache-bytes N]
//!           [--audit-fraction F] [--persist FILE]
//! ```
//!
//! `radionet serve` is an alias; clients are
//! `radionet submit / status / fetch / call` (or anything that speaks the
//! newline-delimited JSON protocol — see `radionet_service::protocol`).

use radionet_service::cli;
use std::process::ExitCode;

const USAGE: &str = "\
radionetd — deterministic run service (content-addressed cache, job queue)

USAGE:
  radionetd [OPTIONS]     serve until a client sends {\"cmd\": \"shutdown\"}

OPTIONS:
  --addr A            bind address             [default: 127.0.0.1:7177; port 0 = free port]
  --workers N         worker threads (N >= 1): the most runs at once, sweep
                      cells included           [default: 2]
  --queue-cap N       backpressure high-water (N >= 1) [default: 256]
  --cache-bytes N     in-memory LRU budget     [default: 67108864]
  --audit-fraction F  fraction (0 to 1) of cache hits re-run and
                      byte-compared            [default: 0.05]
  --persist FILE      JSONL-backed persistent result store
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(())
        }
        _ => cli::serve_cmd(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("radionetd: {e}");
            ExitCode::FAILURE
        }
    }
}
