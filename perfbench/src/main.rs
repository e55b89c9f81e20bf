//! The radionet benchmark: one command that runs a seeded workload through
//! the program's public entry points, checks every output, and prints the
//! end-to-end metrics of untraced passes (`--trace 0`) or the per-layer
//! metrics of traced passes (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads: `paper-grid`, `geo-physical`, `traffic-churn` (passes of
//! `Driver::run` over fixed cells) and `serve-mixed` (an in-process
//! `radionetd` under a closed loop of `ServiceClient` submits). The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines above it are the
//! human-readable record: provenance, cells, every metric with its unit and
//! sample count and, traced, the layer shares and accounting.

mod checks;
mod metrics;
mod runs;
mod serve;
mod workloads;

use metrics::{Outcome, END_TO_END, END_TO_END_EXTRA, PER_LAYER};
use serde_json::Value;
use std::process::ExitCode;
use workloads::{Scale, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper-grid|geo-physical|traffic-churn|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite());
                seconds = Some(s.ok_or_else(|| bad("a positive number of seconds"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload; `Err` only when the benchmark cannot measure at all.
fn run(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let mut out = match args.workload {
        Workload::ServeMixed => serve::run(args.seed, args.seconds, args.trace, scale)?,
        w => runs::run(w, args.seed, args.seconds, args.trace, scale),
    };
    let rss = metrics::peak_rss_mb().ok_or("peak resident memory is unavailable (no /proc)")?;
    out.end_to_end.insert("peak_rss_mb", metrics::Sampled::new(rss, 1));
    out.end_to_end
        .insert("error_rate", metrics::Sampled::new(out.error_rate(), out.attempted as usize));
    Ok(out)
}

fn print_table(
    out: &mut Outcome,
    title: &str,
    table: &[(&'static str, &str)],
    trace: bool,
    layers: bool,
) {
    println!("{title}");
    let source = if layers { &out.layers } else { &out.end_to_end };
    let mut broken = Vec::new();
    for &(name, unit) in table {
        match source.get(name) {
            Some(s) if s.value.is_finite() => {
                println!("  {name:<28} {:>16.6} {unit:<10} n={}", s.value, s.samples)
            }
            Some(_) => broken.push(format!("metric {name} is not a finite number")),
            None => println!("  {name:<28} {:>16} {unit:<10} (does not apply here)", "-"),
        }
    }
    // A gated metric must be on the result line, so a missing one is a
    // benchmark defect.
    if layers == trace {
        for &(name, _) in if trace { PER_LAYER } else { END_TO_END } {
            if !source.contains_key(name) {
                broken.push(format!("metric {name} was not measured"));
            }
        }
    }
    out.violations.extend(broken);
}

/// The result line: the gated metrics of this mode, by name, with units.
fn result_line(out: &Outcome, trace: bool) -> String {
    let (table, source) =
        if trace { (PER_LAYER, &out.layers) } else { (END_TO_END, &out.end_to_end) };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = source.get(name).map_or(0.0, |s| s.value);
            let value = if value.is_finite() { value } else { 0.0 };
            let entry =
                vec![("value".into(), Value::F64(value)), ("unit".into(), Value::Str(unit.into()))];
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(out.violations.is_empty())),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("every value is finite")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench: workload {}, seed {}, {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# provenance: available_parallelism {}, build {}, perfbench {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("CARGO_PKG_VERSION"),
    );
    let mut out = match run(&args, Scale::Full) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    let mut e2e_table: Vec<(&'static str, &str)> = END_TO_END.to_vec();
    e2e_table.extend_from_slice(END_TO_END_EXTRA);
    print_table(
        &mut out,
        "end-to-end, untraced (median over passes):",
        &e2e_table,
        args.trace,
        false,
    );
    if args.trace {
        print_table(
            &mut out,
            "per-layer, traced (median over traced passes):",
            PER_LAYER,
            true,
            true,
        );
    }
    println!(
        "operations: {} attempted, {} failed; output checks: {}",
        out.attempted,
        out.failed,
        if out.violations.is_empty() {
            "all held".to_string()
        } else {
            format!("{} broken", out.violations.len())
        }
    );
    for v in &out.violations {
        println!("violation: {v}");
    }
    println!("{}", result_line(&out, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args { workload, seed: 3, seconds: 0.01, trace }
    }

    /// Every workload at tiny sizes, untraced and traced, through the same
    /// code and output checks as a real run: no operation fails, no
    /// invariant breaks, and every gated metric of the mode is measured.
    #[test]
    fn every_workload_passes_its_checks_at_tiny_sizes() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let out = run(&args(workload, trace), Scale::Tiny).expect("the workload runs");
                let name = workload.name();
                assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
                assert!(out.attempted > 0, "{name}");
                assert_eq!(out.failed, 0, "{name}: {:?}", out.notes);
                let (table, source) =
                    if trace { (PER_LAYER, &out.layers) } else { (END_TO_END, &out.end_to_end) };
                for &(metric, _) in table {
                    let s = source.get(metric).unwrap_or_else(|| panic!("{name}: no {metric}"));
                    assert!(s.value.is_finite(), "{name}: {metric}");
                }
                if !trace {
                    for &(metric, _) in END_TO_END {
                        assert!(out.end_to_end[metric].value > 0.0, "{name}: {metric} is 0");
                    }
                }
                let line = result_line(&out, trace);
                let doc: Value = serde_json::from_str(&line).expect("the result line is JSON");
                assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{name}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload serve-mixed --seed 4 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ServeMixed, 4, 10.0, true)
        );
        assert!(parse("--workload nope --seed 4 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload paper-grid --seed 4 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload paper-grid --seed 4 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload paper-grid --seed 4 --seconds 10").is_err());
    }

    #[test]
    fn cells_derive_from_the_seed() {
        for workload in Workload::ALL {
            let a = workloads::run_cells(workload, 1, Scale::Full);
            assert_eq!(a, workloads::run_cells(workload, 1, Scale::Full));
            if !a.is_empty() {
                assert_ne!(a, workloads::run_cells(workload, 2, Scale::Full));
            }
        }
        let requests = workloads::serve_requests(1, Scale::Full);
        assert_eq!(requests, workloads::serve_requests(1, Scale::Full));
        assert_eq!(requests.len(), workloads::SERVE_REQUESTS);
        assert!(requests.iter().all(|r| r.n <= 256));
    }
}
