//! The one streaming sweep loop, [`Driver::run_sweep`], and the two
//! [`Executor`]s a block of cells runs on.
//!
//! Every run is a pure function of its spec, so the emitted bytes depend
//! on neither the executor, the block size nor the thread count. A
//! [`Executor::Workers`] block is dealt to `<exe> --worker` subprocesses
//! (normally `radionetd`) by [`shard_of`], so the same sweep always
//! shards the same way. A worker reads spec JSONL on stdin and writes
//! report JSONL on stdout ([`worker_loop`]); a failing cell ends its
//! worker with one `{"error": …}` line naming the cause.

use crate::driver::{Driver, RunError, RunReport};
use crate::seeds;
use crate::sink::ResultSink;
use crate::spec::RunSpec;
use radionet_telemetry::Stopwatch;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where the cells of a sweep block run.
#[derive(Clone, Debug)]
pub enum Executor {
    /// On the rayon pool in this process. A block of one cell runs on the
    /// calling thread, so `chunk = 1` is a sequential sweep.
    Threads,
    /// Split by [`shard_of`] across up to `shards` spawned `<exe> --worker`
    /// subprocesses per block.
    Workers {
        /// The worker executable (normally the `radionetd` binary).
        exe: PathBuf,
        /// How many workers a block is split across.
        shards: usize,
    },
}

impl Driver {
    /// Runs `specs` on `executor` in blocks of `chunk` (at least 1) and
    /// streams the reports to `sink` in spec order. Returns the number of
    /// reports emitted.
    ///
    /// Specs are pulled lazily, so at most one block of specs and reports
    /// exists at a time. The stream is byte-identical for every executor
    /// and block size. The sink is finished on every exit: at the first
    /// failing cell it holds the reports of every cell before it, and the
    /// cell's own error is returned. With telemetry attached, each block
    /// records `sweep_chunk_micros` and counts its cells into `sweep_cells`.
    ///
    /// ```
    /// use radionet_api::{Driver, Executor, JsonlSink, RunSpec};
    /// use radionet_graph::families::Family;
    ///
    /// let specs: Vec<RunSpec> =
    ///     (0..4).map(|seed| RunSpec::new("luby-mis", Family::Path, 8).with_seed(seed)).collect();
    /// let driver = Driver::standard();
    /// let (mut sequential, mut parallel) = (Vec::new(), Vec::new());
    /// let cells = specs.iter().cloned();
    /// driver.run_sweep(cells, 1, &Executor::Threads, &mut JsonlSink::new(&mut sequential))?;
    /// driver.run_sweep(specs, 3, &Executor::Threads, &mut JsonlSink::new(&mut parallel))?;
    /// assert_eq!(sequential, parallel);
    /// # Ok::<(), radionet_api::RunError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// The first failing cell's [`RunError`] in spec order, worker failures
    /// as [`RunError::Worker`], and sink failures as [`RunError::Sink`].
    pub fn run_sweep<I>(
        &self,
        specs: I,
        chunk: usize,
        executor: &Executor,
        sink: &mut dyn ResultSink,
    ) -> Result<usize, RunError>
    where
        I: IntoIterator<Item = RunSpec>,
    {
        let tel = self.telemetry();
        let mut specs = specs.into_iter();
        let mut emitted = 0usize;
        let swept = loop {
            let block: Vec<RunSpec> = specs.by_ref().take(chunk.max(1)).collect();
            if block.is_empty() {
                break Ok(());
            }
            let watch = Stopwatch::start(tel.is_some());
            let results: Vec<Result<RunReport, RunError>> = match executor {
                Executor::Threads => block.par_iter().map(|spec| self.run(spec)).collect(),
                // Every earlier block was emitted whole, so `emitted` is
                // the sweep position of this block's first cell.
                Executor::Workers { exe, shards } => run_on_workers(exe, *shards, emitted, &block),
            };
            watch.stop(tel, "sweep_chunk_micros");
            if let Some(tel) = tel {
                tel.count("sweep_cells", block.len() as u64);
            }
            let emit = results.into_iter().try_for_each(|result| -> Result<(), RunError> {
                sink.emit(&result?)?;
                emitted += 1;
                Ok(())
            });
            if emit.is_err() {
                break emit;
            }
        };
        // Terminate the stream either way; the sweep's own error wins.
        let finished = sink.finish();
        swept?;
        finished?;
        Ok(emitted)
    }
}

/// The worker of sweep position `index` carrying `spec`: a [`seeds::mix`]
/// of the cell seed and the position, reduced mod `shards`. Mixing the
/// position in keeps shards balanced even when a sweep reuses one seed.
pub fn shard_of(index: usize, spec: &RunSpec, shards: usize) -> usize {
    (seeds::mix(spec.seed ^ seeds::mix(index as u64)) % shards.max(1) as u64) as usize
}

/// The line a worker writes in place of a report when its cell fails.
#[derive(Serialize, Deserialize)]
struct WorkerError {
    error: String,
}

/// Deals `block` (whose first cell sits at sweep position `start`) to its
/// shards, runs each shard on its own worker, and returns the results in
/// block order up to the first cell without one. A worker stops at its
/// first failure, so a cell without a result always follows a failed one.
fn run_on_workers(
    exe: &Path,
    shards: usize,
    start: usize,
    block: &[RunSpec],
) -> Vec<Result<RunReport, RunError>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards.max(1)];
    for (i, spec) in block.iter().enumerate() {
        parts[shard_of(start + i, spec, shards)].push(i);
    }
    parts.retain(|part| !part.is_empty());
    let outputs: Vec<Vec<Result<RunReport, RunError>>> = std::thread::scope(|s| {
        let workers: Vec<_> = parts
            .iter()
            .map(|part| s.spawn(|| run_on_worker(exe, part.iter().map(|&i| &block[i]).collect())))
            .collect();
        workers.into_iter().map(|w| w.join().expect("shard worker reader panicked")).collect()
    });
    let mut slots: Vec<Option<Result<RunReport, RunError>>> = block.iter().map(|_| None).collect();
    for (part, output) in parts.iter().zip(outputs) {
        for (&i, result) in part.iter().zip(output) {
            slots[i] = Some(result);
        }
    }
    slots.into_iter().map_while(|slot| slot).collect()
}

/// Runs `specs` in order on one spawned `<exe> --worker` and returns its
/// results, which end at the first failure.
fn run_on_worker(exe: &Path, specs: Vec<&RunSpec>) -> Vec<Result<RunReport, RunError>> {
    let failed = |why: String| RunError::Worker(format!("shard worker {}: {why}", exe.display()));
    let spawned =
        Command::new(exe).arg("--worker").stdin(Stdio::piped()).stdout(Stdio::piped()).spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return vec![Err(failed(format!("cannot start: {e}")))],
    };
    let input: String = specs
        .iter()
        .map(|spec| serde_json::to_string(spec).expect("specs encode") + "\n")
        .collect();
    let mut stdin = child.stdin.take().expect("stdin is piped");
    // Fed from its own thread, so a worker already writing reports never
    // deadlocks against us still writing specs; the dropped pipe is EOF.
    let feeder = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let replies = io::BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
    let mut results = Vec::with_capacity(specs.len());
    for reply in replies.take(specs.len()) {
        let result = match reply {
            Ok(line) => serde_json::from_str(&line).map_err(|e| {
                match serde_json::from_str::<WorkerError>(&line) {
                    Ok(cell) => RunError::Worker(cell.error),
                    Err(_) => failed(format!("unreadable report: {e}")),
                }
            }),
            Err(e) => Err(failed(format!("unreadable output: {e}"))),
        };
        let stop = result.is_err();
        results.push(result);
        if stop {
            break;
        }
    }
    // Whatever the worker still had to do, this sweep no longer needs it.
    let _ = child.kill();
    let status = child.wait();
    let _ = feeder.join();
    if results.len() < specs.len() && results.last().is_none_or(Result::is_ok) {
        let status = status.map_or_else(|e| e.to_string(), |s| s.to_string());
        let why = format!("exited ({status}) after {} of {} reports", results.len(), specs.len());
        results.push(Err(failed(why)));
    }
    results
}

/// The `--worker` side of [`Executor::Workers`]: reads spec JSONL from
/// `input`, runs each spec in order, and writes report JSONL to `output`.
/// Blank lines are skipped, so a trailing newline is harmless.
///
/// # Errors
///
/// I/O failures, unparseable spec lines and failing runs. A failing run
/// first writes one `{"error": …}` line with its [`RunError`] text, so
/// the coordinator can name the cause; the worker stops there.
pub fn worker_loop(driver: &Driver, input: impl BufRead, mut output: impl Write) -> io::Result<()> {
    let invalid = |e: serde_json::Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let run = driver.run(&serde_json::from_str(&line).map_err(invalid)?);
        let reply = match &run {
            Ok(report) => serde_json::to_string(report),
            Err(e) => serde_json::to_string(&WorkerError { error: e.to_string() }),
        };
        writeln!(output, "{}", reply.map_err(invalid)?)?;
        if let Err(e) = run {
            output.flush()?;
            return Err(io::Error::other(e));
        }
    }
    output.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{JsonlSink, MemorySink};
    use radionet_graph::families::Family;
    use radionet_sim::Registry;

    fn specs(n: usize) -> Vec<RunSpec> {
        (0..n).map(|i| RunSpec::new("luby-mis", Family::Path, 8).with_seed(i as u64)).collect()
    }

    /// Sweeps through an instrumented driver count their cells and chunk
    /// walls without perturbing the emitted stream.
    #[test]
    fn sweep_telemetry_counts_cells_without_changing_the_stream() {
        let mut plain = MemorySink::default();
        Driver::standard().run_sweep(specs(5), 1, &Executor::Threads, &mut plain).unwrap();
        let tel = Registry::default();
        let driver = Driver::standard().with_telemetry(tel.clone());
        let mut timed = MemorySink::default();
        driver.run_sweep(specs(5), 2, &Executor::Threads, &mut timed).unwrap();
        assert_eq!(plain.reports, timed.reports);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("sweep_cells"), Some(5));
        assert!(snap.histograms.iter().any(|h| h.name == "sweep_chunk_micros" && h.count == 3));
    }

    #[test]
    fn assignment_is_deterministic_and_balanced_enough() {
        let list = specs(64);
        for (i, s) in list.iter().enumerate() {
            assert_eq!(shard_of(i, s, 7), shard_of(i, s, 7));
            assert!(shard_of(i, s, 7) < 7);
        }
        // All-equal seeds still spread (the position is mixed in).
        let same: Vec<RunSpec> =
            (0..64).map(|_| RunSpec::new("luby-mis", Family::Path, 8)).collect();
        let mut used = [false; 4];
        for (i, s) in same.iter().enumerate() {
            used[shard_of(i, s, 4)] = true;
        }
        assert!(used.iter().all(|&u| u), "64 equal-seed cells must touch all 4 shards");
    }

    #[test]
    fn worker_loop_round_trips_jsonl() {
        let driver = Driver::standard();
        let input: String =
            specs(3).iter().map(|s| serde_json::to_string(s).unwrap() + "\n").collect();
        let mut out = Vec::new();
        worker_loop(&driver, input.as_bytes(), &mut out).unwrap();
        let mut expect = Vec::new();
        driver
            .run_sweep(specs(3), 1, &Executor::Threads, &mut JsonlSink::new(&mut expect))
            .unwrap();
        assert_eq!(out, expect, "worker output is the sequential sweep stream");
    }

    #[test]
    fn a_missing_worker_executable_is_named() {
        let executor = Executor::Workers { exe: "/nonexistent/radionetd".into(), shards: 2 };
        let mut sink = MemorySink::default();
        let err = Driver::standard().run_sweep(specs(3), 3, &executor, &mut sink).unwrap_err();
        assert!(matches!(err, RunError::Worker(_)), "{err:?}");
        assert!(err.to_string().contains("/nonexistent/radionetd"), "{err}");
        assert!(sink.reports.is_empty());
    }
}
