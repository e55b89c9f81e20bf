//! Executor parity for the one sweep loop, `Driver::run_sweep`: N-cell
//! rayon blocks (what `--shards N` selects in process) and `radionetd
//! --worker` subprocesses must emit a stream byte-identical to the
//! sequential sweep over the extended catalogue, under the sparse and the
//! dense kernel — and when a cell fails, every executor must emit the same
//! sequential prefix and name the cause.

use radionet_api::{Driver, Executor, JsonArraySink, JsonlSink, MemorySink, RunReport, RunSpec};
use radionet_graph::families::Family;
use radionet_scenario::runner::SweepConfig;
use radionet_scenario::Scenario;
use radionet_sim::{Kernel, Registry};
use std::path::PathBuf;

/// Every cell of the extended catalogue (static + mobility presets) at one
/// modest size.
fn extended_config() -> SweepConfig {
    SweepConfig {
        scenarios: Scenario::extended_catalogue(),
        sizes: vec![36],
        seeds: 1,
        base_seed: 0x00DA_51E5,
    }
}

fn workers(shards: usize) -> Executor {
    Executor::Workers { exe: PathBuf::from(env!("CARGO_BIN_EXE_radionetd")), shards }
}

/// The JSONL stream of a sweep that must succeed.
fn sweep_bytes(specs: &[RunSpec], chunk: usize, executor: &Executor) -> Vec<u8> {
    let mut out = Vec::new();
    let sink = &mut JsonlSink::new(&mut out);
    let emitted = Driver::standard().run_sweep(specs.to_vec(), chunk, executor, sink).unwrap();
    assert_eq!(emitted, specs.len(), "every cell must be emitted");
    out
}

#[test]
fn sharded_sweeps_are_byte_identical_over_the_extended_catalogue() {
    let specs: Vec<RunSpec> = extended_config().specs(Kernel::Sparse).collect();
    assert!(specs.len() >= 8, "the extended catalogue should be a real sweep");
    let sequential = sweep_bytes(&specs, 1, &Executor::Threads);
    for shards in [2, 3, 7] {
        let sharded = sweep_bytes(&specs, shards, &Executor::Threads);
        assert_eq!(sequential, sharded, "{shards}-cell blocks diverged from sequential");
    }
}

#[test]
fn dense_kernel_blocks_match_the_sequential_sweep() {
    // The dense reference kernel's reports must not depend on the block
    // size either.
    let specs: Vec<RunSpec> = extended_config().specs(Kernel::Dense).collect();
    let sequential = sweep_bytes(&specs, 1, &Executor::Threads);
    let sharded = sweep_bytes(&specs, 3, &Executor::Threads);
    assert_eq!(sequential, sharded, "dense-kernel blocks diverged");
}

#[test]
fn subprocess_workers_match_in_process_workers() {
    let specs: Vec<RunSpec> =
        (0..6).map(|i| RunSpec::new("broadcast", Family::Grid, 16).with_seed(i as u64)).collect();
    let sequential = sweep_bytes(&specs, 1, &Executor::Threads);
    assert_eq!(sequential, sweep_bytes(&specs, 3, &Executor::Threads));
    let subprocess = sweep_bytes(&specs, 4, &workers(3));
    assert_eq!(sequential, subprocess, "subprocess workers must be output-indistinguishable");
    // The coordinator's loop records the sweep metrics for worker blocks too.
    let tel = Registry::default();
    let driver = Driver::standard().with_telemetry(tel.clone());
    driver.run_sweep(specs, 4, &workers(3), &mut MemorySink::default()).unwrap();
    let snap = tel.snapshot();
    assert_eq!(snap.counter("sweep_cells"), Some(6));
    assert!(snap.histograms.iter().any(|h| h.name == "sweep_chunk_micros" && h.count == 2));
}

/// A failing cell anywhere in the sweep: every executor emits exactly the
/// sequential prefix before it into a sink that still finishes as valid
/// JSON, and returns an error naming the cell's cause.
#[test]
fn failing_cells_keep_the_sequential_prefix_on_every_executor() {
    let cases = [
        (5, 0, "invalid spec"),
        (5, 2, "invalid spec"),
        (5, 4, "invalid spec"),
        (2, 1, "unknown task"),
        (6, 4, "unknown task"),
    ];
    let driver = Driver::standard();
    let executors = [(1, Executor::Threads), (3, Executor::Threads), (3, workers(2))];
    for (len, failing, cause) in cases {
        let mut specs: Vec<RunSpec> =
            (0..len).map(|s| RunSpec::new("luby-mis", Family::Path, 8).with_seed(s)).collect();
        match cause {
            "invalid spec" => specs[failing].n = 2,
            _ => specs[failing].task = "no-such-task".into(),
        }
        let mut prefix = Vec::new();
        let cells = specs[..failing].to_vec();
        driver
            .run_sweep(cells, 1, &Executor::Threads, &mut JsonArraySink::new(&mut prefix))
            .unwrap();
        for (chunk, executor) in &executors {
            let label = format!("cell {failing} of {len} on {executor:?} in blocks of {chunk}");
            let mut out = Vec::new();
            let sink = &mut JsonArraySink::new(&mut out);
            let err = driver.run_sweep(specs.clone(), *chunk, executor, sink).unwrap_err();
            assert!(err.to_string().contains(cause), "{label}: {err}");
            assert_eq!(out, prefix, "{label}: not the sequential prefix");
            let parsed: Vec<RunReport> =
                serde_json::from_str(&String::from_utf8(out).unwrap()).unwrap();
            assert_eq!(parsed.len(), failing, "{label}");
        }
    }
}
