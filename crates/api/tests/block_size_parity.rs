//! Block-size parity for the one sweep loop, `Driver::run_sweep`: N-cell
//! rayon blocks (what `radionet sweep --chunk N` selects) must emit a
//! stream byte-identical to the sequential sweep over the extended
//! catalogue, under the sparse and the dense kernel — and when a cell
//! fails, every block size must emit the same sequential prefix and name
//! the cause.

use radionet_api::{Driver, JsonArraySink, JsonlSink, RunReport, RunSpec, Scenario, SweepConfig};
use radionet_graph::families::Family;
use radionet_sim::Kernel;

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

/// The JSONL stream of a sweep that must succeed.
fn sweep_bytes(specs: &[RunSpec], chunk: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let sink = &mut JsonlSink::new(&mut out);
    let emitted = Driver::standard().run_sweep(specs.to_vec(), chunk, sink).unwrap();
    assert_eq!(emitted, specs.len(), "every cell must be emitted");
    out
}

#[test]
fn block_sizes_are_byte_identical_over_the_extended_catalogue() {
    let specs: Vec<RunSpec> = extended_config().specs(Kernel::Sparse).collect();
    assert!(specs.len() >= 8, "the extended catalogue should be a real sweep");
    let sequential = sweep_bytes(&specs, 1);
    for chunk in [2, 3, 7] {
        let blocked = sweep_bytes(&specs, chunk);
        assert_eq!(sequential, blocked, "{chunk}-cell blocks diverged from sequential");
    }
}

#[test]
fn dense_kernel_blocks_match_the_sequential_sweep() {
    // The dense reference kernel's reports must not depend on the block
    // size either.
    let specs: Vec<RunSpec> = extended_config().specs(Kernel::Dense).collect();
    let sequential = sweep_bytes(&specs, 1);
    let blocked = sweep_bytes(&specs, 3);
    assert_eq!(sequential, blocked, "dense-kernel blocks diverged");
}

/// A failing cell anywhere in the sweep: every block size emits exactly
/// the sequential prefix before it into a sink that still finishes as
/// valid JSON, and returns an error naming the cell's cause.
#[test]
fn failing_cells_keep_the_sequential_prefix_at_every_block_size() {
    let cases = [
        (5, 0, "invalid spec"),
        (5, 2, "invalid spec"),
        (5, 4, "invalid spec"),
        (2, 1, "unknown task"),
        (6, 4, "unknown task"),
    ];
    let driver = Driver::standard();
    for (len, failing, cause) in cases {
        let mut specs: Vec<RunSpec> =
            (0..len).map(|s| RunSpec::new("luby-mis", Family::Path, 8).with_seed(s)).collect();
        match cause {
            "invalid spec" => specs[failing].n = 2,
            _ => specs[failing].task = "no-such-task".into(),
        }
        let mut prefix = Vec::new();
        let cells = specs[..failing].to_vec();
        driver.run_sweep(cells, 1, &mut JsonArraySink::new(&mut prefix)).unwrap();
        for chunk in [1, 3] {
            let label = format!("cell {failing} of {len} in blocks of {chunk}");
            let mut out = Vec::new();
            let sink = &mut JsonArraySink::new(&mut out);
            let err = driver.run_sweep(specs.clone(), chunk, sink).unwrap_err();
            assert!(err.to_string().contains(cause), "{label}: {err}");
            assert_eq!(out, prefix, "{label}: not the sequential prefix");
            let parsed: Vec<RunReport> =
                serde_json::from_str(&String::from_utf8(out).unwrap()).unwrap();
            assert_eq!(parsed.len(), failing, "{label}");
        }
    }
}
