//! Golden serde round-trips for [`RunSpec`]: at least one spec per task,
//! per reception mode, and per dynamics variant, frozen as a pretty-JSON
//! fixture.
//!
//! The fixture is the compatibility contract of the façade — CLI spec
//! files, recorded sweeps, and cross-version tooling all speak this exact
//! encoding. Regenerate deliberately with
//! `RADIONET_REGEN_FIXTURES=1 cargo test -p radionet-api --test spec_serde`
//! and review the diff.

use radionet_api::{
    Arrival, BurstyArrival, Driver, Dynamics, JournalSpec, RunSpec, TaskRegistry, TrafficSpec,
};
use radionet_graph::families::Family;
use radionet_sim::{Kernel, PositionSource, ReceptionMode, SinrConfig};

const FIXTURE: &str = include_str!("fixtures/specs.json");
const FIXTURE_PATH: &str = "tests/fixtures/specs.json";

/// The golden corpus: every registry task once, every reception mode at
/// least once, every dynamics variant at least once, both kernels, and a
/// step-capped spec.
fn corpus() -> Vec<RunSpec> {
    let mut specs = Vec::new();

    // One spec per task, cycling the dynamics presets so each variant
    // appears; cd-wakeup carries its required CD reception, and the
    // mobility presets get a geometric family (they are invalid on any
    // family without an embedding — `RunSpec::validate` enforces it).
    let registry = TaskRegistry::standard();
    for (i, key) in registry.keys().enumerate() {
        let dynamics = Dynamics::preset(Dynamics::PRESETS[i % Dynamics::PRESETS.len()]).unwrap();
        let family =
            if matches!(dynamics, Dynamics::Mobility(_)) { Family::UnitDisk } else { Family::Grid };
        let mut spec =
            RunSpec::new(key, family, 36).with_seed(1000 + i as u64).with_dynamics(dynamics);
        if key == "cd-wakeup" {
            spec = spec.with_reception(ReceptionMode::ProtocolCd);
        }
        specs.push(spec);
    }

    // Each reception mode, including a fully populated SINR config — and
    // every SINR position source: an explicit snapshot, the family's own
    // embedding (geometry-sourced), and the live moving point set of a
    // mobility run.
    specs.push(RunSpec::new("broadcast", Family::UnitDisk, 4).with_seed(7).with_reception(
        ReceptionMode::Sinr(SinrConfig::for_unit_range(
            vec![(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.25, 0.75)],
            1.0,
        )),
    ));
    specs.push(
        RunSpec::new("broadcast", Family::UnitDisk, 36)
            .with_seed(11)
            .with_reception(ReceptionMode::Sinr(SinrConfig::geometric())),
    );
    specs.push(
        RunSpec::new("broadcast", Family::UnitDisk, 36)
            .with_seed(12)
            .with_dynamics(Dynamics::preset("mobility:waypoint").unwrap())
            .with_reception(ReceptionMode::Sinr(SinrConfig::for_unit_range(
                PositionSource::Live,
                1.0,
            ))),
    );
    specs.push(
        RunSpec::new("bgi-broadcast", Family::Cycle, 24)
            .with_seed(8)
            .with_reception(ReceptionMode::ProtocolCd),
    );

    // Dense kernel and an explicit step cap.
    specs.push(RunSpec::new("mis", Family::Hypercube, 64).with_seed(9).with_kernel(Kernel::Dense));
    let mut capped = RunSpec::new("luby-mis", Family::Star, 32).with_seed(10);
    capped.steps = Some(12);
    specs.push(capped);

    // A journaled spec: the observability section is part of the contract.
    specs.push(
        RunSpec::new("broadcast", Family::Grid, 25)
            .with_seed(13)
            .with_journal(JournalSpec { classes: "radio,phase".into(), checkpoint_every: 16 }),
    );

    // Traffic specs with an explicit workload section: one per arrival
    // process (the registry loop above covers the traffic *tasks*, but
    // with the axis unset — the encoding of the section itself must be
    // part of the contract too).
    specs.push(
        RunSpec::new("traffic.gossip", Family::Grid, 36)
            .with_seed(14)
            .with_traffic(TrafficSpec::default()),
    );
    specs.push(RunSpec::new("traffic.multicast", Family::Cycle, 48).with_seed(15).with_traffic(
        TrafficSpec {
            arrival: Arrival::Bursty(BurstyArrival { on: 8, off: 56, per_10k: 1200 }),
            senders: 4,
            messages: 32,
            horizon: 768,
            multicast_per_mille: 300,
        },
    ));

    specs
}

#[test]
fn corpus_covers_every_axis() {
    let specs = corpus();
    let registry = TaskRegistry::standard();
    for key in registry.keys() {
        assert!(specs.iter().any(|s| s.task == key), "no golden spec for task {key}");
    }
    for name in Dynamics::PRESETS {
        assert!(
            specs.iter().any(|s| s.dynamics.name() == name),
            "no golden spec for dynamics {name}"
        );
    }
    for mode in ["protocol", "protocol+cd", "sinr"] {
        assert!(
            specs.iter().any(|s| s.reception.name() == mode),
            "no golden spec for reception {mode}"
        );
    }
    assert!(specs.iter().any(|s| s.kernel == Kernel::Dense));
    assert!(specs.iter().any(|s| s.steps.is_some()));
    assert!(specs.iter().any(|s| s.journal.is_some()));
    // Both arrival processes of the traffic axis are frozen in the corpus.
    assert!(specs
        .iter()
        .any(|s| matches!(s.traffic, Some(t) if matches!(t.arrival, Arrival::Poisson(_)))));
    assert!(specs
        .iter()
        .any(|s| matches!(s.traffic, Some(t) if matches!(t.arrival, Arrival::Bursty(_)))));
}

#[test]
fn journal_less_legacy_specs_still_parse() {
    // Specs recorded before the observability layer carry no "journal"
    // key at all; they must keep decoding (to a journal-less spec).
    let legacy = r#"{
        "task": "broadcast",
        "family": "Grid",
        "n": 36,
        "reception": "Protocol",
        "kernel": "Sparse",
        "dynamics": "Static",
        "steps": null,
        "seed": 5
    }"#;
    let spec: RunSpec = serde_json::from_str(legacy).unwrap();
    assert_eq!(spec, RunSpec::new("broadcast", Family::Grid, 36).with_seed(5));
    assert!(spec.journal.is_none());
}

#[test]
fn legacy_sinr_specs_still_parse() {
    // SINR specs recorded while the sparse kernel had a far-field policy
    // carry that policy's key. Both kernels now apply the exact rule, so
    // the key decodes away: the spec and its cache key are those of the
    // document without it, and a former `Cutoff` spec runs the exact rule.
    let document = |policy: &str| {
        format!(
            r#"{{
                "task": "broadcast",
                "family": "UnitDisk",
                "n": 36,
                "reception": {{
                    "Sinr": {{
                        "positions": "Geometry",
                        "path_loss": 3.0,
                        "threshold": 2.0,
                        "noise": 0.5,
                        "power": 1.0{policy}
                    }}
                }},
                "kernel": "Sparse",
                "dynamics": "Static",
                "steps": null,
                "seed": 11
            }}"#
        )
    };
    let current: RunSpec = serde_json::from_str(&document("")).unwrap();
    assert_eq!(
        current,
        RunSpec::new("broadcast", Family::UnitDisk, 36)
            .with_seed(11)
            .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()))
    );
    for legacy in [r#", "far_field": "Exact""#, r#", "far_field": {"Cutoff": 0.125}"#] {
        let spec: RunSpec = serde_json::from_str(&document(legacy)).unwrap();
        assert_eq!(spec, current, "{legacy}");
        assert_eq!(spec.spec_hash(), current.spec_hash(), "{legacy}");
    }
}

#[test]
fn golden_fixture_is_byte_stable() {
    let specs = corpus();
    let rendered = serde_json::to_string_pretty(&specs).unwrap() + "\n";
    if std::env::var_os("RADIONET_REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE_PATH, &rendered).unwrap();
        return;
    }
    assert_eq!(
        rendered, FIXTURE,
        "RunSpec encoding drifted from the golden fixture; if intentional, \
         regenerate with RADIONET_REGEN_FIXTURES=1 and review the diff"
    );
}

#[test]
fn golden_fixture_round_trips() {
    let from_fixture: Vec<RunSpec> = serde_json::from_str(FIXTURE).unwrap();
    assert_eq!(from_fixture, corpus(), "fixture no longer decodes to the corpus");
    // And a full re-encode → decode cycle is lossless.
    let json = serde_json::to_string(&from_fixture).unwrap();
    let back: Vec<RunSpec> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, from_fixture);
}

#[test]
fn golden_specs_validate_and_resolve() {
    let driver = Driver::standard();
    for spec in corpus() {
        spec.validate().unwrap_or_else(|e| panic!("golden spec {} invalid: {e}", spec.task));
        assert!(driver.registry().get(&spec.task).is_some(), "unknown golden task {}", spec.task);
    }
}
