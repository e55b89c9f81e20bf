//! Experiment implementations, one per row of this index.
//!
//! | id | claim | function |
//! |----|-------|----------|
//! | E1 | Claim 10 (Decay amplification) | [`e1_decay`] |
//! | E2 | Lemma 11 (EstimateEffectiveDegree) | [`e2_eed`] |
//! | E3 | Theorem 14 (Radio MIS `O(log³ n)`) | [`e3_mis_scaling`] |
//! | E4 | MIS round-complexity context | [`e4_mis_baselines`] |
//! | E5 | Theorem 2 vs \[CD21\] Thm 2.2 | [`e5_cluster_distance`] |
//! | E6 | Lemma 5 (bad scales) | [`e6_bad_j`] |
//! | E7 | Lemma 4 / Lemma 3 constants | [`e7_lemma4`] |
//! | E8 | Theorem 7 / Corollary 9 (broadcast) | [`e8_broadcast`] |
//! | E9 | Theorem 8 (leader election) | [`e9_leader_election`] |
//! | E10 | Lemmas 12–13 (golden rounds) | [`e10_golden_rounds`] |
//! | E11 | design ablations | [`e11_ablations`] |
//! | E12 | S2 constant calibration | [`e12_calibration`] |
//! | E14 | dynamic-network scenarios | [`e14_scenarios`] |
//! | E15 | sparse step-kernel throughput | [`e15_throughput`] |
//! | E16 | unified façade coverage | [`e16_facade`] |
//! | E17 | mobility: incremental index + time-resolved α/D | [`e17_mobility`] |
//! | E18 | geometry-native SINR: sparse vs dense reception | [`e18_sinr`] |
//! | E19 | sparse kernel: clock jumps over silent spans | [`e19_event`] |
//! | E20 | radionetd serving: cache + block-size sweeps | [`e20_service`] |
//! | E21 | telemetry overhead guard | [`e21_telemetry`] |
//! | E22 | streaming traffic pipeline | [`e22_traffic`] |

mod broadcast_exp;
mod cluster_exp;
mod event_exp;
mod facade_exp;
mod mis_exp;
mod mobility_exp;
mod models_exp;
mod primitives_exp;
mod scenarios_exp;
mod service_exp;
mod sinr_exp;
mod telemetry_exp;
mod throughput_exp;
mod traffic_exp;

pub use broadcast_exp::{e11_ablations, e8_broadcast, e9_leader_election};
pub use cluster_exp::{e5_cluster_distance, e6_bad_j, e7_lemma4};
pub use event_exp::e19_event;
pub use facade_exp::e16_facade;
pub use mis_exp::{e10_golden_rounds, e3_mis_scaling, e4_mis_baselines};
pub use mobility_exp::e17_mobility;
pub(crate) use mobility_exp::{dwell_heavy_waypoint, udg_geometry};
pub use models_exp::e13_models;
pub use primitives_exp::{e12_calibration, e1_decay, e2_eed};
pub use scenarios_exp::e14_scenarios;
pub use service_exp::e20_service;
pub use sinr_exp::e18_sinr;
pub use telemetry_exp::e21_telemetry;
pub use throughput_exp::e15_throughput;
pub use traffic_exp::e22_traffic;

use radionet_analysis::ExperimentRecord;

/// Prints the experiment banner.
pub(crate) fn banner(id: &str, claim: &str) {
    println!("\n## {id} — {claim}\n");
}

/// Prints the record's notes after its table.
pub(crate) fn print_notes(record: &ExperimentRecord) {
    for note in &record.notes {
        println!("- {note}");
    }
    println!();
}

/// One entry of the experiment registry.
#[derive(Debug)]
pub struct ExperimentDef {
    /// Stable id (`E1`…): the record filename and the `exp` argument.
    pub id: &'static str,
    /// One-line claim, for listings.
    pub claim: &'static str,
    /// The experiment function.
    pub run: fn(crate::Scale) -> ExperimentRecord,
}

/// The experiment registry, in run order — the **single** list the `exp`
/// binary resolves its argument against ([`select`]), so adding an
/// experiment here is sufficient to reach the whole harness.
pub const ALL: &[ExperimentDef] = &[
    ExperimentDef { id: "E1", claim: "Claim 10 (Decay amplification)", run: e1_decay },
    ExperimentDef { id: "E2", claim: "Lemma 11 (EstimateEffectiveDegree)", run: e2_eed },
    ExperimentDef { id: "E3", claim: "Theorem 14 (Radio MIS O(log³ n))", run: e3_mis_scaling },
    ExperimentDef { id: "E4", claim: "MIS round-complexity context", run: e4_mis_baselines },
    ExperimentDef { id: "E5", claim: "Theorem 2 vs [CD21] Thm 2.2", run: e5_cluster_distance },
    ExperimentDef { id: "E6", claim: "Lemma 5 (bad scales)", run: e6_bad_j },
    ExperimentDef { id: "E7", claim: "Lemma 4 / Lemma 3 constants", run: e7_lemma4 },
    ExperimentDef { id: "E8", claim: "Theorem 7 / Corollary 9 (broadcast)", run: e8_broadcast },
    ExperimentDef { id: "E9", claim: "Theorem 8 (leader election)", run: e9_leader_election },
    ExperimentDef { id: "E10", claim: "Lemmas 12–13 (golden rounds)", run: e10_golden_rounds },
    ExperimentDef { id: "E11", claim: "design ablations", run: e11_ablations },
    ExperimentDef { id: "E12", claim: "S2 constant calibration", run: e12_calibration },
    ExperimentDef { id: "E13", claim: "reception-model comparison", run: e13_models },
    ExperimentDef { id: "E14", claim: "dynamic-network scenarios", run: e14_scenarios },
    ExperimentDef { id: "E15", claim: "sparse step-kernel throughput", run: e15_throughput },
    ExperimentDef { id: "E16", claim: "unified façade coverage", run: e16_facade },
    ExperimentDef {
        id: "E17",
        claim: "mobility: incremental index + time-resolved α/D",
        run: e17_mobility,
    },
    ExperimentDef {
        id: "E18",
        claim: "geometry-native SINR: sparse spatial-index kernel vs dense reference",
        run: e18_sinr,
    },
    ExperimentDef {
        id: "E19",
        claim: "sparse kernel: silent spans cost one clock jump, not one step each",
        run: e19_event,
    },
    ExperimentDef {
        id: "E20",
        claim: "radionetd serving: repeated specs hit the cache, sweep blocks emit identical bytes",
        run: e20_service,
    },
    ExperimentDef {
        id: "E21",
        claim: "telemetry observes, never steers: identical results, near-zero cost",
        run: e21_telemetry,
    },
    ExperimentDef {
        id: "E22",
        claim: "streaming traffic: kernels agree at 100k nodes, throughput spans the catalogue",
        run: e22_traffic,
    },
];

/// Looks an experiment up by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static ExperimentDef> {
    ALL.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// Resolves an `exp` argument: one registered id (case-insensitive), or
/// `all` for the whole registry in run order.
///
/// # Errors
///
/// An unknown id, with the list of registered ids.
pub fn select(arg: &str) -> Result<Vec<&'static ExperimentDef>, String> {
    if arg.eq_ignore_ascii_case("all") {
        return Ok(ALL.iter().collect());
    }
    find(arg).map(|def| vec![def]).ok_or_else(|| {
        let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        format!("unknown experiment {arg:?}; registered: {}, or all", ids.join(" "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_resolvable() {
        let mut ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len(), "duplicate experiment ids");
        for e in ALL {
            assert!(find(e.id).is_some());
            assert!(find(&e.id.to_lowercase()).is_some(), "{} not case-insensitive", e.id);
            assert!(!e.claim.is_empty());
        }
        assert!(find("E99").is_none());
    }

    #[test]
    fn select_resolves_one_id_or_all() {
        assert_eq!(select("e15").unwrap().iter().map(|e| e.id).collect::<Vec<_>>(), ["E15"]);
        assert_eq!(select("all").unwrap().len(), ALL.len());
        let err = select("E99").unwrap_err();
        assert!(err.contains("E99") && err.contains("E1 ") && err.contains("E22"), "{err}");
    }
}
