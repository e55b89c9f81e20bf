//! Output checks. A run is incorrect only when a program invariant breaks;
//! a randomized algorithm missing its own success criterion (which happens
//! with small probability) lowers `success_frac` and is not a failure.

use radionet_api::{RunReport, RunSpec};

/// A short label for a spec in violation messages.
pub fn label(spec: &RunSpec) -> String {
    format!("{} {} n={} seed={:#x}", spec.task, spec.family.name(), spec.n, spec.seed)
}

/// The invariants one report must keep, whatever the seed: it echoes its
/// spec, its clock is the sum of simulated and charged steps, no phase fell
/// back to the dense kernel, and a traffic ledger balances and has
/// non-decreasing percentiles.
pub fn report_invariants(spec: &RunSpec, report: &RunReport) -> Vec<String> {
    let mut broken = Vec::new();
    let cell = label(spec);
    if report.spec != *spec {
        broken.push(format!("{cell}: the report does not echo its spec"));
    }
    let stats = &report.stats;
    if report.clock_total != stats.simulated_steps + stats.charged_steps {
        broken.push(format!(
            "{cell}: clock_total {} != simulated {} + charged {}",
            report.clock_total, stats.simulated_steps, stats.charged_steps
        ));
    }
    if stats.kernel_fallbacks != 0 {
        broken.push(format!("{cell}: {} kernel fallbacks", stats.kernel_fallbacks));
    }
    match (&report.traffic, spec.task.starts_with("traffic.")) {
        (Some(t), _) => {
            if t.injected == 0 || t.delivered + t.undelivered != t.injected {
                broken.push(format!(
                    "{cell}: ledger delivered {} + undelivered {} vs injected {}",
                    t.delivered, t.undelivered, t.injected
                ));
            }
            let first = [t.first_p50, t.first_p90, t.first_p99];
            let full = [t.full_p50, t.full_p90, t.full_p99];
            if first.windows(2).any(|w| w[0] > w[1]) || full.windows(2).any(|w| w[0] > w[1]) {
                broken.push(format!(
                    "{cell}: latency percentiles decrease (first {first:?}, full {full:?})"
                ));
            }
        }
        (None, true) => broken.push(format!("{cell}: traffic task without a ledger")),
        (None, false) => {}
    }
    broken
}

/// A report's canonical bytes: what every byte-identity check compares.
pub fn encode(report: &RunReport) -> String {
    serde_json::to_string(report).expect("reports contain only finite numbers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_api::Driver;
    use radionet_graph::families::Family;

    #[test]
    fn a_healthy_report_keeps_every_invariant_and_a_doctored_one_does_not() {
        let spec = RunSpec::new("broadcast", Family::Grid, 36).with_seed(5);
        let report = Driver::standard().run(&spec).expect("grid broadcast runs");
        assert!(report_invariants(&spec, &report).is_empty());

        let mut bad = report.clone();
        bad.clock_total += 1;
        bad.stats.kernel_fallbacks = 1;
        assert_eq!(report_invariants(&spec, &bad).len(), 2);
        assert_eq!(report_invariants(&spec.clone().with_seed(6), &report).len(), 1);
    }

    #[test]
    fn a_traffic_ledger_must_balance() {
        let spec = RunSpec::new("traffic.gossip", Family::Grid, 36).with_seed(2);
        let report = Driver::standard().run(&spec).expect("grid gossip runs");
        assert!(report_invariants(&spec, &report).is_empty());
        let mut bad = report.clone();
        if let Some(t) = bad.traffic.as_mut() {
            t.undelivered += 1;
            t.full_p50 = t.full_p99 + 1;
        }
        assert_eq!(report_invariants(&spec, &bad).len(), 2);
    }
}
