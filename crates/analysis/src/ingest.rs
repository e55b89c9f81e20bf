//! Ingestion helpers: grouping and summarizing externally produced
//! [`RunRecord`] rows (e.g. scenario sweep rows) into the
//! aggregate views the tables print.

use crate::experiment::RunRecord;
use crate::stats::Summary;
use std::collections::BTreeMap;

/// Groups rows by the values of `keys` (joined with `/`), preserving
/// first-seen group order, and summarizes `metric` within each group.
///
/// Rows missing the metric are skipped; rows missing a key get `"?"` for
/// that component.
pub fn group_summaries<'a>(
    rows: impl IntoIterator<Item = &'a RunRecord>,
    keys: &[&str],
    metric: &str,
) -> Vec<(String, Summary)> {
    let mut order: Vec<String> = Vec::new();
    let mut buckets: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for row in rows {
        let Some(value) = row.metrics.get(metric) else { continue };
        let label = keys
            .iter()
            .map(|k| row.params.get(*k).map(String::as_str).unwrap_or("?"))
            .collect::<Vec<_>>()
            .join("/");
        if !buckets.contains_key(&label) {
            order.push(label.clone());
        }
        buckets.entry(label).or_default().push(*value);
    }
    order
        .into_iter()
        .map(|label| {
            let summary = Summary::of(&buckets[&label]);
            (label, summary)
        })
        .collect()
}

/// How a time-resolved series drifted over a run: endpoints and envelope.
///
/// The mobility experiments feed per-sample α-bounds and diameters through
/// this to report how the independence-number regime shifts as nodes move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesDrift {
    /// First value of the series.
    pub first: f64,
    /// Last value of the series.
    pub last: f64,
    /// Minimum over the series.
    pub lo: f64,
    /// Maximum over the series.
    pub hi: f64,
}

impl SeriesDrift {
    /// Relative change `last / first − 1` (0 when the series starts at 0).
    pub fn relative_change(&self) -> f64 {
        if self.first == 0.0 {
            0.0
        } else {
            self.last / self.first - 1.0
        }
    }
}

/// Summarizes a time-ordered series into its [`SeriesDrift`]; `None` for
/// an empty series.
pub fn drift(values: &[f64]) -> Option<SeriesDrift> {
    let (&first, &last) = (values.first()?, values.last()?);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(SeriesDrift { first, last, lo, hi })
}

/// The fraction of rows in which `metric` equals 1.0 (success-rate
/// aggregation for boolean metrics), or `None` if no row carries it.
pub fn success_rate<'a>(
    rows: impl IntoIterator<Item = &'a RunRecord>,
    metric: &str,
) -> Option<f64> {
    let values: Vec<f64> =
        rows.into_iter().filter_map(|r| r.metrics.get(metric)).copied().collect();
    if values.is_empty() {
        return None;
    }
    Some(values.iter().filter(|v| **v == 1.0).count() as f64 / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scenario: &str, n: u64, time: f64, ok: f64) -> RunRecord {
        RunRecord::new()
            .param("scenario", scenario)
            .param("n", n)
            .metric("clock_total", time)
            .metric("success", ok)
    }

    #[test]
    fn groups_preserve_order_and_summarize() {
        let rows = vec![
            row("churn", 64, 100.0, 1.0),
            row("split", 64, 300.0, 0.0),
            row("churn", 64, 200.0, 1.0),
        ];
        let groups = group_summaries(&rows, &["scenario", "n"], "clock_total");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "churn/64");
        assert_eq!(groups[0].1.count, 2);
        assert!((groups[0].1.mean - 150.0).abs() < 1e-9);
        assert_eq!(groups[1].0, "split/64");
    }

    #[test]
    fn missing_metric_rows_skipped() {
        let rows = vec![row("a", 1, 5.0, 1.0), RunRecord::new().param("scenario", "a")];
        let groups = group_summaries(&rows, &["scenario"], "clock_total");
        assert_eq!(groups[0].1.count, 1);
    }

    #[test]
    fn success_rates() {
        let rows = vec![row("a", 1, 0.0, 1.0), row("a", 1, 0.0, 0.0)];
        assert_eq!(success_rate(&rows, "success"), Some(0.5));
        assert_eq!(success_rate(&rows, "nope"), None);
    }

    #[test]
    fn totals_distinguish_absent_from_zero_across_heterogeneous_rows() {
        // A partly cache-served sweep produces heterogeneous rows: served
        // cells carry `cache_hit`, direct cells omit it entirely. Both
        // aggregations count exactly the rows carrying the metric, and a
        // metric that is present but zero still counts.
        let rows = vec![
            row("a", 1, 5.0, 1.0).metric("cache_hit", 1.0),
            row("a", 1, 6.0, 1.0).metric("cache_hit", 0.0),
            row("a", 1, 7.0, 0.0), // direct run: no cache metric at all
        ];
        assert_eq!(success_rate(&rows, "cache_hit"), Some(0.5));
        assert_eq!(group_summaries(&rows, &["scenario"], "cache_hit")[0].1.count, 2);
    }

    #[test]
    fn drift_summarizes_endpoints_and_envelope() {
        assert_eq!(drift(&[]), None);
        let d = drift(&[4.0, 9.0, 2.0, 6.0]).unwrap();
        assert_eq!(d.first, 4.0);
        assert_eq!(d.last, 6.0);
        assert_eq!(d.lo, 2.0);
        assert_eq!(d.hi, 9.0);
        assert!((d.relative_change() - 0.5).abs() < 1e-12);
        assert_eq!(drift(&[0.0, 3.0]).unwrap().relative_change(), 0.0);
    }
}
