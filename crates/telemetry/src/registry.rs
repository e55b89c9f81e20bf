//! The metrics registry: shared, internally synchronized counters,
//! gauges, and histograms.

use crate::histogram::Log2Histogram;
use crate::snapshot::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, METRICS_SNAPSHOT_VERSION,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Log2Histogram>,
}

/// A shared metrics registry: the handle every instrumented component
/// records into when telemetry is on.
///
/// Cloning is cheap (an `Arc`), so one registry fans out across worker
/// threads, parallel sweep cells, and connection handlers; recording
/// takes one uncontended mutex lock per observation — acceptable because
/// observations happen per phase / per request / per cell, never per
/// engine step (per-step sections accumulate locally and observe once,
/// see [`timed`](crate::timed)). `BTreeMap` keys keep every snapshot and
/// rendering deterministically name-ordered.
///
/// Metric names are `&'static str` and unit-suffixed by convention
/// (`*_micros` for wall time in microseconds); the README's metrics
/// glossary is the authoritative catalogue.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named monotone counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: u64) {
        self.inner.lock().expect("registry poisoned").gauges.insert(name, value);
    }

    /// Records one sample into the named [`Log2Histogram`].
    pub fn observe(&self, name: &'static str, value: u64) {
        self.inner
            .lock()
            .expect("registry poisoned")
            .histograms
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// The named counter's current value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().expect("registry poisoned").counters.get(name).copied().unwrap_or(0)
    }

    /// A point-in-time serde view of everything recorded so far, sorted
    /// by name. Versioned — see [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            version: METRICS_SNAPSHOT_VERSION,
            counters: inner
                .counters
                .iter()
                .map(|(&name, &value)| CounterSample { name: name.into(), value })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(&name, &value)| GaugeSample { name: name.into(), value })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&name, h)| {
                    let s = h.summary();
                    HistogramSample {
                        name: name.into(),
                        count: s.count,
                        sum: s.sum,
                        max: s.max,
                        p50: s.p50,
                        p90: s.p90,
                        p99: s.p99,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_name_order() {
        let r = Registry::new();
        r.count("zeta", 2);
        r.count("alpha", 1);
        r.count("alpha", 4);
        r.gauge("depth", 9);
        r.gauge("depth", 3);
        r.observe("lat_micros", 10);
        r.observe("lat_micros", 1000);
        let snap = r.snapshot();
        assert_eq!(snap.version, METRICS_SNAPSHOT_VERSION);
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"], "snapshots are name-ordered");
        assert_eq!(snap.counters[0].value, 5);
        assert_eq!(snap.gauges[0].value, 3, "gauges are last-write-wins");
        assert_eq!(snap.histograms[0].count, 2);
        assert_eq!(snap.histograms[0].max, 1000);
        assert_eq!(r.counter("alpha"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn clones_share_the_same_store() {
        let r = Registry::new();
        let r2 = r.clone();
        r2.count("shared", 1);
        assert_eq!(r.counter("shared"), 1);
    }

    #[test]
    fn concurrent_counts_are_not_lost() {
        let r = Registry::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.count("spins", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("spins"), 4000);
    }
}
