//! The timing-scope helpers instrumented code records through.

use crate::Registry;
use std::time::Instant;

/// A timing scope, stopped into a named histogram (microseconds). A scope
/// started with `on = false` reads no clock and records nothing, so a call
/// site whose switch is a compile-time `false` costs nothing:
///
/// ```
/// use radionet_telemetry::{Registry, Stopwatch};
///
/// fn work(tel: Option<&Registry>) {
///     let sw = Stopwatch::start(tel.is_some());
///     // ... the measured section ...
///     sw.stop(tel, "work_micros");
/// }
///
/// work(None); // no clock reads, no recording
/// let registry = Registry::default();
/// work(Some(&registry));
/// assert_eq!(registry.snapshot().histograms[0].count, 1);
/// ```
#[derive(Debug)]
#[must_use = "a stopwatch only records when stopped"]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts a scope; reads the clock only when `on`.
    #[inline(always)]
    pub fn start(on: bool) -> Stopwatch {
        Stopwatch(on.then(Instant::now))
    }

    /// Ends the scope, recording elapsed microseconds into `name` when the
    /// scope was started live and a registry is given.
    #[inline(always)]
    pub fn stop(self, registry: Option<&Registry>, name: &'static str) {
        if let (Some(t0), Some(registry)) = (self.0, registry) {
            registry.observe(name, t0.elapsed().as_micros() as u64);
        }
    }
}

/// Runs `f`, adding its elapsed **nanoseconds** to `acc` when `on` — the
/// accumulator pattern for per-step sections that are observed once per
/// phase (a histogram sample per engine step would be noise; the per-phase
/// total is the meaningful magnitude). With `on = false` it calls `f`
/// directly with no clock reads.
#[inline(always)]
pub fn timed<R>(on: bool, acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if on {
        let t0 = Instant::now();
        let r = f();
        *acc += t0.elapsed().as_nanos() as u64;
        r
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_off_is_silent() {
        let registry = Registry::default();
        Stopwatch::start(false).stop(Some(&registry), "h");
        Stopwatch::start(true).stop(None, "h");
        assert!(registry.snapshot().histograms.is_empty());
        Stopwatch::start(true).stop(Some(&registry), "h");
        assert_eq!(registry.snapshot().histograms[0].count, 1);
    }

    #[test]
    fn timed_skips_the_clock_when_disabled() {
        let mut acc = 0u64;
        let out = timed(false, &mut acc, || 7);
        assert_eq!((out, acc), (7, 0));
    }

    #[test]
    fn timed_accumulates_when_enabled() {
        let mut acc = 0u64;
        let out = timed(true, &mut acc, || std::hint::black_box(1 + 1));
        assert_eq!(out, 2);
        // Not asserting a lower bound: a fast clock may round to 0ns,
        // but the call path must at least have executed.
    }
}
