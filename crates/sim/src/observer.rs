//! What a run records besides its results — the event journal and the
//! wall-clock metrics — behind the one [`Observer`] parameter of
//! [`Sim`](crate::Sim).

use radionet_journal::{EventClass, EventKind, Recorder};
use radionet_telemetry::Registry;

/// Where the kernels stream journal events and record wall-clock metrics.
///
/// Every journal and timing site of the engine is guarded by
/// `O::ENABLED`, a monomorphized constant: with the default [`Quiet`] the
/// guards fold to `if false` and the instrumentation compiles out of the
/// hot path (the E15 journal-off and E21 telemetry-off bench guards pin
/// this). [`Observed`] carries an optional [`Recorder`] and an optional
/// [`Registry`], so one run records a journal, metrics, or both.
///
/// Observers watch and never steer: reports, RNG streams and journals are
/// byte-identical whatever the observer records.
pub trait Observer {
    /// Whether this observer records anything at all; `false` compiles
    /// every journal and timing site out.
    const ENABLED: bool;

    /// The journal being recorded, if any.
    fn recorder(&mut self) -> Option<&mut Recorder>;

    /// The registry metrics are recorded into, if any.
    fn registry(&self) -> Option<&Registry>;
}

/// The observer that records nothing (`ENABLED = false`): the engine's
/// instrumentation monomorphizes away entirely. The default everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quiet;

impl Observer for Quiet {
    const ENABLED: bool = false;

    #[inline(always)]
    fn recorder(&mut self) -> Option<&mut Recorder> {
        None
    }

    #[inline(always)]
    fn registry(&self) -> Option<&Registry> {
        None
    }
}

/// The recording observer: a journal, metrics, or both.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// The event journal, when one is recorded.
    pub journal: Option<Recorder>,
    /// The metrics registry, when metrics are recorded.
    pub metrics: Option<Registry>,
}

impl Observer for Observed {
    const ENABLED: bool = true;

    #[inline]
    fn recorder(&mut self) -> Option<&mut Recorder> {
        self.journal.as_mut()
    }

    #[inline]
    fn registry(&self) -> Option<&Registry> {
        self.metrics.as_ref()
    }
}

/// The observer's recorder, behind the compile-time guard.
#[inline(always)]
pub(crate) fn journal<O: Observer>(obs: &mut O) -> Option<&mut Recorder> {
    if O::ENABLED {
        obs.recorder()
    } else {
        None
    }
}

/// The observer's registry, behind the compile-time guard.
#[inline(always)]
pub(crate) fn metrics<O: Observer>(obs: &O) -> Option<&Registry> {
    if O::ENABLED {
        obs.registry()
    } else {
        None
    }
}

/// Records one event iff the observer keeps a journal that wants the
/// class. Free-standing (borrows only the observer) so emission sites
/// inside the kernels keep their disjoint field borrows; the payload
/// closure runs only when the event is actually kept.
#[inline(always)]
pub(crate) fn emit<O: Observer>(
    obs: &mut O,
    class: EventClass,
    step: u64,
    kind: impl FnOnce() -> EventKind,
) {
    if let Some(rec) = journal(obs) {
        if rec.wants(class) {
            rec.record(step, kind());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_journal::{ClassMask, TransmitInfo};

    #[test]
    fn quiet_observes_nothing() {
        const { assert!(!Quiet::ENABLED) };
        let mut quiet = Quiet;
        assert!(journal(&mut quiet).is_none());
        assert!(metrics(&quiet).is_none());
        emit(&mut quiet, EventClass::Radio, 0, || unreachable!("no payload is ever built"));
    }

    #[test]
    fn observed_records_only_what_it_carries() {
        let mut obs = Observed {
            journal: Some(Recorder::new(ClassMask::NONE.with(EventClass::Radio), 0)),
            metrics: None,
        };
        emit(&mut obs, EventClass::Radio, 3, || EventKind::Transmit(TransmitInfo { node: 1 }));
        emit(&mut obs, EventClass::Sched, 3, || unreachable!("a filtered class builds nothing"));
        assert_eq!(obs.journal.as_ref().map(|r| r.events().len()), Some(1));
        assert!(metrics(&obs).is_none());
        let metrics_only = Observed { journal: None, metrics: Some(Registry::default()) };
        assert!(metrics(&metrics_only).is_some());
    }
}
