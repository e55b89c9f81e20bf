//! The one streaming sweep loop, [`Driver::run_sweep`].
//!
//! Every run is a pure function of its spec, so the emitted bytes depend
//! on neither the block size nor the thread count.

use crate::driver::{Driver, RunError, RunReport};
use crate::sink::ResultSink;
use crate::spec::RunSpec;
use radionet_telemetry::Stopwatch;
use rayon::prelude::*;

impl Driver {
    /// Runs `specs` in blocks of `chunk` (at least 1) on the rayon pool and
    /// streams the reports to `sink` in spec order. Returns the number of
    /// reports emitted. A block of one cell runs on the calling thread, so
    /// `chunk = 1` is a sequential sweep.
    ///
    /// Specs are pulled lazily, so at most one block of specs and reports
    /// exists at a time. The stream is byte-identical for every block size.
    /// The sink is finished on every exit: at the first failing cell it
    /// holds the reports of every cell before it, and the cell's own error
    /// is returned. With telemetry attached, each block records
    /// `sweep_chunk_micros` and counts its cells into `sweep_cells`.
    ///
    /// ```
    /// use radionet_api::{Driver, JsonlSink, RunSpec};
    /// use radionet_graph::families::Family;
    ///
    /// let specs: Vec<RunSpec> =
    ///     (0..4).map(|seed| RunSpec::new("luby-mis", Family::Path, 8).with_seed(seed)).collect();
    /// let driver = Driver::standard();
    /// let (mut sequential, mut parallel) = (Vec::new(), Vec::new());
    /// driver.run_sweep(specs.iter().cloned(), 1, &mut JsonlSink::new(&mut sequential))?;
    /// driver.run_sweep(specs, 3, &mut JsonlSink::new(&mut parallel))?;
    /// assert_eq!(sequential, parallel);
    /// # Ok::<(), radionet_api::RunError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// The first failing cell's [`RunError`] in spec order, and sink
    /// failures as [`RunError::Sink`].
    pub fn run_sweep<I>(
        &self,
        specs: I,
        chunk: usize,
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
            let results: Vec<Result<RunReport, RunError>> =
                block.par_iter().map(|spec| self.run(spec)).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
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
        Driver::standard().run_sweep(specs(5), 1, &mut plain).unwrap();
        let tel = Registry::default();
        let driver = Driver::standard().with_telemetry(tel.clone());
        let mut timed = MemorySink::default();
        driver.run_sweep(specs(5), 2, &mut timed).unwrap();
        assert_eq!(plain.reports, timed.reports);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("sweep_cells"), Some(5));
        assert!(snap.histograms.iter().any(|h| h.name == "sweep_chunk_micros" && h.count == 3));
    }
}
