//! Sequential vs rayon sweeps on a Quick-scale scenario grid, both through
//! the one sweep loop (`Driver::run_sweep`): one-cell blocks against one
//! block of every cell.
//!
//! On a multi-core host the parallel sweep's advantage is roughly the core
//! count (cells are embarrassingly parallel and identically seeded); on a
//! single-core host the two time alike, which is itself the honest
//! result. The recorded speedup is printed after the two benchmarks.

use criterion::{criterion_group, criterion_main, Criterion};
use radionet_api::{Driver, Executor, MemorySink, RunReport};
use radionet_scenario::runner::SweepConfig;
use radionet_scenario::Scenario;
use radionet_sim::Kernel;
use std::time::Instant;

fn quick_grid() -> SweepConfig {
    // A small all-catalogue grid: every dynamics class, one size, one seed.
    SweepConfig { scenarios: Scenario::catalogue(), sizes: vec![48], seeds: 1, base_seed: 0xbe9c }
}

fn sweep(config: &SweepConfig, chunk: usize) -> Vec<RunReport> {
    let mut sink = MemorySink::default();
    let specs = config.specs(Kernel::default());
    Driver::standard().run_sweep(specs, chunk, &Executor::Threads, &mut sink).expect("valid cells");
    sink.reports
}

fn bench_sweep(c: &mut Criterion) {
    let config = quick_grid();
    let cells = config.cells().len();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("sequential", |b| b.iter(|| sweep(&config, 1)));
    group.bench_function(format!("rayon_{}_threads", rayon::current_num_threads()), |b| {
        b.iter(|| sweep(&config, cells))
    });
    group.finish();

    // One directly comparable pair, printed as a speedup figure.
    let t0 = Instant::now();
    let seq = sweep(&config, 1);
    let t_seq = t0.elapsed();
    let t1 = Instant::now();
    let par = sweep(&config, cells);
    let t_par = t1.elapsed();
    assert_eq!(seq, par, "sweeps diverged");
    println!(
        "sweep speedup: sequential {:.2?} / rayon({}) {:.2?} = {:.2}x",
        t_seq,
        rayon::current_num_threads(),
        t_par,
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
    );
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
