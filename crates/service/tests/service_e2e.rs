//! End-to-end pin of the serving layer: a real `Service` on a loopback
//! port, a real `ServiceClient` over TCP, and the contracts the CI smoke
//! relies on — repeated submission is a byte-identical cache hit, sweeps
//! report per-cell hits, and shutdown drains cleanly.

use radionet_api::{Driver, RunSpec, RESULTS_VERSION};
use radionet_graph::families::Family;
use radionet_service::{CacheConfig, Service, ServiceClient, ServiceConfig, ServiceHandle};
use std::time::{Duration, Instant};

fn tiny(seed: u64) -> RunSpec {
    RunSpec::new("broadcast", Family::Grid, 16).with_seed(seed)
}

fn start(config: ServiceConfig) -> (ServiceHandle, ServiceClient) {
    let handle = Service::start(config).expect("bind loopback port 0");
    let client = ServiceClient::connect(&handle.addr().to_string()).expect("connect");
    (handle, client)
}

#[test]
fn repeated_submission_is_a_byte_identical_cache_hit() {
    // audit_fraction 1.0: every hit is re-run and byte-compared serverside
    // too, so a silent divergence would fail the audit counter check.
    let config = ServiceConfig {
        cache: CacheConfig { audit_fraction: 1.0, ..CacheConfig::default() },
        ..ServiceConfig::default()
    };
    let (handle, mut client) = start(config);
    let first = client.submit_wait(&tiny(7)).unwrap();
    assert_eq!(first.state.as_deref(), Some("done"));
    assert_eq!(first.cache_hit, Some(false), "a cold spec executes fresh");
    let second = client.submit_wait(&tiny(7)).unwrap();
    assert_eq!(second.state.as_deref(), Some("done"));
    assert_eq!(second.cache_hit, Some(true), "the repeat is served from the cache");
    let a = serde_json::to_string(&first.report.unwrap()).unwrap();
    let b = serde_json::to_string(&second.report.unwrap()).unwrap();
    assert_eq!(a, b, "cached report must be byte-identical to the fresh one");

    let stats = client.stats().unwrap();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
    assert_eq!(stats.cache.audits, 1, "audit_fraction 1.0 audits every hit");
    assert_eq!(stats.cache.audit_failures, 0);
    assert_eq!(stats.jobs_terminal, 2);
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn sweep_via_the_client_matches_direct_runs_and_reports_hits() {
    let (handle, mut client) = start(ServiceConfig::default());
    let specs: Vec<RunSpec> = (0..5).map(tiny).collect();
    let (cold, cold_hits) = client.sweep(&specs, 3).unwrap();
    assert_eq!(cold_hits, vec![false; 5], "a cold sweep misses every cell");

    let driver = Driver::standard();
    for (got, spec) in cold.iter().zip(&specs) {
        let want = driver.run(spec).unwrap();
        assert_eq!(
            serde_json::to_string(got).unwrap(),
            serde_json::to_string(&want).unwrap(),
            "served sweep cell diverged from a direct run"
        );
    }
    // The repeat — different shard count, same bytes, all hits.
    let (warm, warm_hits) = client.sweep(&specs, 2).unwrap();
    assert_eq!(warm_hits, vec![true; 5], "the repeated sweep is pure cache traffic");
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "warm sweep cell diverged from the cold one"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!((stats.cache.hits, stats.cache.misses), (5, 5));
    client.shutdown().unwrap();
    handle.join();
}

/// A poisoned persisted entry of the current results version, served
/// through `sweep`, is audited like a `submit` hit: re-run, caught,
/// replaced, and answered with the fresh report.
#[test]
fn sweep_hits_pass_the_audit_guard() {
    let spec = tiny(21);
    let fresh = Driver::standard().run(&spec).unwrap();
    let mut tampered = fresh.clone();
    tampered.clock_total += 1;
    let path =
        std::env::temp_dir().join(format!("radionet-sweep-audit-{}.jsonl", std::process::id()));
    let row = serde_json::to_string(&tampered).unwrap();
    std::fs::write(
        &path,
        format!(
            "{{\"hash\":\"{}\",\"version\":{RESULTS_VERSION},\"report\":{row}}}\n",
            spec.spec_hash().to_hex()
        ),
    )
    .unwrap();
    let config = ServiceConfig {
        cache: CacheConfig {
            audit_fraction: 1.0,
            persist: Some(path.clone()),
            ..CacheConfig::default()
        },
        ..ServiceConfig::default()
    };
    let (handle, mut client) = start(config);
    let (reports, hits) = client.sweep(&[spec], 1).unwrap();
    assert_eq!(
        serde_json::to_string(&reports).unwrap(),
        serde_json::to_string(&vec![fresh]).unwrap(),
        "the sweep served the poisoned entry"
    );
    assert_eq!(hits, vec![false], "a failed audit is not a hit");
    assert_eq!(client.stats().unwrap().cache.audit_failures, 1);
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn async_submission_settles_and_unknown_ids_fail_cleanly() {
    let (handle, mut client) = start(ServiceConfig::default());
    let id = client.submit(&tiny(3)).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let snap = client.status(id).unwrap();
        let state = snap.state.as_deref().unwrap();
        if state == "done" {
            assert!(snap.report.is_none(), "status responses omit the report");
            break;
        }
        assert!(state == "queued" || state == "running", "unexpected pre-terminal state {state:?}");
        assert!(std::time::Instant::now() < deadline, "job {id} never settled");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let full = client.result(id).unwrap();
    assert!(full.report.is_some(), "result responses carry the report");
    assert!(full.queued_micros.is_some() && full.run_micros.is_some());
    assert!(client.status(999_999).is_err(), "unknown ids answer ok: false");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn an_invalid_spec_fails_its_job_and_the_worker_survives() {
    // One worker: a spec that failed inside the run used to take the only
    // worker thread down, leaving this job and every later one `running`.
    let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
    let (handle, mut client) = start(config);
    let failed = client.submit_wait(&RunSpec::new("broadcast", Family::RandomRegular, 4)).unwrap();
    assert_eq!(failed.state.as_deref(), Some("failed"));
    let error = failed.error.unwrap_or_default();
    assert!(error.contains("invalid spec"), "{error}");
    let done = client.submit_wait(&tiny(5)).unwrap();
    assert_eq!(done.state.as_deref(), Some("done"), "the worker must survive");
    client.shutdown().unwrap();
    handle.join();
}

/// Each request and response line goes out in one write. A line sent as
/// two writes (the JSON, then its newline) stalls every round on the
/// peer's delayed ACK under Nagle's algorithm, about 40 ms on Linux, so
/// these rounds would take seconds instead of milliseconds.
#[test]
fn wire_rounds_do_not_stall_on_split_writes() {
    let config = ServiceConfig {
        cache: CacheConfig { audit_fraction: 0.0, ..CacheConfig::default() },
        ..ServiceConfig::default()
    };
    let (handle, mut client) = start(config);
    let started = Instant::now();
    for _ in 0..100 {
        client.stats().unwrap();
    }
    let stats_wall = started.elapsed();
    assert!(stats_wall < Duration::from_secs(1), "100 stats rounds took {stats_wall:?}");

    // A 12-cell sweep reply is over 8 KB: a buffered server writer passes
    // a line larger than its buffer straight through and sends the newline
    // alone.
    let specs: Vec<RunSpec> =
        (0..12).map(|seed| RunSpec::new("luby-mis", Family::Grid, 36).with_seed(seed)).collect();
    client.sweep(&specs, 2).unwrap();
    let started = Instant::now();
    for _ in 0..40 {
        let (_, hits) = client.sweep(&specs, 2).unwrap();
        assert_eq!(hits, vec![true; 12], "the repeated sweep is pure cache traffic");
    }
    let sweep_wall = started.elapsed();
    assert!(sweep_wall < Duration::from_secs(1), "40 cached sweeps took {sweep_wall:?}");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_is_acknowledged_and_drains() {
    let (handle, mut client) = start(ServiceConfig::default());
    // A job accepted before shutdown still completes (drain semantics).
    let done = client.submit_wait(&tiny(11)).unwrap();
    assert_eq!(done.state.as_deref(), Some("done"));
    client.shutdown().unwrap();
    handle.join();
    // The port is closed afterwards: a fresh connection cannot be served.
    // (Allow the OS a moment to tear the listener down.)
    std::thread::sleep(std::time::Duration::from_millis(50));
}
