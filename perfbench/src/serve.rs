//! The `serve-mixed` workload: an in-process `radionetd` at
//! `ServiceConfig::default()` (2 workers, 5% audit) on loopback, driven by a
//! closed loop over `ServiceClient` connections that each send `submit` and
//! wait for the reply — the shape of `radionet submit` and of sweeping
//! clients.
//!
//! Each pass starts a fresh daemon, so every pass sees the same cold-cache
//! hit pattern. A pass runs its request list in segments; the set-up probes
//! run in the gaps between them, so they sample the host across the whole
//! run. After the timed passes every served report is byte-compared with the
//! benchmark's own `Driver::run` of its spec.

use crate::checks::{self, encode};
use crate::metrics::{ratio, LayerAcc, Outcome, Sampled};
use crate::runs::{accounting, derive, secs, traced_cell};
use crate::workloads::{self, Scale};
use radionet_analysis::percentile;
use radionet_api::{Driver, RunReport, RunSpec};
use radionet_service::{Request, Service, ServiceClient, ServiceConfig, ServiceStats};
use radionet_telemetry::MetricsSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Segments a pass's request list is split into.
const SEGMENTS: usize = 20;
/// Set-up probes in each gap before, between and after the segments. A
/// probe takes well under a millisecond, so a pass takes about two hundred.
const PROBES_PER_GAP: usize = 10;

/// One answered request.
struct Answer {
    index: usize,
    rtt_micros: u64,
    result: Result<Served, String>,
}

struct Served {
    report: RunReport,
    hit: bool,
    /// The job's time inside the daemon: queue wait plus run.
    server_micros: u64,
}

struct ServePass {
    wall_s: f64,
    answers: Vec<Answer>,
    stats: ServiceStats,
    metrics: Option<MetricsSnapshot>,
}

/// One client's closed loop: take the next request index below `end`,
/// submit, wait for the reply, repeat until the segment is exhausted.
fn closed_loop(
    client: &mut ServiceClient,
    requests: &[RunSpec],
    next: &AtomicUsize,
    end: usize,
) -> Vec<Answer> {
    let mut answers = Vec::new();
    loop {
        // The counter only hands out indices; it publishes no other data.
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= end {
            break;
        }
        let t = Instant::now();
        let response = client.submit_wait(&requests[index]);
        let rtt_micros = t.elapsed().as_micros() as u64;
        let result = match response {
            Err(e) => Err(e.to_string()),
            Ok(r) => match (r.state.as_deref(), r.report) {
                (Some("done"), Some(report)) => Ok(Served {
                    report,
                    hit: r.cache_hit == Some(true),
                    server_micros: r.queued_micros.unwrap_or(0) + r.run_micros.unwrap_or(0),
                }),
                (state, _) => Err(format!("job ended {state:?}: {}", r.error.unwrap_or_default())),
            },
        };
        answers.push(Answer { index, rtt_micros, result });
    }
    answers
}

/// Runs the request list through the clients segment by segment, calling
/// `gap` before the first segment and after each; `wall_s` counts only the
/// segments.
fn drive(
    addr: &str,
    requests: &[RunSpec],
    conns: usize,
    trace: bool,
    gap: &mut dyn FnMut(),
) -> Result<ServePass, String> {
    let mut clients = (0..conns)
        .map(|_| ServiceClient::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut answers: Vec<Answer> = Vec::new();
    let mut wall_s = 0.0;
    let per_segment = requests.len().div_ceil(SEGMENTS);
    gap();
    for start in (0..requests.len()).step_by(per_segment) {
        let end = (start + per_segment).min(requests.len());
        let next = AtomicUsize::new(start);
        let t = Instant::now();
        std::thread::scope(|s| {
            let loops: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let next = &next;
                    s.spawn(move || closed_loop(client, requests, next, end))
                })
                .collect();
            for l in loops {
                answers.extend(l.join().expect("a client loop panicked"));
            }
        });
        wall_s += secs(t);
        gap();
    }
    answers.sort_by_key(|a| a.index);
    let stats = clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let metrics = if trace {
        let response = clients[0].call(&Request::metrics()).map_err(|e| format!("metrics: {e}"))?;
        Some(response.metrics.ok_or("metrics response without a snapshot")?)
    } else {
        None
    };
    Ok(ServePass { wall_s, answers, stats, metrics })
}

/// One pass on a fresh daemon, which is shut down and joined before this
/// returns.
fn serve_pass(
    requests: &[RunSpec],
    conns: usize,
    trace: bool,
    gap: &mut dyn FnMut(),
) -> Result<ServePass, String> {
    let handle = Service::start(ServiceConfig::default()).map_err(|e| format!("start: {e}"))?;
    let pass = drive(&handle.addr().to_string(), requests, conns, trace, gap);
    handle.request_shutdown();
    handle.join();
    pass
}

/// Time from `Service::start` to the first response (a `stats` reply), on a
/// daemon of its own: the daemon's set-up, with no simulation in it.
fn setup_probe() -> Result<f64, String> {
    let t = Instant::now();
    let handle = Service::start(ServiceConfig::default()).map_err(|e| format!("start: {e}"))?;
    let answered =
        ServiceClient::connect(&handle.addr().to_string()).and_then(|mut client| client.stats());
    let setup_s = secs(t);
    handle.request_shutdown();
    handle.join();
    answered.map(|_| setup_s).map_err(|e| e.to_string())
}

fn served(p: &ServePass) -> Vec<&Served> {
    p.answers.iter().filter_map(|a| a.result.as_ref().ok()).collect()
}

/// The benchmark's own report bytes for each distinct requested spec, keyed
/// by canonical spec bytes.
type Direct = BTreeMap<Vec<u8>, Result<String, String>>;

/// Runs each distinct spec once for its [`Direct`] bytes and, with `trace`,
/// once more traced: the simulation layers behind the served reports, and
/// from the untraced twins the telemetry overhead. A traced report that
/// differs from its untraced twin is a violation.
fn direct_runs(
    specs: &[RunSpec],
    trace: bool,
    violations: &mut BTreeSet<String>,
) -> (Direct, LayerAcc) {
    let driver = Driver::standard();
    let mut direct = Direct::new();
    let mut layers = LayerAcc::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for spec in specs {
        let t = Instant::now();
        let bytes = driver.run(spec).map(|r| encode(&r)).map_err(|e| e.to_string());
        untraced_s += secs(t);
        if trace {
            match traced_cell(spec) {
                Ok((report, cell)) => {
                    if bytes.as_ref().ok() != Some(&encode(&report)) {
                        violations.insert(format!(
                            "{}: the traced report differs from the untraced one",
                            checks::label(spec)
                        ));
                    }
                    violations.extend(cell.violations);
                    traced_s += cell.wall_s;
                    layers.absorb(&cell.layers);
                }
                Err(e) => {
                    violations.insert(format!("{}: traced run failed: {e}", checks::label(spec)));
                }
            }
        }
        direct.insert(spec.canonical_bytes(), bytes);
    }
    derive(&mut layers);
    layers.set("telemetry.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
    (direct, layers)
}

/// The nearest-rank `q`-quantile of microsecond samples, in milliseconds.
fn quantile_ms(mut micros: Vec<u64>, q: f64) -> f64 {
    micros.sort_unstable();
    percentile(&micros, q) as f64 / 1e3
}

/// Runs `serve-mixed` for about `seconds`. Fails only when no daemon can be
/// started.
pub fn run(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Result<Outcome, String> {
    let requests = workloads::serve_requests(seed, scale);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = nproc.min(2);
    let mut out = Outcome::default();
    let mut distinct: BTreeMap<Vec<u8>, RunSpec> = BTreeMap::new();
    for spec in &requests {
        distinct.entry(spec.canonical_bytes()).or_insert_with(|| spec.clone());
    }
    out.notes.push(format!(
        "load: closed loop, {conns} ServiceClient connections, {} requests per pass in {SEGMENTS} \
         segments over {} distinct specs (pool of {}, every tenth request freshly seeded); \
         {PROBES_PER_GAP} set-up probes before, between and after the segments",
        requests.len(),
        distinct.len(),
        workloads::serve_pool(seed, scale).len()
    ));

    let mut setups = Vec::new();
    let mut probe_failures = Vec::new();
    let mut gap = || {
        for _ in 0..PROBES_PER_GAP {
            match setup_probe() {
                Ok(s) => setups.push(s),
                Err(e) => probe_failures.push(e),
            }
        }
    };
    let start = Instant::now();
    let mut passes: Vec<ServePass> = Vec::new();
    loop {
        passes.push(serve_pass(&requests, conns, trace, &mut gap)?);
        let elapsed = secs(start);
        if elapsed + elapsed / passes.len() as f64 > seconds {
            break;
        }
    }
    out.attempted += (setups.len() + probe_failures.len()) as u64;
    out.failed += probe_failures.len() as u64;
    out.notes.extend(probe_failures.iter().map(|e| format!("error: setup probe: {e}")));

    // Output checks: every served report keeps the invariants and equals
    // the benchmark's own run of its spec byte for byte; the daemon counted
    // one cache lookup per request and no audit failed.
    let specs: Vec<RunSpec> = distinct.values().cloned().collect();
    let (direct, sim_layers) = direct_runs(&specs, trace, &mut out.violations);
    for (key, bytes) in &direct {
        if let Err(e) = bytes {
            out.violations
                .insert(format!("{}: direct run failed: {e}", checks::label(&distinct[key])));
        }
    }
    let mut rtts = Vec::new();
    for pass in &passes {
        for answer in &pass.answers {
            out.attempted += 1;
            rtts.push(answer.rtt_micros);
            let spec = &requests[answer.index];
            match &answer.result {
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("error: {}: {e}", checks::label(spec)));
                }
                Ok(served) => {
                    out.violations.extend(checks::report_invariants(spec, &served.report));
                    let own = direct.get(&spec.canonical_bytes()).and_then(|b| b.as_ref().ok());
                    if own != Some(&encode(&served.report)) {
                        out.violations.insert(format!(
                            "{}: served bytes differ from the direct run",
                            checks::label(spec)
                        ));
                    }
                }
            }
        }
        let cache = pass.stats.cache;
        if cache.hits + cache.misses != requests.len() as u64 {
            out.violations.insert(format!(
                "cache hits {} + misses {} != {} requests sent",
                cache.hits,
                cache.misses,
                requests.len()
            ));
        }
        if cache.audit_failures != 0 {
            out.violations.insert(format!("{} cache audits failed", cache.audit_failures));
        }
    }

    // Served reports are identical in every pass (each equals the direct
    // run), so the first pass stands for all of them.
    let mut below: BTreeMap<&str, usize> = BTreeMap::new();
    for answer in &passes[0].answers {
        if let Ok(s) = &answer.result {
            if !s.report.success {
                *below.entry(requests[answer.index].task.as_str()).or_default() += 1;
            }
        }
    }
    out.notes.push(format!("served reports below their task's own criterion, by task: {below:?}"));
    let per_pass = |f: &dyn Fn(&ServePass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let sim_steps = |p: &ServePass| served(p).iter().map(|s| s.report.clock_total as f64).sum();
    let e2e = &mut out.end_to_end;
    e2e.insert("wall_s", Sampled::median_of(&per_pass(&|p| p.wall_s)));
    e2e.insert("setup_s", Sampled::median_of(&setups));
    e2e.insert("sim_steps", Sampled::median_of(&per_pass(&sim_steps)));
    e2e.insert("steps_per_s", Sampled::median_of(&per_pass(&|p| ratio(sim_steps(p), p.wall_s))));
    e2e.insert(
        "ops_per_s",
        Sampled::median_of(&per_pass(&|p| ratio(served(p).len() as f64, p.wall_s))),
    );
    e2e.insert("op_p50_ms", Sampled::new(quantile_ms(rtts.clone(), 0.5), rtts.len()));
    e2e.insert("op_p99_ms", Sampled::new(quantile_ms(rtts.clone(), 0.99), rtts.len()));
    e2e.insert(
        "success_frac",
        Sampled::median_of(&per_pass(&|p| {
            let s = served(p);
            ratio(s.iter().filter(|s| s.report.success).count() as f64, s.len() as f64)
        })),
    );

    if trace {
        trace_layers(&mut out, &passes, sim_layers);
    }
    Ok(out)
}

/// Per-layer metrics of `serve-mixed`: the service layer from the clients'
/// timings and the daemon's `stats` and `metrics` verbs (last pass), beside
/// the simulation layers `l` of [`direct_runs`].
fn trace_layers(out: &mut Outcome, passes: &[ServePass], mut l: LayerAcc) {
    let last = passes.last().expect("at least one pass ran");
    let (mut hits, mut misses, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    // Every response carries its report encoded once more (a hit decodes
    // the cached line and re-encodes it), so encoding is timed per response.
    let (mut encode_s, mut bytes) = (0.0, 0.0);
    for answer in &last.answers {
        if let Ok(s) = &answer.result {
            if s.hit { &mut hits } else { &mut misses }.push(answer.rtt_micros);
            wire.push(answer.rtt_micros.saturating_sub(s.server_micros));
            let t = Instant::now();
            bytes += encode(&s.report).len() as f64;
            encode_s += secs(t);
        }
    }
    l.set("api.report_encode_s", encode_s);
    l.set("api.report_bytes", bytes);
    l.set("service.hit_p50_ms", quantile_ms(hits, 0.5));
    l.set("service.miss_p50_ms", quantile_ms(misses, 0.5));
    l.set("service.wire_p50_ms", quantile_ms(wire, 0.5));
    let cache = last.stats.cache;
    l.set("service.cache_hits", cache.hits as f64);
    l.set("service.cache_misses", cache.misses as f64);
    l.set("service.hit_ratio", ratio(cache.hits as f64, (cache.hits + cache.misses) as f64));
    l.set("service.cache_evictions", cache.evictions as f64);
    l.set("service.cache_audits", cache.audits as f64);
    l.set("service.audit_failures", cache.audit_failures as f64);
    l.set("service.rejected", last.stats.rejected as f64);
    if let Some(q) = last.stats.queue_latency {
        l.set("service.queue_wait_p50_ms", q.queued_p50_micros as f64 / 1e3);
        l.set("service.queue_wait_p99_ms", q.queued_p99_micros as f64 / 1e3);
        l.set("service.job_run_p50_ms", q.run_p50_micros as f64 / 1e3);
    }
    if let Some(snap) = &last.metrics {
        let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
        // The daemon's log2 histogram: p50 is the upper edge of its bucket.
        l.set(
            "service.request_p50_ms",
            hist("service_request_micros").map_or(0.0, |h| h.p50 as f64 / 1e3),
        );
        l.set(
            "service.cache_serve_s",
            hist("service_cache_serve_micros").map_or(0.0, |h| h.sum as f64 * 1e-6),
        );
    }

    out.notes.push(format!(
        "shares: job run p50 {:.4} ms is {:.2}% of the hit round trip p50 {:.4} ms; wire p50 {:.4} ms",
        l.get("service.job_run_p50_ms"),
        100.0 * ratio(l.get("service.job_run_p50_ms"), l.get("service.hit_p50_ms")),
        l.get("service.hit_p50_ms"),
        l.get("service.wire_p50_ms"),
    ));
    out.notes.extend(accounting(&l, None));
    // One traced pass: the last.
    out.layers = crate::metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| (name, Sampled::new(l.get(name), 1)))
        .collect();
}
