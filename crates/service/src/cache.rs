//! The content-addressed result cache: serve identical traffic without
//! re-simulating.
//!
//! Keys are [`SpecHash`]es over the canonical spec bytes
//! ([`RunSpec::spec_hash`]), so two documents that *mean* the same run —
//! reordered fields, `null` versus absent optionals — share one entry.
//! Values are the **compact JSON lines** of the corresponding
//! [`RunReport`]s, not decoded structs: byte-level storage is what makes
//! the cache-correctness contract checkable (a served report must be
//! byte-identical to a fresh run) and what the persistent store appends
//! verbatim. The workspace serializer's float rendering is
//! shortest-round-trip, so decode → re-encode reproduces the stored line
//! exactly; the round-trip test below pins that.
//!
//! Three layers, checked in order:
//!
//! 1. an **in-memory LRU** with a byte budget (stored line lengths), the
//!    oldest entries evicted first;
//! 2. an optional **persistent store** — a JSONL file of
//!    `{"hash": …, "report": …}` rows loaded at open (last write wins) and
//!    appended on every fresh run, so a restarted daemon serves yesterday's
//!    traffic warm;
//! 3. the [`Driver`] itself on a miss.
//!
//! **The audit guard.** Caching correctness rests on run purity, so the
//! cache re-verifies it in production: a configurable fraction of hits is
//! re-executed fresh and compared byte-for-byte against the stored line.
//! The decision is deterministic (a [`seeds::mix`] draw over the key and
//! the hit ordinal), so audit behaviour is reproducible run-for-run. A
//! mismatch increments `audit_failures`, replaces the poisoned entry, and
//! serves the fresh report — a corrupted store degrades to correct-but-slow
//! instead of wrong.

use radionet_api::{seeds, Driver, RunError, RunReport, RunSpec, SpecHash};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::Mutex;

/// Configuration of a [`ResultCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Byte budget of the in-memory LRU (sum of stored report lines).
    pub max_bytes: usize,
    /// Fraction of hits re-run fresh and compared byte-for-byte, in
    /// `[0, 1]`. `0.0` disables the audit guard; `1.0` audits every hit
    /// (every hit costs a full run — useful in tests and canaries only).
    pub audit_fraction: f64,
    /// Optional JSONL-backed persistent store, loaded at open and appended
    /// on every fresh run.
    pub persist: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_bytes: 64 << 20, audit_fraction: 0.05, persist: None }
    }
}

/// Monotone counters describing cache behaviour since open.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests served from the cache (memory or persistent store).
    pub hits: u64,
    /// Requests that ran fresh because no entry existed.
    pub misses: u64,
    /// In-memory entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Hits that were audited (re-run fresh and compared).
    pub audits: u64,
    /// Audits whose stored line did **not** match the fresh run. Always 0
    /// under the purity contract; anything else means a corrupted store or
    /// a determinism regression.
    pub audit_failures: u64,
    /// Entries loaded from the persistent store that later served a hit.
    pub persist_hits: u64,
    /// Live in-memory entries.
    pub entries: u64,
    /// Live in-memory bytes (sum of stored line lengths).
    pub bytes: u64,
}

/// The outcome of [`ResultCache::serve`].
#[derive(Clone, Debug, PartialEq)]
pub struct Served {
    /// The report — decoded from the stored line on a hit, fresh otherwise.
    pub report: RunReport,
    /// Whether the request was served from the cache. An audited hit whose
    /// comparison failed reports `false`: the caller got a fresh run.
    pub hit: bool,
    /// Whether the audit guard re-ran this request.
    pub audited: bool,
}

/// One stored report line plus its LRU stamp.
struct Entry {
    line: String,
    stamp: u64,
    from_disk: bool,
}

/// One row of the persistent JSONL store.
#[derive(Serialize, Deserialize)]
struct PersistRow {
    hash: SpecHash,
    report: RunReport,
}

struct Inner {
    entries: HashMap<SpecHash, Entry>,
    /// LRU index: stamp → key. Stamps are unique (a monotone clock), so
    /// the first entry is always the least recently used.
    by_age: BTreeMap<u64, SpecHash>,
    bytes: usize,
    clock: u64,
    stats: CacheStats,
    /// Rows loaded from the persistent file that have not been promoted
    /// into memory yet (last write in the file wins).
    disk: HashMap<SpecHash, String>,
    /// Append handle of the persistent store, if configured.
    persist: Option<std::fs::File>,
}

/// The content-addressed result cache (see the module docs). All methods
/// take `&self`; the cache is shared across worker threads behind one
/// internal mutex, which is **never held across a simulation** — misses
/// and audits run unlocked, so a long cell cannot stall lookups.
pub struct ResultCache {
    inner: Mutex<Inner>,
    max_bytes: usize,
    audit_fraction: f64,
}

impl ResultCache {
    /// Opens a cache; loads the persistent store when configured.
    ///
    /// # Errors
    ///
    /// Fails when the persistent file exists but cannot be read, or cannot
    /// be opened for append. Unparseable rows are skipped (a torn final
    /// append after a crash must not brick the store).
    pub fn open(config: CacheConfig) -> io::Result<ResultCache> {
        let mut disk = HashMap::new();
        let mut persist = None;
        if let Some(path) = &config.persist {
            if path.exists() {
                let file = std::fs::File::open(path)?;
                for line in io::BufReader::new(file).lines() {
                    let line = line?;
                    if let Ok(row) = serde_json::from_str::<PersistRow>(&line) {
                        let report_line = serde_json::to_string(&row.report)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                        disk.insert(row.hash, report_line);
                    }
                }
            }
            persist = Some(std::fs::OpenOptions::new().create(true).append(true).open(path)?);
        }
        Ok(ResultCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                by_age: BTreeMap::new(),
                bytes: 0,
                clock: 0,
                stats: CacheStats::default(),
                disk,
                persist,
            }),
            max_bytes: config.max_bytes.max(1),
            audit_fraction: config.audit_fraction.clamp(0.0, 1.0),
        })
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache poisoned").stats
    }

    /// Serves one spec: cache hit (possibly audited) or a fresh run that
    /// populates the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from fresh runs and audit re-runs; store
    /// I/O and decode failures surface as [`RunError::Sink`].
    pub fn serve(&self, driver: &Driver, spec: &RunSpec) -> Result<Served, RunError> {
        let hash = spec.spec_hash();
        let cached = {
            let mut inner = self.inner.lock().expect("cache poisoned");
            inner.lookup(hash, self.max_bytes)
        };
        match cached {
            Some((line, nth_hit)) => {
                if self.should_audit(hash, nth_hit) {
                    return self.audit(driver, spec, hash, line);
                }
                let report = decode(&line)?;
                Ok(Served { report, hit: true, audited: false })
            }
            None => {
                let report = driver.run(spec)?;
                let line = encode(&report)?;
                self.store(hash, line)?;
                Ok(Served { report, hit: false, audited: false })
            }
        }
    }

    /// The deterministic audit draw: hit `nth` of key `hash` is audited
    /// iff a fixed mix of the two falls under the configured fraction.
    fn should_audit(&self, hash: SpecHash, nth_hit: u64) -> bool {
        if self.audit_fraction >= 1.0 {
            return true;
        }
        let draw = seeds::mix(hash.lo ^ seeds::mix(nth_hit ^ hash.hi));
        (draw as f64) < self.audit_fraction * (u64::MAX as f64)
    }

    /// Re-runs an audited hit and compares byte-for-byte. On mismatch the
    /// poisoned entry is replaced and the fresh report served.
    fn audit(
        &self,
        driver: &Driver,
        spec: &RunSpec,
        hash: SpecHash,
        line: String,
    ) -> Result<Served, RunError> {
        let fresh = driver.run(spec)?;
        let fresh_line = encode(&fresh)?;
        let clean = fresh_line == line;
        {
            let mut inner = self.inner.lock().expect("cache poisoned");
            inner.stats.audits += 1;
            if !clean {
                inner.stats.audit_failures += 1;
            }
        }
        if !clean {
            self.store(hash, fresh_line)?;
        }
        Ok(Served { report: fresh, hit: clean, audited: true })
    }

    /// Inserts a line under `hash`, evicting LRU entries past the byte
    /// budget, and appends to the persistent store when configured.
    fn store(&self, hash: SpecHash, line: String) -> Result<(), RunError> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(file) = &mut inner.persist {
            // The stored line is already compact JSON; splicing it into the
            // row keeps the append byte-identical to what a reload serves.
            let row = format!("{{\"hash\":\"{}\",\"report\":{}}}\n", hash.to_hex(), line);
            file.write_all(row.as_bytes()).and_then(|()| file.flush()).map_err(RunError::Sink)?;
        }
        inner.put(hash, line, false);
        inner.respect_budget(self.max_bytes);
        Ok(())
    }
}

impl Inner {
    /// Memory lookup with disk-store promotion; returns the stored line
    /// and the hit ordinal (for the deterministic audit draw), counting
    /// hit/miss either way.
    fn lookup(&mut self, hash: SpecHash, max_bytes: usize) -> Option<(String, u64)> {
        if let Some(entry) = self.entries.get(&hash) {
            let (line, stamp, from_disk) = (entry.line.clone(), entry.stamp, entry.from_disk);
            self.by_age.remove(&stamp);
            self.clock += 1;
            let stamp = self.clock;
            self.by_age.insert(stamp, hash);
            self.entries.get_mut(&hash).expect("just read").stamp = stamp;
            self.stats.hits += 1;
            if from_disk {
                self.stats.persist_hits += 1;
            }
            return Some((line, self.stats.hits));
        }
        if let Some(line) = self.disk.remove(&hash) {
            self.put(hash, line.clone(), true);
            self.respect_budget(max_bytes);
            self.stats.hits += 1;
            self.stats.persist_hits += 1;
            return Some((line, self.stats.hits));
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts (or replaces) an entry and refreshes its LRU stamp.
    fn put(&mut self, hash: SpecHash, line: String, from_disk: bool) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(old) = self.entries.insert(hash, Entry { line, stamp, from_disk }) {
            self.bytes -= old.line.len();
            self.by_age.remove(&old.stamp);
        }
        self.bytes += self.entries[&hash].line.len();
        self.by_age.insert(stamp, hash);
        self.stats.entries = self.entries.len() as u64;
        self.stats.bytes = self.bytes as u64;
    }

    /// Evicts least-recently-used entries until the budget holds. The
    /// newest entry always survives, even when it alone exceeds the
    /// budget — a cache of one beats a cache of none.
    fn respect_budget(&mut self, max_bytes: usize) {
        while self.bytes > max_bytes && self.entries.len() > 1 {
            let (&stamp, &hash) = self.by_age.iter().next().expect("entries nonempty");
            self.by_age.remove(&stamp);
            let evicted = self.entries.remove(&hash).expect("index and map in sync");
            self.bytes -= evicted.line.len();
            self.stats.evictions += 1;
        }
        self.stats.entries = self.entries.len() as u64;
        self.stats.bytes = self.bytes as u64;
    }
}

/// Compact-JSON encode with cache-flavoured error mapping.
fn encode(report: &RunReport) -> Result<String, RunError> {
    serde_json::to_string(report)
        .map_err(|e| RunError::Sink(io::Error::new(io::ErrorKind::InvalidData, e.to_string())))
}

/// Decode of a stored line with cache-flavoured error mapping.
fn decode(line: &str) -> Result<RunReport, RunError> {
    serde_json::from_str(line)
        .map_err(|e| RunError::Sink(io::Error::new(io::ErrorKind::InvalidData, e.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::families::Family;

    fn spec(seed: u64) -> RunSpec {
        RunSpec::new("luby-mis", Family::Path, 8).with_seed(seed)
    }

    fn cache(max_bytes: usize, audit: f64) -> ResultCache {
        ResultCache::open(CacheConfig { max_bytes, audit_fraction: audit, persist: None }).unwrap()
    }

    #[test]
    fn hit_is_byte_identical_to_fresh() {
        let driver = Driver::standard();
        let cache = cache(1 << 20, 0.0);
        let cold = cache.serve(&driver, &spec(1)).unwrap();
        assert!(!cold.hit);
        let warm = cache.serve(&driver, &spec(1)).unwrap();
        assert!(warm.hit && !warm.audited);
        // Byte identity, not just struct equality: the decoded report
        // re-encodes to exactly the stored line.
        assert_eq!(
            serde_json::to_string(&warm.report).unwrap(),
            serde_json::to_string(&cold.report).unwrap()
        );
        assert_eq!(warm.report, cold.report);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn full_audit_verifies_every_hit() {
        let driver = Driver::standard();
        let cache = cache(1 << 20, 1.0);
        cache.serve(&driver, &spec(2)).unwrap();
        let served = cache.serve(&driver, &spec(2)).unwrap();
        assert!(served.hit && served.audited);
        let s = cache.stats();
        assert_eq!((s.audits, s.audit_failures), (1, 0));
    }

    #[test]
    fn audit_catches_a_poisoned_entry() {
        let driver = Driver::standard();
        let cache = cache(1 << 20, 1.0);
        let truth = cache.serve(&driver, &spec(3)).unwrap().report;
        let hash = spec(3).spec_hash();
        // Corrupt the stored line behind the public API's back
        // (same-length corruption, so the byte accounting stays honest).
        {
            let mut inner = cache.inner.lock().unwrap();
            let entry = inner.entries.get_mut(&hash).unwrap();
            assert!(entry.line.contains("\"clock_total\":"));
            entry.line = entry.line.replace("\"clock_total\":", "\"clock_toXal\":");
        }
        let served = cache.serve(&driver, &spec(3)).unwrap();
        assert!(!served.hit && served.audited, "a failed audit is not a hit");
        assert_eq!(served.report, truth, "the fresh run is served, not the poison");
        assert_eq!(cache.stats().audit_failures, 1);
        // The poisoned entry was replaced: the next audit passes.
        let again = cache.serve(&driver, &spec(3)).unwrap();
        assert!(again.hit && again.audited);
        assert_eq!(cache.stats().audit_failures, 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let driver = Driver::standard();
        // One tiny report is ~1–2 KiB; a 3 KiB budget holds at most two.
        let one = serde_json::to_string(&driver.run(&spec(0)).unwrap()).unwrap().len();
        let cache = cache(2 * one + one / 2, 0.0);
        for seed in 0..3 {
            cache.serve(&driver, &spec(seed)).unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions >= 1, "three entries cannot fit a two-entry budget");
        assert!(s.bytes <= (2 * one + one / 2) as u64);
        // Seed 0 was the least recently used → evicted → misses again.
        let again = cache.serve(&driver, &spec(0)).unwrap();
        assert!(!again.hit);
        // Seed 2 stayed resident.
        assert!(cache.serve(&driver, &spec(2)).unwrap().hit);
    }

    #[test]
    fn persistent_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("radionet-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let _ = std::fs::remove_file(&path);
        let driver = Driver::standard();
        let config =
            CacheConfig { max_bytes: 1 << 20, audit_fraction: 0.0, persist: Some(path.clone()) };
        let cold = {
            let cache = ResultCache::open(config.clone()).unwrap();
            cache.serve(&driver, &spec(9)).unwrap()
        };
        assert!(!cold.hit);
        // A fresh process image: memory empty, file warm.
        let cache = ResultCache::open(config).unwrap();
        let warm = cache.serve(&driver, &spec(9)).unwrap();
        assert!(warm.hit, "the persisted entry serves the reopened cache");
        assert_eq!(warm.report, cold.report);
        let s = cache.stats();
        assert_eq!((s.persist_hits, s.misses), (1, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn audit_draw_is_deterministic_and_roughly_calibrated() {
        let cache = cache(1 << 20, 0.25);
        let hash = spec(0).spec_hash();
        let hits: u64 = (0..4000).filter(|&n| cache.should_audit(hash, n)).count() as u64;
        let again: u64 = (0..4000).filter(|&n| cache.should_audit(hash, n)).count() as u64;
        assert_eq!(hits, again, "the draw is a pure function");
        assert!((700..1300).contains(&hits), "≈25% of 4000 draws, got {hits}");
    }
}
