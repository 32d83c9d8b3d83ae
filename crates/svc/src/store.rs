//! The sharded, content-addressed analysis store.
//!
//! Two tiers:
//!
//! - **Memory** — full [`AppCacheEntry`]s (replay seeds, `Arc`'d
//!   dataflow artifacts, report) sharded by app key, LRU-evicted under
//!   *both* an entry-count cap and an approximate byte budget (one batch
//!   of huge apps must not blow past a memory target that a thousand
//!   small apps respect). Seeds embed interned symbol ids and shared
//!   pointers, so this tier is process-local by construction.
//! - **Disk** (optional, under `--cache-dir`) — the durable subset: the
//!   bundle and config fingerprints plus the report. A disk hit serves
//!   an *identical* bundle across process restarts; a changed bundle
//!   misses and re-records — but the stale entry is still *readable*
//!   ([`AnalysisStore::lookup_disk_any`]), which is what lets a
//!   resubmitted app version produce a defect delta even across process
//!   boundaries.
//!
//! A disk entry is one file, `{key_hash:016x}-{config_fp:016x}.json`:
//!
//! ```text
//! nck-entry 2 <wire schema> <bundle_fp> <config_fp> <defects> <json len> <wire len> <checksum>\n
//! <json section: the canonical one-shot --json bytes><wire section: crate::wire JSON>
//! ```
//!
//! Fingerprints and the checksum are 16 hex digits, the rest decimal.
//! The checksum (a word-wise multiply-xor) covers the header up to the
//! checksum field plus both sections, so a hit is a file read plus one pass over
//! the bytes: the JSON section goes straight to the reply
//! ([`StoredEntry::json`]) and nothing is decoded or re-rendered. The
//! wire section is decoded only when a consumer asks for the structured
//! report ([`StoredEntry::decode`], counted as `svc.cache.disk_decode`):
//! CLI text output, per-app metrics, a delta base, and
//! [`AnalysisStore::lookup_disk_any`], which benchmark tooling decodes
//! through. The checksum guards against accidental damage (torn or
//! bit-flipped files), not forgery: the cache directory is trusted.
//!
//! Disk hits are **not** promoted into the memory tier. Promotion would
//! force the decode a hit otherwise skips, and a re-vetting workload
//! meets each key once per process. [`AnalysisStore::promote`] remains
//! for callers that want it.
//!
//! The file keeps its `.json` name across layout changes so that a
//! format upgrade overwrites old entries in place. An entry in an older
//! layout — the schema-1 JSON object, or an older header — is a plain
//! miss, never a quarantine, and the next insert rewrites it.
//!
//! The disk tier is garbage-collected by [`AnalysisStore::gc_disk`]:
//! size-budgeted LRU eviction ordered by per-entry *atime sidecar*
//! files (entry mtime is the fallback stamp for entries never read
//! back). A disk hit does **no** sidecar I/O on the hot path: reads
//! land in an in-memory write-behind journal
//! ([`AnalysisStore::flush_atimes`]) that is flushed in batches —
//! before every GC scan, on [`AnalysisStore::sync_disk`], and when the
//! store drops. A crash loses only the unflushed journal; GC then
//! degrades to the mtime fallback for those entries (an entry is never
//! evicted *wrongly*, only ranked by its older stamp). Eviction is
//! plain `unlink` against tmp+rename writers, so a concurrent reader
//! sees a full entry or a miss — never a torn one. Quarantined
//! `.quarantine` files are outside the cache namespace: GC neither
//! counts them against the budget nor touches them.
//!
//! The store also keeps a **live occupancy estimate** of the disk tier
//! (seeded by one startup scan, maintained on every insert, eviction,
//! and quarantine), so a budgeted service can gate GC on a watermark
//! ([`AnalysisStore::maybe_gc_disk`]) instead of paying a full
//! directory rescan per batch: under the high watermark the check is
//! one atomic load and a `svc.cache.gc_skipped` bump.
//!
//! Every lookup runs under a `cache_lookup` span and bumps the
//! `svc.cache.{hit,miss}` counters on the obs handle it is given;
//! evictions bump `svc.cache.evict`, GC bumps `svc.cache.gc_*`. Corrupt
//! disk files (a bad checksum, header, or length) read as misses, never
//! errors — and are *quarantined* (renamed out of the cache namespace)
//! so they are not re-read and re-rejected on every subsequent lookup.
//!
//! Besides the per-app obs handle, the store owns a service-lifetime
//! [`Metrics`] registry mirroring every `svc.cache.*` counter. Per-app
//! handles are often disabled (reports must stay byte-identical to
//! uninstrumented runs), but a long-lived service still needs the
//! lifetime totals — the `--doctor` snapshot and the daemon's `doctor`
//! verb read them from [`AnalysisStore::metrics`].

use nchecker::cache::AppCacheEntry;
use nck_obs::{Metrics, Obs};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::SystemTime;

const SHARDS: usize = 16;

/// Default memory-tier capacity (entries across all shards).
pub const DEFAULT_CAPACITY: usize = 256;

/// Default memory-tier byte budget (approximate, across all shards).
/// Generous enough that the entry-count cap binds first for typical
/// corpora; the byte cap exists for the huge-app tail.
pub const DEFAULT_MEM_BYTES: usize = 256 << 20;

fn key_hash(key: &str) -> u64 {
    nck_dex::wire::fnv1a(key.as_bytes())
}

/// One resident memory-tier entry.
struct MemEntry {
    /// Last-used tick (LRU ordering).
    tick: u64,
    /// Approximate byte charge ([`AppCacheEntry::approx_bytes`]).
    approx: usize,
    entry: Arc<AppCacheEntry>,
    /// Lazily-filled rendered one-shot JSON of this entry's report,
    /// shared out via [`AnalysisStore::render_cell`]. Reset whenever
    /// the entry is replaced, so the bytes always describe `entry`.
    rendered: Arc<RenderCell>,
}

/// A memoization slot for one cache entry's rendered one-shot `--json`
/// bytes. Filled at most once per resident entry; consumers that find
/// it filled skip re-encoding the report entirely.
#[derive(Debug, Default)]
pub struct RenderCell(OnceLock<Arc<String>>);

impl RenderCell {
    /// A cell already holding `text`.
    pub fn filled(text: Arc<String>) -> RenderCell {
        RenderCell(OnceLock::from(text))
    }

    /// The cached rendering, computing (and caching) it via `render` on
    /// first use.
    pub fn get_or_render(&self, render: impl FnOnce() -> String) -> Arc<String> {
        Arc::clone(self.0.get_or_init(|| Arc::new(render())))
    }

    /// The cached rendering, if one was ever computed.
    pub fn get(&self) -> Option<Arc<String>> {
        self.0.get().cloned()
    }
}

struct Shard {
    entries: HashMap<String, MemEntry>,
    /// Sum of the approx-bytes column.
    bytes: usize,
}

/// A sharded two-tier analysis cache, safe to hammer from the pool.
pub struct AnalysisStore {
    shards: Vec<Mutex<Shard>>,
    clock: AtomicU64,
    capacity: usize,
    mem_budget: usize,
    disk: Option<PathBuf>,
    metrics: Metrics,
    /// Write-behind atime journal: entry path → last read stamp.
    /// Flushed to sidecar files by [`AnalysisStore::flush_atimes`].
    atime_journal: Mutex<HashMap<PathBuf, SystemTime>>,
    /// Live disk-tier occupancy estimate, bytes. Valid once
    /// `disk_seeded` ran; resynced to exact numbers by every GC scan.
    disk_bytes: AtomicU64,
    /// Gates the one startup scan that seeds `disk_bytes`.
    disk_seeded: Once,
}

impl AnalysisStore {
    /// An in-memory store with the default capacity and no disk tier.
    pub fn new() -> AnalysisStore {
        AnalysisStore::with_options(DEFAULT_CAPACITY, None)
    }

    /// A store with an explicit entry capacity, the default byte
    /// budget, and an optional disk directory (created on first write).
    pub fn with_options(capacity: usize, disk: Option<PathBuf>) -> AnalysisStore {
        AnalysisStore::with_budgets(capacity, DEFAULT_MEM_BYTES, disk)
    }

    /// A store with explicit entry and byte caps on the memory tier.
    /// Eviction triggers when *either* cap is exceeded; a shard always
    /// retains at least its newest entry, so one entry larger than the
    /// whole budget still caches (and evicts everything else).
    pub fn with_budgets(
        capacity: usize,
        mem_budget: usize,
        disk: Option<PathBuf>,
    ) -> AnalysisStore {
        AnalysisStore {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            mem_budget: mem_budget.max(1),
            disk,
            metrics: Metrics::enabled(),
            atime_journal: Mutex::new(HashMap::new()),
            disk_bytes: AtomicU64::new(0),
            disk_seeded: Once::new(),
        }
    }

    /// Whether a disk tier is configured.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// The store-lifetime metrics registry: every `svc.cache.*` counter
    /// this store ever bumped, regardless of whether the per-app obs
    /// handle of the moment was recording.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn count(&self, name: &str, by: u64, obs: &Obs) {
        self.metrics.inc(name, by);
        obs.metrics.inc(name, by);
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(key_hash(key) as usize) % SHARDS]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Memory-tier lookup. Counts neither hit nor miss — the *outcome*
    /// of the analysis (whole-report reuse vs. recompute) decides that;
    /// see [`AnalysisStore::count_outcome`].
    pub fn lookup(&self, key: &str, obs: &Obs) -> Option<Arc<AppCacheEntry>> {
        let _s = obs.tracer.span("cache_lookup");
        let mut shard = lock(self.shard(key));
        let tick = self.tick();
        shard.entries.get_mut(key).map(|slot| {
            slot.tick = tick;
            Arc::clone(&slot.entry)
        })
    }

    /// The render-memoization cell of the resident memory entry for
    /// `key`, provided that entry was recorded for `bundle_fp` (a cell
    /// must never serve bytes rendered from a different bundle's
    /// report). `None` when the key is absent or the entry moved on.
    pub fn render_cell(&self, key: &str, bundle_fp: u64) -> Option<Arc<RenderCell>> {
        let shard = lock(self.shard(key));
        shard
            .entries
            .get(key)
            .filter(|m| m.entry.bundle_fp == bundle_fp)
            .map(|m| Arc::clone(&m.rendered))
    }

    /// Disk-tier read: whatever checksum-valid entry exists for
    /// `(key, config_fp)`, undecoded. The caller decides hit (the
    /// entry's `bundle_fp` matches) vs. *delta base* (it differs — the
    /// entry describes the previous version of this app).
    ///
    /// An entry in an older layout is a plain miss and stays on disk for
    /// the next insert to overwrite. A *corrupt* entry (bad checksum,
    /// header, or lengths) is quarantined: left in place it would be
    /// re-read and re-rejected on every lookup and permanently inflate
    /// the disk occupancy stats. Reading records the entry in the
    /// in-memory atime journal (no sidecar I/O on the hot path), which
    /// is what makes [`AnalysisStore::gc_disk`]'s eviction order an LRU
    /// rather than FIFO.
    pub fn lookup_disk_entry(&self, key: &str, config_fp: u64, obs: &Obs) -> Option<StoredEntry> {
        let dir = self.disk.as_deref()?;
        let _s = obs.tracer.span("cache_lookup_disk");
        let path = disk_path(dir, key, config_fp);
        let bytes = std::fs::read(&path).ok()?;
        match parse_entry(&bytes, config_fp, &self.metrics) {
            Parsed::Entry(entry) => {
                lock_plain(&self.atime_journal).insert(path, SystemTime::now());
                Some(entry)
            }
            Parsed::Outdated => None,
            Parsed::Corrupt => {
                self.quarantine(&path, obs);
                None
            }
        }
    }

    /// [`AnalysisStore::lookup_disk_entry`] with the report decoded:
    /// the bundle fingerprint the entry was recorded for, and its
    /// report.
    pub fn lookup_disk_any(
        &self,
        key: &str,
        config_fp: u64,
        obs: &Obs,
    ) -> Option<(u64, nchecker::AppReport)> {
        self.lookup_disk_entry(key, config_fp, obs)
            .map(|entry| (entry.bundle_fp, entry.decode()))
    }

    /// Flushes the write-behind atime journal: every journaled read
    /// becomes a sidecar file whose mtime is the recorded read stamp,
    /// so relative recency survives the batching exactly. Entries that
    /// vanished since the read (evicted, quarantined) are dropped
    /// rather than resurrected as orphan sidecars. Called before every
    /// GC scan, by [`AnalysisStore::sync_disk`], and on drop; a crash
    /// in between loses only the journal, never an entry.
    pub fn flush_atimes(&self) {
        let drained: Vec<(PathBuf, SystemTime)> = {
            let mut journal = lock_plain(&self.atime_journal);
            journal.drain().collect()
        };
        for (path, stamp) in drained {
            if !path.exists() {
                continue;
            }
            let sidecar = path.with_extension("atime");
            if std::fs::write(&sidecar, b"").is_ok() {
                if let Ok(f) = std::fs::File::options().write(true).open(&sidecar) {
                    let _ = f.set_modified(stamp);
                }
            }
        }
    }

    /// Reads pending in the atime journal (tests and introspection).
    pub fn journaled_atimes(&self) -> usize {
        lock_plain(&self.atime_journal).len()
    }

    /// Renames a corrupt cache file out of the cache namespace
    /// (`.json` → `.quarantine`, which [`scan_disk`] and lookups both
    /// ignore), deleting it outright if even the rename fails. The
    /// atime sidecar goes with it — a quarantined entry must never be
    /// charged against the GC budget again.
    fn quarantine(&self, path: &Path, obs: &Obs) {
        self.seed_occupancy();
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        if std::fs::rename(path, path.with_extension("quarantine")).is_err() {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(path.with_extension("atime"));
        lock_plain(&self.atime_journal).remove(path);
        self.sub_occupancy(len);
        self.count("svc.cache.corrupt_evict", 1, obs);
        obs.events.warn(&format!(
            "cache: quarantined corrupt entry {}",
            path.display()
        ));
    }

    /// Records a finished clean analysis in both tiers. Degraded apps
    /// must never reach this (the service enforces it; the checker
    /// already returns no entry for them). With a disk tier, the report
    /// is rendered here — the disk entry stores those bytes — and the
    /// memory entry's render cell starts out holding them.
    pub fn insert(&self, key: &str, entry: AppCacheEntry, obs: &Obs) {
        let mut rendered = None;
        if let Some(dir) = self.disk.as_deref() {
            self.seed_occupancy();
            let json = render_json(&entry.report);
            let (new_len, old_len) = write_disk(dir, key, &entry, &json, obs);
            self.sub_occupancy(old_len);
            self.disk_bytes.fetch_add(new_len, Ordering::Relaxed);
            rendered = Some(Arc::new(json));
        }
        self.insert_memory(key, entry, rendered, obs);
    }

    /// Records an entry in the memory tier *only*, leaving the disk
    /// tier alone. The service does not promote disk hits (see the
    /// module docs); this is for callers that hold a decoded entry and
    /// want later lookups served from memory.
    pub fn promote(&self, key: &str, entry: AppCacheEntry, obs: &Obs) {
        self.insert_memory(key, entry, None, obs);
    }

    fn insert_memory(
        &self,
        key: &str,
        entry: AppCacheEntry,
        rendered: Option<Arc<String>>,
        obs: &Obs,
    ) {
        let approx = entry.approx_bytes();
        let slot = MemEntry {
            tick: self.tick(),
            approx,
            entry: Arc::new(entry),
            rendered: Arc::new(rendered.map_or_else(RenderCell::default, RenderCell::filled)),
        };
        let mut shard = lock(self.shard(key));
        if let Some(old) = shard.entries.insert(key.to_owned(), slot) {
            shard.bytes -= old.approx;
        }
        shard.bytes += approx;
        // Per-shard share of the global caps, at least 1 entry / 1 byte.
        // Evicting down to (but never past) a single entry means an
        // over-budget giant still caches.
        let cap = self.capacity.div_ceil(SHARDS);
        let byte_cap = self.mem_budget.div_ceil(SHARDS);
        while (shard.entries.len() > cap || shard.bytes > byte_cap) && shard.entries.len() > 1 {
            let oldest = shard
                .entries
                .iter()
                .min_by(|(ka, ma), (kb, mb)| (ma.tick, ka.as_str()).cmp(&(mb.tick, kb.as_str())))
                .map(|(k, _)| k.clone())
                .expect("non-empty shard");
            if let Some(old) = shard.entries.remove(&oldest) {
                shard.bytes -= old.approx;
            }
            self.count("svc.cache.evict", 1, obs);
        }
    }

    /// Bumps `svc.cache.hit` or `svc.cache.miss` for one analyzed app.
    /// Whole-report reuse (from either tier) is the only thing counted
    /// as a hit: partial prefix reuse still recomputes the report, and
    /// its savings show up in the reuse stats instead.
    pub fn count_outcome(&self, hit: bool, obs: &Obs) {
        self.count(
            if hit {
                "svc.cache.hit"
            } else {
                "svc.cache.miss"
            },
            1,
            obs,
        );
    }

    /// Records one rung-2 incremental analysis: a cache miss whose
    /// class prefix replayed. `classes` is the replayed class count.
    pub fn count_replay(&self, classes: u64, obs: &Obs) {
        self.count("svc.cache.replay_apps", 1, obs);
        self.count("svc.cache.replay_classes", classes, obs);
    }

    /// Records one computed defect delta (a resubmission under a known
    /// key whose bundle changed).
    pub fn count_delta(&self, obs: &Obs) {
        self.count("svc.cache.deltas", 1, obs);
    }

    /// Number of memory-tier entries, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard memory-tier entry counts, in shard order.
    pub fn mem_shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| lock(s).entries.len()).collect()
    }

    /// Approximate memory-tier bytes, across all shards (the
    /// [`AppCacheEntry::approx_bytes`] accounting the byte cap evicts
    /// on).
    pub fn mem_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    /// Records the memory tier's occupancy as point-in-time gauges:
    /// `svc.cache.mem_entries` (total), `svc.cache.mem_bytes`
    /// (approximate resident size), and `svc.cache.mem_largest_shard`
    /// (balance indicator).
    pub fn record_gauges(&self, metrics: &nck_obs::Metrics) {
        let sizes = self.mem_shard_sizes();
        metrics.gauge("svc.cache.mem_entries", sizes.iter().sum::<usize>() as i64);
        metrics.gauge("svc.cache.mem_bytes", self.mem_bytes() as i64);
        metrics.gauge(
            "svc.cache.mem_largest_shard",
            sizes.iter().copied().max().unwrap_or(0) as i64,
        );
    }

    /// Scans this store's disk tier. Zeroed stats when no disk tier is
    /// configured or the directory does not exist yet.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.as_deref().map_or_else(DiskStats::new, scan_disk)
    }

    /// Seeds the live occupancy estimate with one full scan, exactly
    /// once per store. Every disk mutation calls this first, so the
    /// estimate never double-counts the seeding scan's own bytes.
    fn seed_occupancy(&self) {
        self.disk_seeded.call_once(|| {
            self.disk_bytes
                .store(self.disk_stats().bytes, Ordering::Relaxed);
        });
    }

    fn sub_occupancy(&self, len: u64) {
        let _ = self
            .disk_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(len))
            });
    }

    /// The live disk-tier occupancy estimate, in bytes. Seeded by one
    /// scan on first use, then maintained incrementally on every
    /// insert, quarantine, and GC resync — reading it is one atomic
    /// load, not a directory walk.
    pub fn disk_occupancy(&self) -> u64 {
        self.seed_occupancy();
        self.disk_bytes.load(Ordering::Relaxed)
    }

    /// Watermark-gated GC: a no-op (one atomic load plus a
    /// `svc.cache.gc_skipped` bump) while the occupancy estimate is at
    /// or under `budget` (the high watermark). When occupancy crosses
    /// it, collects down to the *low* watermark — `budget` minus one
    /// eighth — so the next run is not re-triggered by the very next
    /// insert (hysteresis). Returns `None` when the run was skipped.
    pub fn maybe_gc_disk(&self, budget: u64, obs: &Obs) -> Option<GcStats> {
        self.disk.as_ref()?;
        if self.disk_occupancy() <= budget {
            self.count("svc.cache.gc_skipped", 1, obs);
            return None;
        }
        let low = budget - budget / 8;
        Some(self.gc_disk(low, obs))
    }

    /// Garbage-collects the disk tier down to `budget` bytes of cache
    /// entries, evicting least-recently-used first (atime sidecar,
    /// falling back to the entry's own mtime for entries never read
    /// back; ties break on file name so repeated runs evict
    /// deterministically).
    ///
    /// Safe under concurrent readers and writers: eviction is a plain
    /// `unlink`, and entries are written tmp+rename, so a reader racing
    /// GC sees the full entry or a miss — never a torn file.
    /// `.quarantine` and `.tmp` files are outside the cache namespace:
    /// neither counted against the budget nor deleted.
    ///
    /// Counts `svc.cache.gc_runs`, `svc.cache.gc_evicted`, and
    /// `svc.cache.gc_freed_bytes`. A no-op (no disk tier, or already
    /// under budget) still counts the run.
    pub fn gc_disk(&self, budget: u64, obs: &Obs) -> GcStats {
        self.count("svc.cache.gc_runs", 1, obs);
        let mut stats = GcStats::default();
        let Some(dir) = self.disk.as_deref() else {
            return stats;
        };
        let _s = obs.tracer.span("cache_gc");
        // Journaled reads become sidecars before the scan, so the
        // eviction order sees every recorded recency. Unflushed entries
        // from a *crashed* predecessor fall back to entry mtime below.
        self.flush_atimes();
        let mut entries: Vec<(SystemTime, String, u64)> = Vec::new();
        let Ok(dirents) = std::fs::read_dir(dir) else {
            return stats;
        };
        for dirent in dirents.flatten() {
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if !is_entry_name(name) {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let atime = std::fs::metadata(dir.join(name).with_extension("atime"))
                .and_then(|m| m.modified())
                .or_else(|_| meta.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((atime, name.to_owned(), meta.len()));
        }
        stats.entries = entries.len() as u64;
        stats.bytes = entries.iter().map(|(_, _, len)| len).sum();
        if stats.bytes <= budget {
            return stats;
        }
        entries.sort();
        let mut live = stats.bytes;
        for (_, name, len) in entries {
            if live <= budget {
                break;
            }
            let path = dir.join(&name);
            if std::fs::remove_file(&path).is_ok() {
                let _ = std::fs::remove_file(path.with_extension("atime"));
                live -= len;
                stats.evicted += 1;
                stats.freed_bytes += len;
            }
        }
        self.count("svc.cache.gc_evicted", stats.evicted, obs);
        self.count("svc.cache.gc_freed_bytes", stats.freed_bytes, obs);
        // The scan just measured the tier exactly; resync the estimate.
        self.disk_seeded.call_once(|| {});
        self.disk_bytes.store(stats.live_bytes(), Ordering::Relaxed);
        if stats.evicted > 0 {
            obs.events.info(&format!(
                "cache-gc: evicted {} of {} entries ({} bytes freed)",
                stats.evicted, stats.entries, stats.freed_bytes
            ));
        }
        stats
    }

    /// Best-effort flush of the disk tier: writes out the atime
    /// journal, then fsyncs the cache directory. Entry files are
    /// written tmp+rename; the directory fsync is what makes the
    /// renames themselves durable, so a daemon calls this once at
    /// shutdown rather than per write.
    pub fn sync_disk(&self) {
        self.flush_atimes();
        if let Some(dir) = self.disk.as_deref() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl Drop for AnalysisStore {
    fn drop(&mut self) {
        // A clean shutdown persists every journaled read; a crash
        // skips this and GC degrades to the mtime fallback.
        self.flush_atimes();
    }
}

/// One [`AnalysisStore::gc_disk`] run's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Cache entries found by the scan (before eviction).
    pub entries: u64,
    /// Their total bytes (before eviction).
    pub bytes: u64,
    /// Entries evicted this run.
    pub evicted: u64,
    /// Bytes those evictions freed.
    pub freed_bytes: u64,
}

impl GcStats {
    /// Bytes still held by cache entries after the run.
    pub fn live_bytes(&self) -> u64 {
        self.bytes - self.freed_bytes
    }
}

/// The exact byte surface the one-shot CLI prints under `--json`: pretty
/// JSON plus the trailing newline. Daemon `report` payloads, `vet`
/// stdout, and disk entries' JSON sections all carry these bytes.
pub fn render_json(report: &nchecker::AppReport) -> String {
    let mut text = serde_json::to_string_pretty(&nchecker::app_report_to_json(report))
        .expect("report serializes");
    text.push('\n');
    text
}

/// First token of a disk entry's header line.
const ENTRY_MAGIC: &str = "nck-entry";

/// Layout version of disk entries (the header line's second token).
/// Schema 1 was a single JSON object holding the wire report.
const ENTRY_SCHEMA: u32 = 2;

/// A checksum-verified disk entry, not yet decoded.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// The bundle fingerprint the entry was recorded for.
    pub bundle_fp: u64,
    /// Defects in the stored report.
    pub defects: usize,
    /// The stored report's one-shot `--json` bytes ([`render_json`]).
    /// Disk entries are recorded from unsealed reports, so these bytes
    /// never carry a `"metrics"` key.
    pub json: Arc<String>,
    /// The stored report in the [`crate::wire`] format.
    wire: String,
    /// The owning store's lifetime registry (`svc.cache.disk_decode`).
    metrics: Metrics,
}

impl StoredEntry {
    /// Decodes the structured report from the wire section, counting
    /// `svc.cache.disk_decode` on the owning store.
    ///
    /// # Panics
    ///
    /// If the wire section does not decode. The checksum and the
    /// header's wire schema were verified at lookup, so that means the
    /// writer and decoder disagree — a bug, not a damaged file.
    pub fn decode(&self) -> nchecker::AppReport {
        self.metrics.inc("svc.cache.disk_decode", 1);
        serde_json::from_str(&self.wire)
            .ok()
            .and_then(|v| crate::wire::report_from_wire(&v))
            .expect("a checksum-valid entry decodes")
    }
}

/// What a disk file turned out to hold.
enum Parsed {
    Entry(StoredEntry),
    /// An entry in an older layout: a plain miss, overwritten in place.
    Outdated,
    Corrupt,
}

/// Disk entry checksum: a multiply-xor over 8-byte little-endian words
/// (one dependent multiply per word, where byte-wise FNV-1a pays one
/// per byte), then the tail and the length. Each step is a bijection of
/// the running state, so any change confined to one word always changes
/// the sum.
fn checksum(parts: &[&[u8]]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len = 0u64;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h = (h ^ w).wrapping_mul(K).rotate_left(31);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(31);
        }
        len += part.len() as u64;
    }
    (h ^ len).wrapping_mul(K)
}

/// Renders an entry file: header line, then the JSON and wire sections.
fn encode_entry(entry: &AppCacheEntry, json: &str, wire: &str) -> Vec<u8> {
    let prefix = format!(
        "{ENTRY_MAGIC} {ENTRY_SCHEMA} {} {:016x} {:016x} {} {} {} ",
        crate::wire::WIRE_SCHEMA,
        entry.bundle_fp,
        entry.config_fp,
        entry.report.defects.len(),
        json.len(),
        wire.len(),
    );
    let mut out = Vec::with_capacity(prefix.len() + 17 + json.len() + wire.len());
    out.extend_from_slice(prefix.as_bytes());
    out.extend_from_slice(&[b'0'; 16]);
    out.push(b'\n');
    let body = out.len();
    out.extend_from_slice(json.as_bytes());
    out.extend_from_slice(wire.as_bytes());
    let sum = checksum(&[prefix.as_bytes(), &out[body..]]);
    out[prefix.len()..prefix.len() + 16].copy_from_slice(format!("{sum:016x}").as_bytes());
    out
}

/// Parses and verifies one entry file read for `config_fp`.
fn parse_entry(bytes: &[u8], config_fp: u64, metrics: &Metrics) -> Parsed {
    // The schema-1 layout: one compact JSON object, keys in sorted order.
    if bytes.starts_with(b"{\"bundle_fp\":\"") {
        return Parsed::Outdated;
    }
    let Some(nl) = bytes.iter().take(256).position(|&b| b == b'\n') else {
        return Parsed::Corrupt;
    };
    let Ok(header) = std::str::from_utf8(&bytes[..nl]) else {
        return Parsed::Corrupt;
    };
    let Some((prefix, sum)) = header.rsplit_once(' ') else {
        return Parsed::Corrupt;
    };
    let fields: Vec<&str> = prefix.split(' ').collect();
    let [ENTRY_MAGIC, schema, wire_schema, bundle_fp, stored_config, defects, json_len, wire_len] =
        fields[..]
    else {
        return Parsed::Corrupt;
    };
    if schema.parse() != Ok(ENTRY_SCHEMA) || wire_schema.parse() != Ok(crate::wire::WIRE_SCHEMA) {
        return Parsed::Outdated;
    }
    let hex = |s: &str| u64::from_str_radix(s, 16).ok().filter(|_| s.len() == 16);
    let (Some(bundle_fp), Some(stored_config), Some(sum)) =
        (hex(bundle_fp), hex(stored_config), hex(sum))
    else {
        return Parsed::Corrupt;
    };
    let (Ok(defects), Ok(json_len), Ok(wire_len)) = (
        defects.parse::<usize>(),
        json_len.parse::<usize>(),
        wire_len.parse::<usize>(),
    ) else {
        return Parsed::Corrupt;
    };
    let body = &bytes[nl + 1..];
    // The file name encodes the config fingerprint, so a mismatch inside
    // means the payload does not belong to its name.
    if stored_config != config_fp
        || json_len.checked_add(wire_len) != Some(body.len())
        || checksum(&[&bytes[..=prefix.len()], body]) != sum
    {
        return Parsed::Corrupt;
    }
    let (json, wire) = body.split_at(json_len);
    let (Ok(json), Ok(wire)) = (std::str::from_utf8(json), std::str::from_utf8(wire)) else {
        return Parsed::Corrupt;
    };
    Parsed::Entry(StoredEntry {
        bundle_fp,
        defects,
        json: Arc::new(json.to_owned()),
        wire: wire.to_owned(),
        metrics: metrics.clone(),
    })
}

/// Disk-tier occupancy, derived from the cache directory alone (the
/// shard of each entry is recoverable from its file name).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Cache entries (well-formed `.json` files).
    pub entries: u64,
    /// Total bytes across those entries.
    pub bytes: u64,
    /// Entries per shard, `SHARDS` slots in shard order.
    pub shards: Vec<u64>,
}

impl DiskStats {
    /// Empty stats with all shard slots present.
    pub fn new() -> DiskStats {
        DiskStats {
            entries: 0,
            bytes: 0,
            shards: vec![0; SHARDS],
        }
    }
}

/// Whether `name` is a well-formed cache entry file name
/// (`{key_hash:016x}-{config_fp:016x}.json`). `.tmp` leftovers,
/// `.atime` sidecars, and `.quarantine`d corrupt entries all fail this.
fn is_entry_name(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(".json") else {
        return false;
    };
    let mut parts = stem.splitn(2, '-');
    let (Some(key_hex), Some(cfg_hex)) = (parts.next(), parts.next()) else {
        return false;
    };
    key_hex.len() == 16
        && cfg_hex.len() == 16
        && u64::from_str_radix(key_hex, 16).is_ok()
        && u64::from_str_radix(cfg_hex, 16).is_ok()
}

/// Scans `dir` for cache entries. Files that are not well-formed cache
/// names — including `.tmp` leftovers, `.atime` sidecars, and
/// `.quarantine`d corrupt entries — are ignored.
fn scan_disk(dir: &Path) -> DiskStats {
    let mut stats = DiskStats::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return stats;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !is_entry_name(name) {
            continue;
        }
        let key_hash = u64::from_str_radix(&name[..16], 16).expect("validated hex");
        stats.entries += 1;
        stats.shards[(key_hash as usize) % SHARDS] += 1;
        if let Ok(meta) = entry.metadata() {
            stats.bytes += meta.len();
        }
    }
    stats
}

impl Default for AnalysisStore {
    fn default() -> Self {
        AnalysisStore::new()
    }
}

fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_plain<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disk file name: key hash + config fingerprint, both hex. The key is
/// hashed (not embedded) so arbitrary package strings cannot escape the
/// cache directory.
fn disk_path(dir: &Path, key: &str, config_fp: u64) -> PathBuf {
    dir.join(format!("{:016x}-{config_fp:016x}.json", key_hash(key)))
}

/// Writes one entry tmp+rename, returning `(new_len, replaced_len)` —
/// the bytes the write added and the bytes of whatever same-named
/// entry it overwrote — so the caller can maintain the live occupancy
/// estimate without a rescan.
fn write_disk(dir: &Path, key: &str, entry: &AppCacheEntry, json: &str, obs: &Obs) -> (u64, u64) {
    let Ok(wire) = serde_json::to_string(&crate::wire::report_to_wire(&entry.report)) else {
        return (0, 0);
    };
    let text = encode_entry(entry, json, &wire);
    // Cache writes are best-effort: a read-only or vanished directory
    // degrades to memory-only, it does not fail the analysis.
    if std::fs::create_dir_all(dir).is_err() {
        obs.events.warn("cache dir could not be created");
        return (0, 0);
    }
    let path = disk_path(dir, key, entry.config_fp);
    let old_len = std::fs::metadata(&path).map_or(0, |m| m.len());
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, &text).is_ok() {
        if std::fs::rename(&tmp, &path).is_err() {
            obs.events.warn("cache file rename failed");
        } else {
            return (text.len() as u64, old_len);
        }
    }
    (0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nchecker::cache::AppCacheEntry;
    use nchecker::AppReport;

    fn entry(bundle_fp: u64, package: &str) -> AppCacheEntry {
        let mut report = AppReport::default();
        report.stats.package = package.to_owned();
        AppCacheEntry {
            bundle_fp,
            config_fp: 42,
            class_fps: Vec::new(),
            lift_seed: Default::default(),
            callee_fps: Vec::new(),
            analyses: Default::default(),
            summary_seed: Default::default(),
            report,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nck-svc-store-{tag}-{}-{}",
            std::process::id(),
            key_hash(tag)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lookup_returns_what_insert_stored() {
        let store = AnalysisStore::new();
        let obs = Obs::disabled();
        assert!(store.lookup("app.a", &obs).is_none());
        store.insert("app.a", entry(1, "app.a"), &obs);
        let got = store.lookup("app.a", &obs).unwrap();
        assert_eq!(got.bundle_fp, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        // Capacity 1 → every shard caps at 1 entry; two keys in the
        // same shard must evict the older.
        let store = AnalysisStore::with_options(1, None);
        let obs = Obs::enabled();
        // Find two keys landing in the same shard.
        let k1 = "app.x".to_owned();
        let mut k2 = None;
        for i in 0..200 {
            let cand = format!("app.y{i}");
            if (key_hash(&cand) as usize) % SHARDS == (key_hash(&k1) as usize) % SHARDS {
                k2 = Some(cand);
                break;
            }
        }
        let k2 = k2.expect("a colliding shard key exists");
        store.insert(&k1, entry(1, &k1), &obs);
        store.insert(&k2, entry(2, &k2), &obs);
        assert!(store.lookup(&k1, &obs).is_none(), "older key evicted");
        assert!(store.lookup(&k2, &obs).is_some());
        assert_eq!(
            *obs.metrics
                .snapshot()
                .counters
                .get("svc.cache.evict")
                .unwrap(),
            1
        );
    }

    #[test]
    fn byte_budget_evicts_before_the_entry_cap() {
        // Entry cap is generous; the byte budget is what binds. Entries
        // with many class fingerprints are charged more.
        let big = |fp: u64, package: &str| {
            let mut e = entry(fp, package);
            e.class_fps = vec![0; 1000]; // ~384 KB of charged bytes
            e
        };
        let budget = big(0, "probe").approx_bytes() * SHARDS * 2;
        let store = AnalysisStore::with_budgets(1_000_000, budget, None);
        let obs = Obs::enabled();
        // Find three keys in one shard: per-shard byte cap fits ~2 big
        // entries, so the third insert evicts the least recently used.
        let mut keys = Vec::new();
        for i in 0..400 {
            let cand = format!("app.b{i}");
            if (key_hash(&cand) as usize).is_multiple_of(SHARDS) {
                keys.push(cand);
                if keys.len() == 3 {
                    break;
                }
            }
        }
        assert_eq!(keys.len(), 3, "three same-shard keys exist");
        for (i, k) in keys.iter().enumerate() {
            store.insert(k, big(i as u64, k), &obs);
        }
        assert!(
            store.lookup(&keys[0], &obs).is_none(),
            "oldest evicted by byte pressure"
        );
        assert!(store.lookup(&keys[2], &obs).is_some());
        assert!(
            obs.metrics.snapshot().counters["svc.cache.evict"] >= 1,
            "byte eviction counted"
        );
        // Accounting matches what is resident.
        assert!(store.mem_bytes() <= budget.div_ceil(SHARDS) * SHARDS);
    }

    #[test]
    fn reinserting_a_key_replaces_its_byte_charge() {
        let store = AnalysisStore::new();
        let obs = Obs::disabled();
        let mut fat = entry(1, "app.r");
        fat.class_fps = vec![0; 1000];
        let fat_bytes = fat.approx_bytes();
        store.insert("app.r", fat, &obs);
        assert_eq!(store.mem_bytes(), fat_bytes);
        let lean = entry(2, "app.r");
        let lean_bytes = lean.approx_bytes();
        store.insert("app.r", lean, &obs);
        assert_eq!(store.mem_bytes(), lean_bytes, "old charge released");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn an_oversized_entry_still_caches() {
        // One entry bigger than the whole budget: everything else
        // evicts, the newcomer stays.
        let store = AnalysisStore::with_budgets(16, 1, None);
        let obs = Obs::enabled();
        store.insert("app.huge", entry(1, "app.huge"), &obs);
        assert!(store.lookup("app.huge", &obs).is_some());
        assert_eq!(store.len(), 1);
    }

    /// The strict disk hit: an entry recorded for exactly `bundle_fp`.
    fn disk_hit(store: &AnalysisStore, key: &str, bundle_fp: u64, config_fp: u64) -> bool {
        store
            .lookup_disk_entry(key, config_fp, &Obs::disabled())
            .is_some_and(|e| e.bundle_fp == bundle_fp)
    }

    #[test]
    fn disk_tier_roundtrips_and_rejects_stale_fingerprints() {
        let dir = tmpdir("roundtrip");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        let stored = entry(7, "app.d");
        let want = render_json(&stored.report);
        store.insert("app.d", stored, &obs);
        let hit = store.lookup_disk_entry("app.d", 42, &obs).unwrap();
        assert_eq!(hit.bundle_fp, 7);
        assert_eq!(*hit.json, want, "the JSON section is the rendered report");
        assert_eq!(hit.defects, 0);
        assert!(
            !store
                .metrics()
                .snapshot()
                .counters
                .contains_key("svc.cache.disk_decode"),
            "a lookup decodes nothing"
        );
        assert_eq!(hit.decode().stats.package, "app.d");
        assert_eq!(
            store.metrics().snapshot().counters["svc.cache.disk_decode"],
            1
        );
        assert!(!disk_hit(&store, "app.d", 8, 42), "bundle moved");
        assert!(!disk_hit(&store, "app.d", 7, 43), "config moved");
        // Corrupt file: miss, not error.
        std::fs::write(disk_path(&dir, "app.d", 42), "{not json").unwrap();
        assert!(!disk_hit(&store, "app.d", 7, 42));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_byte_anywhere_in_an_entry_fails_the_checksum() {
        let dir = tmpdir("flip");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        store.insert("app.f", entry(3, "app.f"), &Obs::disabled());
        let path = disk_path(&dir, "app.f", 42);
        let good = std::fs::read(&path).unwrap();
        let metrics = Metrics::enabled();
        assert!(matches!(parse_entry(&good, 42, &metrics), Parsed::Entry(_)));
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(
                !matches!(parse_entry(&bad, 42, &metrics), Parsed::Entry(_)),
                "flipping byte {at} still parsed as an entry"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_disk_any_recovers_the_stale_entry_for_deltas() {
        let dir = tmpdir("staleany");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        store.insert("app.v", entry(7, "app.v"), &obs);
        // The strict lookup under the *new* bundle misses...
        assert!(!disk_hit(&store, "app.v", 8, 42));
        // ...but the any-lookup recovers the previous version's report
        // and says which bundle it belonged to.
        let (stored_fp, report) = store.lookup_disk_any("app.v", 42, &obs).unwrap();
        assert_eq!(stored_fp, 7);
        assert_eq!(report.stats.package, "app.v");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_quarantined_and_not_reread() {
        let dir = tmpdir("corrupt");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        store.insert("app.q", entry(9, "app.q"), &obs);
        let path = disk_path(&dir, "app.q", 42);
        std::fs::write(&path, "{definitely not json").unwrap();

        // First lookup: miss, file moved out of the cache namespace,
        // counter bumped on both the per-app obs and the store registry.
        assert!(store.lookup_disk_entry("app.q", 42, &obs).is_none());
        assert!(!path.exists(), "corrupt file left in the cache namespace");
        assert!(
            path.with_extension("quarantine").exists(),
            "corrupt file quarantined, not silently lost"
        );
        assert_eq!(
            obs.metrics.snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        assert_eq!(
            store.metrics().snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        assert_eq!(
            store.disk_stats().entries,
            0,
            "occupancy no longer counts the corrupt entry"
        );

        // Second lookup: plain miss — the bad file is gone, so it is
        // neither re-read nor re-quarantined.
        assert!(store.lookup_disk_entry("app.q", 42, &obs).is_none());
        assert_eq!(
            obs.metrics.snapshot().counters["svc.cache.corrupt_evict"],
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_are_corrupt_but_stale_and_outdated_ones_are_not() {
        let dir = tmpdir("staleschema");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        store.insert("app.s", entry(5, "app.s"), &obs);
        let path = disk_path(&dir, "app.s", 42);
        let current = std::fs::read(&path).unwrap();
        let corrupt_evicts = || {
            obs.metrics
                .snapshot()
                .counters
                .get("svc.cache.corrupt_evict")
                .copied()
        };

        // Stale: well-formed entry for a different bundle — left on
        // disk (the next insert overwrites it), no quarantine.
        assert!(!disk_hit(&store, "app.s", 6, 42));
        assert!(path.exists(), "stale entries stay for overwrite");

        // Outdated layouts — the schema-1 JSON object, an older entry
        // schema, another wire schema — miss and stay for overwrite.
        let text = String::from_utf8(current.clone()).unwrap();
        let outdated = [
            format!(
                "{{\"bundle_fp\":\"5\",\"config_fp\":\"42\",\"report\":{},\"schema\":1}}",
                serde_json::to_string(&crate::wire::report_to_wire(&entry(5, "app.s").report))
                    .unwrap()
            ),
            text.replacen("nck-entry 2 ", "nck-entry 1 ", 1),
            text.replacen("nck-entry 2 1 ", "nck-entry 2 999 ", 1),
        ];
        for old in outdated {
            std::fs::write(&path, &old).unwrap();
            assert!(store.lookup_disk_entry("app.s", 42, &obs).is_none());
            assert!(path.exists(), "outdated entries stay for overwrite");
        }
        assert_eq!(corrupt_evicts(), None, "nothing quarantined so far");
        store.insert("app.s", entry(5, "app.s"), &obs);
        assert_eq!(std::fs::read(&path).unwrap(), current, "rewritten in place");

        // Damaged: one flipped body byte fails the checksum → quarantine.
        let mut damaged = current;
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        std::fs::write(&path, damaged).unwrap();
        assert!(store.lookup_disk_entry("app.s", 42, &obs).is_none());
        assert!(!path.exists(), "damaged entry quarantined");
        assert_eq!(corrupt_evicts(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_down_to_budget() {
        let dir = tmpdir("gc");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        for (i, key) in ["app.old", "app.mid", "app.new"].iter().enumerate() {
            store.insert(key, entry(i as u64, key), &obs);
        }
        // Deterministic recency: give old/mid/new strictly increasing
        // atime stamps via explicit sidecar mtimes (filesystem clocks
        // are too coarse to rely on insert order).
        for (age, key) in ["app.old", "app.mid", "app.new"].iter().enumerate() {
            let sidecar = disk_path(&dir, key, 42).with_extension("atime");
            std::fs::write(&sidecar, b"").unwrap();
            let stamp = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + age as u64 * 100);
            let f = std::fs::File::options().write(true).open(&sidecar).unwrap();
            f.set_modified(stamp).unwrap();
        }
        let one_entry = std::fs::metadata(disk_path(&dir, "app.old", 42))
            .unwrap()
            .len();
        // Budget for roughly two entries: the oldest goes.
        let stats = store.gc_disk(one_entry * 2 + one_entry / 2, &obs);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evicted, 1);
        assert!(stats.freed_bytes > 0);
        assert!(!disk_path(&dir, "app.old", 42).exists(), "LRU evicted");
        assert!(disk_path(&dir, "app.new", 42).exists());
        assert!(
            !disk_path(&dir, "app.old", 42)
                .with_extension("atime")
                .exists(),
            "sidecar evicted with its entry"
        );
        let snap = store.metrics().snapshot();
        assert_eq!(snap.counters["svc.cache.gc_runs"], 1);
        assert_eq!(snap.counters["svc.cache.gc_evicted"], 1);
        assert!(snap.counters["svc.cache.gc_freed_bytes"] > 0);
        // Under budget: a run is counted, nothing is evicted.
        let stats = store.gc_disk(u64::MAX, &obs);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.entries, 2);
        assert_eq!(store.metrics().snapshot().counters["svc.cache.gc_runs"], 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_reads_journal_the_atime_and_flush_writes_the_sidecar() {
        let dir = tmpdir("atime");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        store.insert("app.t", entry(3, "app.t"), &obs);
        let sidecar = disk_path(&dir, "app.t", 42).with_extension("atime");
        assert!(disk_hit(&store, "app.t", 3, 42));
        assert!(
            !sidecar.exists(),
            "the hit path must not do sidecar I/O — the read is journaled"
        );
        assert_eq!(store.journaled_atimes(), 1);
        store.flush_atimes();
        assert!(sidecar.exists(), "flush materialized the sidecar");
        assert_eq!(store.journaled_atimes(), 0, "flush drained the journal");
        assert_eq!(
            store.disk_stats().entries,
            1,
            "sidecars are not cache entries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_preserves_read_order_and_skips_vanished_entries() {
        let dir = tmpdir("flushorder");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        for key in ["app.first", "app.second", "app.gone"] {
            store.insert(key, entry(1, key), &obs);
        }
        // Journal reads with explicit, strictly increasing stamps.
        for (age, key) in ["app.first", "app.second"].iter().enumerate() {
            let path = disk_path(&dir, key, 42);
            let stamp = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(2_000_000 + age as u64 * 100);
            lock_plain(&store.atime_journal).insert(path, stamp);
        }
        // A journaled entry that was evicted before the flush must not
        // come back as an orphan sidecar.
        let gone = disk_path(&dir, "app.gone", 42);
        lock_plain(&store.atime_journal).insert(gone.clone(), SystemTime::now());
        std::fs::remove_file(&gone).unwrap();
        store.flush_atimes();
        assert!(!gone.with_extension("atime").exists(), "no orphan sidecar");
        let mtime = |key: &str| {
            std::fs::metadata(disk_path(&dir, key, 42).with_extension("atime"))
                .unwrap()
                .modified()
                .unwrap()
        };
        assert!(
            mtime("app.first") < mtime("app.second"),
            "flush reproduced the journaled stamps exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn occupancy_estimate_tracks_inserts_without_rescans() {
        let dir = tmpdir("occupancy");
        // Pre-existing tier from a previous process: the seed scan must
        // count it.
        {
            let store = AnalysisStore::with_options(8, Some(dir.clone()));
            store.insert("app.pre", entry(1, "app.pre"), &Obs::disabled());
        }
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        let seeded = store.disk_occupancy();
        assert_eq!(seeded, store.disk_stats().bytes, "seed scan is exact");
        store.insert("app.a", entry(2, "app.a"), &obs);
        assert_eq!(store.disk_occupancy(), store.disk_stats().bytes);
        // Overwriting a key replaces its charge instead of adding.
        store.insert("app.a", entry(3, "app.a"), &obs);
        assert_eq!(store.disk_occupancy(), store.disk_stats().bytes);
        // Quarantine releases the corrupt entry's charge.
        let path = disk_path(&dir, "app.a", 42);
        let corrupt_len = 7u64;
        std::fs::write(&path, "corrupt").unwrap();
        let before = store.disk_occupancy();
        assert!(store.lookup_disk_entry("app.a", 42, &obs).is_none());
        assert_eq!(store.disk_occupancy(), before - corrupt_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maybe_gc_skips_under_watermark_and_collects_to_the_low_one() {
        let dir = tmpdir("watermark");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::enabled();
        for i in 0..4 {
            let key = format!("app.w{i}");
            store.insert(&key, entry(i, &key), &obs);
        }
        let occupied = store.disk_occupancy();
        // Under the high watermark: skipped, counted, no run.
        assert!(store.maybe_gc_disk(occupied + 1, &obs).is_none());
        let snap = store.metrics().snapshot();
        assert_eq!(snap.counters["svc.cache.gc_skipped"], 1);
        assert!(!snap.counters.contains_key("svc.cache.gc_runs"));
        // Over it: runs, and collects below the *low* watermark
        // (budget - budget/8), not merely below the budget.
        let budget = occupied - 1;
        let stats = store.maybe_gc_disk(budget, &obs).expect("over watermark");
        assert!(stats.evicted > 0);
        assert!(store.disk_occupancy() <= budget - budget / 8);
        assert_eq!(
            store.disk_occupancy(),
            store.disk_stats().bytes,
            "GC resynced the estimate to the exact scan"
        );
        assert_eq!(store.metrics().snapshot().counters["svc.cache.gc_runs"], 1);
        // No disk tier: no skip counting, no run.
        let memonly = AnalysisStore::new();
        assert!(memonly.maybe_gc_disk(0, &obs).is_none());
        assert!(!memonly
            .metrics()
            .snapshot()
            .counters
            .contains_key("svc.cache.gc_skipped"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_is_memory_only_and_serves_the_next_lookup() {
        let dir = tmpdir("promote");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        assert!(store.lookup("app.p", &obs).is_none());
        store.promote("app.p", entry(11, "app.p"), &obs);
        assert_eq!(store.lookup("app.p", &obs).unwrap().bundle_fp, 11);
        assert_eq!(store.disk_stats().entries, 0, "promotion writes no disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_cell_memoizes_and_is_reset_on_replacement() {
        let store = AnalysisStore::new();
        let obs = Obs::disabled();
        store.insert("app.c", entry(5, "app.c"), &obs);
        assert!(
            store.render_cell("app.c", 6).is_none(),
            "bundle fingerprint gates the cell"
        );
        let cell = store.render_cell("app.c", 5).unwrap();
        assert!(cell.get().is_none());
        let first = cell.get_or_render(|| "rendered".to_owned());
        let second = cell.get_or_render(|| "never recomputed".to_owned());
        assert_eq!(*first, "rendered");
        assert!(Arc::ptr_eq(&first, &second), "one render, shared out");
        // Replacing the entry resets the memoization.
        store.insert("app.c", entry(6, "app.c"), &obs);
        let fresh = store.render_cell("app.c", 6).unwrap();
        assert!(fresh.get().is_none(), "new entry, empty cell");
        assert!(store.render_cell("app.c", 5).is_none());
    }

    #[test]
    fn replay_counters_land_on_both_registries() {
        let store = AnalysisStore::new();
        let obs = Obs::enabled();
        store.count_replay(12, &obs);
        for snap in [obs.metrics.snapshot(), store.metrics().snapshot()] {
            assert_eq!(snap.counters["svc.cache.replay_apps"], 1);
            assert_eq!(snap.counters["svc.cache.replay_classes"], 12);
        }
    }

    #[test]
    fn disk_stats_count_entries_bytes_and_shards() {
        let dir = tmpdir("diskstats");
        let store = AnalysisStore::with_options(8, Some(dir.clone()));
        let obs = Obs::disabled();
        assert_eq!(store.disk_stats(), DiskStats::new(), "missing dir is empty");
        store.insert("app.a", entry(1, "app.a"), &obs);
        store.insert("app.b", entry(2, "app.b"), &obs);
        // Alien files and tmp leftovers are not entries.
        std::fs::write(dir.join("README"), "not a cache file").unwrap();
        std::fs::write(dir.join("0123456789abcdef-0123456789abcdef.tmp"), "x").unwrap();
        let stats = store.disk_stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0);
        assert_eq!(stats.shards.len(), SHARDS);
        assert_eq!(stats.shards.iter().sum::<u64>(), 2);
        let mut expected = vec![0u64; SHARDS];
        expected[(key_hash("app.a") as usize) % SHARDS] += 1;
        expected[(key_hash("app.b") as usize) % SHARDS] += 1;
        assert_eq!(stats.shards, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_gauges_reports_mem_occupancy() {
        let store = AnalysisStore::new();
        let obs = Obs::enabled();
        store.insert("app.a", entry(1, "app.a"), &obs);
        store.insert("app.b", entry(2, "app.b"), &obs);
        store.record_gauges(&obs.metrics);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.gauges["svc.cache.mem_entries"].value, 2);
        assert!(snap.gauges["svc.cache.mem_largest_shard"].value >= 1);
        assert_eq!(
            snap.gauges["svc.cache.mem_bytes"].value,
            store.mem_bytes() as i64
        );
        assert!(snap.gauges["svc.cache.mem_bytes"].value > 0);
    }

    #[test]
    fn outcome_counters_land_on_the_obs_handle() {
        let store = AnalysisStore::new();
        let obs = Obs::enabled();
        store.count_outcome(true, &obs);
        store.count_outcome(false, &obs);
        store.count_outcome(false, &obs);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counters["svc.cache.hit"], 1);
        assert_eq!(snap.counters["svc.cache.miss"], 2);
    }
}
