//! The content-addressed analysis store.
//!
//! Two tiers:
//!
//! - **Memory** — report-only [`AppCacheEntry`]s (fingerprints and the
//!   report) keyed by app, in one LRU behind one lock, evicted
//!   least-recently-used first to keep an approximate byte budget (one
//!   batch of huge apps must not blow past a memory target that a
//!   thousand small apps respect). A lookup re-ranks its key and an
//!   eviction drops the oldest, each in O(log n) on a recency index.
//!   One entry larger than the whole budget still caches, alone. A zero
//!   byte budget keeps no memory tier at all, which is
//!   how the one-batch front ends (one-shot `nchecker` and `vet`) run:
//!   their process ends with the batch, so no later lookup could read
//!   an entry. There an insert only appends the disk record, and it
//!   hands back the rendered bytes for the reply. `serve` keeps the
//!   tier.
//! - **Disk** (optional, under `--cache-dir`) — the durable subset: the
//!   bundle and config fingerprints plus the report. A disk hit serves
//!   an *identical* bundle across process restarts; a changed bundle
//!   misses and re-records — but the stale record is still *readable*
//!   ([`AnalysisStore::lookup_disk_any`]), which is what lets a
//!   resubmitted app version produce a defect delta across processes.
//!
//! The disk tier is log-structured. Each store that writes appends to a
//! segment of its own, `{stamp:016x}-{pid}.seg`, created `O_APPEND` by
//! its first insert. A record is self-delimiting and checksummed:
//!
//! ```text
//! nck-entry 3 <wire schema> <key hash> <stamp> <bundle_fp> <config_fp> <defects> <json len> <wire len> <checksum>\n
//! <json section: the canonical one-shot --json bytes><wire section: crate::wire JSON>
//! ```
//!
//! Hashes, fingerprints, the stamp (epoch nanoseconds, strictly rising
//! within a process) and the checksum are 16 hex digits, the rest
//! decimal. The checksum (a word-wise multiply-xor) covers the header up
//! to the checksum field plus both sections.
//!
//! The first disk operation indexes (key hash, config) → (segment,
//! offset) by walking the record headers; the largest stamp per key is
//! live, the rest are dead bytes. A lookup the index misses re-lists the
//! directory and walks only new tails, so other processes' appends stay
//! visible. A hit is one `pread` on a held descriptor plus the checksum:
//! the JSON section is the reply ([`StoredEntry::json`]), and the wire
//! section is decoded only on demand ([`StoredEntry::decode`], counted
//! as `svc.cache.disk_decode`). Disk hits are not promoted into memory,
//! which would force that decode.
//!
//! A walk stops at the first header that does not parse or record that
//! runs past the end of its segment — a killed writer's torn tail, or an
//! append in flight — and resumes there once the segment grows. A record
//! that fails its checksum is never served: the lookup misses, counts
//! `svc.cache.corrupt_evict`, and drops it from the index, and the
//! recomputed record supersedes it. (The checksum guards against
//! accidents, not forgery: the cache directory is trusted.)
//!
//! Hits are journaled in memory and flushed — before a GC, on
//! [`AnalysisStore::sync_disk`], and on drop — as one append of 80-byte
//! checksummed touch records to the shared `touch.log`; a crash loses
//! only recency. [`AnalysisStore::gc_disk`] compacts the most recently
//! written or touched live records that fit the budget into one new
//! segment and unlinks the rest, and sweeps the files of the older
//! one-file-per-entry layout, which only ever read as misses.
//!
//! Every call bumps `svc.cache.*` counters on the obs handle it is given
//! and on a store-lifetime [`Metrics`] registry
//! ([`AnalysisStore::metrics`]), which `--doctor` and the daemon read
//! while per-app handles stay disabled. The disk tier's work counters,
//! `disk_files_created` and `disk_records_appended`, go to the registry
//! only.

use crate::record::{self, hex, parse_header, verify, MAX_HEADER};
use nchecker::cache::AppCacheEntry;
use nck_obs::{Metrics, Obs};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

/// Default memory-tier byte budget (approximate,
/// [`AppCacheEntry::approx_bytes`]): room for several thousand typical
/// report-only entries.
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

/// The memory tier: the entries, and their keys in order of last use.
#[derive(Default)]
struct Lru {
    entries: HashMap<String, MemEntry>,
    /// Last-used tick → key, oldest first.
    recency: BTreeMap<u64, String>,
    /// Sum of the approx-bytes column.
    bytes: usize,
    /// The last tick handed out.
    clock: u64,
}

impl Lru {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A two-tier analysis cache, safe to share across the pool.
pub struct AnalysisStore {
    mem: Mutex<Lru>,
    mem_budget: usize,
    /// The disk tier's directory and record index.
    disk: Option<(PathBuf, Mutex<Index>)>,
    metrics: Metrics,
}

impl AnalysisStore {
    /// An in-memory store with the default byte budget and no disk tier.
    pub fn new() -> AnalysisStore {
        AnalysisStore::with_options(None)
    }

    /// A store with the default byte budget and an optional disk
    /// directory (created on first write).
    pub fn with_options(disk: Option<PathBuf>) -> AnalysisStore {
        AnalysisStore::with_budgets(0, DEFAULT_MEM_BYTES, disk)
    }

    /// A store with an explicit memory-tier byte budget. Eviction drops
    /// least-recently-used entries until the tier fits the budget, but
    /// never the newest entry, so one entry larger than the whole budget
    /// still caches (and evicts everything else). A `mem_budget` of 0
    /// means no memory tier at all: inserts go to the disk tier alone
    /// and memory lookups always miss. `_capacity` is unused; the
    /// parameter stays only for the benchmark's traced twin, which
    /// calls this signature.
    pub fn with_budgets(
        _capacity: usize,
        mem_budget: usize,
        disk: Option<PathBuf>,
    ) -> AnalysisStore {
        AnalysisStore {
            mem: Mutex::new(Lru::default()),
            mem_budget,
            disk: disk.map(|dir| (dir, Mutex::new(Index::default()))),
            metrics: Metrics::enabled(),
        }
    }

    /// Whether a disk tier is configured.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// Whether the store keeps a memory tier (a non-zero byte budget).
    pub fn has_memory(&self) -> bool {
        self.mem_budget > 0
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

    /// Memory-tier lookup. Counts neither hit nor miss — the *outcome*
    /// of the analysis (whole-report reuse vs. recompute) decides that;
    /// see [`AnalysisStore::count_outcome`].
    pub fn lookup(&self, key: &str, obs: &Obs) -> Option<Arc<AppCacheEntry>> {
        let _s = obs.tracer.span("cache_lookup");
        let mut mem = lock(&self.mem);
        let tick = mem.tick();
        let Lru {
            entries, recency, ..
        } = &mut *mem;
        let slot = entries.get_mut(key)?;
        let key = recency
            .remove(&slot.tick)
            .expect("a resident key is ranked");
        recency.insert(tick, key);
        slot.tick = tick;
        Some(Arc::clone(&slot.entry))
    }

    /// The render-memoization cell of the resident memory entry for
    /// `key`, provided that entry was recorded for `bundle_fp` (a cell
    /// must never serve bytes rendered from a different bundle's
    /// report). `None` when the key is absent or the entry moved on.
    pub fn render_cell(&self, key: &str, bundle_fp: u64) -> Option<Arc<RenderCell>> {
        lock(&self.mem)
            .entries
            .get(key)
            .filter(|m| m.entry.bundle_fp == bundle_fp)
            .map(|m| Arc::clone(&m.rendered))
    }

    /// Disk-tier read: the live, checksum-valid record for
    /// `(key, config_fp)`, undecoded. The caller decides hit (the
    /// record's `bundle_fp` matches) vs. *delta base* (it differs — the
    /// record describes the previous version of this app).
    ///
    /// A record that fails its checksum is dropped from the index (so it
    /// is not re-read) and counted as `svc.cache.corrupt_evict`. Reads
    /// are journaled for the touch log, with no recency I/O here, which
    /// is what makes [`AnalysisStore::gc_disk`]'s order an LRU.
    pub fn lookup_disk_entry(&self, key: &str, config_fp: u64, obs: &Obs) -> Option<StoredEntry> {
        let (dir, index) = self.disk.as_ref()?;
        let _s = obs.tracer.span("cache_lookup_disk");
        let id = (key_hash(key), config_fp);
        let (file, loc) = lock(index).locate(dir, id)?;
        let mut bytes = vec![0; loc.len as usize];
        let read = file.read_exact_at(&mut bytes, loc.offset);
        if let Some((h, json, wire)) = read.ok().and_then(|()| verify(&bytes, id)) {
            return Some(StoredEntry {
                bundle_fp: h.bundle_fp,
                defects: h.defects,
                json: Arc::new(json.to_owned()),
                wire: wire.to_owned(),
                metrics: self.metrics.clone(),
            });
        }
        let mut index = lock(index);
        if index.live.get(&id) == Some(&loc) {
            index.live.remove(&id);
        }
        self.count("svc.cache.corrupt_evict", 1, obs);
        obs.events.warn(&format!(
            "cache: dropped a corrupt record for {:016x}-{config_fp:016x}",
            id.0
        ));
        None
    }

    /// [`AnalysisStore::lookup_disk_entry`] with the report decoded:
    /// the bundle fingerprint the record was written for, and its
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

    /// Flushes the read journal as one append to the touch log: a touch
    /// record per read key, stamped with its latest read. Called before
    /// every GC, by [`AnalysisStore::sync_disk`], and on drop.
    pub fn flush_touches(&self) {
        let Some((dir, index)) = &self.disk else {
            return;
        };
        let mut index = lock(index);
        let mut drained: Vec<((u64, u64), u64)> = index.touches.drain().collect();
        if drained.is_empty() {
            return;
        }
        drained.sort_by_key(|&(id, stamp)| (stamp, id));
        let batch: String = drained.into_iter().map(record::touch).collect();
        let path = dir.join(TOUCH_LOG);
        let created = !path.exists();
        let log = File::options().append(true).create(true).open(&path);
        if log.and_then(|mut f| f.write_all(batch.as_bytes())).is_ok() {
            index.touch_bytes += batch.len() as u64;
            if created {
                self.metrics.inc("svc.cache.disk_files_created", 1);
            }
        }
    }

    /// Reads pending in the journal (tests and introspection).
    pub fn journaled_touches(&self) -> usize {
        self.disk
            .as_ref()
            .map_or(0, |(_, index)| lock(index).touches.len())
    }

    /// Records a finished clean analysis in every tier the store keeps.
    /// Degraded apps must never reach this (the service enforces it; the
    /// checker already returns no entry for them). With a disk tier, the
    /// report is rendered here — the record stores those bytes, the
    /// memory entry's render cell starts out holding them, and they are
    /// returned for a caller with no memory tier to reply with. Disk
    /// writes are best-effort: a failure warns and leaves the memory
    /// tier. With neither tier, nothing is stored.
    pub fn insert(&self, key: &str, entry: AppCacheEntry, obs: &Obs) -> Option<Arc<String>> {
        let mut rendered = None;
        if let Some((dir, index)) = &self.disk {
            let json = render_json(&entry.report);
            let wire = crate::wire::encode(&entry.report);
            let (id, stamp) = ((key_hash(key), entry.config_fp), next_stamp());
            let defects = entry.report.defects.len();
            let record = record::entry(id, stamp, entry.bundle_fp, defects, &json, &wire);
            match lock(index).append(dir, id, stamp, &record) {
                Ok(created) => {
                    if created {
                        self.metrics.inc("svc.cache.disk_files_created", 1);
                    }
                    self.metrics.inc("svc.cache.disk_records_appended", 1);
                }
                Err(e) => obs.events.warn(&format!("cache segment write failed: {e}")),
            }
            rendered = Some(Arc::new(json));
        }
        self.insert_memory(key, entry, rendered.clone(), obs);
        rendered
    }

    /// Records an entry in the memory tier *only*, leaving the disk
    /// tier alone. The service does not promote disk hits (see the
    /// module docs); this is for callers that hold a decoded entry and
    /// want later lookups served from memory. A no-op without a memory
    /// tier.
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
        if !self.has_memory() {
            return;
        }
        let approx = entry.approx_bytes();
        let mut mem = lock(&self.mem);
        let tick = mem.tick();
        let slot = MemEntry {
            tick,
            approx,
            entry: Arc::new(entry),
            rendered: Arc::new(rendered.map_or_else(RenderCell::default, RenderCell::filled)),
        };
        if let Some(old) = mem.entries.insert(key.to_owned(), slot) {
            mem.bytes -= old.approx;
            mem.recency.remove(&old.tick);
        }
        mem.recency.insert(tick, key.to_owned());
        mem.bytes += approx;
        // Evicting down to (but never past) the newest entry means an
        // over-budget giant still caches.
        let mut evicted = 0;
        while mem.bytes > self.mem_budget && mem.entries.len() > 1 {
            let (_, oldest) = mem.recency.pop_first().expect("a resident key is ranked");
            let old = mem
                .entries
                .remove(&oldest)
                .expect("a ranked key is resident");
            mem.bytes -= old.approx;
            evicted += 1;
        }
        drop(mem);
        if evicted > 0 {
            self.count("svc.cache.evict", evicted, obs);
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

    /// Number of memory-tier entries.
    pub fn len(&self) -> usize {
        lock(&self.mem).entries.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory-tier bytes (the
    /// [`AppCacheEntry::approx_bytes`] accounting the byte budget evicts
    /// on).
    pub fn mem_bytes(&self) -> usize {
        lock(&self.mem).bytes
    }

    /// Records the memory tier's occupancy as point-in-time gauges:
    /// `svc.cache.mem_entries` and `svc.cache.mem_bytes` (approximate
    /// resident size).
    pub fn record_gauges(&self, metrics: &nck_obs::Metrics) {
        let mem = lock(&self.mem);
        metrics.gauge("svc.cache.mem_entries", mem.entries.len() as i64);
        metrics.gauge("svc.cache.mem_bytes", mem.bytes as i64);
    }

    /// The disk tier as the index sees it after catching up with the
    /// directory. Zeroed stats when no disk tier is configured or the
    /// directory does not exist yet.
    pub fn disk_stats(&self) -> DiskStats {
        let mut stats = DiskStats::default();
        let Some((dir, index)) = &self.disk else {
            return stats;
        };
        let mut index = lock(index);
        index.refresh(dir);
        let live_bytes: u64 = index.live.values().map(|loc| loc.len).sum();
        stats.entries = index.live.len() as u64;
        stats.bytes = index.seg_bytes;
        stats.dead_bytes = stats.bytes - live_bytes;
        stats.segments = index.segments.len() as u64;
        stats
    }

    /// The disk tier's occupancy in bytes (segments and the touch log),
    /// after catching up with the directory.
    pub fn disk_occupancy(&self) -> u64 {
        self.disk.as_ref().map_or(0, |(dir, index)| {
            let mut index = lock(index);
            index.refresh(dir);
            index.occupancy()
        })
    }

    /// Watermark-gated GC: a no-op (an index refresh plus a
    /// `svc.cache.gc_skipped` bump) while the occupancy is at or under
    /// `budget` (the high watermark). When occupancy crosses it,
    /// compacts down to the *low* watermark — `budget` minus one eighth
    /// — so the next run is not re-triggered by the very next insert
    /// (hysteresis). Returns `None` when the run was skipped.
    pub fn maybe_gc_disk(&self, budget: u64, obs: &Obs) -> Option<GcStats> {
        self.disk.as_ref()?;
        if self.disk_occupancy() <= budget {
            self.count("svc.cache.gc_skipped", 1, obs);
            return None;
        }
        let low = budget - budget / 8;
        Some(self.gc_disk(low, obs))
    }

    /// Garbage-collects the disk tier down to `budget` bytes, after
    /// sweeping the files of the one-file-per-entry layout
    /// (`{key_hash:016x}-{config_fp:016x}.json` and the `.tmp` and
    /// `.atime` files beside them, never `.quarantine` ones) and the
    /// `*.seg.tmp` output of a dead process's interrupted compaction. Over
    /// budget, it compacts: live records in order of recency (the later
    /// of their stamp and their last flushed touch; ties break on the
    /// key) are kept while they fit, checksum-verified and restamped with
    /// that recency, in one new segment written tmp+rename; then the old
    /// segments and the touch log are unlinked. Readers hold their
    /// segment descriptors, so a lookup racing GC reads a whole record
    /// or misses; a record another process appends meanwhile may be lost
    /// with its segment (a later miss, never wrong bytes).
    ///
    /// Counts `svc.cache.gc_runs`, `svc.cache.gc_evicted` (live records
    /// dropped), and `svc.cache.gc_freed_bytes`. A no-op (no disk tier,
    /// or already under budget) still counts the run.
    pub fn gc_disk(&self, budget: u64, obs: &Obs) -> GcStats {
        self.count("svc.cache.gc_runs", 1, obs);
        let mut stats = GcStats::default();
        let Some((dir, index)) = &self.disk else {
            return stats;
        };
        let _s = obs.tracer.span("cache_gc");
        self.flush_touches();
        let swept = sweep_leftovers(dir);
        let mut index = lock(index);
        index.refresh(dir);
        let before = index.occupancy();
        stats.entries = index.live.len() as u64;
        (stats.bytes, stats.freed_bytes) = (before + swept, swept);
        if before > budget {
            match index.compact(dir, budget) {
                Ok((kept, corrupt)) => {
                    if kept > 0 {
                        self.metrics.inc("svc.cache.disk_files_created", 1);
                    }
                    self.count("svc.cache.corrupt_evict", corrupt, obs);
                    stats.evicted = stats.entries - kept;
                    for seg in &index.segments {
                        let _ = std::fs::remove_file(dir.join(&seg.name));
                    }
                    let _ = std::fs::remove_file(dir.join(TOUCH_LOG));
                    *index = Index::default();
                    index.refresh(dir);
                    stats.freed_bytes += before.saturating_sub(index.occupancy());
                }
                Err(e) => obs
                    .events
                    .warn(&format!("cache-gc: compaction failed: {e}")),
            }
        }
        drop(index);
        self.count("svc.cache.gc_evicted", stats.evicted, obs);
        self.count("svc.cache.gc_freed_bytes", stats.freed_bytes, obs);
        if stats.freed_bytes > 0 {
            obs.events.info(&format!(
                "cache-gc: kept {} of {} records ({} bytes freed)",
                stats.kept(),
                stats.entries,
                stats.freed_bytes
            ));
        }
        stats
    }

    /// Best-effort flush of the disk tier: appends the read journal to
    /// the touch log, then fsyncs this store's segment and the cache
    /// directory (which makes the segment's creation durable). A daemon
    /// calls this once at shutdown rather than per write.
    pub fn sync_disk(&self) {
        self.flush_touches();
        let Some((dir, index)) = &self.disk else {
            return;
        };
        let index = lock(index);
        if let Some(seg) = index.writer {
            let _ = index.segments[seg].file.sync_data();
        }
        drop(index);
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl Drop for AnalysisStore {
    fn drop(&mut self) {
        // A clean shutdown persists every journaled read; a crash
        // skips this and those records rank by their write stamps.
        self.flush_touches();
    }
}

/// One [`AnalysisStore::gc_disk`] run's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Live records found (before compaction).
    pub entries: u64,
    /// The tier's bytes before the run: segments, the touch log, and
    /// the leftovers the run swept.
    pub bytes: u64,
    /// Live records dropped.
    pub evicted: u64,
    /// Bytes the run freed.
    pub freed_bytes: u64,
}

impl GcStats {
    /// Live records kept.
    pub fn kept(&self) -> u64 {
        self.entries - self.evicted
    }

    /// Bytes the tier still holds after the run.
    pub fn live_bytes(&self) -> u64 {
        self.bytes - self.freed_bytes
    }
}

/// The exact byte surface the one-shot CLI prints under `--json`: pretty
/// JSON plus the trailing newline. Daemon `report` payloads, `vet`
/// stdout, and disk records' JSON sections all carry these bytes. The
/// report streams straight to text ([`nchecker::write_app_report`]); no
/// `Value` tree is built.
pub fn render_json(report: &nchecker::AppReport) -> String {
    let mut w = serde_json::Writer::pretty();
    nchecker::write_app_report(&mut w, report);
    let mut text = w.into_string();
    text.push('\n');
    text
}

const TOUCH_LOG: &str = "touch.log";
const SEGMENT_SUFFIX: &str = ".seg";
/// Bytes a header walk reads per `pread`: a few headers of small
/// records at once, and not much more than one header of a large one.
const WALK_CHUNK: usize = 4 << 10;

/// A checksum-verified disk record, not yet decoded.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// The bundle fingerprint the record was written for.
    pub bundle_fp: u64,
    /// Defects in the stored report.
    pub defects: usize,
    /// The stored report's one-shot `--json` bytes ([`render_json`]).
    /// Records are written from unsealed reports, so these bytes never
    /// carry a `"metrics"` key.
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
    /// writer and decoder disagree — a bug, not a damaged record.
    pub fn decode(&self) -> nchecker::AppReport {
        self.metrics.inc("svc.cache.disk_decode", 1);
        serde_json::from_str(&self.wire)
            .ok()
            .and_then(|v| crate::wire::report_from_wire(&v))
            .expect("a checksum-valid entry decodes")
    }
}

/// A fresh stamp: nanoseconds since the epoch, strictly increasing
/// within the process (so a process's own records for one key order by
/// write even under a coarse clock).
fn next_stamp() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let prev = LAST
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
            Some(now.max(last + 1))
        })
        .expect("the update always succeeds");
    now.max(prev + 1)
}

/// Disk-tier occupancy, as the record index sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Live records: the newest intact-looking record per key and config.
    pub entries: u64,
    /// Bytes across all segments.
    pub bytes: u64,
    /// Segment bytes not in a live record: superseded and dropped
    /// records, which the next compaction reclaims.
    pub dead_bytes: u64,
    /// Segment files.
    pub segments: u64,
}

/// Where a live record sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Loc {
    seg: usize,
    offset: u64,
    len: u64,
    stamp: u64,
}

/// One segment file known to the index.
struct Segment {
    name: String,
    file: Arc<File>,
    /// Every record before this offset is indexed.
    walked: u64,
    /// The file length at the last walk: a walk resumes only past it.
    seen: u64,
}

/// The disk tier's record index, and the journal of unflushed reads.
#[derive(Default)]
struct Index {
    segments: Vec<Segment>,
    by_name: HashMap<String, usize>,
    live: HashMap<(u64, u64), Loc>,
    /// This store's own segment, once its first insert opened one.
    writer: Option<usize>,
    /// Walked segment bytes.
    seg_bytes: u64,
    touch_bytes: u64,
    /// (key hash, config) → stamp of its latest unflushed read.
    touches: HashMap<(u64, u64), u64>,
}

impl Index {
    fn occupancy(&self) -> u64 {
        self.seg_bytes + self.touch_bytes
    }

    /// The live record for `id` and its segment's descriptor, catching
    /// up with the directory first when the index lacks the key.
    /// Journals the read.
    fn locate(&mut self, dir: &Path, id: (u64, u64)) -> Option<(Arc<File>, Loc)> {
        if !self.live.contains_key(&id) {
            self.refresh(dir);
        }
        let loc = *self.live.get(&id)?;
        self.touches.insert(id, next_stamp());
        Some((Arc::clone(&self.segments[loc.seg].file), loc))
    }

    /// Catches up with the directory: opens segments it has not seen
    /// and walks the new tails of the rest. A known segment that
    /// vanished means another store compacted the tier, so the index is
    /// rebuilt from scratch.
    fn refresh(&mut self, dir: &Path) {
        let Ok(listing) = std::fs::read_dir(dir) else {
            return;
        };
        let mut present = vec![false; self.segments.len()];
        let mut fresh = Vec::new();
        self.touch_bytes = 0;
        for dirent in listing.flatten() {
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == TOUCH_LOG {
                self.touch_bytes = dirent.metadata().map_or(0, |m| m.len());
            } else if name.ends_with(SEGMENT_SUFFIX) {
                match self.by_name.get(name) {
                    Some(&seg) => present[seg] = true,
                    None => fresh.push(name.to_owned()),
                }
            }
        }
        if present.contains(&false) {
            *self = Index {
                touches: std::mem::take(&mut self.touches),
                ..Index::default()
            };
            return self.refresh(dir);
        }
        for name in fresh {
            if let Ok(file) = File::open(dir.join(&name)) {
                self.add_segment(name, file);
            }
        }
        for seg in 0..self.segments.len() {
            if Some(seg) != self.writer {
                self.walk(seg);
            }
        }
    }

    fn add_segment(&mut self, name: String, file: File) -> usize {
        self.by_name.insert(name.clone(), self.segments.len());
        self.segments.push(Segment {
            name,
            file: Arc::new(file),
            walked: 0,
            seen: 0,
        });
        self.segments.len() - 1
    }

    /// Appends one record to this store's segment, creating the segment
    /// (and the directory) on first use; whether it created one. After a
    /// failed write the segment may end in a torn tail, so it is
    /// abandoned and the next append starts a new one.
    fn append(
        &mut self,
        dir: &Path,
        id: (u64, u64),
        stamp: u64,
        record: &[u8],
    ) -> std::io::Result<bool> {
        let created = self.writer.is_none();
        if created {
            let name = segment_name();
            let path = dir.join(&name);
            let create = || {
                File::options()
                    .read(true)
                    .append(true)
                    .create_new(true)
                    .open(&path)
            };
            let file = match create() {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    std::fs::create_dir_all(dir)?;
                    create()?
                }
                opened => opened?,
            };
            self.writer = Some(self.add_segment(name, file));
        }
        let seg = self.writer.expect("a writer segment is open");
        let segment = &mut self.segments[seg];
        if let Err(e) = (&*segment.file).write_all(record) {
            self.writer = None;
            return Err(e);
        }
        let (offset, len) = (segment.walked, record.len() as u64);
        (segment.walked, segment.seen) = (offset + len, offset + len);
        self.seg_bytes += len;
        self.live.insert(
            id,
            Loc {
                seg,
                offset,
                len,
                stamp,
            },
        );
        Ok(created)
    }

    /// Indexes the records appended to segment `seg` since its last
    /// walk. Stops at the first header that does not parse or record
    /// that runs past the end of the file, and resumes there once the
    /// file grows. Only headers are read, a chunk at a time.
    fn walk(&mut self, seg: usize) {
        let segment = &self.segments[seg];
        let file = Arc::clone(&segment.file);
        let len = file.metadata().map_or(0, |m| m.len());
        if len <= segment.seen {
            return;
        }
        let (start, mut at) = (segment.walked, segment.walked);
        let mut buf = vec![0; WALK_CHUNK];
        let (mut buf_at, mut filled) = (at, 0);
        while at < len {
            if at + MAX_HEADER.min((len - at) as usize) as u64 > buf_at + filled as u64 {
                buf_at = at;
                filled = file.read_at(&mut buf, at).unwrap_or(0);
            }
            let Some(h) = parse_header(&buf[(at - buf_at) as usize..filled]) else {
                break;
            };
            let rec_len = (h.line_len + h.json_len + h.wire_len) as u64;
            if at + rec_len > len {
                break;
            }
            let loc = Loc {
                seg,
                offset: at,
                len: rec_len,
                stamp: h.stamp,
            };
            let order = |l: &Loc| (l.stamp, &self.segments[l.seg].name, l.offset);
            if self
                .live
                .get(&h.id)
                .is_none_or(|old| order(&loc) > order(old))
            {
                self.live.insert(h.id, loc);
            }
            at += rec_len;
        }
        let segment = &mut self.segments[seg];
        (segment.walked, segment.seen) = (at, len);
        self.seg_bytes += at - start;
    }

    /// Writes the most recent live records that fit `budget` to a new
    /// segment by tmp+rename. Returns the records kept and the damaged
    /// ones dropped.
    fn compact(&self, dir: &Path, budget: u64) -> std::io::Result<(u64, u64)> {
        let touched = record::touches(&std::fs::read(dir.join(TOUCH_LOG)).unwrap_or_default());
        let rank = |(id, loc): (&(u64, u64), &Loc)| {
            let touch = touched.get(id).copied().unwrap_or(0);
            (touch.max(loc.stamp), *id, *loc)
        };
        let mut order: Vec<_> = self.live.iter().map(rank).collect();
        order.sort_by_key(|&(rank, id, _)| (std::cmp::Reverse(rank), id));
        let (mut out, mut kept, mut corrupt) = (Vec::new(), 0, 0);
        for (rank, id, loc) in order {
            if out.len() as u64 + loc.len > budget {
                break;
            }
            let mut bytes = vec![0; loc.len as usize];
            let read = self.segments[loc.seg]
                .file
                .read_exact_at(&mut bytes, loc.offset);
            match read.ok().and_then(|()| verify(&bytes, id)) {
                Some((h, json, wire)) => {
                    out.extend(record::entry(id, rank, h.bundle_fp, h.defects, json, wire));
                    kept += 1;
                }
                None => corrupt += 1,
            }
        }
        if kept > 0 {
            let name = segment_name();
            let tmp = dir.join(format!("{name}.tmp"));
            let written = File::create_new(&tmp)
                .and_then(|mut f| f.write_all(&out).and_then(|()| f.sync_data()))
                .and_then(|()| std::fs::rename(&tmp, dir.join(name)));
            if written.is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
            written?;
        }
        Ok((kept, corrupt))
    }
}

/// A fresh segment file name, unique across processes.
fn segment_name() -> String {
    format!(
        "{:016x}-{}{SEGMENT_SUFFIX}",
        next_stamp(),
        std::process::id()
    )
}

/// Unlinks leftovers no store will read, and returns their bytes: the
/// files of the one-file-per-entry layout — entries
/// `{key_hash:016x}-{config_fp:016x}.json` and the `.tmp` and `.atime`
/// files beside them, not `.quarantine` ones — and the output of a
/// compaction killed before its rename, `{stamp:016x}-{pid}.seg.tmp`
/// whose writer is no longer running.
fn sweep_leftovers(dir: &Path) -> u64 {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return 0;
    };
    let legacy = |name: &str| {
        let (stem, ext) = name.rsplit_once('.')?;
        let (key, config) = stem.split_once('-')?;
        (matches!(ext, "json" | "tmp" | "atime") && hex(key).is_some() && hex(config).is_some())
            .then_some(())
    };
    let orphan = |name: &str| {
        let stem = name.strip_suffix(".seg.tmp")?;
        let (stamp, pid) = stem.split_once('-')?;
        (hex(stamp).is_some() && pid.parse().is_ok_and(pid_gone)).then_some(())
    };
    let mut swept = 0;
    for dirent in listing.flatten() {
        let name = dirent.file_name();
        let name = name.to_str().unwrap_or_default();
        if legacy(name).or_else(|| orphan(name)).is_some() {
            let len = dirent.metadata().map_or(0, |m| m.len());
            if std::fs::remove_file(dirent.path()).is_ok() {
                swept += len;
            }
        }
    }
    swept
}

/// Whether no process `pid` is running. Without procfs to ask, every
/// process counts as running, so nothing is swept on a guess.
fn pid_gone(pid: u32) -> bool {
    let proc = Path::new("/proc");
    proc.join("self").exists() && !proc.join(pid.to_string()).exists()
}

impl Default for AnalysisStore {
    fn default() -> Self {
        AnalysisStore::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
            report,
            ..AppCacheEntry::default()
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

    /// A store over a fresh cache directory, with `keys` inserted (bundle
    /// fingerprint = position).
    fn disk_store(tag: &str, keys: &[&str]) -> (AnalysisStore, PathBuf) {
        let dir = tmpdir(tag);
        let store = AnalysisStore::with_options(Some(dir.clone()));
        for (i, key) in keys.iter().enumerate() {
            store.insert(key, entry(i as u64, key), &Obs::disabled());
        }
        (store, dir)
    }

    fn reopen(dir: &Path) -> AnalysisStore {
        AnalysisStore::with_options(Some(dir.to_path_buf()))
    }

    /// The names of the files in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The first segment in `dir`.
    fn segment(dir: &Path) -> PathBuf {
        let first = names(dir).into_iter().find(|n| n.ends_with(SEGMENT_SUFFIX));
        dir.join(first.expect("a segment"))
    }

    fn len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// The strict disk hit: a record written for exactly `bundle_fp`.
    fn disk_hit(store: &AnalysisStore, key: &str, bundle_fp: u64) -> bool {
        store
            .lookup_disk_entry(key, 42, &Obs::disabled())
            .is_some_and(|e| e.bundle_fp == bundle_fp)
    }

    fn counter(store: &AnalysisStore, name: &str) -> u64 {
        let counters = store.metrics().snapshot().counters;
        counters.get(name).copied().unwrap_or(0)
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
        // A budget of one entry: the second key evicts the first.
        let charge = entry(1, "app.x").approx_bytes();
        let store = AnalysisStore::with_budgets(0, charge, None);
        let obs = Obs::enabled();
        store.insert("app.x", entry(1, "app.x"), &obs);
        store.insert("app.y", entry(2, "app.y"), &obs);
        assert!(store.lookup("app.x", &obs).is_none(), "older key evicted");
        assert!(store.lookup("app.y", &obs).is_some());
        assert_eq!(obs.metrics.snapshot().counters["svc.cache.evict"], 1);
        assert_eq!(counter(&store, "svc.cache.evict"), 1);
    }

    #[test]
    fn the_byte_budget_is_global_and_evicts_least_recently_used() {
        // Entries of equal charge under a budget of three: the tier holds
        // three whatever the keys, and a lookup re-ranks its key.
        let keys: Vec<String> = (0..33).map(|i| format!("app.g{i:02}")).collect();
        let charge = entry(0, &keys[0]).approx_bytes();
        let budget = 3 * charge;
        let store = AnalysisStore::with_budgets(0, budget, None);
        let obs = Obs::disabled();
        for (i, key) in keys[..32].iter().enumerate() {
            assert_eq!(entry(i as u64, key).approx_bytes(), charge);
            store.insert(key, entry(i as u64, key), &obs);
        }
        assert_eq!(store.len(), 3);
        assert!(store.mem_bytes() <= budget);
        let resident = |store: &AnalysisStore| -> Vec<&str> {
            let mem = lock(&store.mem);
            let mut keys: Vec<&str> = keys
                .iter()
                .filter(|k| mem.entries.contains_key(k.as_str()))
                .map(String::as_str)
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(resident(&store), ["app.g29", "app.g30", "app.g31"]);
        // Using the oldest keeps it: the next insert evicts app.g30.
        assert!(store.lookup("app.g29", &obs).is_some());
        store.insert(&keys[32], entry(32, &keys[32]), &obs);
        assert_eq!(resident(&store), ["app.g29", "app.g31", "app.g32"]);
        assert_eq!(counter(&store, "svc.cache.evict"), 30);
    }

    #[test]
    fn the_byte_budget_charges_large_entries_more() {
        // Entries with many class fingerprints are charged more: one
        // large entry evicts several small ones, least recent first.
        let big = |fp: u64, package: &str| {
            let mut e = entry(fp, package);
            e.class_fps = vec![0; 1000]; // ~8.8 KB of charged bytes
            e
        };
        let (small, large) = (
            entry(0, "app.s").approx_bytes(),
            big(0, "app.b").approx_bytes(),
        );
        let budget = large + 2 * small;
        let store = AnalysisStore::with_budgets(0, budget, None);
        let obs = Obs::enabled();
        for i in 0..6 {
            let key = format!("app.s{i}");
            store.insert(&key, entry(i, &key), &obs);
        }
        assert_eq!(store.len(), 6, "small entries fit");
        store.insert("app.b", big(9, "app.b"), &obs);
        assert!(store.lookup("app.b", &obs).is_some());
        assert!(
            store.lookup("app.s3", &obs).is_none(),
            "oldest evicted first"
        );
        assert!(store.lookup("app.s4", &obs).is_some() && store.lookup("app.s5", &obs).is_some());
        assert_eq!(store.len(), 3);
        assert_eq!(store.mem_bytes(), budget);
        assert_eq!(obs.metrics.snapshot().counters["svc.cache.evict"], 4);
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
        let store = AnalysisStore::with_budgets(0, 1, None);
        let obs = Obs::enabled();
        store.insert("app.huge", entry(1, "app.huge"), &obs);
        assert!(store.lookup("app.huge", &obs).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn an_unwritable_cache_dir_degrades_to_memory_and_warns() {
        let dir = tmpdir("unwritable");
        std::fs::create_dir_all(&dir).unwrap();
        // A file where the cache directory should be.
        std::fs::write(dir.join("cache"), b"").unwrap();
        let (sink, buf) = nck_obs::JsonlSink::capture();
        let obs = Obs {
            events: nck_obs::Events::silent().with_sink(sink),
            ..Obs::disabled()
        };
        let store = AnalysisStore::with_options(Some(dir.join("cache")));
        store.insert("app.r", entry(5, "app.r"), &obs);
        assert_eq!(store.lookup("app.r", &obs).unwrap().bundle_fp, 5);
        assert_eq!(counter(&store, "svc.cache.disk_records_appended"), 0);
        let log = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(log.contains("cache segment write failed"), "{log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_cache_dir_is_created_on_first_write() {
        let dir = tmpdir("lazydir").join("nested");
        let store = reopen(&dir);
        assert!(!disk_hit(&store, "app.d", 0));
        assert!(!dir.exists(), "a lookup creates nothing");
        for (i, key) in ["app.d", "app.e", "app.d"].iter().enumerate() {
            store.insert(key, entry(i as u64, key), &Obs::disabled());
        }
        assert_eq!(names(&dir).len(), 1, "one segment");
        assert_eq!(counter(&store, "svc.cache.disk_files_created"), 1);
        assert_eq!(counter(&store, "svc.cache.disk_records_appended"), 3);
        let stats = store.disk_stats();
        assert_eq!((stats.entries, stats.segments), (2, 1));
        assert!(stats.dead_bytes > 0, "the superseded app.d record is dead");
        assert!(disk_hit(&store, "app.d", 2), "the newest record is live");
        store.sync_disk();
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn disk_tier_roundtrips_and_rejects_stale_fingerprints() {
        let (store, dir) = disk_store("roundtrip", &["app.d"]);
        let want = render_json(&entry(0, "app.d").report);
        for store in [&store, &reopen(&dir)] {
            let hit = store
                .lookup_disk_entry("app.d", 42, &Obs::disabled())
                .unwrap();
            assert_eq!((hit.bundle_fp, hit.defects), (0, 0));
            assert_eq!(*hit.json, want, "the JSON section is the rendered report");
            assert_eq!(
                counter(store, "svc.cache.disk_decode"),
                0,
                "nothing decoded"
            );
            assert_eq!(hit.decode().stats.package, "app.d");
            assert_eq!(counter(store, "svc.cache.disk_decode"), 1);
        }
        assert!(!disk_hit(&store, "app.d", 8), "bundle moved");
        assert!(store
            .lookup_disk_entry("app.d", 43, &Obs::disabled())
            .is_none());
        // Garbage in the segment: a miss, not an error.
        std::fs::write(segment(&dir), "{not a record").unwrap();
        assert!(!disk_hit(&reopen(&dir), "app.d", 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_byte_anywhere_in_an_entry_fails_the_checksum() {
        let (_store, dir) = disk_store("flip", &["app.f"]);
        let good = std::fs::read(segment(&dir)).unwrap();
        let id = (key_hash("app.f"), 42);
        assert!(verify(&good, id).is_some());
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(verify(&bad, id).is_none(), "flipping byte {at} verified");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_disk_any_recovers_the_stale_entry_for_deltas() {
        let (store, dir) = disk_store("staleany", &["app.v"]);
        // The strict lookup under a *new* bundle misses, but the
        // any-lookup recovers the previous version and its bundle.
        assert!(!disk_hit(&store, "app.v", 8));
        let (stored_fp, report) = store
            .lookup_disk_any("app.v", 42, &Obs::disabled())
            .unwrap();
        assert_eq!((stored_fp, report.stats.package.as_str()), (0, "app.v"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record that fails its checksum is quarantined in the index:
    /// dropped from it, so it is never served or re-read.
    #[test]
    fn corrupt_disk_entry_is_quarantined_and_not_reread() {
        let (store, dir) = disk_store("corrupt", &["app.q"]);
        let mut bytes = std::fs::read(segment(&dir)).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(segment(&dir), &bytes).unwrap();
        let obs = Obs::enabled();
        for _ in 0..2 {
            assert!(store.lookup_disk_entry("app.q", 42, &obs).is_none());
            assert_eq!(
                obs.metrics.snapshot().counters["svc.cache.corrupt_evict"],
                1
            );
            assert_eq!(counter(&store, "svc.cache.corrupt_evict"), 1);
        }
        assert_eq!(store.disk_stats().entries, 0, "no longer live");
        assert_eq!(names(&dir).len(), 1, "nothing renamed or deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_are_corrupt_but_stale_and_outdated_ones_are_not() {
        let (store, dir) = disk_store("legacy", &["app.s"]);
        let seg = segment(&dir);
        let current = String::from_utf8(std::fs::read(&seg).unwrap()).unwrap();
        assert!(!disk_hit(&store, "app.s", 6), "stale: a miss, not damage");
        // The one-file-per-entry layouts under their old names — a
        // schema-1 object and a schema-2 header — with `.tmp` and
        // `.atime` leftovers and an old quarantined entry, plus a segment
        // in another wire schema: all plain misses.
        let name = |key: &str, ext: &str| format!("{:016x}-{:016x}.{ext}", key_hash(key), 42);
        let schema2 = current.replacen("nck-entry 3 ", "nck-entry 2 ", 1);
        let wire999 = current.replacen("nck-entry 3 1 ", "nck-entry 3 999 ", 1);
        for (file, text) in [
            (name("app.one", "json"), r#"{"bundle_fp":"5"}"#),
            (name("app.two", "json"), &schema2),
            (name("app.two", "tmp"), "x"),
            (name("app.two", "atime"), ""),
            (name("app.old", "quarantine"), "bad"),
            ("0000000000000001-1.seg".to_owned(), &wire999),
        ] {
            std::fs::write(dir.join(file), text).unwrap();
        }
        let fresh = reopen(&dir);
        assert!(!disk_hit(&fresh, "app.one", 5) && !disk_hit(&fresh, "app.two", 0));
        assert!(disk_hit(&fresh, "app.s", 0), "the current record hits");
        assert_eq!(counter(&fresh, "svc.cache.corrupt_evict"), 0);
        // A GC sweeps the legacy files, keeps the quarantined one, and
        // (under budget) keeps the records and the touch log.
        let stats = fresh.gc_disk(u64::MAX, &Obs::disabled());
        assert_eq!((stats.entries, stats.evicted), (1, 0));
        assert!(names(&dir).contains(&name("app.old", "quarantine")));
        assert_eq!(names(&dir).len(), 4, "two segments, touch log, quarantine");
        // Damaged: one flipped body byte fails the checksum.
        let mut damaged = current.into_bytes();
        *damaged.last_mut().unwrap() ^= 0x01;
        std::fs::write(&seg, damaged).unwrap();
        assert!(!disk_hit(&reopen(&dir), "app.s", 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_down_to_budget() {
        let (store, dir) = disk_store("gc", &["app.old", "app.mid", "app.new"]);
        drop(store);
        let one_record = len(&segment(&dir)) / 3;
        // A later process reads the oldest record, so it ranks first.
        assert!(disk_hit(&reopen(&dir), "app.old", 0));
        assert_eq!(len(&dir.join(TOUCH_LOG)), 80, "the drop flushed one touch");
        let store = reopen(&dir);
        let stats = store.gc_disk(one_record * 2 + one_record / 2, &Obs::disabled());
        assert_eq!((stats.entries, stats.kept(), stats.evicted), (3, 2, 1));
        assert!(stats.freed_bytes > one_record, "a record and the touch log");
        assert_eq!(stats.live_bytes(), store.disk_occupancy());
        assert!(disk_hit(&store, "app.old", 0) && disk_hit(&store, "app.new", 2));
        assert!(!disk_hit(&store, "app.mid", 1), "least recent: dropped");
        let snap = store.metrics().snapshot();
        assert_eq!(snap.counters["svc.cache.gc_evicted"], 1);
        assert_eq!(snap.counters["svc.cache.gc_freed_bytes"], stats.freed_bytes);
        // Under budget: the run is counted, nothing is dropped.
        let stats = store.gc_disk(u64::MAX, &Obs::disabled());
        assert_eq!((stats.entries, stats.evicted, stats.freed_bytes), (2, 0, 0));
        assert_eq!(counter(&store, "svc.cache.gc_runs"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_reads_journal_the_atime_and_flush_stamps_the_entry() {
        let (store, dir) = disk_store("touch", &["app.t", "app.u"]);
        let before = names(&dir);
        let seg_len = len(&segment(&dir));
        for key in ["app.t", "app.t", "app.u"] {
            assert!(store.lookup_disk_entry(key, 42, &Obs::disabled()).is_some());
        }
        assert_eq!(names(&dir), before, "the hit path writes nothing");
        assert_eq!(store.journaled_touches(), 2, "one journal slot per key");
        store.flush_touches();
        assert_eq!(store.journaled_touches(), 0, "flush drained the journal");
        let log = std::fs::read(dir.join(TOUCH_LOG)).unwrap();
        assert_eq!(
            (
                log.len(),
                record::touches(&std::fs::read(dir.join(TOUCH_LOG)).unwrap()).len()
            ),
            (160, 2)
        );
        assert_eq!(len(&segment(&dir)), seg_len, "touches stay out of segments");
        // A torn touch record is skipped, not fatal.
        std::fs::write(dir.join(TOUCH_LOG), [&log[..], &log[..40]].concat()).unwrap();
        assert_eq!(
            record::touches(&std::fs::read(dir.join(TOUCH_LOG)).unwrap()).len(),
            2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_rewritten_after_a_read_ranks_by_the_rewrite() {
        let (store, dir) = disk_store("rewrite", &["app.a", "app.b"]);
        assert!(disk_hit(&store, "app.a", 0) && disk_hit(&store, "app.b", 1));
        // A new version of A: the freshest record, whatever its read says.
        store.insert("app.a", entry(2, "app.a"), &Obs::disabled());
        let stats = store.gc_disk(store.disk_stats().dead_bytes, &Obs::disabled());
        assert_eq!((stats.kept(), stats.evicted), (1, 1));
        assert!(disk_hit(&store, "app.a", 2), "rewritten A kept");
        assert!(!disk_hit(&store, "app.b", 1), "B is least recent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_preserves_read_order_and_skips_vanished_entries() {
        let (store, dir) = disk_store("flushorder", &["app.first", "app.second", "app.unread"]);
        let one_record = store.disk_occupancy() / 3;
        // Journal reads with explicit stamps after the writes, the later
        // one first, plus a read of a key with no record: its touch must
        // not bring anything back.
        let at = |secs: u64| next_stamp() + secs * 1_000_000_000;
        for (key, stamp) in [
            ("app.second", at(100)),
            ("app.first", at(200)),
            ("app.gone", at(300)),
        ] {
            let (_, index) = store.disk.as_ref().unwrap();
            lock(index).touches.insert((key_hash(key), 42), stamp);
        }
        store.flush_touches();
        let stats = store.gc_disk(one_record * 2, &Obs::disabled());
        assert_eq!((stats.entries, stats.kept()), (3, 2), "nothing resurrected");
        assert!(!disk_hit(&store, "app.unread", 2), "written, never read");
        assert_eq!(store.gc_disk(one_record, &Obs::disabled()).kept(), 1);
        assert!(disk_hit(&store, "app.first", 0), "read last: kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn occupancy_estimate_tracks_inserts_without_rescans() {
        // A tier from a previous process: the first scan counts it.
        let (store, dir) = disk_store("occupancy", &["app.pre"]);
        drop(store);
        let store = reopen(&dir);
        assert_eq!(store.disk_occupancy(), store.disk_stats().bytes);
        store.insert("app.a", entry(2, "app.a"), &Obs::disabled());
        let once = store.disk_occupancy();
        // Rewriting a key appends: the old record turns dead, and its
        // bytes stay charged until a compaction.
        store.insert("app.a", entry(3, "app.a"), &Obs::disabled());
        let stats = store.disk_stats();
        assert_eq!(store.disk_occupancy(), stats.bytes);
        assert_eq!(stats.dead_bytes, stats.bytes - once);
        assert_eq!((stats.entries, stats.segments), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maybe_gc_skips_under_watermark_and_collects_to_the_low_one() {
        let (store, dir) = disk_store("watermark", &["app.w0", "app.w1", "app.w2", "app.w3"]);
        let obs = Obs::enabled();
        let occupied = store.disk_occupancy();
        // Under the high watermark: skipped, counted, no run.
        assert!(store.maybe_gc_disk(occupied + 1, &obs).is_none());
        assert_eq!(counter(&store, "svc.cache.gc_skipped"), 1);
        assert_eq!(counter(&store, "svc.cache.gc_runs"), 0);
        // Over it: runs, and collects below the *low* watermark
        // (budget - budget/8), not merely below the budget.
        let budget = occupied - 1;
        let stats = store.maybe_gc_disk(budget, &obs).expect("over watermark");
        assert!(stats.evicted > 0);
        assert!(store.disk_occupancy() <= budget - budget / 8);
        assert_eq!(store.disk_occupancy(), store.disk_stats().bytes);
        assert_eq!(counter(&store, "svc.cache.gc_runs"), 1);
        // No disk tier: no skip counting, no run.
        let memonly = AnalysisStore::new();
        assert!(memonly.maybe_gc_disk(0, &obs).is_none());
        assert_eq!(counter(&memonly, "svc.cache.gc_skipped"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_is_memory_only_and_serves_the_next_lookup() {
        let dir = tmpdir("promote");
        let store = reopen(&dir);
        let obs = Obs::disabled();
        assert!(store.lookup("app.p", &obs).is_none());
        store.promote("app.p", entry(11, "app.p"), &obs);
        assert_eq!(store.lookup("app.p", &obs).unwrap().bundle_fp, 11);
        assert_eq!(store.disk_stats().entries, 0, "promotion writes no disk");
        assert!(!dir.exists(), "nor creates anything");
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
    fn record_gauges_reports_mem_occupancy() {
        let store = AnalysisStore::new();
        let obs = Obs::enabled();
        store.insert("app.a", entry(1, "app.a"), &obs);
        store.insert("app.b", entry(2, "app.b"), &obs);
        store.record_gauges(&obs.metrics);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.gauges["svc.cache.mem_entries"], 2);
        assert_eq!(snap.gauges["svc.cache.mem_bytes"], store.mem_bytes() as i64);
        assert!(snap.gauges["svc.cache.mem_bytes"] > 0);
        assert_eq!(snap.gauges.len(), 2, "entries and bytes only");
    }

    #[test]
    fn disk_stats_count_entries_and_bytes() {
        let dir = tmpdir("diskstats");
        assert_eq!(
            reopen(&dir).disk_stats(),
            DiskStats::default(),
            "missing dir"
        );
        let (store, dir) = disk_store("diskstats", &["app.a", "app.b"]);
        // Alien files and legacy leftovers are not records.
        std::fs::write(dir.join("README"), "not a cache file").unwrap();
        std::fs::write(dir.join("0123456789abcdef-0123456789abcdef.tmp"), "x").unwrap();
        let stats = store.disk_stats();
        assert_eq!((stats.entries, stats.segments, stats.dead_bytes), (2, 1, 0));
        assert_eq!(stats.bytes, len(&segment(&dir)));
        let _ = std::fs::remove_dir_all(&dir);
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
