//! Streaming generation of app-store-sized corpora.
//!
//! The evaluation corpus ([`crate::profile::corpus`]) materializes 285
//! specs in RAM, which is fine at paper scale and hopeless at store
//! scale: vetting 100k+ submissions must generate, analyze, and drop
//! each bundle without ever holding the corpus. A [`CorpusStream`] does
//! exactly that — the only materialized state is the 285 calibrated
//! *base* specs it draws defect shapes from; every streamed app is
//! derived on demand from `(seed, index)` alone.
//!
//! That per-index **random access** is the property the store-scale
//! subsystem is built on:
//!
//! - [`CorpusStream::spec_at`] makes generation shardable — any worker
//!   can produce app `i` without generating apps `0..i`;
//! - [`CorpusStream::version_at`] makes *version churn* reproducible —
//!   version `v` of app `i` is a pure function, so a re-vetting run can
//!   regenerate exactly the bundle a store resubmission would carry and
//!   the delta machinery can be checked against spec-level ground truth.
//!
//! Size realism: app stores are dominated by small apps with a heavy
//! tail of large ones, and most submissions never touch the network.
//! The stream draws each app's ballast-class count from a Pareto-shaped
//! distribution and makes a seeded fraction of apps network-free
//! ([`crate::profile::no_network_app`] shapes); the rest clone a
//! calibrated base spec, so defect *rates* still track the paper's
//! tables.

use crate::profile::{self, CORPUS_SIZE};
use crate::spec::AppSpec;
use crate::update::evolve;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Tuning knobs for a [`CorpusStream`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Fraction of streamed apps with no network surface at all, in
    /// `[0, 1]`.
    pub clean_frac: f64,
    /// Smallest ballast-class count an app can draw.
    pub min_bulk: usize,
    /// Cap on the ballast-class heavy tail.
    pub max_bulk: usize,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions {
            clean_frac: 0.5,
            min_bulk: 4,
            max_bulk: 64,
        }
    }
}

/// A streaming, randomly addressable corpus of `size` apps.
///
/// Iterating yields `(index, spec)` pairs in index order; [`spec_at`]
/// and [`version_at`] answer the same question out of order. Both are
/// deterministic in `(seed, options, index)`.
///
/// [`spec_at`]: CorpusStream::spec_at
/// [`version_at`]: CorpusStream::version_at
pub struct CorpusStream {
    seed: u64,
    size: usize,
    options: StreamOptions,
    /// The calibrated defect shapes every network app clones from —
    /// the only corpus-sized state the stream ever holds.
    base: Arc<Vec<AppSpec>>,
    next: usize,
}

/// SplitMix64: the per-index hash every derived property hangs off.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform float in `[0, 1)` from the high bits of a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl CorpusStream {
    /// A stream of `size` apps derived from `seed` with default
    /// [`StreamOptions`].
    pub fn new(seed: u64, size: usize) -> CorpusStream {
        CorpusStream::with_options(seed, size, StreamOptions::default())
    }

    /// A stream with explicit options.
    pub fn with_options(seed: u64, size: usize, options: StreamOptions) -> CorpusStream {
        CorpusStream {
            seed,
            size,
            options,
            base: Arc::new(profile::corpus(seed)),
            next: 0,
        }
    }

    /// Apps in the stream.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The ballast-class count app `i` draws: Pareto-shaped (many small
    /// apps, a heavy tail of large ones), clamped to
    /// `[min_bulk, max_bulk]`.
    fn bulk_at(&self, i: usize) -> usize {
        let u = unit(mix(self.seed ^ 0xb01c, i as u64));
        // Inverse-CDF sample of a Pareto tail with alpha = 2: the median
        // lands near 1.4 × min, the 99th percentile near 10 × min.
        let pareto = self.options.min_bulk.max(1) as f64 / (1.0 - u).sqrt();
        (pareto as usize).clamp(self.options.min_bulk.max(1), self.options.max_bulk.max(1))
    }

    /// Version 0 of app `i`. Clean apps are pure-ballast
    /// [`profile::no_network_app`] shapes; network apps clone a
    /// calibrated base spec. Every app gets a stream-unique package and
    /// its own ballast draw.
    pub fn spec_at(&self, i: usize) -> AppSpec {
        assert!(i < self.size, "index {i} out of a {}-app stream", self.size);
        let h = mix(self.seed, i as u64);
        let bulk = self.bulk_at(i);
        let mut spec = if unit(h) < self.options.clean_frac.clamp(0.0, 1.0) {
            profile::no_network_app(i, bulk)
        } else {
            let mut s = self.base[(mix(h, 0x5e1ec7) as usize) % CORPUS_SIZE].clone();
            s.bulk = bulk;
            s
        };
        spec.package = format!("com.store.app{i:06}");
        spec
    }

    /// Version `v` of app `i`: `v` successive [`evolve`] steps over
    /// [`spec_at`]`(i)`, each editing ~30% of the app's requests. A step
    /// whose edits leave the bundle as it was (each edited a field the
    /// generator does not emit for that request's library) grows the
    /// app's ballast instead, and network-free apps, with no requests to
    /// evolve, grow it at every step — an update must change the bundle bytes, or
    /// resubmission would be a no-op.
    ///
    /// [`spec_at`]: CorpusStream::spec_at
    pub fn version_at(&self, i: usize, v: u32) -> AppSpec {
        let mut spec = self.spec_at(i);
        if v == 0 {
            return spec;
        }
        if spec.requests.is_empty() {
            spec.bulk += v as usize;
            return spec;
        }
        // Steps in a row, ending at step `v`, that left the bundle as it
        // was.
        let mut unchanged = 0;
        let mut bytes = crate::generate(&spec).to_bytes();
        for step in 1..=v {
            spec = evolve(
                &spec,
                0.3,
                mix(self.seed ^ 0xeb01, ((i as u64) << 8) | step as u64),
            )
            .spec;
            let next = crate::generate(&spec).to_bytes();
            unchanged = if next == bytes { unchanged + 1 } else { 0 };
            bytes = next;
        }
        spec.bulk += unchanged;
        spec
    }
}

impl Iterator for CorpusStream {
    type Item = (usize, AppSpec);

    fn next(&mut self) -> Option<(usize, AppSpec)> {
        if self.next >= self.size {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some((i, self.spec_at(i)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.size - self.next;
        (left, Some(left))
    }
}

/// Where app `i` of a sharded corpus tree lives under `root`:
/// `root/shard-XX/appNNNNNN.apk`, sharded round-robin so every shard
/// directory stays small enough for plain `ls` at 100k apps.
pub fn sharded_path(root: &Path, shards: usize, index: usize) -> PathBuf {
    let shard = index % shards.max(1);
    root.join(format!("shard-{shard:02x}"))
        .join(format!("app{index:06}.apk"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_randomly_addressable() {
        let collected: Vec<AppSpec> = CorpusStream::new(7, 24).map(|(_, s)| s).collect();
        assert_eq!(collected.len(), 24);
        let stream = CorpusStream::new(7, 24);
        for (i, spec) in collected.iter().enumerate() {
            assert_eq!(&stream.spec_at(i), spec, "spec_at({i}) matches iteration");
        }
        assert_ne!(
            CorpusStream::new(8, 24).spec_at(0),
            collected[0],
            "seed moves the stream"
        );
    }

    #[test]
    fn packages_are_stream_unique() {
        let names: std::collections::BTreeSet<String> =
            CorpusStream::new(3, 300).map(|(_, s)| s.package).collect();
        assert_eq!(names.len(), 300);
    }

    #[test]
    fn clean_fraction_and_bulk_distribution_hold() {
        let opts = StreamOptions {
            clean_frac: 0.5,
            min_bulk: 4,
            max_bulk: 64,
        };
        let specs: Vec<AppSpec> = CorpusStream::with_options(11, 400, opts)
            .map(|(_, s)| s)
            .collect();
        let clean = specs.iter().filter(|s| s.requests.is_empty()).count();
        assert!(
            (140..=260).contains(&clean),
            "~half the stream is network-free, got {clean}/400"
        );
        assert!(specs.iter().all(|s| (4..=64).contains(&s.bulk)));
        // Heavy tail: most apps are small, some are several times the
        // minimum.
        let small = specs.iter().filter(|s| s.bulk <= 8).count();
        let large = specs.iter().filter(|s| s.bulk >= 16).count();
        assert!(small > specs.len() / 2, "mostly small apps ({small})");
        assert!(large > 0, "a heavy tail exists");
    }

    #[test]
    fn versions_always_change_the_bundle() {
        // The default mix, and an all-network stream at seed 5, whose app
        // 0 has an evolve step that edits nothing.
        let all_network = StreamOptions {
            clean_frac: 0.0,
            ..StreamOptions::default()
        };
        for stream in [
            CorpusStream::new(5, 40),
            CorpusStream::with_options(5, 40, all_network),
        ] {
            for i in 0..40 {
                let v0 = crate::generate(&stream.version_at(i, 0)).to_bytes();
                let v1 = crate::generate(&stream.version_at(i, 1)).to_bytes();
                assert_ne!(v0, v1, "app {i}: version 1 must differ from version 0");
                assert_eq!(
                    v1,
                    crate::generate(&stream.version_at(i, 1)).to_bytes(),
                    "app {i}: versions are deterministic"
                );
            }
        }
    }

    #[test]
    fn version_zero_equals_spec_at() {
        let stream = CorpusStream::new(9, 10);
        for i in 0..10 {
            assert_eq!(stream.version_at(i, 0), stream.spec_at(i));
        }
    }

    #[test]
    fn sharded_paths_partition_the_tree() {
        let root = Path::new("/corpus");
        let p = sharded_path(root, 8, 11);
        assert_eq!(p, root.join("shard-03").join("app000011.apk"));
        // Every shard directory gets work.
        let used: std::collections::BTreeSet<PathBuf> = (0..64)
            .map(|i| sharded_path(root, 8, i).parent().unwrap().to_path_buf())
            .collect();
        assert_eq!(used.len(), 8);
    }
}
