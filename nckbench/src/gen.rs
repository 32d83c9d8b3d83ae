//! Input generation. Every byte the program sees is derived from the
//! run's `--seed` and written to the run directory before any timer
//! starts; the program receives only those files.
//!
//! - [`StoreTree`]: a [`CorpusStream`] store mix (50% network-free apps,
//!   Pareto-shaped ballast) laid out as a sharded corpus tree, with
//!   seeded version churn for re-vetting waves.
//! - [`DevChain`]: the 285-app evaluation corpus as a version chain
//!   `v0..=vN`, one directory per version, for the daemon workloads.

use nck_appgen::{profile, stream::sharded_path, AppSpec, CorpusStream};
use std::path::{Path, PathBuf};

/// SplitMix64 finalizer: the benchmark's own coin, independent of the
/// generator's streams so churn never correlates with app shape.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The churn coin: does app `i` ship a new version in `wave`? True for
/// a `pct` percent share of `(wave, i)` pairs, deterministically in
/// `seed`.
pub fn churns(seed: u64, wave: usize, i: usize, pct: f64) -> bool {
    let h = mix(seed ^ (wave as u64).wrapping_mul(0x5eed_cafe), i as u64);
    (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0 < pct
}

/// Shard directories in a store tree.
const TREE_SHARDS: usize = 16;

/// A store-mix corpus tree on disk, plus each app's current version.
pub struct StoreTree {
    pub root: PathBuf,
    stream: CorpusStream,
    versions: Vec<u32>,
    /// Path of app `i`, as `nchecker vet --corpus-dir` names it.
    paths: Vec<String>,
    /// App indices in the order `vet` emits their reports (sorted path
    /// order).
    pub order: Vec<usize>,
    seed: u64,
}

impl StoreTree {
    /// Writes version 0 of `apps` apps under `root`.
    pub fn create(root: &Path, seed: u64, apps: usize) -> std::io::Result<StoreTree> {
        let stream = CorpusStream::new(seed, apps);
        let mut paths = Vec::with_capacity(apps);
        for i in 0..apps {
            let path = sharded_path(root, TREE_SHARDS, i);
            if i < TREE_SHARDS {
                std::fs::create_dir_all(path.parent().expect("sharded path has a parent"))?;
            }
            std::fs::write(&path, nck_appgen::generate(&stream.spec_at(i)).to_bytes())?;
            paths.push(path.to_string_lossy().into_owned());
        }
        let mut order: Vec<usize> = (0..apps).collect();
        order.sort_by(|&a, &b| paths[a].cmp(&paths[b]));
        Ok(StoreTree {
            root: root.to_path_buf(),
            stream,
            versions: vec![0; apps],
            paths,
            order,
            seed,
        })
    }

    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn path(&self, i: usize) -> &str {
        &self.paths[i]
    }

    /// The bytes app `i` has on disk now.
    pub fn bytes(&self, i: usize) -> Vec<u8> {
        std::fs::read(&self.paths[i]).expect("store tree file is readable")
    }

    /// Ships the next version of every app the churn coin picks for
    /// `wave`: rewrites its file and returns `(app, previous bytes)`.
    pub fn churn(&mut self, wave: usize, pct: f64) -> std::io::Result<Vec<(usize, Vec<u8>)>> {
        let mut churned = Vec::new();
        for i in 0..self.len() {
            if churns(self.seed, wave, i, pct) {
                let prev = self.bytes(i);
                self.versions[i] += 1;
                let next = self.stream.version_at(i, self.versions[i]);
                std::fs::write(&self.paths[i], nck_appgen::generate(&next).to_bytes())?;
                churned.push((i, prev));
            }
        }
        Ok(churned)
    }
}

/// The 285-app evaluation corpus as a version chain on disk.
pub struct DevChain {
    /// `paths[v][i]`: version `v` of app `i`.
    paths: Vec<Vec<String>>,
    /// Defects the generator's oracle expects, summed per version.
    pub oracle_defects: Vec<usize>,
}

impl DevChain {
    /// Writes versions `0..=rounds` of every corpus app under `root`.
    /// Each version evolves ~30% of an app's requests; a request-free
    /// app grows one ballast class per version instead, as
    /// [`CorpusStream::version_at`] does, so every version changes the
    /// bundle.
    pub fn create(root: &Path, seed: u64, rounds: usize) -> std::io::Result<DevChain> {
        let mut specs: Vec<AppSpec> = profile::corpus(seed);
        let mut paths = Vec::with_capacity(rounds + 1);
        let mut oracle_defects = Vec::with_capacity(rounds + 1);
        for v in 0..=rounds {
            if v > 0 {
                for (i, spec) in specs.iter_mut().enumerate() {
                    if spec.requests.is_empty() {
                        spec.bulk += 1;
                    } else {
                        let coin = mix(seed ^ 0xde7c_4a1e, ((i as u64) << 16) | v as u64);
                        *spec = nck_appgen::evolve(spec, 0.3, coin).spec;
                    }
                }
            }
            let dir = root.join(format!("v{v:02}"));
            std::fs::create_dir_all(&dir)?;
            let mut version = Vec::with_capacity(specs.len());
            for (i, spec) in specs.iter().enumerate() {
                let path = dir.join(format!("app{i:03}.apk"));
                std::fs::write(&path, nck_appgen::generate(spec).to_bytes())?;
                version.push(path.to_string_lossy().into_owned());
            }
            paths.push(version);
            oracle_defects.push(specs.iter().map(|s| s.expected_tool_report().len()).sum());
        }
        Ok(DevChain {
            paths,
            oracle_defects,
        })
    }

    /// Apps per version.
    pub fn apps(&self) -> usize {
        self.paths[0].len()
    }

    pub fn path(&self, version: usize, i: usize) -> &str {
        &self.paths[version][i]
    }

    pub fn bytes(&self, version: usize, i: usize) -> Vec<u8> {
        std::fs::read(self.path(version, i)).expect("dev chain file is readable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_churn_coin_is_deterministic_per_seed() {
        let picks =
            |seed: u64| -> Vec<usize> { (0..4000).filter(|&i| churns(seed, 3, i, 3.0)).collect() };
        assert_eq!(picks(2016), picks(2016), "same seed, same churn");
        assert_ne!(picks(2016), picks(2017), "the seed moves the churn");
        for seed in [1, 2016, 99_999] {
            let n = picks(seed).len();
            assert!((80..=160).contains(&n), "~3% of 4000 apps churn, got {n}");
        }
    }

    #[test]
    fn the_churn_coin_differs_per_wave() {
        let wave =
            |w: usize| -> Vec<usize> { (0..2000).filter(|&i| churns(7, w, i, 3.0)).collect() };
        assert_ne!(wave(1), wave(2));
        assert!((0..100).all(|i| !churns(7, 1, i, 0.0)), "0% never churns");
        assert!(
            (0..100).all(|i| churns(7, 1, i, 100.0)),
            "100% always churns"
        );
    }
}
