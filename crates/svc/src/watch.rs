//! Directory watching for `nchecker serve --watch DIR`.
//!
//! No inotify (no new dependencies): a [`Watcher`] polls the directory
//! and reports bundles whose *content* changed. The cheap gate is
//! `(mtime, len)` — unchanged metadata skips the read entirely — and
//! the authoritative gate is a content fingerprint, so a `touch` or an
//! in-place rewrite of identical bytes never triggers a re-analysis.
//!
//! The returned key is the file path, which is exactly what makes a
//! re-submitted bundle an edit of a known app: same key, new bytes → a
//! fresh analysis plus a defect delta against the previous version.
//!
//! Deletion is a first-class event: a bundle that vanishes between
//! polls is dropped from the watcher's signature map and reported in
//! [`Poll::removed`], so the daemon can retire its state. Without this,
//! a delete-then-recreate of *identical bytes* would be silently
//! swallowed (the old signature still matches) and long-running watch
//! sessions would leak one map entry per deleted file.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Bundle file extensions the watcher picks up.
const BUNDLE_EXTENSIONS: [&str; 2] = ["apk", "adx"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileSig {
    mtime: Option<SystemTime>,
    len: u64,
    content_fp: u64,
}

/// One [`Watcher::poll`]'s worth of events.
#[derive(Debug, Default)]
pub struct Poll {
    /// `(key, bytes)` for every new or content-changed bundle, sorted
    /// by path.
    pub changed: Vec<(String, Vec<u8>)>,
    /// Keys of previously seen bundles whose file is gone, sorted.
    pub removed: Vec<String>,
}

/// A polling directory watcher over app bundles.
pub struct Watcher {
    dir: PathBuf,
    seen: BTreeMap<PathBuf, FileSig>,
}

impl Watcher {
    /// Watches `dir`. The first [`Watcher::poll`] reports every bundle
    /// present (a daemon starting over a populated directory analyzes
    /// the backlog).
    pub fn new(dir: impl Into<PathBuf>) -> Watcher {
        Watcher {
            dir: dir.into(),
            seen: BTreeMap::new(),
        }
    }

    /// The watched directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Scans once; reports content changes and deletions. Files that
    /// vanish mid-scan are skipped this round (they surface as
    /// [`Poll::removed`] on the next one), not errors.
    pub fn poll(&mut self) -> io::Result<Poll> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                let ext = path.extension()?.to_str()?;
                (path.is_file() && BUNDLE_EXTENSIONS.contains(&ext)).then_some(path)
            })
            .collect();
        paths.sort();

        let mut out = Poll::default();

        // Retire signatures of files the scan no longer sees. `seen` and
        // `paths` are both sorted, so the difference is one merge walk.
        let present: std::collections::BTreeSet<&PathBuf> = paths.iter().collect();
        let gone: Vec<PathBuf> = self
            .seen
            .keys()
            .filter(|p| !present.contains(p))
            .cloned()
            .collect();
        for path in gone {
            self.seen.remove(&path);
            out.removed.push(path.to_string_lossy().into_owned());
        }

        for path in paths {
            let Ok(meta) = std::fs::metadata(&path) else {
                continue;
            };
            let mtime = meta.modified().ok();
            let len = meta.len();
            if self
                .seen
                .get(&path)
                .is_some_and(|sig| sig.mtime == mtime && sig.len == len)
            {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let content_fp = nck_dex::wire::fnv1a(&bytes);
            let same_content = self
                .seen
                .get(&path)
                .is_some_and(|sig| sig.content_fp == content_fp);
            self.seen.insert(
                path.clone(),
                FileSig {
                    mtime,
                    len,
                    content_fp,
                },
            );
            if !same_content {
                out.changed
                    .push((path.to_string_lossy().into_owned(), bytes));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nck-watch-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn first_poll_reports_the_backlog_sorted() {
        let dir = tmpdir("backlog");
        std::fs::write(dir.join("b.apk"), b"bbb").unwrap();
        std::fs::write(dir.join("a.adx"), b"aaa").unwrap();
        std::fs::write(dir.join("ignore.txt"), b"no").unwrap();
        let mut w = Watcher::new(&dir);
        let poll = w.poll().unwrap();
        let keys: Vec<&str> = poll.changed.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                dir.join("a.adx").to_str().unwrap(),
                dir.join("b.apk").to_str().unwrap(),
            ]
        );
        assert!(poll.removed.is_empty());
        // Steady state: nothing changed, nothing reported.
        let poll = w.poll().unwrap();
        assert!(poll.changed.is_empty());
        assert!(poll.removed.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn touch_without_content_change_is_ignored() {
        let dir = tmpdir("touch");
        let file = dir.join("app.apk");
        std::fs::write(&file, b"same bytes").unwrap();
        let mut w = Watcher::new(&dir);
        assert_eq!(w.poll().unwrap().changed.len(), 1);
        // Rewrite identical bytes: mtime moves, content does not.
        std::fs::write(&file, b"same bytes").unwrap();
        assert!(w.poll().unwrap().changed.is_empty());
        // A real edit is reported.
        std::fs::write(&file, b"new bytes!").unwrap();
        let poll = w.poll().unwrap();
        assert_eq!(poll.changed.len(), 1);
        assert_eq!(poll.changed[0].1, b"new bytes!");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_files_are_retired_not_leaked() {
        let dir = tmpdir("retire");
        let file = dir.join("app.apk");
        std::fs::write(&file, b"v1 bytes").unwrap();
        let mut w = Watcher::new(&dir);
        assert_eq!(w.poll().unwrap().changed.len(), 1);

        std::fs::remove_file(&file).unwrap();
        let poll = w.poll().unwrap();
        assert!(poll.changed.is_empty());
        assert_eq!(poll.removed, vec![file.to_string_lossy().into_owned()]);
        assert!(w.seen.is_empty(), "signature map must not leak");
        // Removal is reported once, not every poll.
        assert!(w.poll().unwrap().removed.is_empty());

        // Recreating the file with the *same* bytes is a fresh arrival —
        // before retirement this was swallowed by the stale signature.
        std::fs::write(&file, b"v1 bytes").unwrap();
        let poll = w.poll().unwrap();
        assert_eq!(poll.changed.len(), 1, "recreated file must re-analyze");
        assert_eq!(poll.changed[0].1, b"v1 bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
