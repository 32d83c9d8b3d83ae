//! Process accounting and host facts, read straight from the kernel.
//!
//! CPU and peak memory of the program come from `getrusage`
//! (`RUSAGE_CHILDREN`: every reaped descendant, so a `vet` run counts
//! its worker processes too) and, for the long-lived `serve` child,
//! from `/proc/<pid>`. Nothing here needs a crate beyond `std`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    // `struct rusage` on 64-bit Linux is 18 machine words: two `timeval`s
    // (user, system) followed by fourteen `long` counters, `ru_maxrss`
    // first.
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Accumulated usage of every reaped descendant of this process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU time, microseconds.
    pub cpu_us: u64,
    /// Largest resident set of any single reaped descendant, KiB.
    pub maxrss_kib: u64,
}

/// `getrusage(RUSAGE_CHILDREN)`. Only children that were waited for
/// count, so read it after `wait` returns.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_usage() -> Usage {
    let mut words = [0i64; 18];
    // SAFETY: `words` is a live, writable buffer of exactly the size and
    // alignment of `struct rusage` on 64-bit Linux, and `getrusage` only
    // writes into the buffer it is given.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut words) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) cannot fail");
    let us = |sec: i64, usec: i64| (sec.max(0) as u64) * 1_000_000 + usec.max(0) as u64;
    Usage {
        cpu_us: us(words[0], words[1]) + us(words[2], words[3]),
        maxrss_kib: words[4].max(0) as u64,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_usage() -> Usage {
    Usage::default()
}

/// CPU time (user + system, all threads, live or exited) of a running
/// process, in milliseconds. `/proc` reports it in USER_HZ ticks, which
/// Linux fixes at 100 per second.
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; every later field
    // follows the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Peak resident set (`VmHWM`) of a running process, in MiB.
pub fn proc_peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// The commit checked out under `root`, read from `.git` without running
/// git; `"unknown"` outside a repository (a plain source export).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The `nchecker` binary beside this executable (both are built into the
/// same target directory).
pub fn nchecker_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot resolve own executable: {e}"))?;
    let exe = me.with_file_name("nchecker");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} is missing: build it first with \
             `cargo build --release -p nck-svc --bin nchecker` into the same target directory",
            exe.display()
        ))
    }
}

/// A spawned program process that is killed and reaped if it is still
/// running when the guard drops, so no error path leaks a process.
pub struct ChildGuard(pub Option<Child>);

impl ChildGuard {
    /// Spawns `cmd` with stdin/stdout piped and stderr discarded.
    pub fn spawn_piped(cmd: &mut Command) -> std::io::Result<ChildGuard> {
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map(|c| ChildGuard(Some(c)))
    }

    /// The child, while it has not been reaped.
    pub fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child not yet reaped")
    }

    /// Waits for the child to exit on its own.
    pub fn wait(mut self) -> std::io::Result<std::process::ExitStatus> {
        let mut child = self.0.take().expect("child not yet reaped");
        child.wait()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
