//! Generates synthetic APK bundles and writes them to disk, so shell
//! scripts (CI smoke tests, manual `nchecker` runs) can produce inputs
//! without linking against the generator.
//!
//! ```text
//! genapp [--clean-frac F] <gpslogger|suite:N|corpus:SEED:INDEX|cleancorpus:SEED:INDEX|helpermix:SEED:INDEX> <out.apk>
//! genapp corpus --seed S --count N [--clean-frac F] [--shards K] [--version V] <outdir>
//! ```
//!
//! The `corpus` mode streams a store-scale corpus straight to a sharded
//! directory tree (`outdir/shard-XX/appNNNNNN.apk`), one bundle at a
//! time — corpus size never shows up as memory. `--version V` writes
//! version `V` of every app under the *same* file names, which is how a
//! vetting pipeline simulates a store-wide resubmission wave.

use std::process::ExitCode;

/// Apps in a `cleancorpus:` mix (the full 285-app defect corpus is
/// still reachable through `corpus:`; the mixed corpus exists to
/// exercise the prescan fast path, where size matters less than mix).
const CLEAN_CORPUS_SIZE: usize = 100;

fn usage() -> ExitCode {
    eprintln!(
        "usage: genapp [--clean-frac F] \
         <gpslogger|suite:N|corpus:SEED:INDEX|cleancorpus:SEED:INDEX|helpermix:SEED:INDEX> \
         <out.apk>\n\
         \x20      genapp corpus --seed S --count N [--clean-frac F] [--shards K] \
         [--version V] <outdir>"
    );
    eprintln!();
    eprintln!("  gpslogger             the GPSLogger study app");
    eprintln!("  suite:N               app N of the interprocedural suite");
    eprintln!("  corpus:SEED:IDX       app IDX of the seeded evaluation corpus");
    eprintln!("  cleancorpus:SEED:IDX  app IDX of a 100-app mix of no-network and");
    eprintln!("                        defect-corpus apps (see --clean-frac)");
    eprintln!("  helpermix:SEED:IDX    app IDX of a 60-app mix of corpus apps whose");
    eprintln!("                        practices go through app helper methods");
    eprintln!("  --clean-frac F        no-network fraction of the mix, in [0, 1]");
    eprintln!("                        (default 0.7; corpus mode default 0.5)");
    eprintln!();
    eprintln!("corpus mode (streams a store-scale corpus to a sharded tree):");
    eprintln!("  --seed S              stream seed (required)");
    eprintln!("  --count N             apps to write (required)");
    eprintln!("  --shards K            shard directories (default 16)");
    eprintln!("  --version V           write version V of every app (default 0);");
    eprintln!("                        same file names, evolved content");
    ExitCode::from(2)
}

fn spec_for(what: &str, clean_frac: f64) -> Option<nck_appgen::AppSpec> {
    if what == "gpslogger" {
        return Some(nck_appgen::studyapps::gpslogger());
    }
    if let Some(n) = what.strip_prefix("suite:") {
        let n: usize = n.parse().ok()?;
        return nck_appgen::interproc_suite::interproc_apps()
            .into_iter()
            .nth(n);
    }
    if let Some(rest) = what.strip_prefix("corpus:") {
        let (seed, idx) = rest.split_once(':')?;
        let seed: u64 = seed.parse().ok()?;
        let idx: usize = idx.parse().ok()?;
        return nck_appgen::profile::corpus(seed).into_iter().nth(idx);
    }
    if let Some(rest) = what.strip_prefix("cleancorpus:") {
        let (seed, idx) = rest.split_once(':')?;
        let seed: u64 = seed.parse().ok()?;
        let idx: usize = idx.parse().ok()?;
        return nck_appgen::profile::clean_corpus(seed, CLEAN_CORPUS_SIZE, clean_frac)
            .into_iter()
            .nth(idx);
    }
    if let Some(rest) = what.strip_prefix("helpermix:") {
        let (seed, idx) = rest.split_once(':')?;
        let seed: u64 = seed.parse().ok()?;
        let idx: usize = idx.parse().ok()?;
        let size = nck_appgen::interproc_suite::HELPER_MIX_SIZE;
        return nck_appgen::interproc_suite::helper_mix(seed, size)
            .into_iter()
            .nth(idx);
    }
    None
}

/// The `genapp corpus` mode: stream `count` apps into a sharded tree.
fn corpus_main(args: &[String]) -> ExitCode {
    let mut seed: Option<u64> = None;
    let mut count: Option<usize> = None;
    let mut clean_frac = 0.5f64;
    let mut shards = 16usize;
    let mut version = 0u32;
    let mut outdir: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next();
        match a.as_str() {
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => seed = Some(v),
                None => return usage(),
            },
            "--count" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => count = Some(v),
                None => return usage(),
            },
            "--clean-frac" => match value().and_then(|v| v.parse().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => clean_frac = f,
                _ => return usage(),
            },
            "--shards" => match value().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => shards = v,
                _ => return usage(),
            },
            "--version" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => version = v,
                None => return usage(),
            },
            s if s.starts_with('-') => return usage(),
            _ if outdir.is_none() => outdir = Some(a),
            _ => return usage(),
        }
    }
    let (Some(seed), Some(count), Some(outdir)) = (seed, count, outdir) else {
        return usage();
    };

    let options = nck_appgen::StreamOptions {
        clean_frac,
        ..nck_appgen::StreamOptions::default()
    };
    let stream = nck_appgen::CorpusStream::with_options(seed, count, options);
    let root = std::path::Path::new(outdir);
    let mut bytes_written = 0u64;
    for i in 0..count {
        let spec = stream.version_at(i, version);
        let apk = nck_appgen::generate(&spec);
        let path = nck_appgen::stream::sharded_path(root, shards, i);
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("{}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = apk.save(&path) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        bytes_written += apk.to_bytes().len() as u64;
        if (i + 1) % 1000 == 0 {
            eprintln!("corpus: {}/{count} bundles written", i + 1);
        }
    }
    eprintln!(
        "wrote {count} bundles (version {version}, {shards} shards, {bytes_written} bytes) \
         under {outdir}"
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("corpus") {
        return corpus_main(&args[1..]);
    }
    let mut clean_frac = 0.7f64;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--clean-frac" {
            let Some(f) = it.next().and_then(|v| v.parse().ok()) else {
                return usage();
            };
            if !(0.0..=1.0).contains(&f) {
                return usage();
            }
            clean_frac = f;
        } else {
            positional.push(a);
        }
    }
    let [what, out] = positional.as_slice() else {
        return usage();
    };
    let Some(spec) = spec_for(what, clean_frac) else {
        return usage();
    };
    let apk = nck_appgen::generate(&spec);
    if let Err(e) = apk.save(std::path::Path::new(out)) {
        eprintln!("{out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out} ({})", spec.package);
    ExitCode::SUCCESS
}
