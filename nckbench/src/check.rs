//! Correctness checks: every number the benchmark prints rests on the
//! program's outputs matching a cache-disabled in-process analysis of
//! the same bytes.

use nchecker::{AppReport, NChecker};

/// One report per input, for every `SAMPLE_EVERY`-th input of a batch
/// (rotated per batch), is byte-compared against the reference.
pub const SAMPLE_EVERY: usize = 32;

/// Whether input `i` of batch `batch` is sampled for a byte comparison.
pub fn sampled(i: usize, batch: usize) -> bool {
    (i + batch).is_multiple_of(SAMPLE_EVERY)
}

/// Splits `nchecker vet` stdout into its reports. Each report is one
/// pretty-printed JSON object, so it ends at the first line that is a
/// lone `}` at column 0; the returned slices keep their trailing newline
/// so they compare byte-for-byte with a rendered report. Text after the
/// last closing line (a truncated report) is returned as the tail.
pub fn split_reports(stdout: &str) -> (Vec<&str>, &str) {
    let mut reports = Vec::new();
    let mut start = 0;
    let mut pos = 0;
    for line in stdout.split_inclusive('\n') {
        pos += line.len();
        if line == "}\n" {
            reports.push(&stdout[start..pos]);
            start = pos;
        }
    }
    (reports, &stdout[start..])
}

/// The exact bytes the one-shot CLI prints for a report under `--json`
/// (and the daemon serves on `report`): pretty JSON plus a newline.
pub fn render(report: &AppReport) -> String {
    let mut text = serde_json::to_string_pretty(&nchecker::app_report_to_json(report))
        .expect("report serializes");
    text.push('\n');
    text
}

/// The cache-disabled reference: a plain checker, no store, no reuse.
pub struct Reference {
    checker: NChecker,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            checker: NChecker::new(),
        }
    }

    /// The reference report for `bytes`.
    pub fn report(&self, bytes: &[u8]) -> Result<AppReport, String> {
        self.checker
            .analyze_bytes_checked(bytes)
            .map_err(|e| e.to_string())
    }

    /// The reference rendering for `bytes`.
    pub fn rendered(&self, bytes: &[u8]) -> Result<String, String> {
        self.report(bytes).map(|r| render(&r))
    }

    /// The delta the service must report when the bundle under `key`
    /// goes from `prev` to `new` (bytes that differ): `diff_reports`
    /// over the reference reports, in its JSON export shape.
    pub fn delta(&self, key: &str, prev: &[u8], new: &[u8]) -> Result<serde_json::Value, String> {
        let (before, after) = (self.report(prev)?, self.report(new)?);
        let (prev_fp, new_fp) = (nck_dex::wire::fnv1a(prev), nck_dex::wire::fnv1a(new));
        Ok(nck_svc::diff_reports(key, prev_fp, new_fp, &before, &after).to_json())
    }
}

/// Tally of checks made and mismatches found.
#[derive(Debug, Default)]
pub struct Verdicts {
    pub verified: usize,
    pub mismatches: Vec<String>,
}

impl Verdicts {
    /// Records one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.verified += 1;
        } else {
            self.mismatches.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_split_on_top_level_closing_lines() {
        let out = "{\n  \"a\": {\n    \"b\": 1\n  }\n}\n{\n  \"c\": []\n}\n";
        let (reports, tail) = split_reports(out);
        assert_eq!(
            reports,
            vec![
                "{\n  \"a\": {\n    \"b\": 1\n  }\n}\n",
                "{\n  \"c\": []\n}\n"
            ]
        );
        assert_eq!(tail, "");
        assert_eq!(reports.concat(), out);
    }

    #[test]
    fn a_truncated_report_is_left_in_the_tail() {
        let (reports, tail) = split_reports("{\n}\n{\n  \"x\": 1\n");
        assert_eq!(reports, vec!["{\n}\n"]);
        assert_eq!(tail, "{\n  \"x\": 1\n");
        assert_eq!(split_reports(""), (vec![], ""));
    }

    #[test]
    fn indented_or_unterminated_braces_do_not_split() {
        // A nested "}" is indented; a final "}" without newline is not a
        // complete line of vet output.
        let (reports, tail) = split_reports("{\n  }\n}");
        assert!(reports.is_empty());
        assert_eq!(tail, "{\n  }\n}");
    }

    #[test]
    fn sampling_rotates_per_batch() {
        let picked = |batch| (0..64).filter(|&i| sampled(i, batch)).collect::<Vec<_>>();
        assert_eq!(picked(0), vec![0, 32]);
        assert_eq!(picked(1), vec![31, 63]);
        assert_ne!(picked(0), picked(5));
    }
}
