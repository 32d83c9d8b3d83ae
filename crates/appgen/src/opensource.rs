//! The 16 "open-source" apps of the accuracy evaluation (Table 9).
//!
//! The paper verified NChecker's output by hand against 16 open-source
//! apps: 130 correct warnings, 9 false positives (4 connectivity from
//! inter-component checks, 5 notifications from broadcast-then-display),
//! and 5 known false negatives (connectivity APIs called but unused as
//! control conditions). These specs are engineered so the checker's
//! output on the generated binaries reproduces exactly those counts,
//! with the FP/FN coming from the same idioms the paper blames.

use crate::spec::{AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::Library;

fn volley_user(conn: ConnCheck, retries: Option<u32>, notify: Notification) -> RequestSpec {
    let mut r = RequestSpec::new(Library::Volley, Origin::UserClick);
    r.conn_check = conn;
    r.set_retries = retries;
    r.set_timeout = retries.is_some(); // Volley couples both.
    r.notification = notify;
    r.check_error_types = true; // Keep Table 9 free of error-type warnings.
    r
}

fn native(origin: Origin, conn: ConnCheck, notify: Notification) -> RequestSpec {
    let mut r = RequestSpec::new(Library::HttpUrlConnection, origin);
    r.conn_check = conn;
    r.notification = notify;
    r
}

/// Builds the 16 apps, named after the paper's open-source study apps.
pub fn open_source_apps() -> Vec<AppSpec> {
    use ConnCheck::{Guarding, InterComponent, Missing, UnusedResult};
    use Notification::Alert;

    let mut apps = Vec::new();

    // chatsecure: Volley; 3 conn, 3 timeout, 3 retry, 2 notification.
    apps.push(AppSpec::new(
        "org.chatsecure",
        vec![
            volley_user(Missing, None, Notification::Missing),
            volley_user(Missing, None, Notification::Missing),
            volley_user(Missing, None, Alert),
            volley_user(Guarding, Some(2), Alert),
        ],
    ));

    // yaxim: Volley; 2 conn, 3 timeout, 3 retry, 2 notification.
    apps.push(AppSpec::new(
        "org.yaxim",
        vec![
            volley_user(Missing, None, Notification::Missing),
            volley_user(Missing, None, Notification::Missing),
            volley_user(Guarding, None, Alert),
        ],
    ));

    // kontalk: Async HTTP; 2 conn, 2 timeout, 2 retry, 2 over-retry,
    // 1 notification.
    apps.push(AppSpec::new("org.kontalk", {
        let mut svc = RequestSpec::new(Library::AndroidAsyncHttp, Origin::Service);
        svc.conn_check = Missing; // Over-retry via the 5-retry default.
        let mut post = RequestSpec::new(Library::AndroidAsyncHttp, Origin::UserClick);
        post.conn_check = Missing;
        post.http_method = HttpMethod::Post;
        post.notification = Notification::Missing;
        let mut good = RequestSpec::new(Library::AndroidAsyncHttp, Origin::UserClick);
        good.conn_check = Guarding;
        good.set_timeout = true;
        good.set_retries = Some(2);
        good.notification = Alert;
        vec![svc, post, good]
    }));

    // bombusmod: Volley; 2 conn, 2 timeout, 2 retry, 2 over-retry,
    // 1 notification.
    apps.push(AppSpec::new("org.bombusmod", {
        let mut svc = volley_user(Missing, None, Alert);
        svc.origin = Origin::Service;
        let mut post = volley_user(Missing, None, Notification::Missing);
        post.http_method = HttpMethod::Post;
        vec![svc, post]
    }));

    // gtalksms: Basic HTTP; 2 conn, 2 timeout, 2 retry, 1 notification.
    apps.push(AppSpec::new("org.gtalksms", {
        let mut a = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        a.conn_check = Missing;
        a.notification = Notification::Missing;
        let mut b = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        b.conn_check = Missing;
        b.notification = Alert;
        vec![a, b]
    }));

    // signal: the 5 known FNs — connectivity checked but unused as a
    // control condition; 5 timeout, 2 notification.
    apps.push(AppSpec::new(
        "org.signal",
        vec![
            native(Origin::UserClick, UnusedResult, Notification::Missing),
            native(Origin::UserClick, UnusedResult, Notification::Missing),
            native(Origin::UserClick, UnusedResult, Alert),
            native(Origin::ActivityLifecycle, UnusedResult, Alert),
            native(Origin::Service, UnusedResult, Alert),
        ],
    ));

    // owncloud + wordpress: the 4 connectivity FPs — the check lives in
    // another component; 2 timeout each.
    apps.push(AppSpec::new(
        "org.owncloud",
        vec![
            native(Origin::UserClick, InterComponent, Alert),
            native(Origin::UserClick, InterComponent, Alert),
        ],
    ));
    apps.push(AppSpec::new(
        "org.wordpress",
        vec![
            native(Origin::UserClick, InterComponent, Alert),
            native(Origin::UserClick, InterComponent, Alert),
        ],
    ));

    // hackernews: the 5 notification FPs — the error is broadcast and
    // displayed in another activity; 5 timeout.
    apps.push(AppSpec::new(
        "org.hackernews",
        vec![
            native(Origin::UserClick, Guarding, Notification::InterComponent),
            native(Origin::UserClick, Guarding, Notification::InterComponent),
            native(Origin::UserClick, Guarding, Notification::InterComponent),
            native(Origin::UserClick, Guarding, Notification::InterComponent),
            native(Origin::UserClick, Guarding, Notification::InterComponent),
        ],
    ));

    // xbmc: OkHttp; 5 conn, 5 timeout, 5 response, 5 notification.
    apps.push(AppSpec::new("org.xbmc", {
        (0..5)
            .map(|_| {
                let mut r = RequestSpec::new(Library::OkHttp, Origin::UserClick);
                r.conn_check = Missing;
                r.notification = Notification::Missing;
                r.response = RespCheck::Unchecked;
                r
            })
            .collect()
    }));

    // Six native apps filling the remaining counts:
    // firefox/telegram/k9: 3 conn, 5 timeout, 1 notification each;
    // sipdroid/connectbot/nprnews: 2 conn, 4 timeout, 1 notification each.
    for name in ["org.firefox", "org.telegram", "org.k9"] {
        apps.push(AppSpec::new(
            name,
            vec![
                native(Origin::UserClick, Missing, Notification::Missing),
                native(Origin::UserClick, Missing, Alert),
                native(Origin::ActivityLifecycle, Missing, Alert),
                native(Origin::UserClick, Guarding, Alert),
                native(Origin::Service, Guarding, Alert),
            ],
        ));
    }
    for name in ["org.sipdroid", "org.connectbot", "org.nprnews"] {
        apps.push(AppSpec::new(
            name,
            vec![
                native(Origin::UserClick, Missing, Notification::Missing),
                native(Origin::UserClick, Missing, Alert),
                native(Origin::UserClick, Guarding, Alert),
                native(Origin::Service, Guarding, Alert),
            ],
        ));
    }

    apps
}

/// Defect categories as rows of Table 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Table9Row {
    /// Missed connectivity checks.
    Conn,
    /// Missed timeout APIs.
    Timeout,
    /// Missed retry APIs.
    Retry,
    /// Over retries.
    OverRetry,
    /// Missed failure notifications.
    Notification,
    /// Missed response checks.
    Response,
}

impl Table9Row {
    /// Maps a defect kind to its Table 9 row, `None` for kinds the table
    /// does not cover.
    pub fn of(kind: nchecker::DefectKind) -> Option<Table9Row> {
        use nchecker::DefectKind as K;
        match kind {
            K::MissedConnectivityCheck => Some(Table9Row::Conn),
            K::MissedTimeout => Some(Table9Row::Timeout),
            K::MissedRetry => Some(Table9Row::Retry),
            K::OverRetry { .. } | K::NoRetryInActivity => Some(Table9Row::OverRetry),
            K::MissedFailureNotification => Some(Table9Row::Notification),
            K::MissedResponseCheck => Some(Table9Row::Response),
            K::NoErrorTypeCheck => None,
        }
    }

    /// The row label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Table9Row::Conn => "Missed conn. checks",
            Table9Row::Timeout => "Missed timeout APIs",
            Table9Row::Retry => "Missed retry APIs",
            Table9Row::OverRetry => "Over retries",
            Table9Row::Notification => "Missed failure notifications",
            Table9Row::Response => "Missed response checks",
        }
    }

    /// All rows in table order.
    pub const ALL: [Table9Row; 6] = [
        Table9Row::Conn,
        Table9Row::Timeout,
        Table9Row::Retry,
        Table9Row::OverRetry,
        Table9Row::Notification,
        Table9Row::Response,
    ];
}

/// Accuracy tally per row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accuracy {
    /// Correct warnings (true positives).
    pub correct: usize,
    /// False positives.
    pub fp: usize,
    /// Known false negatives.
    pub known_fn: usize,
}

/// Runs the checker over the 16 apps under `config` and tallies
/// accuracy against the specs' oracles. Table 9 uses the paper's
/// default configuration; the ICC, strict-connectivity and
/// summary-engine ablations pass their own.
pub fn evaluate_accuracy(
    config: nchecker::CheckerConfig,
) -> std::collections::BTreeMap<Table9Row, Accuracy> {
    tally_accuracy(&open_source_apps(), config)
}

/// Tallies per-row accuracy of the checker under `config` over `specs`,
/// scoring each app's report against its oracle.
pub fn tally_accuracy(
    specs: &[AppSpec],
    config: nchecker::CheckerConfig,
) -> std::collections::BTreeMap<Table9Row, Accuracy> {
    use std::collections::BTreeMap;
    let checker = nchecker::NChecker::with_config(config);
    let mut table: BTreeMap<Table9Row, Accuracy> = Table9Row::ALL
        .iter()
        .map(|&r| (r, Accuracy::default()))
        .collect();

    for spec in specs {
        let apk = crate::gen::generate(spec);
        let report = checker.analyze_apk(&apk).expect("analyzable app");
        let mut reported: BTreeMap<Table9Row, usize> = BTreeMap::new();
        for d in &report.defects {
            if let Some(row) = Table9Row::of(d.kind) {
                *reported.entry(row).or_default() += 1;
            }
        }
        let mut oracle: BTreeMap<Table9Row, usize> = BTreeMap::new();
        for k in spec.oracle() {
            if let Some(row) = Table9Row::of(k) {
                *oracle.entry(row).or_default() += 1;
            }
        }
        for &row in &Table9Row::ALL {
            let r = reported.get(&row).copied().unwrap_or(0);
            let o = oracle.get(&row).copied().unwrap_or(0);
            let tp = r.min(o);
            let acc = table.get_mut(&row).expect("row present");
            acc.correct += tp;
            acc.fp += r - tp;
            acc.known_fn += o - tp;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_apps() {
        assert_eq!(open_source_apps().len(), 16);
    }

    #[test]
    fn accuracy_matches_table9() {
        let table = evaluate_accuracy(nchecker::CheckerConfig::default());
        let get = |r: Table9Row| table[&r];
        assert_eq!(
            get(Table9Row::Conn),
            Accuracy {
                correct: 31,
                fp: 4,
                known_fn: 5
            },
            "connectivity row"
        );
        assert_eq!(
            get(Table9Row::Timeout),
            Accuracy {
                correct: 58,
                fp: 0,
                known_fn: 0
            },
            "timeout row"
        );
        assert_eq!(
            get(Table9Row::Retry),
            Accuracy {
                correct: 12,
                fp: 0,
                known_fn: 0
            },
            "retry row"
        );
        assert_eq!(
            get(Table9Row::OverRetry),
            Accuracy {
                correct: 4,
                fp: 0,
                known_fn: 0
            },
            "over-retry row"
        );
        assert_eq!(
            get(Table9Row::Notification),
            Accuracy {
                correct: 20,
                fp: 5,
                known_fn: 0
            },
            "notification row"
        );
        assert_eq!(
            get(Table9Row::Response),
            Accuracy {
                correct: 5,
                fp: 0,
                known_fn: 0
            },
            "response row"
        );
        let total: (usize, usize, usize) = table.values().fold((0, 0, 0), |(c, f, n), a| {
            (c + a.correct, f + a.fp, n + a.known_fn)
        });
        assert_eq!(total, (130, 9, 5), "Table 9 totals");
        // Accuracy: 130 / (130 + 9) ≈ 93.5% — the paper's "94+%" rounds
        // from the same ratio.
        let acc = 130.0 / 139.0;
        assert!(acc > 0.93);
    }
}
