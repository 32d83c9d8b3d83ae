//! The calibrated 285-app evaluation corpus (§5.1, Table 7).
//!
//! Library usage counts are fixed exactly to Table 7 (native 270,
//! Volley 78, Async 25, Basic 18, OkHttp 11); per-app defect flags are
//! assigned with exact counts matching the paper's aggregate rates
//! (Tables 6 and 8), and per-request miss fractions are drawn from a
//! seeded RNG so Figures 8 and 9 get non-degenerate CDFs.

use crate::spec::{AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck, RetryShape};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::Library;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Number of apps in the corpus.
pub const CORPUS_SIZE: usize = 285;

/// The behavioural flags of one corpus app.
#[derive(Debug, Clone, Default)]
struct Flags {
    libs: Vec<Library>,
    never_conn: bool,
    never_timeout: bool,
    never_retry: bool,
    never_notify: bool,
    service_only: bool,
    clean: bool,
    /// Designated: a user request with retries explicitly 0.
    no_retry_activity: bool,
    /// Designated: a Service request over a retry lib (default retries).
    over_retry_service_default: bool,
    /// Designated: a Service request configured with retries > 0.
    over_retry_service_explicit: bool,
    /// Designated: a POST over Volley/Async with default retries.
    over_retry_post_default: bool,
    /// Designated: a POST configured with retries > 0.
    over_retry_post_explicit: bool,
    /// Response-capable app with at least one unchecked response.
    resp_buggy: bool,
    /// Whether this app's Volley callbacks consult error types.
    check_error_types: bool,
    custom_retry: Option<RetryShape>,
}

fn pick(rng: &mut StdRng, from: &[usize], k: usize) -> BTreeSet<usize> {
    let mut v = from.to_vec();
    v.shuffle(rng);
    v.into_iter().take(k).collect()
}

/// Skewed miss fraction: pushes mass above 0.5 so that ~60% of partial
/// apps miss more than half of their requests (Figures 8 and 9).
fn miss_fraction(rng: &mut StdRng) -> f64 {
    rng.gen::<f64>().powf(0.65)
}

fn assign_flags(seed: u64) -> Vec<Flags> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flags = vec![Flags::default(); CORPUS_SIZE];

    // --- Table 7: exact library ranges. ---
    for (i, f) in flags.iter_mut().enumerate() {
        if i < 78 {
            f.libs.push(Library::Volley);
        }
        if (10..35).contains(&i) {
            f.libs.push(Library::AndroidAsyncHttp);
        }
        if (73..91).contains(&i) {
            f.libs.push(Library::BasicHttpClient);
        }
        if (91..102).contains(&i) {
            f.libs.push(Library::OkHttp);
        }
        if (102..111).contains(&i) {
            f.libs.push(Library::ApacheHttpClient);
        }
        if (15..CORPUS_SIZE).contains(&i) && !(102..111).contains(&i) {
            f.libs.push(Library::HttpUrlConnection);
        }
    }

    // --- Clean apps: the 4 of 285 with no NPDs (§5.2). ---
    for f in flags.iter_mut().take(CORPUS_SIZE).skip(281) {
        f.clean = true;
    }

    // --- Service-only apps: 285 - 264 = 21 with no user requests. ---
    for f in flags.iter_mut().take(261).skip(240) {
        f.service_only = true;
    }

    let non_clean: Vec<usize> = (0..281).collect();
    let retry_zone: Vec<usize> = (0..91).collect();
    let non_retry_zone: Vec<usize> = (91..281).collect();

    // --- Table 6 row 1: 122 apps never check connectivity. ---
    for i in pick(&mut rng, &non_clean, 122) {
        flags[i].never_conn = true;
    }

    // --- Rows 2-3: timeouts and retries. In the retry zone the two are
    // coupled (Volley carries both in one policy object): exactly 64
    // retry-zone apps never set either; 75 more never-timeout apps come
    // from outside the zone (64 + 75 = 139). ---
    let never_retry = pick(&mut rng, &retry_zone, 64);
    for &i in &never_retry {
        flags[i].never_retry = true;
        flags[i].never_timeout = true;
    }
    for i in pick(&mut rng, &non_retry_zone, 75) {
        flags[i].never_timeout = true;
    }

    // --- Table 8: retry parameter misuse over the 91 retry-zone apps.
    // Designated sets live inside 0..78 (Volley) so POSTs go through a
    // default-retries-POST library. ---
    let never_retry_volley: Vec<usize> = never_retry.iter().copied().filter(|&i| i < 78).collect();
    let configuring: Vec<usize> = retry_zone
        .iter()
        .copied()
        .filter(|i| !never_retry.contains(i))
        .collect();
    // 29 service over-retries: 22 default (76%) + 7 explicit.
    let svc_default = pick(&mut rng, &never_retry_volley, 22);
    for &i in &svc_default {
        flags[i].over_retry_service_default = true;
    }
    let cfg_for_svc = pick(&mut rng, &configuring, 7);
    for &i in &cfg_for_svc {
        flags[i].over_retry_service_explicit = true;
    }
    // 23 POST over-retries: 22 default (~98%) + 1 explicit; 2 of the
    // default ones overlap the service set so the union is 50 (55%).
    let mut post_default_pool: Vec<usize> = never_retry_volley
        .iter()
        .copied()
        .filter(|i| !svc_default.contains(i))
        .collect();
    post_default_pool.shuffle(&mut rng);
    let mut post_default: BTreeSet<usize> = post_default_pool.into_iter().take(20).collect();
    post_default.extend(svc_default.iter().copied().take(2));
    for &i in &post_default {
        flags[i].over_retry_post_default = true;
    }
    let cfg_rest: Vec<usize> = configuring
        .iter()
        .copied()
        .filter(|i| !cfg_for_svc.contains(i))
        .collect();
    let cfg_for_post = pick(&mut rng, &cfg_rest, 1);
    for &i in &cfg_for_post {
        flags[i].over_retry_post_explicit = true;
    }
    // 7 apps (8%) disable retry for a user request.
    let cfg_rest2: Vec<usize> = cfg_rest
        .iter()
        .copied()
        .filter(|i| !cfg_for_post.contains(i))
        .collect();
    for i in pick(&mut rng, &cfg_rest2, 7) {
        flags[i].no_retry_activity = true;
    }

    // --- Row 5: 151 of the 264 user-request apps never notify. ---
    let user_apps: Vec<usize> = (0..281).filter(|i| !flags[*i].service_only).collect();
    for i in pick(&mut rng, &user_apps, 151) {
        flags[i].never_notify = true;
    }

    // --- Row 6: 15 of the 20 response-capable apps are buggy. ---
    let resp_apps: Vec<usize> = (91..111).collect();
    for i in pick(&mut rng, &resp_apps, 15) {
        flags[i].resp_buggy = true;
    }

    // --- §5.2.3: ~7% of Volley apps consult error types. ---
    let volley_apps: Vec<usize> = (0..78).collect();
    for i in pick(&mut rng, &volley_apps, 5) {
        flags[i].check_error_types = true;
    }

    // --- §5.2.1: 10% of apps implement customized retry loops, wrapped
    // around native/sync requests. ---
    let shapes = [
        RetryShape::SuccessExit,
        RetryShape::CatchCondition,
        RetryShape::InterprocCatchCondition,
    ];
    let native_pool: Vec<usize> = (111..240).collect();
    for (k, i) in pick(&mut rng, &native_pool, 28).into_iter().enumerate() {
        flags[i].custom_retry = Some(shapes[k % shapes.len()]);
    }

    flags
}

fn is_retry_lib(lib: Library) -> bool {
    lib.has_retry_api()
}

fn build_app(i: usize, f: &Flags, rng: &mut StdRng) -> AppSpec {
    let package = format!("com.corpus.app{i:03}");

    if f.clean {
        // Fully configured native app: zero defects.
        let mut reqs = Vec::new();
        for _ in 0..3 {
            let mut r = RequestSpec::new(Library::HttpUrlConnection, Origin::UserClick);
            r.conn_check = ConnCheck::Guarding;
            r.set_timeout = true;
            r.notification = Notification::Alert;
            reqs.push(r);
        }
        return AppSpec::new(&package, reqs);
    }

    let n = rng.gen_range(3..=9).max(f.libs.len());
    let mut reqs: Vec<RequestSpec> = Vec::with_capacity(n);
    for j in 0..n {
        let lib = f.libs[j % f.libs.len()];
        let origin = if f.service_only {
            Origin::Service
        } else {
            match j % 4 {
                0 | 1 => Origin::UserClick,
                2 => Origin::ActivityLifecycle,
                _ => {
                    // Retry-lib requests only go to a Service when the
                    // app is designated for a service over-retry;
                    // otherwise the slot falls back to a user request.
                    if is_retry_lib(lib)
                        && !f.over_retry_service_default
                        && !f.over_retry_service_explicit
                    {
                        Origin::UserClick
                    } else {
                        Origin::Service
                    }
                }
            }
        };
        reqs.push(RequestSpec::new(lib, origin));
    }

    // Make sure designated request shapes exist.
    if (f.over_retry_service_default || f.over_retry_service_explicit)
        && !reqs
            .iter()
            .any(|r| is_retry_lib(r.library) && r.origin == Origin::Service)
    {
        reqs.push(RequestSpec::new(Library::Volley, Origin::Service));
    }
    if f.over_retry_post_default || f.over_retry_post_explicit {
        let has_post = reqs.iter().any(|r| {
            matches!(r.library, Library::Volley | Library::AndroidAsyncHttp)
                && r.http_method == HttpMethod::Post
        });
        if !has_post {
            if let Some(r) = reqs.iter_mut().find(|r| {
                matches!(r.library, Library::Volley | Library::AndroidAsyncHttp)
                    && r.origin.is_user()
            }) {
                r.http_method = HttpMethod::Post;
            } else {
                let mut r = RequestSpec::new(Library::Volley, Origin::UserClick);
                r.http_method = HttpMethod::Post;
                reqs.push(r);
            }
        }
    }
    // POSTs on retry libraries only where designated; other apps get an
    // occasional POST through a POST-neutral library.
    for (j, r) in reqs.iter_mut().enumerate() {
        if j % 6 == 5
            && matches!(
                r.library,
                Library::HttpUrlConnection | Library::ApacheHttpClient
            )
        {
            r.http_method = HttpMethod::Post;
        }
        if r.http_method == HttpMethod::Post
            && matches!(r.library, Library::Volley | Library::AndroidAsyncHttp)
            && !(f.over_retry_post_default || f.over_retry_post_explicit)
        {
            r.http_method = HttpMethod::Get;
        }
    }

    // Connectivity checks.
    if f.never_conn {
        for r in &mut reqs {
            r.conn_check = ConnCheck::Missing;
        }
    } else {
        let m = miss_fraction(rng);
        let n_req = reqs.len();
        let missing = ((m * n_req as f64).round() as usize).min(n_req.saturating_sub(1));
        for (j, r) in reqs.iter_mut().enumerate() {
            r.conn_check = if j < missing {
                ConnCheck::Missing
            } else {
                ConnCheck::Guarding
            };
        }
    }

    // Timeouts and retries (coupled inside the retry zone).
    let retry_zone = i < 91;
    let configured_set: Vec<bool> =
        if (retry_zone && f.never_retry) || (!retry_zone && f.never_timeout) {
            vec![false; reqs.len()]
        } else {
            let m = miss_fraction(rng);
            let missing = ((m * reqs.len() as f64).round() as usize).min(reqs.len() - 1);
            (0..reqs.len()).map(|j| j >= missing).collect()
        };
    for (j, r) in reqs.iter_mut().enumerate() {
        let configured = configured_set[j];
        if is_retry_lib(r.library) {
            if configured {
                let count = match r.origin {
                    Origin::Service => {
                        if f.over_retry_service_explicit {
                            3
                        } else {
                            0
                        }
                    }
                    _ => {
                        if f.no_retry_activity {
                            0
                        } else {
                            2
                        }
                    }
                };
                r.set_retries = Some(count);
                r.set_timeout = true;
            }
        } else {
            r.set_timeout = configured;
        }
    }
    // Designated explicit over-retries must actually be configured.
    if f.over_retry_service_explicit {
        if let Some(r) = reqs
            .iter_mut()
            .find(|r| is_retry_lib(r.library) && r.origin == Origin::Service)
        {
            r.set_retries = Some(3);
            r.set_timeout = true;
        }
    }
    if f.over_retry_post_explicit {
        if let Some(r) = reqs.iter_mut().find(|r| {
            matches!(r.library, Library::Volley | Library::AndroidAsyncHttp)
                && r.http_method == HttpMethod::Post
        }) {
            r.set_retries = Some(2);
            r.set_timeout = true;
        }
    }
    if f.no_retry_activity {
        if let Some(r) = reqs
            .iter_mut()
            .find(|r| is_retry_lib(r.library) && r.origin.is_user())
        {
            r.set_retries = Some(0);
            r.set_timeout = true;
        }
    }

    // Notifications (user-facing requests only).
    let user_count = reqs.iter().filter(|r| r.origin.is_user()).count();
    if user_count > 0 {
        if f.never_notify {
            for r in &mut reqs {
                r.notification = Notification::Missing;
            }
        } else {
            let m = miss_fraction(rng);
            let missing = ((m * user_count as f64).round() as usize).min(user_count - 1);
            let mut seen = 0usize;
            for r in &mut reqs {
                if r.origin.is_user() {
                    r.notification = if seen < missing {
                        Notification::Missing
                    } else {
                        Notification::Alert
                    };
                    seen += 1;
                }
            }
        }
    }
    if f.check_error_types {
        for r in &mut reqs {
            if r.library == Library::Volley {
                r.check_error_types = true;
            }
        }
    }

    // Responses (OkHttp / Apache apps).
    for (j, r) in reqs.iter_mut().enumerate() {
        if r.library.has_response_check_api() {
            r.response = if f.resp_buggy {
                // Most responses unchecked in buggy apps (§5.2.4: 75% of
                // responses miss checks).
                if j % 4 == 3 {
                    RespCheck::Checked
                } else {
                    RespCheck::Unchecked
                }
            } else {
                RespCheck::Checked
            };
        }
    }

    // Customized retry loops wrap a native/sync request.
    if let Some(shape) = f.custom_retry {
        if let Some(r) = reqs.iter_mut().find(|r| {
            matches!(
                r.library,
                Library::HttpUrlConnection | Library::OkHttp | Library::ApacheHttpClient
            )
        }) {
            r.custom_retry = Some(shape);
        }
    }

    let spec = AppSpec::new(&package, reqs);
    debug_assert!(
        !spec.oracle().is_empty(),
        "non-clean corpus app {i} came out defect-free"
    );
    spec
}

/// Generates the calibrated 285-app corpus.
pub fn corpus(seed: u64) -> Vec<AppSpec> {
    let flags = assign_flags(seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9));
    flags
        .iter()
        .enumerate()
        .map(|(i, f)| build_app(i, f, &mut rng))
        .collect()
}

/// Ballast classes per no-network app: enough real code that skipping
/// it is worth something, small enough to generate by the hundred. Real
/// apps bundle far more non-network code than a defect-corpus app's
/// handful of request classes, so the clean profile carries a
/// comparable class count rather than an empty shell.
const CLEAN_APP_BULK: usize = 40;

/// A *no-network* app: `bulk` self-contained ballast classes (loops,
/// fields, intra-class calls) and not a single network-library
/// reference anywhere in its constant pool. This is the shape the
/// prescan fast path answers without lifting a method.
///
/// Distinct from the corpus's "clean" apps, which *use* the network but
/// commit no defect.
pub fn no_network_app(tag: usize, bulk: usize) -> AppSpec {
    let mut spec = AppSpec::new(&format!("com.clean.app{tag:03}"), Vec::new());
    spec.bulk = bulk.max(1);
    spec
}

/// A mixed corpus of `size` apps, roughly `clean_frac` of which are
/// [`no_network_app`]s; the rest are drawn from the calibrated defect
/// [`corpus`] (cycling with re-tagged packages if `size` exceeds it).
///
/// App-store reality is closer to this mix than to the evaluation
/// corpus: most submissions never touch a network library, which is
/// exactly the headroom the prescan fast path converts into
/// throughput. Deterministic in `(seed, size, clean_frac)`.
pub fn clean_corpus(seed: u64, size: usize, clean_frac: f64) -> Vec<AppSpec> {
    let n_clean = ((size as f64) * clean_frac.clamp(0.0, 1.0)).round() as usize;
    let mut is_clean = vec![false; size];
    for slot in is_clean.iter_mut().take(n_clean) {
        *slot = true;
    }
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xc1ea_0c0d));
    is_clean.shuffle(&mut rng);

    let network = corpus(seed);
    let mut out = Vec::with_capacity(size);
    let (mut clean_tag, mut net_idx) = (0usize, 0usize);
    for clean in is_clean {
        if clean {
            out.push(no_network_app(clean_tag, CLEAN_APP_BULK));
            clean_tag += 1;
        } else {
            let mut spec = network[net_idx % network.len()].clone();
            if net_idx >= network.len() {
                spec.package = format!("{}.v{}", spec.package, net_idx / network.len());
            }
            out.push(spec);
            net_idx += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_netlibs::library::Library;

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus(42);
        let b = corpus(42);
        assert_eq!(a.len(), CORPUS_SIZE);
        assert_eq!(a, b);
        let c = corpus(43);
        assert_ne!(a, c);
    }

    #[test]
    fn library_counts_match_table7() {
        let apps = corpus(42);
        let count = |lib: Library| apps.iter().filter(|a| a.libraries().contains(&lib)).count();
        assert_eq!(count(Library::Volley), 78);
        assert_eq!(count(Library::AndroidAsyncHttp), 25);
        assert_eq!(count(Library::BasicHttpClient), 18);
        assert_eq!(count(Library::OkHttp), 11);
        // Native = HttpURLConnection + Apache = 270.
        let native = apps
            .iter()
            .filter(|a| {
                a.libraries().contains(&Library::HttpUrlConnection)
                    || a.libraries().contains(&Library::ApacheHttpClient)
            })
            .count();
        assert_eq!(native, 270);
    }

    #[test]
    fn retry_zone_has_91_apps() {
        let apps = corpus(42);
        let retry_apps = apps
            .iter()
            .filter(|a| a.libraries().iter().any(|l| l.has_retry_api()))
            .count();
        assert_eq!(retry_apps, 91);
    }

    #[test]
    fn exactly_four_clean_apps() {
        let apps = corpus(42);
        let clean = apps.iter().filter(|a| a.oracle().is_empty()).count();
        assert_eq!(clean, 4);
    }

    #[test]
    fn never_conn_rate_matches_table6() {
        let apps = corpus(42);
        let never = apps
            .iter()
            .filter(|a| {
                a.requests
                    .iter()
                    .all(|r| r.conn_check == ConnCheck::Missing)
            })
            .count();
        assert_eq!(never, 122);
    }

    #[test]
    fn service_only_apps_have_no_user_requests() {
        let apps = corpus(42);
        let service_only = apps
            .iter()
            .filter(|a| !a.requests.iter().any(|r| r.origin.is_user()))
            .count();
        assert_eq!(service_only, 21);
    }

    #[test]
    fn no_network_app_has_an_empty_network_pool() {
        let apk = crate::gen::generate(&no_network_app(0, 12));
        assert!(nck_dex::verify::verify(&apk.adx).is_ok_and(|v| v.is_clean()));
        assert!(!apk.adx.classes.is_empty(), "ballast classes present");
        let registry = nck_netlibs::api::Registry::standard();
        let touches = nck_dex::pool_touches(&apk.adx, &|class, name| {
            registry.is_relevant_api(class, name)
        });
        assert!(!touches, "clean app must prescan clean");
    }

    #[test]
    fn clean_corpus_hits_the_requested_mix() {
        let apps = clean_corpus(7, 100, 0.7);
        assert_eq!(apps.len(), 100);
        let clean = apps
            .iter()
            .filter(|a| a.requests.is_empty() && a.bulk > 0)
            .count();
        assert_eq!(clean, 70);
        // Deterministic, and the seed matters.
        assert_eq!(apps, clean_corpus(7, 100, 0.7));
        assert_ne!(apps, clean_corpus(8, 100, 0.7));
        // Package names stay unique even when the defect corpus cycles.
        let big = clean_corpus(7, 600, 0.1);
        let distinct: std::collections::BTreeSet<&str> =
            big.iter().map(|a| a.package.as_str()).collect();
        assert_eq!(distinct.len(), big.len());
    }

    #[test]
    fn every_sampled_app_generates_and_verifies() {
        // Spot-check a sample: generating all 285 here would slow the
        // suite; the bench harness exercises the full corpus.
        let apps = corpus(42);
        for i in [0usize, 11, 74, 92, 105, 150, 245, 282] {
            let apk = crate::gen::generate(&apps[i]);
            assert!(
                nck_dex::verify::verify(&apk.adx).is_ok_and(|v| v.is_clean()),
                "app {i}"
            );
        }
    }
}
