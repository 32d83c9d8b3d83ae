//! Versioned app updates: evolving a spec the way developers ship new
//! releases.
//!
//! The edit-loop and re-vetting experiments need *version N+1* of an app:
//! same package, mostly the same code, a few behaviour changes. This
//! module produces one by mutating a fraction of an [`AppSpec`]'s
//! request specs — spec-level edits only, so the ground-truth oracle
//! re-derives automatically from the evolved spec and the generator
//! still emits a verifying binary.
//!
//! Evolutions are deterministic in `(spec, fraction, seed)`: the same
//! inputs always produce the same new version.

use crate::spec::{AppSpec, ConnCheck, Notification};
use nck_netlibs::api::HttpMethod;
use nck_netlibs::library::Library;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A produced app update: the evolved spec plus which requests changed.
#[derive(Debug, Clone)]
pub struct Evolution {
    /// The new version of the app. Same package, same request count.
    pub spec: AppSpec,
    /// Indices (into `spec.requests`) of the requests that were edited.
    pub changed: Vec<usize>,
}

/// Evolves `spec` into a new version by editing roughly
/// `fraction` (clamped to `[0, 1]`) of its requests, at least one when
/// the app has any. Every edit is guaranteed to change the request (all
/// edit kinds toggle or cycle a field), so the generated binary differs
/// from version N exactly in the touched requests' classes.
pub fn evolve(spec: &AppSpec, fraction: f64, seed: u64) -> Evolution {
    let n = spec.requests.len();
    let mut out = spec.clone();
    if n == 0 {
        return Evolution {
            spec: out,
            changed: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let frac = fraction.clamp(0.0, 1.0);
    let k = ((frac * n as f64).round() as usize).clamp(1, n);

    // Partial Fisher-Yates: the first k slots of `order` are a uniform
    // k-subset of the request indices.
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        order.swap(i, j);
    }
    let mut changed: Vec<usize> = order[..k].to_vec();
    changed.sort_unstable();

    for &i in &changed {
        let r = &mut out.requests[i];
        let arm = rng.gen_range(0..5u32);
        // Volley carries timeout and retries in one policy object, so
        // its specs couple the two fields; a lone timeout toggle is not
        // expressible — edit the retry config instead.
        let arm = if r.library == Library::Volley && arm == 0 {
            3
        } else {
            arm
        };
        match arm {
            // Each arm is a self-inverse toggle or a strict cycle, so
            // the edited request never equals the original.
            0 => r.set_timeout = !r.set_timeout,
            1 => {
                r.conn_check = match r.conn_check {
                    ConnCheck::Missing => ConnCheck::Guarding,
                    ConnCheck::Guarding => ConnCheck::GuardingViaHelper,
                    ConnCheck::GuardingViaHelper => ConnCheck::UnusedResult,
                    ConnCheck::UnusedResult => ConnCheck::InterComponent,
                    ConnCheck::InterComponent => ConnCheck::Missing,
                };
            }
            2 => {
                r.notification = match r.notification {
                    Notification::Missing => Notification::Alert,
                    Notification::Alert => Notification::InterComponent,
                    Notification::InterComponent => Notification::Missing,
                };
            }
            3 => {
                r.set_retries = match r.set_retries {
                    None => Some(2),
                    Some(0) => None,
                    Some(_) => Some(0),
                };
            }
            _ => {
                r.http_method = match r.http_method {
                    HttpMethod::Get => HttpMethod::Post,
                    _ => HttpMethod::Get,
                };
            }
        }
        if r.library == Library::Volley {
            r.set_timeout = r.set_retries.is_some();
        }
    }

    Evolution { spec: out, changed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;

    fn corpus() -> Vec<AppSpec> {
        profile::corpus(77).into_iter().take(12).collect()
    }

    #[test]
    fn evolution_is_deterministic() {
        for spec in corpus() {
            let a = evolve(&spec, 0.3, 9);
            let b = evolve(&spec, 0.3, 9);
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.changed, b.changed);
        }
    }

    #[test]
    fn evolution_changes_exactly_the_reported_requests() {
        for spec in corpus() {
            let e = evolve(&spec, 0.25, 4);
            assert_eq!(e.spec.package, spec.package);
            assert_eq!(e.spec.requests.len(), spec.requests.len());
            for (i, (old, new)) in spec.requests.iter().zip(&e.spec.requests).enumerate() {
                if e.changed.contains(&i) {
                    assert_ne!(old, new, "edited request {i} must differ");
                } else {
                    assert_eq!(old, new, "untouched request {i} must be identical");
                }
            }
        }
    }

    #[test]
    fn fraction_bounds_the_edit_count() {
        for spec in corpus() {
            let n = spec.requests.len();
            let e = evolve(&spec, 0.2, 1);
            let expect = ((0.2 * n as f64).round() as usize).clamp(1, n);
            assert_eq!(e.changed.len(), expect);
            // Zero fraction still edits one request: an update with no
            // change is not an update.
            assert_eq!(evolve(&spec, 0.0, 1).changed.len(), 1);
        }
    }

    #[test]
    fn evolved_specs_generate_verifying_binaries_with_matching_oracle() {
        use nchecker::NChecker;
        for spec in corpus().into_iter().take(4) {
            let e = evolve(&spec, 0.3, 5);
            let apk = crate::generate(&e.spec);
            let report = NChecker::new().analyze_apk(&apk).expect("clean analysis");
            let mut got: Vec<String> = report
                .defects
                .iter()
                .map(|d| format!("{:?}", d.kind))
                .collect();
            let mut want: Vec<String> = e
                .spec
                .expected_tool_report()
                .iter()
                .map(|k| format!("{k:?}"))
                .collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "oracle re-derives for {}", e.spec.package);
        }
    }
}
