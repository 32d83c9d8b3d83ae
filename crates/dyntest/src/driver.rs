//! The dynamic checker driver: runs every framework entry point of an
//! app under each network scenario and derives findings from the
//! observed behaviour — the VanarSena/Caiipa approach (§7 of the paper).

use crate::env::{AndroidEnv, Event, Scenario};
use nck_android::apk::Apk;
use nck_android::entrypoints::{entry_points, EntryPoint};
use nck_interp::{ExecError, Machine, Outcome, Thrown, Value};
use nck_ir::body::{MethodId, Program};
use nck_netlibs::api::Registry;

/// How one entry-point run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Returned normally.
    Completed,
    /// An uncaught exception escaped — a crash the user would see.
    Crashed(Thrown),
    /// The step budget ran out — a spin loop (Figure 2's reconnect bug).
    SpinLoop,
}

/// One observed run.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The entry point driven.
    pub entry: EntryPoint,
    /// The scenario it ran under.
    pub scenario: &'static str,
    /// The outcome.
    pub outcome: RunOutcome,
    /// Everything the environment saw.
    pub events: Vec<Event>,
}

impl Observation {
    /// Number of request attempts in this run.
    pub fn attempts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Request { .. }))
            .count()
    }

    fn has(&self, pred: impl Fn(&Event) -> bool) -> bool {
        self.events.iter().any(pred)
    }
}

/// A dynamically detected problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DynFinding {
    /// The app crashed under a network fault.
    Crash,
    /// The app would block forever (missing timeout; needs the timing
    /// fault model / `stalled` scenario).
    Hang,
    /// A user-facing request failed with no UI notification.
    SilentFailure,
    /// More than three attempts for one logical request.
    ExcessiveRetry,
    /// The run span the step budget retrying (reconnect loop).
    SpinLoop,
}

impl DynFinding {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DynFinding::Crash => "crash",
            DynFinding::Hang => "hang (no timeout)",
            DynFinding::SilentFailure => "silent failure",
            DynFinding::ExcessiveRetry => "excessive retry",
            DynFinding::SpinLoop => "reconnect spin loop",
        }
    }
}

/// Configuration of the dynamic checker.
#[derive(Debug, Clone)]
pub struct DynConfig {
    /// Scenarios to run. VanarSena-style tools only inject fail-fast web
    /// errors ([`Scenario::disconnected`]/[`Scenario::flaky`]); the
    /// `stalled` scenario is the timing fault model the paper notes they
    /// lack.
    pub scenarios: Vec<Scenario>,
    /// Report crashes only (VanarSena files "a crash report if the
    /// injected fault causes a crash").
    pub crash_only: bool,
    /// Interpreter step budget per run.
    pub step_limit: u64,
}

impl DynConfig {
    /// VanarSena-style: fail-fast fault injection, crash reports only.
    pub fn vanarsena() -> DynConfig {
        DynConfig {
            scenarios: vec![
                Scenario::connected(),
                Scenario::disconnected(),
                Scenario::flaky(),
                Scenario::invalid_response(),
            ],
            crash_only: true,
            step_limit: 50_000,
        }
    }

    /// Everything this reproduction's dynamic checker can do.
    pub fn full() -> DynConfig {
        DynConfig {
            scenarios: vec![
                Scenario::connected(),
                Scenario::disconnected(),
                Scenario::flaky(),
                Scenario::stalled(),
                Scenario::invalid_response(),
            ],
            crash_only: false,
            step_limit: 50_000,
        }
    }
}

/// The dynamic checker.
pub struct DynamicChecker {
    registry: Registry,
    /// Configuration.
    pub config: DynConfig,
}

impl DynamicChecker {
    /// Creates a checker with the given configuration.
    pub fn new(config: DynConfig) -> DynamicChecker {
        DynamicChecker {
            registry: Registry::standard(),
            config,
        }
    }

    /// Runs every entry point of `apk` under every scenario; a bundle
    /// that does not verify clean is its first verify error.
    pub fn observe(&self, apk: &Apk) -> Result<Vec<Observation>, nck_dex::VerifyError> {
        let program = nck_ir::lift_file(&apk.adx)?;
        Ok(self.observe_program(&program, &apk.manifest))
    }

    /// Runs every entry point of a lifted program.
    pub fn observe_program(
        &self,
        program: &Program,
        manifest: &nck_android::manifest::Manifest,
    ) -> Vec<Observation> {
        let entries = entry_points(program, &nck_ir::TypeIndex::build(program), manifest);
        let mut out = Vec::new();
        for scenario in &self.config.scenarios {
            for entry in &entries {
                let env = AndroidEnv::new(&self.registry, scenario.clone());
                let mut machine =
                    Machine::new(program, env).with_step_limit(self.config.step_limit);
                let outcome = self.drive(&mut machine, program, entry.method);
                let events = std::mem::take(&mut machine.env.events);
                out.push(Observation {
                    entry: *entry,
                    scenario: scenario.name,
                    outcome,
                    events,
                });
            }
        }
        out
    }

    fn drive(
        &self,
        machine: &mut Machine<'_, AndroidEnv<'_>>,
        program: &Program,
        method: MethodId,
    ) -> RunOutcome {
        // Frame: a fresh receiver of the entry's class plus nulls for the
        // declared parameters.
        let m = program.method(method);
        let receiver = Value::Obj(machine.heap.alloc(m.key.class));
        let sig = program.symbols.resolve(m.key.sig).to_owned();
        let nparams = nck_dex::parse_signature(&sig)
            .map(|(p, _)| p.len())
            .unwrap_or(0);
        let mut args = vec![receiver];
        args.extend(std::iter::repeat_with(|| Value::Null).take(nparams));

        match machine.call(method, args) {
            Ok(Outcome::Returned(_)) => RunOutcome::Completed,
            Ok(Outcome::Threw(t)) => RunOutcome::Crashed(t),
            Err(ExecError::StepLimit) => RunOutcome::SpinLoop,
            Err(ExecError::BadState(_)) => RunOutcome::Completed,
        }
    }

    /// Derives findings from a set of observations.
    pub fn findings(&self, observations: &[Observation]) -> Vec<(DynFinding, &'static str)> {
        let mut out = Vec::new();
        for o in observations {
            match &o.outcome {
                RunOutcome::Crashed(_) => out.push((DynFinding::Crash, o.scenario)),
                RunOutcome::SpinLoop => {
                    if !self.config.crash_only {
                        out.push((DynFinding::SpinLoop, o.scenario));
                    }
                }
                RunOutcome::Completed => {}
            }
            if self.config.crash_only {
                continue;
            }
            if o.has(|e| matches!(e, Event::Hang)) {
                out.push((DynFinding::Hang, o.scenario));
            }
            if o.entry.is_user_context()
                && o.has(|e| matches!(e, Event::RequestFailed))
                && !o.has(|e| matches!(e, Event::UiAlert))
                && matches!(o.outcome, RunOutcome::Completed)
            {
                out.push((DynFinding::SilentFailure, o.scenario));
            }
            if o.attempts() > 3 {
                out.push((DynFinding::ExcessiveRetry, o.scenario));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_appgen::spec::{
        AppSpec, ConnCheck, Notification, Origin, RequestSpec, RespCheck, RetryShape,
    };
    use nck_netlibs::library::Library;

    fn observe(
        spec: &AppSpec,
        config: DynConfig,
    ) -> (Vec<Observation>, Vec<(DynFinding, &'static str)>) {
        let apk = nck_appgen::generate(spec);
        let checker = DynamicChecker::new(config);
        let obs = checker.observe(&apk).unwrap();
        let findings = checker.findings(&obs);
        (obs, findings)
    }

    fn kinds(findings: &[(DynFinding, &'static str)]) -> Vec<DynFinding> {
        let mut v: Vec<DynFinding> = findings.iter().map(|&(k, _)| k).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn unchecked_response_crashes_dynamically() {
        let mut r = RequestSpec::new(Library::OkHttp, Origin::UserClick);
        r.response = RespCheck::Unchecked;
        r.notification = Notification::Alert;
        let spec = AppSpec::new("com.dyn.crash", vec![r]);
        let (_, findings) = observe(&spec, DynConfig::vanarsena());
        assert!(kinds(&findings).contains(&DynFinding::Crash));
    }

    #[test]
    fn checked_response_does_not_crash() {
        let mut r = RequestSpec::new(Library::OkHttp, Origin::UserClick);
        r.response = RespCheck::Checked;
        r.notification = Notification::Alert;
        r.set_timeout = true;
        let spec = AppSpec::new("com.dyn.ok", vec![r]);
        let (_, findings) = observe(&spec, DynConfig::vanarsena());
        assert!(!kinds(&findings).contains(&DynFinding::Crash));
    }

    #[test]
    fn missing_timeout_is_invisible_to_vanarsena_but_not_to_stall() {
        // No timeout configured; requests otherwise handled.
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.set_timeout = false;
        r.notification = Notification::Alert;
        r.conn_check = ConnCheck::Guarding;
        let spec = AppSpec::new("com.dyn.hang", vec![r]);

        let (_, vanarsena) = observe(&spec, DynConfig::vanarsena());
        assert!(!kinds(&vanarsena).contains(&DynFinding::Hang));

        let (_, full) = observe(&spec, DynConfig::full());
        assert!(kinds(&full).contains(&DynFinding::Hang));
    }

    #[test]
    fn configured_timeout_prevents_the_hang() {
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.set_timeout = true;
        r.notification = Notification::Alert;
        let spec = AppSpec::new("com.dyn.timeout", vec![r]);
        let (obs, findings) = observe(&spec, DynConfig::full());
        assert!(!kinds(&findings).contains(&DynFinding::Hang));
        // The stalled scenario must instead record a TimedOut event...
        let stalled: Vec<_> = obs.iter().filter(|o| o.scenario == "stalled").collect();
        assert!(stalled
            .iter()
            .any(|o| o.events.iter().any(|e| matches!(e, Event::TimedOut { .. }))));
    }

    #[test]
    fn silent_failure_is_observed_in_flaky_mode() {
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.notification = Notification::Missing;
        r.set_timeout = true;
        let spec = AppSpec::new("com.dyn.silent", vec![r]);
        let (_, findings) = observe(&spec, DynConfig::full());
        assert!(kinds(&findings).contains(&DynFinding::SilentFailure));

        // Crash-only mode (VanarSena) misses it.
        let (_, vanarsena) = observe(&spec, DynConfig::vanarsena());
        assert!(!kinds(&vanarsena).contains(&DynFinding::SilentFailure));
    }

    #[test]
    fn reconnect_loop_spins_to_the_step_limit() {
        let mut r = RequestSpec::new(Library::BasicHttpClient, Origin::UserClick);
        r.custom_retry = Some(RetryShape::SuccessExit);
        r.notification = Notification::Alert;
        let spec = AppSpec::new("com.dyn.spin", vec![r]);
        let (_, findings) = observe(&spec, DynConfig::full());
        let k = kinds(&findings);
        assert!(
            k.contains(&DynFinding::SpinLoop) || k.contains(&DynFinding::ExcessiveRetry),
            "{k:?}"
        );
    }

    #[test]
    fn volley_error_listener_is_driven() {
        // Volley + alert in the error listener: under disconnection the
        // CallThen machinery must reach onErrorResponse and show the UI.
        let mut r = RequestSpec::new(Library::Volley, Origin::UserClick);
        r.notification = Notification::Alert;
        r.set_timeout = true;
        r.set_retries = Some(1);
        let spec = AppSpec::new("com.dyn.volley", vec![r]);
        let (obs, findings) = observe(&spec, DynConfig::full());
        let disc: Vec<_> = obs
            .iter()
            .filter(|o| o.scenario == "disconnected" && o.attempts() > 0)
            .collect();
        assert!(!disc.is_empty());
        assert!(disc
            .iter()
            .any(|o| o.events.iter().any(|e| matches!(e, Event::UiAlert))));
        assert!(!kinds(&findings).contains(&DynFinding::SilentFailure));
    }
}
