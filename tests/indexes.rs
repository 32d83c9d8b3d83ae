//! The per-app indexes against the walks they replace.
//!
//! `TypeIndex` must answer every supertype question exactly as
//! `Program::hierarchy` + `Program::all_interfaces` do, and the context's
//! API-role index must classify every call site exactly as the
//! registry's string lookups do, on every input family the benchmarks
//! and the evaluation run.

use nchecker::AnalyzedApp;
use nck_appgen::interproc_suite::{helper_mix, interproc_apps, HELPER_MIX_SIZE};
use nck_appgen::{generate, profile, studyapps, AppSpec, CorpusStream};
use nck_ir::body::ClassId;
use nck_ir::{Program, Symbol, TypeIndex};
use nck_netlibs::api::Registry;

fn lift(spec: &AppSpec) -> (nck_android::manifest::Manifest, Program) {
    let apk = generate(spec);
    let program = nck_ir::lift_file(&apk.adx).expect("generated apps lift");
    (apk.manifest, program)
}

/// Every supertype question about `p`'s classes, both ways.
fn assert_index_agrees(p: &Program, what: &str) {
    let index = TypeIndex::build(p);
    let mut types: Vec<Symbol> = Vec::new();
    for (i, c) in p.classes.iter().enumerate() {
        let mut want = p.hierarchy(c.name);
        want.extend(p.all_interfaces(c.name));
        let cid = ClassId(i as u32);
        assert_eq!(index.class_supertypes(cid), want.as_slice(), "{what}");
        assert_eq!(
            index.class_interfaces(cid),
            p.all_interfaces(c.name),
            "{what}"
        );
        types.extend(want);
    }
    types.sort_unstable();
    types.dedup();
    for &ty in &types {
        assert_eq!(
            index.chain(ty).collect::<Vec<_>>(),
            p.hierarchy(ty),
            "{what}"
        );
        let subs: Vec<ClassId> = p
            .classes
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                p.hierarchy(c.name).contains(&ty) || p.all_interfaces(c.name).contains(&ty)
            })
            .map(|(i, _)| ClassId(i as u32))
            .collect();
        assert_eq!(index.subtypes(ty), subs.as_slice(), "{what}");
        for c in &p.classes {
            let walk = p.hierarchy(c.name).contains(&ty) || p.all_interfaces(c.name).contains(&ty);
            assert_eq!(index.is_subtype(c.name, ty), walk, "{what}");
        }
    }
}

#[test]
fn type_index_agrees_with_the_hierarchy_walks() {
    let mut specs = interproc_apps();
    specs.push(studyapps::gpslogger());
    specs.extend(helper_mix(2016, HELPER_MIX_SIZE));
    for spec in &specs {
        let (_, program) = lift(spec);
        assert!(!program.classes.is_empty());
        assert_index_agrees(&program, &spec.package);
    }
}

/// Every invoke of `spec`, classified through the context and through
/// the registry's string lookups; returns how many invokes hit a role.
fn assert_roles_agree(registry: &Registry, spec: &AppSpec) -> usize {
    let (manifest, program) = lift(spec);
    let app = AnalyzedApp::new(manifest, program, registry, &nck_obs::Obs::disabled());
    let mut hits = 0;
    for (_, m) in app.program.iter_methods() {
        let Some(body) = &m.body else { continue };
        for (_, stmt) in body.iter() {
            let Some(inv) = stmt.invoke_expr() else {
                continue;
            };
            let class = app.program.symbols.resolve(inv.callee.class);
            let name = app.program.symbols.resolve(inv.callee.name);
            let what = format!("{}: {class}.{name}", spec.package);
            assert_eq!(app.api_target(inv), registry.target(class, name), "{what}");
            assert_eq!(app.api_config(inv), registry.config(class, name), "{what}");
            assert_eq!(
                app.api_response_check(inv),
                registry.response_check(class, name),
                "{what}"
            );
            assert_eq!(
                app.api_is_connectivity(inv),
                registry.is_connectivity_check(class, name),
                "{what}"
            );
            hits += usize::from(registry.is_relevant_api(class, name));
        }
    }
    hits
}

#[test]
fn api_roles_agree_with_the_registry_on_the_corpus_and_the_store_mix() {
    let registry = Registry::standard();
    let corpus: usize = profile::corpus(2016)
        .iter()
        .map(|spec| assert_roles_agree(&registry, spec))
        .sum();
    assert!(corpus > 1_000, "the corpus calls registry APIs: {corpus}");
    let stream = CorpusStream::new(7, 2_000);
    let store: usize = (0..2_000)
        .step_by(10)
        .map(|i| assert_roles_agree(&registry, &stream.spec_at(i)))
        .sum();
    assert!(store > 0, "the store sample calls registry APIs");
}
