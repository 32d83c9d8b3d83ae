//! End-to-end checker throughput: how analysis cost scales with app
//! size, and the cost split across pipeline phases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nchecker::{AnalyzedApp, NChecker};
use nck_appgen::spec::{AppSpec, Origin, RequestSpec};
use nck_netlibs::api::Registry;
use nck_netlibs::library::Library;

fn app_with_requests(n: usize) -> AppSpec {
    let libs = [
        Library::BasicHttpClient,
        Library::Volley,
        Library::AndroidAsyncHttp,
        Library::HttpUrlConnection,
        Library::OkHttp,
    ];
    let reqs = (0..n)
        .map(|i| {
            let origin = match i % 3 {
                0 => Origin::UserClick,
                1 => Origin::ActivityLifecycle,
                _ => Origin::Service,
            };
            RequestSpec::new(libs[i % libs.len()], origin)
        })
        .collect();
    AppSpec::new("com.bench.app", reqs)
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyze_apk");
    for n in [1usize, 4, 16, 64] {
        let spec = app_with_requests(n);
        let bytes = nck_appgen::generate(&spec).to_bytes();
        let checker = NChecker::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &bytes, |b, bytes| {
            b.iter(|| checker.analyze_bytes(std::hint::black_box(bytes)).unwrap());
        });
    }
    group.finish();
}

fn bench_phases(c: &mut Criterion) {
    let spec = app_with_requests(16);
    let apk = nck_appgen::generate(&spec);
    let bytes = apk.to_bytes();
    let registry = Registry::standard();

    c.bench_function("phase_parse", |b| {
        b.iter(|| nck_android::Apk::from_bytes(std::hint::black_box(&bytes)).unwrap());
    });
    c.bench_function("phase_lift", |b| {
        b.iter(|| nck_ir::lift_file(std::hint::black_box(&apk.adx)).unwrap());
    });
    let program = nck_ir::lift_file(&apk.adx).unwrap();
    c.bench_function("phase_context", |b| {
        b.iter(|| {
            AnalyzedApp::new(
                apk.manifest.clone(),
                std::hint::black_box(program.clone()),
                &registry,
            )
        });
    });
    // Summary engine in isolation, with CFGs prebuilt as the analysis
    // context does it: resolve what the program can resolve, leave
    // framework calls opaque (a slight over-approximation of the real
    // classifier, which also consults the call graph and registry).
    let program2 = nck_ir::lift_file(&apk.adx).unwrap();
    let cfgs_owned: Vec<Option<nck_ir::cfg::Cfg>> = program2
        .methods
        .iter()
        .map(|m| m.body.as_deref().map(nck_ir::cfg::Cfg::build))
        .collect();
    c.bench_function("phase_summaries", |b| {
        b.iter(|| {
            let p = std::hint::black_box(&program2);
            let inputs: Vec<nck_dataflow::MethodInput<'_>> = p
                .methods
                .iter()
                .map(|m| nck_dataflow::MethodInput {
                    body: m.body.as_deref(),
                    is_static: m.flags.contains(nck_dex::AccessFlags::STATIC),
                })
                .collect();
            let cfgs: Vec<Option<&nck_ir::cfg::Cfg>> =
                cfgs_owned.iter().map(Option::as_ref).collect();
            nck_dataflow::Summaries::compute_incremental(
                &inputs,
                &cfgs,
                |_, _, inv| match p.lookup_method(inv.callee) {
                    Some(id) => nck_dataflow::CallKind::Callees(vec![id.0 as usize]),
                    None => nck_dataflow::CallKind::Opaque,
                },
                None,
                &nck_obs::Obs::disabled(),
            )
        });
    });
    let app = AnalyzedApp::new(apk.manifest.clone(), program, &registry);
    let checker = NChecker::new();
    c.bench_function("phase_checks", |b| {
        b.iter(|| checker.analyze(std::hint::black_box(&app)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_end_to_end, bench_phases
}
criterion_main!(benches);
