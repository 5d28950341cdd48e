//! Macro-benchmarks of the generated cyber range: generation time, tenant
//! instantiation and per-step cost for the EPIC model and the paper's
//! 5-substation / 104-IED configuration — the numbers behind the S1
//! scalability table.

use criterion::{criterion_group, criterion_main, Criterion};
use sgcr_core::{CompiledModel, CyberRange};
use sgcr_models::{epic_bundle, multisub_bundle, MultiSubParams};
use sgcr_net::SimDuration;

fn bench_range(c: &mut Criterion) {
    c.bench_function("generate_epic_range", |b| {
        let bundle = epic_bundle();
        b.iter(|| {
            CyberRange::instantiate(CompiledModel::shared(&bundle).expect("compiles"))
                .expect("compiles")
        });
    });

    c.bench_function("epic_step_100ms", |b| {
        let mut range =
            CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).expect("compiles"))
                .expect("compiles");
        range.run_for(SimDuration::from_secs(1));
        b.iter(|| range.step());
    });

    // One tenant stamped from a shared compiled model: the per-tenant cost
    // (devices, data models, store slots, initial solve) that steps no
    // longer pay.
    c.bench_function("multisub_5x104_instantiate", |b| {
        let params = MultiSubParams::paper_profile();
        let model =
            CompiledModel::shared(&multisub_bundle(&params)).expect("paper profile compiles");
        b.iter(|| CyberRange::instantiate(model.clone()).expect("paper profile instantiates"));
    });

    c.bench_function("multisub_5x104_step_100ms", |b| {
        let params = MultiSubParams::paper_profile();
        let mut range = CyberRange::instantiate(
            CompiledModel::shared(&multisub_bundle(&params)).expect("paper profile compiles"),
        )
        .expect("paper profile compiles");
        range.run_for(SimDuration::from_secs(1));
        b.iter(|| range.step());
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_range
}
criterion_main!(benches);
