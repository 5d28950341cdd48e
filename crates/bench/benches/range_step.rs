//! Macro-benchmarks of the generated cyber range: generation time, tenant
//! instantiation and per-step cost for the EPIC model and the paper's
//! 5-substation / 104-IED configuration — the numbers behind the S1
//! scalability table — plus checkpoint decode and resume time against
//! tenant age.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sgcr_core::{Checkpoint, CompiledModel, CyberRange};
use sgcr_models::{epic_bundle, multisub_bundle, MultiSubParams};
use sgcr_net::SimDuration;
use std::sync::Arc;

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

    // The same step with one load moving every step, as under a load
    // schedule: the solver cannot answer from its record of the last step.
    c.bench_function("multisub_5x104_step_load_ramp", |b| {
        let params = MultiSubParams::paper_profile();
        let mut range = CyberRange::instantiate(
            CompiledModel::shared(&multisub_bundle(&params)).expect("paper profile compiles"),
        )
        .expect("paper profile compiles");
        range.run_for(SimDuration::from_secs(1));
        let base = range.power.load[0].p_mw;
        let reused = range.solver_stats().reused;
        let mut step = 0u32;
        b.iter(|| {
            step += 1;
            range.power.load[0].p_mw = base * (1.0 + 0.01 * f64::from(step % 2));
            range.step();
        });
        assert_eq!(range.solver_stats().reused, reused, "every step solved");
    });
}

/// A tenant of `model` that has run `age` steps, and its checkpoint JSON.
fn aged(model: &Arc<CompiledModel>, age: u64) -> (CyberRange, String) {
    let mut range = CyberRange::instantiate(model.clone()).expect("instantiates");
    for _ in 0..age {
        range.step();
    }
    let json = range.checkpoint().to_json();
    (range, json)
}

// Resume is decode, re-instantiate, replay `age` steps and verify the
// digests, so its cost grows with tenant age; the decode row alone shows
// how much of it is JSON.
fn bench_checkpoint(c: &mut Criterion) {
    let paper = CompiledModel::shared(&multisub_bundle(&MultiSubParams::paper_profile()))
        .expect("paper profile compiles");
    let epic = CompiledModel::shared(&epic_bundle()).expect("compiles");

    let (_, json) = aged(&paper, 100);
    c.bench_function("checkpoint_decode_5x104_age100", |b| {
        b.iter(|| Checkpoint::from_json(black_box(&json)).expect("decodes"));
    });

    for (name, model, age) in [
        ("checkpoint_resume_5x104_age100", &paper, 100),
        ("checkpoint_resume_5x104_age1000", &paper, 1000),
        ("checkpoint_resume_epic_age1200", &epic, 1200),
    ] {
        // `range` was built without telemetry, so its handle is disabled.
        let (range, json) = aged(model, age);
        c.bench_function(name, |b| {
            b.iter(|| {
                Checkpoint::from_json(black_box(&json))
                    .and_then(|checkpoint| {
                        checkpoint.resume(model.clone(), range.telemetry().clone())
                    })
                    .expect("resumes")
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_range, bench_checkpoint
}
criterion_main!(benches);
