//! Micro-benchmarks of the lint layer on the EPIC model set: the full
//! roster without a cache, a cold cached run that writes the cache, a warm
//! run that replays it, and a run after one file was edited — the case the
//! cache exists for, which misses and lints the bundle again.

use criterion::{criterion_group, criterion_main, Criterion};
use sgcr_lint::source::LoadedBundle;
use sgcr_lint::{engine, lint_bundle};
use sgcr_models::epic_bundle;
use std::path::PathBuf;

/// Writes the EPIC bundle to a scratch dir once; returns (bundle_dir, cache_dir).
fn epic_dirs() -> (PathBuf, PathBuf) {
    let scratch = std::env::temp_dir().join(format!("sgcr-bench-lint-{}", std::process::id()));
    let bundle_dir = scratch.join("bundle");
    let cache_dir = scratch.join("cache");
    let _ = std::fs::remove_dir_all(&scratch);
    epic_bundle()
        .write_to_dir(&bundle_dir)
        .expect("EPIC bundle writes");
    (bundle_dir, cache_dir)
}

fn bench_lint(c: &mut Criterion) {
    let (bundle_dir, cache_dir) = epic_dirs();

    c.bench_function("lint_full_epic_bundle", |b| {
        b.iter(|| {
            let bundle = LoadedBundle::from_dir(&bundle_dir).expect("loads");
            criterion::black_box(lint_bundle(&bundle))
        });
    });

    c.bench_function("lint_incremental_cold_epic", |b| {
        b.iter(|| {
            // Cold every iteration: drop the cache first.
            let _ = std::fs::remove_dir_all(&cache_dir);
            criterion::black_box(
                engine::lint_dir_incremental(&bundle_dir, &cache_dir).expect("lints"),
            )
        });
    });

    // Populate once, then measure the all-reused path.
    let _ = std::fs::remove_dir_all(&cache_dir);
    engine::lint_dir_incremental(&bundle_dir, &cache_dir).expect("warms the cache");
    c.bench_function("lint_incremental_warm_epic", |b| {
        b.iter(|| {
            let outcome = engine::lint_dir_incremental(&bundle_dir, &cache_dir).expect("lints");
            assert_eq!(outcome.stats.recomputed, 0, "cache must stay warm");
            criterion::black_box(outcome)
        });
    });

    // Each iteration appends a comment to one file, so every run sees a
    // bundle the cache has not stored yet.
    let ied_config = bundle_dir.join("ied_config.xml");
    let original = std::fs::read_to_string(&ied_config).expect("reads ied_config.xml");
    let mut edits = 0u64;
    c.bench_function("lint_incremental_edited_epic", |b| {
        b.iter(|| {
            edits += 1;
            std::fs::write(&ied_config, format!("{original}<!-- edit {edits} -->\n"))
                .expect("edits ied_config.xml");
            let outcome = engine::lint_dir_incremental(&bundle_dir, &cache_dir).expect("lints");
            assert_eq!(outcome.stats.reused, 0, "an edited bundle must miss");
            criterion::black_box(outcome)
        });
    });

    let _ = std::fs::remove_dir_all(bundle_dir.parent().expect("scratch dir"));
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
