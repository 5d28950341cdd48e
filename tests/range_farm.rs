//! Multi-tenant range farm end-to-end: one compiled EPIC model instantiates
//! a hundred concurrent ranges, each with its own journal/metrics sinks, and
//! the farm report stays internally consistent.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::CompiledModel;
use sg_cyber_range::farm::{run_farm, FarmConfig};
use sg_cyber_range::models::epic_bundle;

/// A scratch directory under the target dir that is removed on drop, so
/// repeated test runs never see stale tenant sinks.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir creates");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn one_model_serves_one_hundred_tenants_with_per_tenant_journals() {
    let scratch = ScratchDir::new("range_farm_100");
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let config = FarmConfig {
        tenants: 100,
        sim_seconds: 1,
        out_dir: Some(scratch.0.clone()),
        ..FarmConfig::default()
    };

    let report = run_farm(model, &config);

    assert_eq!(report.tenants, 100);
    assert_eq!(report.tenants_failed, 0, "{:?}", report.per_tenant);
    assert_eq!(report.per_tenant.len(), 100);
    assert!(report.ranges_per_sec > 0.0);
    assert!(report.steps_total > 0);
    assert!(report.p99_step_seconds >= report.p50_step_seconds);
    assert!(report.max_step_seconds >= report.p99_step_seconds);

    for t in &report.per_tenant {
        assert!(
            t.error.is_none(),
            "tenant {} failed: {:?}",
            t.tenant,
            t.error
        );
        assert!(t.steps > 0, "tenant {} never stepped", t.tenant);
        let journal = t.journal_path.as_ref().expect("journal path recorded");
        let journal = std::path::Path::new(journal);
        assert!(journal.is_file(), "missing journal {}", journal.display());
        let text = std::fs::read_to_string(journal).expect("journal reads");
        assert!(
            text.lines().count() > 0,
            "tenant {} journal is empty",
            t.tenant
        );
        let metrics = journal.with_file_name(format!("tenant-{:04}.metrics.json", t.tenant));
        assert!(metrics.is_file(), "missing metrics {}", metrics.display());
    }

    // Per-tenant fault seeds differ, so the tenants are not byte-clones of
    // each other; per-tenant journals are still deterministic per seed.
    let a = std::fs::read_to_string(report.per_tenant[0].journal_path.as_ref().unwrap()).unwrap();
    assert!(a.contains("\"type\""), "journal is JSONL events");

    // The farm writes its own lifecycle journal next to the tenant sinks.
    let farm_journal =
        std::fs::read_to_string(scratch.0.join("farm.journal.jsonl")).expect("farm journal");
    assert!(farm_journal.contains("\"type\":\"FarmStarted\""));
    assert!(farm_journal.contains("\"type\":\"FarmFinished\""));
    assert!(farm_journal.contains("\"tenants\":100"));
    assert!(farm_journal.contains("\"tenants_completed\":100"));

    // Sink-writer backpressure instrumentation: the farm accounted bytes
    // and wall time for every tenant's journal/metrics files.
    assert!(report.journal_bytes_written > 0);
    assert!(report.journal_write_seconds > 0.0);
}

#[test]
fn tenants_are_deterministic_per_seed_across_farm_runs() {
    let scratch_a = ScratchDir::new("range_farm_replay_a");
    let scratch_b = ScratchDir::new("range_farm_replay_b");
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let config = FarmConfig {
        tenants: 4,
        sim_seconds: 1,
        base_fault_seed: 11,
        // A budget no step overruns: a wall-clock `StepOverrun` on a busy
        // host would differ between the two runs.
        step_budget_ms: Some(3_600_000),
        ..FarmConfig::default()
    };

    let first = run_farm(
        model.clone(),
        &FarmConfig {
            out_dir: Some(scratch_a.0.clone()),
            ..config.clone()
        },
    );
    let second = run_farm(
        model,
        &FarmConfig {
            out_dir: Some(scratch_b.0.clone()),
            ..config
        },
    );

    assert_eq!(first.tenants_failed, 0);
    assert_eq!(second.tenants_failed, 0);
    for (a, b) in first.per_tenant.iter().zip(&second.per_tenant) {
        assert_eq!(a.tenant, b.tenant);
        assert_eq!(a.steps, b.steps, "tenant {} step counts replay", a.tenant);
        let ja = std::fs::read_to_string(a.journal_path.as_ref().unwrap()).unwrap();
        let jb = std::fs::read_to_string(b.journal_path.as_ref().unwrap()).unwrap();
        assert_eq!(
            strip_wall_clock(&ja),
            strip_wall_clock(&jb),
            "tenant {} journal replays byte-identically",
            a.tenant
        );
    }
}

#[test]
fn step_budget_overruns_halt_a_tenant_instead_of_stalling_the_farm() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let config = FarmConfig {
        tenants: 2,
        sim_seconds: 2,
        // An impossible budget: every step overruns immediately.
        step_budget_ms: Some(0),
        max_overruns: 3,
        ..FarmConfig::default()
    };

    let report = run_farm(model, &config);

    assert_eq!(report.tenants_failed, 0, "halting is not failure");
    assert_eq!(report.tenants_halted, 2, "both tenants hit the zero budget");
    assert!(report.budget_overruns > 0);
    for t in &report.per_tenant {
        assert!(t.halted, "tenant {} should have halted", t.tenant);
        assert!(
            t.steps <= 3 + 1,
            "tenant {} stopped promptly after max_overruns: {} steps",
            t.tenant,
            t.steps
        );
    }
}

/// Drops the one wall-clock field in the journal (`SolveCompleted.seconds`)
/// so two replays of the same simulation compare byte-identically.
fn strip_wall_clock(journal: &str) -> String {
    journal
        .lines()
        .map(|line| match line.find(",\"seconds\":") {
            Some(start) => {
                let end = line[start..].find('}').map_or(line.len(), |j| start + j);
                format!("{}{}\n", &line[..start], &line[end..])
            }
            None => format!("{line}\n"),
        })
        .collect()
}
