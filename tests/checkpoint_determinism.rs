//! Mid-run checkpoint/restore end-to-end: pausing a range at an arbitrary
//! step and resuming it from the serialized checkpoint is invisible — the
//! resumed range's journal is byte-identical to one that never paused — and
//! the typed error surface (version mismatch, model mismatch, decode
//! failures) rejects everything else up front.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{
    Checkpoint, CheckpointError, CompiledModel, RangeBuilder, CHECKPOINT_VERSION,
};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::net::SimDuration;
use sg_cyber_range::obs::Telemetry;

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

#[test]
fn resume_then_step_is_byte_identical_to_never_pausing() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");

    // The reference: one uninterrupted four-second run.
    let reference_telemetry = Telemetry::new();
    let mut reference = RangeBuilder::from_model(model.clone())
        .telemetry(reference_telemetry.clone())
        .fault_seed(11)
        .build()
        .expect("reference instantiates");
    reference.run_for(SimDuration::from_secs(4));
    let total_steps = reference.steps_total();
    assert!(total_steps > 0);

    // The paused run: identical settings, stopped halfway, checkpointed,
    // serialized through JSON, resumed into a *fresh* telemetry handle,
    // then driven to the same step count.
    let paused_telemetry = Telemetry::new();
    let mut paused = RangeBuilder::from_model(model.clone())
        .telemetry(paused_telemetry.clone())
        .fault_seed(11)
        .build()
        .expect("paused range instantiates");
    paused.run_for(SimDuration::from_secs(2));
    let mid_steps = paused.steps_total();
    assert!(mid_steps > 0 && mid_steps < total_steps);

    let checkpoint = paused.checkpoint();
    assert_eq!(checkpoint.steps(), mid_steps);
    assert_eq!(checkpoint.sim_time_ns(), paused.now().as_nanos());
    drop(paused);

    // JSON round-trip is lossless: re-encoding the decoded checkpoint
    // reproduces the original document byte-for-byte.
    let encoded = checkpoint.to_json();
    let decoded = Checkpoint::from_json(&encoded).expect("checkpoint JSON decodes");
    assert_eq!(decoded.to_json(), encoded, "round-trip must be lossless");

    let resumed_telemetry = Telemetry::new();
    let mut resumed = decoded
        .resume(model.clone(), resumed_telemetry.clone())
        .expect("resume replays and verifies against the recorded digests");
    assert_eq!(resumed.steps_total(), mid_steps, "resume lands mid-run");
    while resumed.steps_total() < total_steps {
        resumed.step();
    }

    assert_eq!(
        strip_wall_clock(&reference_telemetry.journal_jsonl()),
        strip_wall_clock(&resumed_telemetry.journal_jsonl()),
        "a pause/checkpoint/resume cycle must be invisible in the journal \
         (modulo wall-clock solve time)"
    );
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model.clone())
        .build()
        .expect("range instantiates");
    range.run_for(SimDuration::from_secs(1));
    let encoded = range.checkpoint().to_json();

    // Tamper only with the format version (the `"format"` prefix keeps the
    // replacement from touching `store_version`).
    let tampered = encoded.replace(
        &format!("\"format\":\"sgcr-checkpoint\",\"version\":{CHECKPOINT_VERSION},"),
        "\"format\":\"sgcr-checkpoint\",\"version\":99,",
    );
    assert_ne!(tampered, encoded, "tamper must hit the version field");
    let decoded = Checkpoint::from_json(&tampered).expect("decode does not enforce the version");
    match decoded.resume(model, Telemetry::new()).map(|_| ()) {
        Err(CheckpointError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, CHECKPOINT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn checkpoint_with_the_old_capacity_settings_still_resumes() {
    // Checkpoints once recorded the two retention bounds, which are now
    // constants; a document that still carries them decodes, resumes and
    // re-encodes without them.
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model.clone())
        .fault_seed(7)
        .build()
        .expect("range instantiates");
    range.run_for(SimDuration::from_secs(1));
    let encoded = range.checkpoint().to_json();
    let old = encoded.replacen(
        "\"settings\":{",
        "\"settings\":{\"step_stats_capacity\":65536,\"solve_errors_capacity\":1024,",
        1,
    );
    assert_ne!(old, encoded, "the settings object must be found");
    let decoded = Checkpoint::from_json(&old).expect("old settings keys decode");
    assert_eq!(decoded.to_json(), encoded);
    let resumed = decoded
        .resume(model, Telemetry::new())
        .expect("old checkpoint resumes");
    assert_eq!(resumed.steps_total(), range.steps_total());
}

#[test]
fn resuming_against_a_different_model_is_rejected() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model)
        .build()
        .expect("range instantiates");
    range.run_for(SimDuration::from_secs(1));
    let checkpoint = range.checkpoint();

    let other_bundle = multisub_bundle(&MultiSubParams {
        substations: 2,
        total_ieds: 4,
        interval_ms: 100,
    });
    let other_model = CompiledModel::shared(&other_bundle).expect("multisub bundle compiles");
    match checkpoint.resume(other_model, Telemetry::new()).map(|_| ()) {
        Err(CheckpointError::ModelMismatch { found, expected }) => {
            assert_ne!(found, expected, "fingerprints must differ");
        }
        other => panic!("expected ModelMismatch, got {other:?}"),
    }
}

#[test]
fn malformed_checkpoint_documents_fail_to_decode() {
    for bad in [
        "",
        "not json",
        "{}",
        "{\"format\":\"something-else\",\"version\":1}",
        "[1,2,3]",
    ] {
        match Checkpoint::from_json(bad) {
            Err(CheckpointError::Decode { .. }) => {}
            other => panic!("{bad:?} must fail to decode, got {other:?}"),
        }
    }
}
