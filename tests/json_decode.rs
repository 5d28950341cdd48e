//! The workspace's one JSON decoder (`sgcr_obs::json::parse`) on the
//! documents the range really reads back: it decodes in linear time, it
//! inverts its own writer for any string, it joins UTF-16 surrogate pairs,
//! and it never panics on a truncated checkpoint. Checkpoint decoding is
//! strict about its scalars, and a paper-scale checkpoint round-trips and
//! resumes.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use proptest::collection::vec;
use proptest::prelude::*;
use sg_cyber_range::core::{
    Checkpoint, CheckpointError, CompiledModel, CyberRange, CHECKPOINT_VERSION,
};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::obs::json::{self, Value};
use sg_cyber_range::obs::Telemetry;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::Duration;

/// How long a debug build may take to decode each large document. A
/// parser that is quadratic in string length needs far longer.
const DECODE_LIMIT: Duration = Duration::from_secs(2);

/// Decodes `doc` on a watchdog thread, failing the test if it takes longer
/// than [`DECODE_LIMIT`] instead of hanging the suite on a slow parser.
fn parse_within_limit(what: &str, doc: String) -> Value {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(json::parse(&doc));
    });
    match rx.recv_timeout(DECODE_LIMIT) {
        Ok(parsed) => {
            worker.join().expect("decoder thread finished");
            parsed.unwrap_or_else(|e| panic!("{what} must decode: {e}"))
        }
        // The worker is left running: a thread cannot be cancelled, and the
        // test binary ends it on exit.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} did not decode within {DECODE_LIMIT:?}: decoding is not linear")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
    }
}

/// A `/status` body of the shape a farm serves, for `tenants` tenants.
fn status_document(tenants: usize) -> String {
    let mut out = format!(
        "{{\"tenants\":{tenants},\"threads\":2,\"sim_seconds\":3600,\"scenario\":true,\
         \"step_budget_ms\":250,\"admit_max\":0,\"tenants_running\":{tenants},\
         \"tenants_completed\":0,\"tenants_halted\":0,\"tenants_failed\":0,\
         \"tenants_given_up\":0,\"tenants_drained\":0,\"per_tenant\":["
    );
    for tenant in 0..tenants {
        if tenant > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tenant\":{tenant},\"state\":\"running\",\"steps\":{},\"budget_overruns\":0,\
             \"solve_errors\":0,\"restarts\":{},\"draining\":false,\
             \"score\":{{\"earned\":{},\"total\":6}}}}",
            36_000 + tenant,
            tenant % 3,
            tenant % 7
        );
    }
    out.push_str("]}");
    out
}

#[test]
fn a_one_mebibyte_string_decodes_in_linear_time() {
    let text: String = "grid-ü-".repeat((1 << 20) / 8);
    let value = parse_within_limit("a 1 MiB string", json::quote(&text));
    assert_eq!(value.as_str(), Some(text.as_str()));
}

#[test]
fn a_four_thousand_tenant_status_document_decodes_in_linear_time() {
    let doc = status_document(4000);
    let status = parse_within_limit("a 4,000-tenant /status document", doc);
    assert_eq!(status.get("tenants").and_then(Value::as_u64), Some(4000));
    let tenants = status
        .get("per_tenant")
        .and_then(Value::as_array)
        .expect("per_tenant array");
    assert_eq!(tenants.len(), 4000);
    let last = &tenants[3999];
    assert_eq!(last.get("state").and_then(Value::as_str), Some("running"));
    assert_eq!(last.get("steps").and_then(Value::as_u64), Some(39_999));
}

/// Any char, weighted towards the ones a string codec must treat
/// specially: quotes, backslashes, control characters, and every UTF-8
/// encoded length.
fn any_char() -> impl Strategy<Value = char> {
    let scalar = |code: u32| char::from_u32(code).unwrap_or('\u{fffd}');
    prop_oneof![
        Just('"'),
        Just('\\'),
        (0u32..0x20).prop_map(scalar),
        (0x20u32..0x7f).prop_map(scalar),
        (0x80u32..0x800).prop_map(scalar),
        (0x800u32..0x1_0000).prop_map(scalar),
        (0x1_0000u32..0x11_0000).prop_map(scalar),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    vec(any_char(), 0..40).prop_map(|chars| chars.into_iter().collect())
}

/// Writes `s` as a JSON string literal in pure ASCII, the way Python's
/// `json.dumps` does by default: every non-ASCII char as `\uXXXX`, astral
/// ones as a UTF-16 surrogate pair.
fn ascii_quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn quote_then_parse_is_the_identity(s in any_string()) {
        let parsed = json::parse(&json::quote(&s)).map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    fn quoted_object_keys_round_trip(key in any_string(), value in any_string()) {
        let doc = format!("{{{}: {}}}", json::quote(&key), json::quote(&value));
        let parsed = json::parse(&doc).map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            parsed,
            Value::Object(vec![(key.clone(), Value::String(value.clone()))])
        );
    }

    fn ascii_escaped_strings_decode_to_the_original(s in any_string()) {
        let parsed = json::parse(&ascii_quote(&s)).map_err(TestCaseError::fail)?;
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }
}

#[test]
fn surrogate_pairs_join_and_stray_surrogates_become_replacement_chars() {
    let decode = |doc: &str| json::parse(doc).unwrap().as_str().unwrap().to_string();
    assert_eq!(decode(r#""\ud83d\ude00""#), "\u{1f600}");
    assert_eq!(decode(r#""a\ud834\udd1eb""#), "a\u{1d11e}b");
    assert_eq!(decode(r#""\ud83d""#), "\u{fffd}", "lone high");
    assert_eq!(decode(r#""\ude00x""#), "\u{fffd}x", "lone low");
    assert_eq!(decode(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}", "reversed");
    assert_eq!(decode(r#""\ud83dA""#), "\u{fffd}A", "high then BMP");
    assert_eq!(decode(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
    assert_eq!(decode(r#""\ud83d\n""#), "\u{fffd}\n");
    assert!(
        json::parse(r#""\ud83d\uZZZZ""#).is_err(),
        "bad escape after a high"
    );
}

/// An EPIC tenant's checkpoint after `steps` steps.
fn epic_checkpoint(steps: u64) -> String {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle compiles");
    let mut range = CyberRange::instantiate(model).expect("EPIC instantiates");
    for _ in 0..steps {
        range.step();
    }
    range.checkpoint().to_json()
}

#[test]
fn every_strict_prefix_of_a_checkpoint_is_an_error() {
    let doc = epic_checkpoint(20);
    assert!(doc.starts_with('{') && json::parse(&doc).is_ok());
    for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
        let prefix = &doc[..end];
        assert!(json::parse(prefix).is_err(), "prefix of {end} bytes parsed");
        assert!(
            matches!(
                Checkpoint::from_json(prefix),
                Err(CheckpointError::Decode { .. })
            ),
            "prefix of {end} bytes decoded as a checkpoint"
        );
    }
}

/// The detail of the `Decode` error that decoding `doc` must fail with.
fn decode_error(doc: &str) -> String {
    match Checkpoint::from_json(doc) {
        Err(CheckpointError::Decode { detail }) => detail,
        other => panic!("expected a Decode error, got {other:?}"),
    }
}

#[test]
fn checkpoint_numbers_must_be_whole_u64s() {
    let doc = epic_checkpoint(10);
    let version = format!("\"format\":\"sgcr-checkpoint\",\"version\":{CHECKPOINT_VERSION},");
    assert!(doc.contains(&version));
    let detail = decode_error(&doc.replace(
        &version,
        "\"format\":\"sgcr-checkpoint\",\"version\":4294967297,",
    ));
    assert!(detail.contains("version 4294967297"), "{detail}");

    let steps = "\"steps\":10,";
    assert!(doc.contains(steps));
    for bad in ["1e999", "10.5", "-10", "18446744073709551616"] {
        let detail = decode_error(&doc.replace(steps, &format!("\"steps\":{bad},")));
        assert!(detail.contains("\"steps\""), "{bad}: {detail}");
    }
}

/// A version-1 checkpoint recorded a store write for every published value
/// on every step; this build writes only the values that changed, so its
/// replay would disagree on every entry version. Resume must turn such a
/// document away by its version before replaying anything.
#[test]
fn a_version_1_checkpoint_is_a_version_mismatch_not_a_divergence() {
    let params = MultiSubParams::paper_profile();
    let model = CompiledModel::shared(&multisub_bundle(&params)).expect("paper profile compiles");
    let mut range = CyberRange::instantiate(model.clone()).expect("paper profile instantiates");
    for _ in 0..10 {
        range.step();
    }
    let encoded = range.checkpoint().to_json();
    let version_1 = encoded.replace(
        &format!("\"format\":\"sgcr-checkpoint\",\"version\":{CHECKPOINT_VERSION},"),
        "\"format\":\"sgcr-checkpoint\",\"version\":1,",
    );
    assert_ne!(version_1, encoded, "this build does not write version 1");
    let decoded = Checkpoint::from_json(&version_1).expect("a version-1 document decodes");
    match decoded.resume(model, Telemetry::disabled()).map(|_| ()) {
        Err(CheckpointError::VersionMismatch { found: 1, expected }) => {
            assert_eq!(expected, CHECKPOINT_VERSION);
        }
        other => panic!("expected VersionMismatch from version 1, got {other:?}"),
    }
}

#[test]
fn a_bool_store_entry_must_hold_true_or_false() {
    let doc = epic_checkpoint(10);
    let root = json::parse(&doc).unwrap();
    let (key, version, payload) = root
        .get("store")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|entry| entry.as_array().unwrap())
        .find(|fields| fields[2].as_str() == Some("b"))
        .map(|fields| {
            (
                fields[0].as_str().unwrap().to_string(),
                fields[1].as_u64().unwrap(),
                fields[3].as_str().unwrap().to_string(),
            )
        })
        .expect("the EPIC store holds a bool entry");
    let entry = |payload: &str| format!("[{},{version},\"b\",\"{payload}\"]", json::quote(&key));
    assert!(doc.contains(&entry(&payload)));
    for bad in ["yes", "True", ""] {
        let detail = decode_error(&doc.replace(&entry(&payload), &entry(bad)));
        assert!(detail.contains(&json::quote(&key)), "{bad:?}: {detail}");
    }
}

#[test]
fn a_paper_scale_checkpoint_round_trips_and_resumes() {
    let params = MultiSubParams::paper_profile();
    let model = CompiledModel::shared(&multisub_bundle(&params)).expect("paper profile compiles");
    let mut range = CyberRange::instantiate(model.clone()).expect("paper profile instantiates");
    for _ in 0..100 {
        range.step();
    }
    let encoded = range.checkpoint().to_json();
    let decoded = Checkpoint::from_json(&encoded).expect("paper checkpoint decodes");
    assert_eq!(decoded.to_json(), encoded, "round-trip must be lossless");
    let resumed = decoded
        .resume(model, Telemetry::disabled())
        .expect("paper checkpoint resumes");
    assert_eq!(resumed.steps_total(), 100);
}
