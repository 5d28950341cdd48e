//! Golden tests for `sgcr-lint` over the fixture bundles in
//! `tests/fixtures/lint/`: each bundle is crafted to trip one specific
//! diagnostic code, and the tests pin the code, severity, and span.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sgcr_lint::source::{FileRole, LoadedBundle};
use sgcr_lint::{engine, json, lint_bundle, report, sarif, LintReport};
use sgcr_scl::{codes, Severity};
use std::path::PathBuf;

fn fixture_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(name)
}

fn load_fixture(name: &str) -> (LoadedBundle, LintReport) {
    let bundle = LoadedBundle::from_dir(fixture_dir(name)).expect("fixture bundle loads");
    let report = lint_bundle(&bundle);
    (bundle, report)
}

#[test]
fn dangling_ied_reference_is_flagged() {
    let (_, report) = load_fixture("dangling_ied");
    let finding = report
        .with_code(codes::LNODE_UNKNOWN_IED)
        .next()
        .unwrap_or_else(|| panic!("expected SG0103, got {:#?}", report.diagnostics));
    assert!(finding.message.contains("GHOST"));
    let span = finding.span.as_ref().expect("SG0103 carries a span");
    assert_eq!(span.file, "substation01.ssd.xml");
    assert_eq!(span.line, 19, "LNode element line");
    // A dangling diagram reference is suspicious, not fatal.
    assert!(!report.has_errors(), "{:#?}", report.diagnostics);
}

#[test]
fn duplicate_ip_is_an_error_with_span() {
    let (_, report) = load_fixture("dup_ip");
    assert!(report.has_errors());
    let finding = report
        .with_code(codes::DUPLICATE_IP)
        .next()
        .unwrap_or_else(|| panic!("expected SG0201, got {:#?}", report.diagnostics));
    assert!(finding.message.contains("10.0.1.11"));
    let span = finding.span.as_ref().expect("SG0201 carries a span");
    assert_eq!(span.file, "substation01.scd.xml");
    assert_eq!(span.line, 17, "second ConnectedAP element line");
    // The duplicate is the only defect in this bundle.
    assert_eq!(report.error_count(), 1, "{:#?}", report.diagnostics);
}

#[test]
fn island_without_infeed_is_an_error() {
    let (_, report) = load_fixture("island");
    assert!(report.has_errors());
    let finding = report
        .with_code(codes::ISLAND_NO_SLACK)
        .next()
        .unwrap_or_else(|| panic!("expected SG0302, got {:#?}", report.diagnostics));
    let span = finding.span.as_ref().expect("SG0302 carries a span");
    assert_eq!(span.file, "substation01.ssd.xml");
}

#[test]
fn orphan_icd_is_a_warning_only() {
    let (_, report) = load_fixture("orphan_icd");
    assert!(!report.has_errors(), "{:#?}", report.diagnostics);
    let finding = report
        .with_code(codes::ORPHAN_ICD)
        .next()
        .unwrap_or_else(|| panic!("expected SG0501, got {:#?}", report.diagnostics));
    assert!(finding.message.contains("ORPHAN1"));
    assert_eq!(
        finding.span.as_ref().map(|s| s.file.as_str()),
        Some("orphan1.icd.xml")
    );
}

#[test]
fn st_logic_fixture_trips_every_sg6xxx_code() {
    let (_, report) = load_fixture("st_logic");
    let expect = [
        (codes::ST_PARSE_FAILED, Severity::Error),
        (codes::ST_TYPE_MISMATCH, Severity::Warning),
        (codes::ST_UNKNOWN_VARIABLE, Severity::Error),
        (codes::ST_BAD_FB_CALL, Severity::Warning),
        (codes::ST_READ_BEFORE_WRITE, Severity::Warning),
        (codes::ST_DEAD_STORE, Severity::Warning),
        (codes::ST_UNREACHABLE, Severity::Warning),
        (codes::ST_DIVISION_BY_ZERO, Severity::Error),
        (codes::PLC_BINDING_UNDECLARED, Severity::Error),
        (codes::SCADA_TAG_UNDRIVEN, Severity::Warning),
    ];
    for (code, severity) in expect {
        let finding = report
            .with_code(code)
            .next()
            .unwrap_or_else(|| panic!("expected {code}, got {:#?}", report.diagnostics));
        assert_eq!(finding.severity, severity, "{code}: {finding:?}");
        let span = finding.span.as_ref().unwrap_or_else(|| {
            panic!("{code} must carry a span: {finding:?}");
        });
        assert!(span.line > 0, "{code} span has no line: {finding:?}");
    }
    // Every SG6xxx span points into the file that holds the defect.
    for d in report
        .diagnostics
        .iter()
        .filter(|d| d.code.starts_with("SG6"))
    {
        let file = d.span.as_ref().map(|s| s.file.as_str()).unwrap_or("");
        if d.code == codes::SCADA_TAG_UNDRIVEN {
            assert_eq!(file, "scada_config.xml", "{d:?}");
        } else {
            assert_eq!(file, "plc_config.xml", "{d:?}");
        }
    }
    // Seeded positions: the division by a literal zero sits on the CDATA
    // line `out := raw / 0;` of the second PLC.
    let div = report.with_code(codes::ST_DIVISION_BY_ZERO).next().unwrap();
    let span = div.span.as_ref().unwrap();
    assert_eq!(span.line, 22, "division-by-zero line: {div:?}");
}

#[test]
fn st_logic_findings_anchor_in_their_own_plc() {
    // PLCs A and B run one body, so each finding must sit in its own PLC's
    // copy. C lists `scanMs` before `name` and its PLCopen body does not
    // parse: its SG6000 anchors at C's own `<PLC>` element.
    let body = "<![CDATA[\nPROGRAM p\nVAR x : INT; y : INT; END_VAR\ny := x / 0;\nEND_PROGRAM\n]]>";
    let xml = format!(
        r#"<PLCConfig>
  <PLC name="A" scanMs="100">
    <Logic type="st">{body}</Logic>
  </PLC>
  <PLC name="B" scanMs="100">
    <Logic type="st">{body}</Logic>
  </PLC>
  <PLC scanMs="100" name="C">
    <Logic type="plcopen"><![CDATA[not a project]]></Logic>
  </PLC>
</PLCConfig>"#
    );
    let mut bundle = LoadedBundle::default();
    bundle.add_file("plc_config.xml".into(), FileRole::PlcConfig, xml);
    let report = lint_bundle(&bundle);
    let lines = |plc: &str, code: &str| -> Vec<u32> {
        let context = format!("PLC {plc}");
        let found = report.with_code(code).filter(|d| d.context == context);
        found
            .map(|d| d.span.as_ref().map_or(0, |s| s.line))
            .collect()
    };
    for code in [codes::ST_READ_BEFORE_WRITE, codes::ST_DIVISION_BY_ZERO] {
        let (a, b) = (lines("A", code), lines("B", code));
        assert!(!a.is_empty(), "{code}: {:#?}", report.diagnostics);
        // B's body starts eight lines below A's.
        let shifted: Vec<u32> = a.iter().map(|line| line + 8).collect();
        assert_eq!(b, shifted, "{code}: {:#?}", report.diagnostics);
    }
    assert_eq!(lines("A", codes::ST_DIVISION_BY_ZERO), [6]);
    let parse = report.with_code(codes::ST_PARSE_FAILED).collect::<Vec<_>>();
    assert_eq!(parse.len(), 1, "{parse:#?}");
    let span = parse[0].span.as_ref().expect("SG6000 carries a span");
    assert_eq!((span.line, span.column), (18, 3), "{parse:#?}");
}

#[test]
fn epic_bundle_is_deliberately_clean() {
    // The shipped EPIC model set is the "known good" reference: the whole
    // roster — including the new SG6xxx semantic tier — must stay silent.
    let bundle = LoadedBundle::from_bundle(&sg_cyber_range::models::epic_bundle());
    let report = lint_bundle(&bundle);
    assert!(
        report.diagnostics.is_empty(),
        "EPIC must stay lint-clean: {:#?}",
        report.diagnostics
    );
}

#[test]
fn sarif_output_matches_golden_file() {
    let (_, report) = load_fixture("st_logic");
    let sarif = sarif::to_sarif(&report);
    let golden_path = fixture_dir("st_logic.sarif");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden_path.display()));
    assert_eq!(
        sarif, golden,
        "SARIF output drifted from tests/fixtures/lint/st_logic.sarif; \
         regenerate it with `sgml_processor lint tests/fixtures/lint/st_logic --format sarif`"
    );
}

#[test]
fn incremental_cache_is_byte_identical_and_reuses_queries() {
    // Copy the fixture into a scratch dir so we can edit one file.
    let scratch = std::env::temp_dir().join(format!("sgcr-lint-cli-{}", std::process::id()));
    let bundle_dir = scratch.join("bundle");
    let cache_dir = scratch.join("cache");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&bundle_dir).unwrap();
    for entry in std::fs::read_dir(fixture_dir("st_logic")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), bundle_dir.join(entry.file_name())).unwrap();
    }

    let cold = engine::lint_dir_incremental(&bundle_dir, &cache_dir).unwrap();
    assert_eq!(cold.stats.reused, 0, "{:?}", cold.stats);
    assert_eq!(cold.stats.recomputed, 1, "{:?}", cold.stats);
    let direct = lint_bundle(&LoadedBundle::from_dir(&bundle_dir).unwrap());
    assert_eq!(cold.report, direct, "engine must match lint_bundle");

    // Warm run: everything answered from cache, bytes identical.
    let warm = engine::lint_dir_incremental(&bundle_dir, &cache_dir).unwrap();
    assert_eq!(warm.stats.recomputed, 0, "{:?}", warm.stats);
    assert_eq!(warm.stats.reused, 1, "{:?}", warm.stats);
    assert_eq!(json::to_json(&warm.report), json::to_json(&cold.report));
    assert_eq!(
        report::render_text(&warm.report, &warm.bundle),
        report::render_text(&cold.report, &cold.bundle),
        "cached stdout must be byte-identical"
    );

    // Touch one file: the bundle's one query recomputes; the report is
    // unchanged because only whitespace moved.
    let ssd = bundle_dir.join("substation01.ssd.xml");
    let text = std::fs::read_to_string(&ssd).unwrap();
    std::fs::write(&ssd, format!("{text}\n")).unwrap();
    let edited = engine::lint_dir_incremental(&bundle_dir, &cache_dir).unwrap();
    assert_eq!(edited.stats.recomputed, 1, "{:?}", edited.stats);
    assert_eq!(edited.stats.reused, 0, "{:?}", edited.stats);
    assert_eq!(json::to_json(&edited.report), json::to_json(&cold.report));

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn text_rendering_includes_snippet_and_caret() {
    let (bundle, report) = load_fixture("dup_ip");
    let text = report::render_text(&report, &bundle);
    assert!(text.contains("error[SG0201]"), "{text}");
    assert!(text.contains("--> substation01.scd.xml:17:"), "{text}");
    assert!(text.contains("<ConnectedAP iedName=\"GIED2\""), "{text}");
    assert!(
        text.contains("= note: two access points share one IP address"),
        "{text}"
    );
}

#[test]
fn json_output_round_trips() {
    for fixture in ["dangling_ied", "dup_ip", "island", "orphan_icd", "st_logic"] {
        let (_, report) = load_fixture(fixture);
        let encoded = json::to_json(&report);
        let decoded = json::from_json(&encoded)
            .unwrap_or_else(|e| panic!("{fixture}: JSON round trip failed: {e}\n{encoded}"));
        assert_eq!(decoded, report, "{fixture}");
    }
}

#[test]
fn every_emitted_code_is_registered() {
    for fixture in ["dangling_ied", "dup_ip", "island", "orphan_icd", "st_logic"] {
        let (_, report) = load_fixture(fixture);
        assert!(
            !report.diagnostics.is_empty(),
            "{fixture} should trip its lint"
        );
        for diagnostic in &report.diagnostics {
            assert!(
                codes::lookup(diagnostic.code).is_some(),
                "{fixture}: unregistered code {}",
                diagnostic.code
            );
        }
    }
}
