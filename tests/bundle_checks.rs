//! One bundle check: `lint` reports an error outside its own analyses for a
//! bundle exactly when `CompiledModel::compile` refuses it, and whenever
//! compile refuses a bundle, lint names at least one error with a span.
//! Lint's own model (`LoadedBundle::model`) comes from the same decision:
//! it exists exactly when compile succeeds, and is the same model.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{CompiledModel, SgmlBundle};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sgcr_lint::lint_bundle;
use sgcr_lint::source::LoadedBundle;
use sgcr_scl::{Diagnostic, Severity};
use std::path::PathBuf;

/// The analyzer's own analyses: findings the compiler does not depend on.
fn is_lint_only(d: &Diagnostic) -> bool {
    let code = d.code;
    ("SG0301"..="SG0303").contains(&code)
        || code.starts_with("SG04")
        || ("SG6001"..="SG6021").contains(&code)
        || d.span
            .as_ref()
            .is_some_and(|s| s.file.ends_with(".scenario.xml"))
}

/// Lints and compiles one bundle, asserts the two agree, and returns
/// whether it compiled together with lint's errors.
fn verdict(case: &str, bundle: &SgmlBundle, loaded: &LoadedBundle) -> (bool, Vec<Diagnostic>) {
    let report = lint_bundle(loaded);
    let errors: Vec<Diagnostic> = report
        .diagnostics
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    let compiled = CompiledModel::compile(bundle);
    let shared = errors.iter().any(|d| !is_lint_only(d));
    assert_eq!(
        shared,
        compiled.is_err(),
        "{case}: lint errors {errors:#?}\ncompile: {:?}",
        compiled.as_ref().err()
    );
    if compiled.is_err() {
        assert!(
            errors.iter().any(|d| d.span.is_some()),
            "{case}: no error carries a span: {errors:#?}"
        );
    }
    // Lint's model is compiled by the same decision from the same parse.
    match (loaded.model(), &compiled) {
        (Some(linted), Ok(model)) => {
            assert_eq!(linted.fingerprint(), model.fingerprint(), "{case}");
            assert_eq!(format!("{linted:?}"), format!("{model:?}"), "{case}");
        }
        (None, Err(_)) => {}
        (linted, _) => panic!(
            "{case}: lint model {}, compile {:?}",
            if linted.is_some() { "built" } else { "refused" },
            compiled.as_ref().err()
        ),
    }
    (compiled.is_ok(), errors)
}

fn edited(edit: impl FnOnce(&mut SgmlBundle)) -> SgmlBundle {
    let mut bundle = epic_bundle();
    edit(&mut bundle);
    bundle
}

/// Replaces the first occurrence of `from`, which must be present.
fn replace(text: &mut String, from: &str, to: &str) {
    assert!(text.contains(from), "{from:?} not found");
    *text = text.replacen(from, to, 1);
}

fn scd(bundle: &mut SgmlBundle) -> &mut String {
    &mut bundle.scds[0]
}

/// A second access point for SIED2 on a new subnetwork, with `ip`.
fn second_ap(ip: &str) -> String {
    format!(
        r#"<SubNetwork name="ExtraBus" type="8-MMS">
      <ConnectedAP iedName="SIED2" apName="AP2">
        <Address><P type="IP">{ip}</P><P type="IP-SUBNET">255.255.0.0</P></Address>
      </ConnectedAP>
    </SubNetwork>
  </Communication>"#
    )
}

const EMPTY_SCL: &str =
    r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL"><Header id="empty"/></SCL>"#;

/// One-edit variants of the EPIC bundle, each breaking one bundle rule
/// that an analyzer checking less than the compiler would miss.
fn former_disagreements() -> Vec<(&'static str, SgmlBundle)> {
    vec![
        (
            "SIED2's ConnectedAP removed",
            edited(|b| {
                let text = scd(b);
                let start = text.find(r#"<ConnectedAP iedName="SIED2""#).unwrap();
                let end = start + text[start..].find("</ConnectedAP>").unwrap();
                text.replace_range(start..end + "</ConnectedAP>".len(), "");
            }),
        ),
        (
            "CPLC's ConnectedAP renamed CPLC2",
            edited(|b| replace(scd(b), r#"iedName="CPLC""#, r#"iedName="CPLC2""#)),
        ),
        (
            "SIED2 gets a second ConnectedAP on a new subnetwork",
            edited(|b| replace(scd(b), "</Communication>", &second_ap("10.0.9.18"))),
        ),
        (
            "SIED2 gets a second ConnectedAP with its own IP",
            edited(|b| replace(scd(b), "</Communication>", &second_ap("10.0.4.18"))),
        ),
        (
            "power_config.xml is not XML",
            edited(|b| b.power_extra = Some("intervalMs = 100".to_string())),
        ),
        (
            "GIED1 measurement item=\"TotW\"",
            edited(|b| {
                let config = b.ied_config.as_mut().unwrap();
                replace(
                    config,
                    r#"<Measurement item="MMXU1$MX$TotW$mag$f""#,
                    r#"<Measurement item="TotW""#,
                );
            }),
        ),
        (
            "a PLC <Read server=> names an IED only an ICD declares",
            edited(|b| {
                let icd = b.icds[0].replace("GIED1", "XIED9");
                b.icds.push(icd);
                let plc = b.plc_config.as_mut().unwrap();
                replace(
                    plc,
                    r#"<Read server="GIED1" item="GIED1LD0/MMXU1"#,
                    r#"<Read server="XIED9" item="GIED1LD0/MMXU1"#,
                );
            }),
        ),
        (
            "a PLC variable AT %QD0",
            edited(|b| {
                let plc = b.plc_config.as_mut().unwrap();
                replace(plc, "p_gen_kw AT %QW0 : INT;", "p_gen_kw AT %QD0 : INT;");
            }),
        ),
        (
            "an extra SSD with no <Substation>",
            edited(|b| b.ssds.push(EMPTY_SCL.to_string())),
        ),
        (
            "an SED with no tie",
            edited(|b| b.seds.push(EMPTY_SCL.to_string())),
        ),
        (
            "an extra ICD with no <IED>",
            edited(|b| b.icds.push(EMPTY_SCL.to_string())),
        ),
        (
            "a three-winding <PowerTransformer>",
            edited(|b| {
                let winding = |name: &str| {
                    format!(
                        r#"<TransformerWinding name="{name}" sgcr:ratedKV="0.4">
        <Terminal name="T1" connectivityNode="EPIC/LV/GenBay/CN_GEN"/>
      </TransformerWinding>"#
                    )
                };
                let transformer = format!(
                    r#"<Substation name="EPIC">
    <PowerTransformer name="T3W">{}{}{}</PowerTransformer>"#,
                    winding("W1"),
                    winding("W2"),
                    winding("W3")
                );
                replace(&mut b.ssds[0], r#"<Substation name="EPIC">"#, &transformer);
            }),
        ),
    ]
}

/// One-edit variants of the EPIC bundle with an addressing, host or ST
/// defect.
fn always_rejected() -> Vec<(&'static str, SgmlBundle)> {
    vec![
        (
            "a duplicate IP",
            edited(|b| replace(scd(b), "10.0.4.18", "10.0.4.17")),
        ),
        (
            "an invalid IP",
            edited(|b| replace(scd(b), "10.0.4.18", "10.0.4.999")),
        ),
        (
            "an IED Config host no file declares",
            edited(|b| {
                let config = b.ied_config.as_mut().unwrap();
                replace(
                    config,
                    "</IEDConfig>",
                    r#"<IED name="GHOST9" substation="EPIC" ld="GHOST9LD0"/></IEDConfig>"#,
                );
            }),
        ),
        (
            "a SCADA host without a ConnectedAP",
            edited(|b| b.scada_host = Some("NO_SUCH_HOST".to_string())),
        ),
        (
            "ST that does not parse",
            edited(|b| {
                let plc = b.plc_config.as_mut().unwrap();
                replace(plc, "shed_home := NOT gen_trip;", "shed_home := ;");
            }),
        ),
        (
            "a SCADA data source with an invalid IP",
            edited(|b| {
                let scada = b.scada_config.as_mut().unwrap();
                replace(scada, r#"ip="10.0.5.19""#, r#"ip="10.0.5.666""#);
            }),
        ),
    ]
}

#[test]
fn former_disagreements_are_compile_errors_lint_reports() {
    for (case, bundle) in former_disagreements() {
        let (compiles, _) = verdict(case, &bundle, &LoadedBundle::from_bundle(&bundle));
        assert!(!compiles, "{case}: compiled");
    }
}

#[test]
fn bundles_both_sides_reject_are_still_rejected() {
    for (case, bundle) in always_rejected() {
        let (compiles, _) = verdict(case, &bundle, &LoadedBundle::from_bundle(&bundle));
        assert!(!compiles, "{case}: compiled");
    }
}

#[test]
fn shipped_bundles_are_accepted_by_both() {
    let cases = [
        ("EPIC", epic_bundle()),
        (
            "paper profile",
            multisub_bundle(&MultiSubParams::paper_profile()),
        ),
        (
            "2x4 multi-substation",
            multisub_bundle(&MultiSubParams {
                substations: 2,
                total_ieds: 4,
                interval_ms: 100,
            }),
        ),
    ];
    for (case, bundle) in cases {
        let (compiles, errors) = verdict(case, &bundle, &LoadedBundle::from_bundle(&bundle));
        assert!(compiles && errors.is_empty(), "{case}: {errors:#?}");
    }
}

#[test]
fn lint_only_analyses_do_not_block_compilation() {
    let island = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint/island");
    let cases = [
        (
            "island without infeed",
            SgmlBundle::from_dir(&island).unwrap(),
            Some(LoadedBundle::from_dir(&island).unwrap()),
            "SG0302",
        ),
        (
            "a protection that names an unmapped breaker",
            edited(|b| {
                let config = b.ied_config.as_mut().unwrap();
                replace(config, r#"breaker="CB_GEN""#, r#"breaker="CB_NOPE""#);
            }),
            None,
            "SG0402",
        ),
        (
            "an ST division by a literal zero",
            edited(|b| {
                let plc = b.plc_config.as_mut().unwrap();
                replace(
                    plc,
                    "p_gen_kw := TO_INT(p_gen * 1000.0);",
                    "p_gen_kw := TO_INT(p_gen * 1000.0) / 0;",
                );
            }),
            None,
            "SG6013",
        ),
    ];
    for (case, bundle, loaded, code) in cases {
        let loaded = loaded.unwrap_or_else(|| LoadedBundle::from_bundle(&bundle));
        let (compiles, errors) = verdict(case, &bundle, &loaded);
        assert!(compiles, "{case}: did not compile");
        assert!(errors.iter().any(|d| d.code == code), "{case}: {errors:#?}");
        assert!(errors.iter().all(is_lint_only), "{case}: {errors:#?}");
    }
}
