//! One scenario rule set: against a bundle, `lint` reports an `SG5xxx`
//! error for a scenario exactly when `run_exercise` refuses it. A scenario
//! that does not parse is refused by both.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, SgmlBundle};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::scenario::{run_exercise, Scenario};
use sgcr_lint::lint_bundle;
use sgcr_lint::source::LoadedBundle;
use sgcr_scl::{codes, Severity};
use std::path::PathBuf;

/// Scenarios on which the two checkers once disagreed, with the verdict
/// both must now give (`true` = accepted).
const FORMER_DISAGREEMENTS: &[(&str, bool, &str)] = &[
    (
        "after= cycle",
        false,
        r#"<Scenario name="t" durationMs="100"><Stage id="a" after="b" kind="power" action="openSwitch" target="EPIC/CB_GEN"/><Stage id="b" after="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/></Scenario>"#,
    ),
    (
        "link stage on a declared attacker host",
        true,
        r#"<Scenario name="t" durationMs="300"><Host name="box" ip="10.0.1.66" switch="GenBus"/><Stage id="cut" t="100" kind="link" a="box" b="GenBus" action="down"/></Scenario>"#,
    ),
    (
        "two fci stages on one attacker host",
        false,
        r#"<Scenario name="t" durationMs="100"><Host name="box" ip="10.0.1.66" switch="GenBus"/><Stage id="a" kind="fci" host="box" victim="GIED1" item="GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal"/><Stage id="b" kind="fci" host="box" victim="GIED1" item="GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal"/></Scenario>"#,
    ),
    (
        "two hosts with one name",
        false,
        r#"<Scenario name="t" durationMs="100"><Host name="box" ip="10.0.1.66" switch="GenBus"/><Host name="box" ip="10.0.1.67" switch="GenBus"/></Scenario>"#,
    ),
    (
        "host named like a range host",
        false,
        r#"<Scenario name="t" durationMs="100"><Host name="GIED1" ip="10.0.1.66" switch="GenBus"/></Scenario>"#,
    ),
    (
        "unparsable host address",
        false,
        r#"<Scenario name="t" durationMs="100"><Host name="box" ip="10.0.1.666" switch="GenBus"/></Scenario>"#,
    ),
    (
        "host wired to an IED instead of a switch",
        false,
        r#"<Scenario name="t" durationMs="100"><Host name="box" ip="10.0.1.66" switch="GIED1"/></Scenario>"#,
    ),
    (
        "misspelled SCADA point",
        false,
        r#"<Scenario name="t" durationMs="100"><Objective id="o" kind="tagAbove" point="MicroVolt_pv" value="0.5" withinMs="50"/></Scenario>"#,
    ),
];

/// The inputs of the engine's `validation_rejects_misfit_*` unit tests.
const ENGINE_MISFITS: &[&str] = &[
    r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="power" action="openSwitch" target="EPIC/CB_GEN"/><Stage id="a" kind="power" action="openSwitch" target="EPIC/CB_GEN"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" after="ghost" kind="power" action="openSwitch" target="EPIC/CB_GEN"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" after="b" kind="power" action="openSwitch" target="EPIC/CB_GEN"/><Stage id="b" after="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="power" action="openSwitch" target="EPIC/CB_GHOST"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="fci" host="ghost" victim="GIED1" item="x"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Objective id="o" kind="breakerOpen" target="EPIC/CB_GHOST" withinMs="10"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Objective id="o" kind="breakerOpen" target="EPIC/CB_GEN" withinMs="0"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Objective id="o" kind="breakerOpen" target="EPIC/CB_GEN" after="ghost" withinMs="10"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="linkFault" a="SCADA" b="ControlBus" loss="1.5"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="linkFault" a="SCADA" b="GhostBus" loss="0.5"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="crash" host="GhostIED"/></Scenario>"#,
    r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="sensor" ied="GhostIED" key="k" mode="stuck"/></Scenario>"#,
];

/// Scenarios whose verdict depends on names only the compiled model knows,
/// each with its bundle and the verdict both must give (`true` = accepted).
fn names_from_the_model() -> Vec<(&'static str, SgmlBundle, bool, &'static str)> {
    let two_substations = multisub_bundle(&MultiSubParams {
        substations: 2,
        total_ieds: 4,
        interval_ms: 100,
    });
    let mut icd_only_ied = epic_bundle();
    let xied9 = icd_only_ied.icds[0].replace("GIED1", "XIED9");
    icd_only_ied.icds.push(xied9);
    vec![
        (
            "host on the compiled wan switch",
            two_substations,
            true,
            r#"<Scenario name="t" durationMs="100"><Host name="box" ip="10.9.9.9" switch="wan"/></Scenario>"#,
        ),
        (
            "iedTrip on an IED only an ICD declares",
            icd_only_ied,
            false,
            r#"<Scenario name="t" durationMs="100"><Objective id="o" kind="iedTrip" ied="XIED9" withinMs="50"/></Scenario>"#,
        ),
        (
            "host taking GIED1's address",
            epic_bundle(),
            false,
            r#"<Scenario name="t" durationMs="100"><Host name="box" ip="10.0.1.11" switch="GenBus"/></Scenario>"#,
        ),
        (
            "sensor fault on a key GIED1 does not sample",
            epic_bundle(),
            false,
            r#"<Scenario name="t" durationMs="100"><Stage id="a" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_kA" mode="stuck"/></Scenario>"#,
        ),
    ]
}

/// Whether lint rejects the scenario: an `SG5xxx` error, or a parse failure.
fn lint_rejects(bundle: &SgmlBundle, xml: &str) -> bool {
    let mut bundle = bundle.clone();
    bundle.scenarios = vec![xml.to_string()];
    let report = lint_bundle(&LoadedBundle::from_bundle(&bundle));
    report.diagnostics.iter().any(|d| {
        d.severity == Severity::Error
            && (d.code.starts_with("SG5") || d.code == codes::PARSE_FAILED)
    })
}

/// Whether the engine refuses the scenario: a parse or exercise error.
fn engine_rejects(model: &std::sync::Arc<CompiledModel>, xml: &str) -> bool {
    let Ok(scenario) = Scenario::parse(xml) else {
        return true;
    };
    let mut range = CyberRange::instantiate(model.clone()).unwrap();
    run_exercise(&mut range, &scenario).is_err()
}

/// Asserts both checkers give one verdict on a scenario for the EPIC bundle,
/// and returns it (`true` = accepted).
fn agreed_verdict(model: &std::sync::Arc<CompiledModel>, case: &str, xml: &str) -> bool {
    agreed_verdict_on(&epic_bundle(), model, case, xml)
}

/// [`agreed_verdict`] for a scenario shipped with `bundle`.
fn agreed_verdict_on(
    bundle: &SgmlBundle,
    model: &std::sync::Arc<CompiledModel>,
    case: &str,
    xml: &str,
) -> bool {
    let (lint, engine) = (lint_rejects(bundle, xml), engine_rejects(model, xml));
    assert_eq!(
        lint, engine,
        "{case}: lint rejects = {lint}, run_exercise rejects = {engine}"
    );
    !lint
}

#[test]
fn former_disagreements_now_get_one_verdict() {
    let model = CompiledModel::shared(&epic_bundle()).unwrap();
    for (case, accepted, xml) in FORMER_DISAGREEMENTS {
        assert_eq!(agreed_verdict(&model, case, xml), *accepted, "{case}");
    }
}

#[test]
fn engine_misfits_are_rejected_by_both() {
    let model = CompiledModel::shared(&epic_bundle()).unwrap();
    for xml in ENGINE_MISFITS {
        assert!(!agreed_verdict(&model, xml, xml), "accepted: {xml}");
    }
}

#[test]
fn shipped_scenarios_are_accepted_by_both() {
    let model = CompiledModel::shared(&epic_bundle()).unwrap();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(".scenario.xml"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "{files:?}");
    for path in files {
        let xml = std::fs::read_to_string(&path).unwrap();
        let case = path.display().to_string();
        assert!(agreed_verdict(&model, &case, &xml), "rejected: {case}");
    }
}

#[test]
fn names_come_from_the_compiled_model() {
    for (case, bundle, accepted, xml) in names_from_the_model() {
        let model = CompiledModel::shared(&bundle).unwrap();
        assert_eq!(
            agreed_verdict_on(&bundle, &model, case, xml),
            accepted,
            "{case}"
        );
    }
}
