//! Exercise-scenario checks (`SG5xxx`): does every scenario file fit the
//! bundle it ships with?
//!
//! The rules are [`sgcr_scenario::check`], the same function the exercise
//! engine runs before it starts, and the names come from the same place:
//! [`BundleNames::from_model`] over the bundle's compiled model. This pass
//! anchors each finding to the offending element's `file:line:column`, so a
//! broken exercise is caught before anyone boots a range to run it. When
//! the bundle does not compile the pass stays quiet: the bundle rules have
//! already said why.

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_scenario::{check, BundleNames, FindingKind};
use sgcr_scl::{codes, Diagnostic, Span};

/// Validates `*.scenario.xml` files against the rest of the bundle.
pub struct ScenarioPass;

impl LintPass for ScenarioPass {
    fn name(&self) -> &'static str {
        "scenario"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        if bundle.scenarios.is_empty() {
            return;
        }
        let Some(model) = bundle.model() else {
            return;
        };
        let names = BundleNames::from_model(model);
        for (file, scenario) in &bundle.scenarios {
            let Ok(scenario) = scenario else { continue };
            for finding in check(scenario, &names) {
                let code = match finding.kind {
                    FindingKind::UnknownTarget => codes::SCENARIO_UNKNOWN_TARGET,
                    FindingKind::UndefinedStage => codes::SCENARIO_UNDEFINED_STAGE,
                    FindingKind::BadDeadline => codes::SCENARIO_BAD_DEADLINE,
                    FindingKind::DuplicateId => codes::SCENARIO_DUPLICATE_ID,
                    FindingKind::UnknownFaultTarget => codes::SCENARIO_UNKNOWN_FAULT_TARGET,
                    FindingKind::UnknownFaultIed => codes::SCENARIO_UNKNOWN_FAULT_IED,
                    FindingKind::BadFaultProbability => codes::SCENARIO_BAD_FAULT_PROBABILITY,
                };
                let pos = finding.pos;
                let span = if pos.line > 0 {
                    Span::new(file, pos.line, pos.column)
                } else {
                    Span::new(file, 1, 1)
                };
                out.push(Diagnostic::error(code, finding.message, "").with_span(span));
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sgcr_models::epic_bundle;

    fn diags_for(scenario_xml: &str) -> Vec<Diagnostic> {
        let mut bundle = epic_bundle();
        bundle.scenarios = vec![scenario_xml.to_string()];
        let loaded = LoadedBundle::from_bundle(&bundle);
        let mut out = Vec::new();
        ScenarioPass.run(&loaded, &mut out);
        out
    }

    #[test]
    fn shipped_epic_scenario_is_clean() {
        let loaded = LoadedBundle::from_bundle(&epic_bundle());
        assert_eq!(loaded.scenarios.len(), 1);
        let mut out = Vec::new();
        ScenarioPass.run(&loaded, &mut out);
        assert!(out.is_empty(), "unexpected diagnostics: {out:?}");
    }

    #[test]
    fn unknown_targets_are_flagged_with_spans() {
        let out = diags_for(
            r#"<Scenario name="bad" durationMs="1000">
  <Host name="box" ip="10.0.1.66" switch="NoSuchBus"/>
  <Stage id="s1" kind="power" action="openSwitch" target="EPIC/CB_GHOST"/>
  <Stage id="s2" kind="fci" host="box" victim="GHOST1" item="x"/>
  <Stage id="s3" kind="link" a="SCADA" b="GhostBus" action="down"/>
  <Objective id="o1" kind="breakerOpen" target="EPIC/CB_GHOST" withinMs="10"/>
  <Objective id="o2" kind="iedTrip" ied="GHOSTIED" withinMs="10"/>
  <Objective id="o3" kind="scadaAlarm" point="Ghost_pt" withinMs="10"/>
  <Objective id="o4" kind="voltageBand" bus="EPIC/LV/GhostBay/CN_X" min="0.9" max="1.1" toMs="100"/>
</Scenario>"#,
        );
        let unknown: Vec<_> = out
            .iter()
            .filter(|d| d.code == codes::SCENARIO_UNKNOWN_TARGET)
            .collect();
        assert_eq!(unknown.len(), 8, "{out:?}");
        // Findings are anchored to the offending element, not the file top.
        assert!(unknown.iter().all(|d| d.span.as_ref().unwrap().line > 1));
    }

    #[test]
    fn fault_stages_are_checked_with_spans() {
        let out = diags_for(
            r#"<Scenario name="bad" durationMs="1000">
  <Stage id="f1" kind="linkFault" a="SCADA" b="GhostBus" loss="0.5"/>
  <Stage id="f2" kind="linkFault" a="SCADA" b="ControlBus" loss="1.5" corrupt="-0.1"/>
  <Stage id="f3" kind="crash" host="GhostIED"/>
  <Stage id="f4" kind="sensor" ied="GhostIED" key="meas/x" mode="stuck"/>
  <Stage id="ok1" kind="linkFault" a="SCADA" b="ControlBus" loss="0.25" jitterMs="3"/>
  <Stage id="ok2" kind="crash" host="MIED1" restartAfterMs="500"/>
  <Stage id="ok3" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_ka" mode="drift" perSec="0.1"/>
</Scenario>"#,
        );
        let count = |code: &str| out.iter().filter(|d| d.code == code).count();
        assert_eq!(count(codes::SCENARIO_UNKNOWN_FAULT_TARGET), 2, "{out:?}"); // GhostBus, GhostIED
        assert_eq!(count(codes::SCENARIO_UNKNOWN_FAULT_IED), 1, "{out:?}");
        assert_eq!(count(codes::SCENARIO_BAD_FAULT_PROBABILITY), 2, "{out:?}"); // loss, corrupt
                                                                                // Findings are anchored to the offending element, not the file top.
        assert!(out.iter().all(|d| d.span.as_ref().unwrap().line > 1));
    }

    #[test]
    fn undefined_stages_duplicates_and_deadlines_are_flagged() {
        let out = diags_for(
            r#"<Scenario name="bad" durationMs="1000">
  <Stage id="a" after="ghost" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
  <Stage id="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/>
  <Stage id="b" after="b" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
  <Objective id="o" kind="breakerOpen" target="EPIC/CB_GEN" after="ghost" withinMs="0"/>
  <Objective id="o" kind="voltageBand" bus="EPIC/LV/GenBay/CN_GEN" min="0.9" max="1.1" fromMs="500" toMs="500"/>
</Scenario>"#,
        );
        let count = |code: &str| out.iter().filter(|d| d.code == code).count();
        assert_eq!(count(codes::SCENARIO_UNDEFINED_STAGE), 3); // a->ghost, b->b, o->ghost
        assert_eq!(count(codes::SCENARIO_DUPLICATE_ID), 2); // stage a, objective o
        assert_eq!(count(codes::SCENARIO_BAD_DEADLINE), 2); // withinMs=0, empty band
    }
}
