//! Adversary-plane checks (`SG7xxx`): can every `<Adversary>` declaration
//! actually be planned against the bundle's derived attack graph?
//!
//! The pass takes the bundle's compiled model, derives the same
//! [`AttackGraph`] the exercise engine will use, and dry-runs the seeded
//! planner — so a goal
//! that cannot parse, names an unknown target, is unreachable with the
//! available attack primitives, or exceeds its action budget is caught at
//! lint time with a real `file:line:column` span instead of failing when
//! the exercise boots. It also warns when a planned campaign and a manual
//! cyber stage fight over the same victim host.

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_adversary::{plan, AttackGraph, PlanError, PlanRequest};
use sgcr_scenario::{Adversary, Pos, Scenario, StageAction};
use sgcr_scl::{codes, Diagnostic, Span};
use std::collections::BTreeSet;

/// Validates `<Adversary>` declarations against the derived attack graph.
pub struct AdversaryPass;

impl LintPass for AdversaryPass {
    fn name(&self) -> &'static str {
        "adversary"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        let scenarios = bundle
            .scenarios
            .iter()
            .filter_map(|(file, scenario)| Some((file, scenario.as_ref().ok()?)));
        if scenarios
            .clone()
            .all(|(_, scenario)| scenario.adversary.is_none())
        {
            return;
        }
        // The planner needs the compiled model; when the bundle does not
        // compile, the bundle rules already explain why — stay quiet.
        let Some(model) = bundle.model() else {
            return;
        };
        let graph = AttackGraph::derive(model);
        for (file, scenario) in scenarios {
            let Some(adv) = &scenario.adversary else {
                continue;
            };
            check_adversary(file, scenario, adv, &graph, out);
        }
    }
}

fn span(file: &str, pos: Pos) -> Span {
    if pos.line > 0 {
        Span::new(file, pos.line, pos.column)
    } else {
        Span::new(file, 1, 1)
    }
}

/// Dry-runs the planner for one declaration and maps every failure mode
/// to its SG7xxx code; on success, cross-checks manual cyber stages.
fn check_adversary(
    file: &str,
    scenario: &Scenario,
    adv: &Adversary,
    graph: &AttackGraph,
    out: &mut Vec<Diagnostic>,
) {
    let context = "Adversary".to_string();
    let reserved_names: Vec<String> = scenario.hosts.iter().map(|h| h.name.clone()).collect();
    let reserved_ips: Vec<_> = scenario.hosts.iter().map(|h| h.ip).collect();
    let result = plan(
        graph,
        &PlanRequest {
            goal: &adv.goal,
            budget: adv.budget,
            seed: adv.seed,
            reserved_names: &reserved_names,
            reserved_ips: &reserved_ips,
        },
    );
    let campaign = match result {
        Ok(campaign) => campaign,
        Err(e) => {
            let code = match &e {
                PlanError::BadGoal { .. } => codes::ADVERSARY_BAD_GOAL,
                PlanError::UnknownTarget { .. } => codes::ADVERSARY_UNKNOWN_TARGET,
                PlanError::Unreachable { .. } => codes::ADVERSARY_UNREACHABLE_GOAL,
                PlanError::BudgetTooSmall { .. } => codes::ADVERSARY_BUDGET_TOO_SMALL,
            };
            out.push(
                Diagnostic::error(code, e.to_string(), context).with_span(span(file, adv.pos)),
            );
            return;
        }
    };

    // SG7005: a hand-written cyber stage attacking a victim the planned
    // campaign also attacks — both would race for the same host/app slot.
    let planned_victims: BTreeSet<&str> = campaign
        .steps
        .iter()
        .flat_map(|s| s.action.victims())
        .collect();
    for stage in &scenario.stages {
        let manual: Vec<&str> = match &stage.action {
            StageAction::Fci { victim, .. } => vec![victim.as_str()],
            StageAction::Mitm {
                victim_a, victim_b, ..
            } => vec![victim_a.as_str(), victim_b.as_str()],
            _ => continue,
        };
        for victim in manual {
            if planned_victims.contains(victim) {
                out.push(
                    Diagnostic::warning(
                        codes::ADVERSARY_CONFLICTING_STAGE,
                        format!(
                            "stage {:?} manually attacks {victim:?}, which the planned \
                             adversary campaign (goal {:?}) also attacks",
                            stage.id, adv.goal
                        ),
                        format!("Stage {}", stage.id),
                    )
                    .with_span(span(file, stage.pos)),
                );
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
        AdversaryPass.run(&loaded, &mut out);
        out
    }

    #[test]
    fn plannable_goal_is_clean() {
        let out = diags_for(
            r#"<Scenario name="ok" durationMs="8000">
  <Adversary goal="breakerOpen:EPIC/CB_GEN" budget="4" seed="7"/>
</Scenario>"#,
        );
        assert!(out.is_empty(), "unexpected diagnostics: {out:?}");
    }

    #[test]
    fn scenarios_without_adversary_are_skipped() {
        let out = diags_for(r#"<Scenario name="plain" durationMs="1000"/>"#);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn failure_modes_map_to_codes_with_spans() {
        let cases = [
            (r#"goal="open sesame""#, codes::ADVERSARY_BAD_GOAL),
            (
                r#"goal="breakerOpen:EPIC/CB_GHOST""#,
                codes::ADVERSARY_UNKNOWN_TARGET,
            ),
            (
                // GenProt_trip is a state-bit alarm no traffic transform
                // can force.
                r#"goal="scadaAlarm:GenProt_trip""#,
                codes::ADVERSARY_UNREACHABLE_GOAL,
            ),
            (
                r#"goal="breakerOpen:EPIC/CB_GEN" budget="1""#,
                codes::ADVERSARY_BUDGET_TOO_SMALL,
            ),
        ];
        for (attrs, code) in cases {
            let out = diags_for(&format!(
                "<Scenario name=\"bad\" durationMs=\"1000\">\n  <Adversary {attrs}/>\n</Scenario>"
            ));
            assert_eq!(out.len(), 1, "{attrs}: {out:?}");
            assert_eq!(out[0].code, code, "{attrs}");
            // Anchored to the <Adversary> element, not the file top.
            assert!(out[0].span.as_ref().unwrap().line > 1, "{attrs}: {out:?}");
        }
    }

    #[test]
    fn conflicting_manual_stage_is_warned() {
        let out = diags_for(
            r#"<Scenario name="mixed" durationMs="8000">
  <Host name="box" ip="10.0.1.77" switch="GenBus"/>
  <Adversary goal="breakerOpen:EPIC/CB_GEN" budget="2" seed="3"/>
  <Stage id="manual" t="100" kind="fci" host="box" victim="GIED2" item="x" value="false"/>
</Scenario>"#,
        );
        // seed 3, budget 2: the campaign strikes one of GIED1/GIED2. Use
        // whichever victim the seed picks — the point is the overlap fires
        // when a manual stage attacks a planned victim. With two control
        // candidates the test pins the seed so the choice is stable.
        if out.is_empty() {
            // The seeded choice fell on the other IED — attack it instead.
            let out2 = diags_for(
                r#"<Scenario name="mixed" durationMs="8000">
  <Host name="box" ip="10.0.1.77" switch="GenBus"/>
  <Adversary goal="breakerOpen:EPIC/CB_GEN" budget="2" seed="3"/>
  <Stage id="manual" t="100" kind="fci" host="box" victim="GIED1" item="x" value="false"/>
</Scenario>"#,
            );
            assert_eq!(out2.len(), 1, "{out2:?}");
            assert_eq!(out2[0].code, codes::ADVERSARY_CONFLICTING_STAGE);
            assert!(out2[0].span.as_ref().unwrap().line > 1);
        } else {
            assert_eq!(out.len(), 1, "{out:?}");
            assert_eq!(out[0].code, codes::ADVERSARY_CONFLICTING_STAGE);
            assert!(out[0].span.as_ref().unwrap().line > 1);
        }
    }
}
