//! Semantic checks on PLC control logic (`SG6xxx`): the lint front end of
//! the [`sgcr_plc::check_program`] semantic analyzer, plus cross-plane
//! binding coherence. Both passes read the programs the load parsed
//! ([`ParsedBundle::programs`](sgcr_core::ParsedBundle::programs)); a logic
//! body that does not parse, or a program the PLC runtime refuses, is
//! already an `SG6000` of the load.
//!
//! Two passes live here:
//!
//! * [`StLogicPass`] — per-PLC: runs the semantic analyzer and maps its
//!   findings back to real `plc_config.xml` line/column spans through the
//!   position of the PLC's logic body. Also flags `<Read>`/`<Write>`/
//!   `<Goose>` bindings that reference a variable the program neither
//!   declares nor touches (`SG6020`).
//! * [`ScadaBindingPass`] — cross-file: a SCADA Modbus tag polling a PLC's
//!   coil/register must land on a located output variable the program
//!   actually drives (`SG6021`).

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_core::{ConfigFile, PlcConfig, PlcDef};
use sgcr_plc::st::check::{CheckCode, CheckSeverity};
use sgcr_plc::{assigned_variables, check_program, read_variables, IoPoint, Program};
use sgcr_scada::{ModbusPointKind, PointAddress, SourceProtocol};
use sgcr_scl::{codes, Diagnostic, Severity, SourcePos, Span};
use std::collections::BTreeSet;
use std::ops::Range;

/// Semantic analysis of each PLC's control logic.
pub struct StLogicPass;

impl LintPass for StLogicPass {
    fn name(&self) -> &'static str {
        "st-logic"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        let Some(file) = &bundle.plc_config else {
            return;
        };
        let text = bundle.source_text(&file.name).unwrap_or("");
        let plcs = file.config.plcs.iter().zip(&bundle.programs);
        for (i, (plc, program)) in plcs.enumerate() {
            if let Some(program) = program {
                check_plc(file, i, text, plc, program, out);
            }
        }
    }
}

fn check_plc(
    file: &ConfigFile<PlcConfig>,
    i: usize,
    text: &str,
    plc: &PlcDef,
    program: &Program,
    out: &mut Vec<Diagnostic>,
) {
    let context = format!("PLC {}", plc.name);

    // Variables the runtime provides before every scan: polled MMS reads,
    // GOOSE subscriptions, and located I/O (restored from the register
    // tables by the input image).
    let mut external: BTreeSet<String> = BTreeSet::new();
    external.extend(plc.reads.iter().map(|r| r.variable.clone()));
    external.extend(plc.gooses.iter().map(|g| g.variable.clone()));
    external.extend(
        program
            .vars
            .iter()
            .filter(|v| v.location.is_some())
            .map(|v| v.name.clone()),
    );

    for finding in check_program(program, &external) {
        let (code, severity) = match (finding.code, finding.severity) {
            (CheckCode::TypeMismatch, s) => (codes::ST_TYPE_MISMATCH, sev(s)),
            (CheckCode::UnknownVariable, s) => (codes::ST_UNKNOWN_VARIABLE, sev(s)),
            (CheckCode::BadFbCall, s) => (codes::ST_BAD_FB_CALL, sev(s)),
            (CheckCode::ReadBeforeWrite, s) => (codes::ST_READ_BEFORE_WRITE, sev(s)),
            (CheckCode::DeadStore, s) => (codes::ST_DEAD_STORE, sev(s)),
            (CheckCode::Unreachable, s) => (codes::ST_UNREACHABLE, sev(s)),
            (CheckCode::DivisionByZero, s) => (codes::ST_DIVISION_BY_ZERO, sev(s)),
        };
        out.push(
            Diagnostic::new(code, severity, finding.message, context.clone())
                .with_span(file.logic_span(i, finding.pos)),
        );
    }

    check_bindings(file, text, i, plc, program, &context, out);
}

/// SG6020: every binding must reference a variable the program knows.
/// `<Read>`/`<Goose>` feed a variable the program should *read* somewhere;
/// `<Write>` watches a variable the program should *assign*. A finding
/// anchors at the `variable=` attribute inside the `i`-th PLC's element.
fn check_bindings(
    file: &ConfigFile<PlcConfig>,
    text: &str,
    i: usize,
    plc: &PlcDef,
    program: &Program,
    context: &str,
    out: &mut Vec<Diagnostic>,
) {
    let declared: BTreeSet<&str> = program.vars.iter().map(|v| v.name.as_str()).collect();
    let reads = read_variables(program);
    let assigned = assigned_variables(program);
    let element = element_range(text, file, i);

    let flag = |variable: &str, kind: &str, detail: &str, out: &mut Vec<Diagnostic>| {
        let span = text[element.clone()]
            .find(&format!("variable=\"{variable}\""))
            .map(|rel| {
                let (l, c) = pos_at(text, element.start + rel);
                Span::new(&file.name, l, c)
            });
        out.push(with_opt_span(
            Diagnostic::error(
                codes::PLC_BINDING_UNDECLARED,
                format!("{kind} binding references variable {variable:?}, which {detail}"),
                context.to_string(),
            ),
            span,
        ));
    };

    for rule in &plc.reads {
        let v = rule.variable.as_str();
        if !declared.contains(v) && !reads.contains(v) {
            flag(v, "<Read>", "the program neither declares nor reads", out);
        }
    }
    for rule in &plc.gooses {
        let v = rule.variable.as_str();
        if !declared.contains(v) && !reads.contains(v) {
            flag(v, "<Goose>", "the program neither declares nor reads", out);
        }
    }
    for rule in &plc.writes {
        let v = rule.variable.as_str();
        if !declared.contains(v) && !assigned.contains(v) {
            flag(
                v,
                "<Write>",
                "the program neither declares nor assigns",
                out,
            );
        }
    }
}

/// SG6021: SCADA Modbus tags must poll PLC outputs something drives.
pub struct ScadaBindingPass;

impl LintPass for ScadaBindingPass {
    fn name(&self) -> &'static str {
        "scada-binding"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        let (Some(scada), Some(plcs)) = (&bundle.scada_config, &bundle.plc_config) else {
            return;
        };
        let sfile = &scada.name;
        let stext = bundle.source_text(sfile).unwrap_or("");

        for source in &scada.config.sources {
            if !matches!(source.protocol, SourceProtocol::Modbus { .. }) {
                continue;
            }
            let mut programs = plcs.config.plcs.iter().zip(&bundle.programs);
            let plc = programs.find(|(plc, _)| plc.name == source.name);
            // A broken program is already SG6000; nothing to cross-check.
            let Some((plc, Some(program))) = plc else {
                continue;
            };
            let assigned = assigned_variables(program);

            for point in &source.points {
                if point.writable {
                    // Operator command: SCADA drives it, not the PLC.
                    continue;
                }
                let PointAddress::Modbus { kind, address } = &point.address else {
                    continue;
                };
                // Only the PLC-driven output tables can go stale; discrete
                // and input-register tables are fed from outside the logic.
                let expected = match kind {
                    ModbusPointKind::Coil => IoPoint::Coil(*address),
                    ModbusPointKind::Holding => IoPoint::Holding(*address),
                    ModbusPointKind::Discrete | ModbusPointKind::Input => continue,
                };
                let located = program.vars.iter().find(|v| {
                    v.location
                        .as_deref()
                        .and_then(IoPoint::parse)
                        .is_some_and(|p| p == expected)
                });
                let problem = match located {
                    None => format!(
                        "tag {:?} polls {expected} of PLC {:?}, but no located variable \
                         sits at that address",
                        point.name, plc.name
                    ),
                    Some(var) if !assigned.contains(&var.name) => format!(
                        "tag {:?} polls {expected} of PLC {:?} (variable {:?}), but the \
                         program never assigns it",
                        point.name, plc.name, var.name
                    ),
                    Some(_) => continue,
                };
                let span = stext.find(&format!("name=\"{}\"", point.name)).map(|off| {
                    let (l, c) = pos_at(stext, off);
                    Span::new(sfile, l, c)
                });
                out.push(with_opt_span(
                    Diagnostic::warning(
                        codes::SCADA_TAG_UNDRIVEN,
                        problem,
                        format!("DataSource {}", source.name),
                    ),
                    span,
                ));
            }
        }
    }
}

// --- span plumbing ---------------------------------------------------------

fn sev(s: CheckSeverity) -> Severity {
    match s {
        CheckSeverity::Warning => Severity::Warning,
        CheckSeverity::Error => Severity::Error,
    }
}

fn with_opt_span(d: Diagnostic, span: Option<Span>) -> Diagnostic {
    match span {
        Some(span) => d.with_span(span),
        None => d,
    }
}

/// Line/column (1-based) of a byte offset.
fn pos_at(text: &str, offset: usize) -> (u32, u32) {
    let before = &text[..offset.min(text.len())];
    let line = before.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
    let column = (offset - before.rfind('\n').map_or(0, |i| i + 1)) as u32 + 1;
    (line, column)
}

/// The byte offset of a known 1-based line and column; columns count
/// characters, as the XML parser's do.
fn offset_of(text: &str, pos: SourcePos) -> Option<usize> {
    let line_start = match pos.line {
        0 => return None,
        1 => 0,
        line => text.match_indices('\n').nth(line as usize - 2)?.0 + 1,
    };
    let column = (pos.column as usize).checked_sub(1)?;
    let (offset, _) = text[line_start..].char_indices().nth(column)?;
    Some(line_start + offset)
}

/// The text of the `i`-th `<PLC>` element: from its start tag to the next
/// `<PLC>`, or to the end of the file.
fn element_range(text: &str, file: &ConfigFile<PlcConfig>, i: usize) -> Range<usize> {
    let start = |i: usize| offset_of(text, *file.elements.get(i)?);
    start(i).unwrap_or(0)..start(i + 1).unwrap_or(text.len())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::source::FileRole;

    fn bundle_with_plc(plc_xml: &str) -> LoadedBundle {
        let mut bundle = LoadedBundle::default();
        bundle.add_file(
            "plc_config.xml".into(),
            FileRole::PlcConfig,
            plc_xml.to_string(),
        );
        bundle
    }

    fn run_pass(bundle: &LoadedBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        StLogicPass.run(bundle, &mut out);
        out
    }

    #[test]
    fn clean_logic_produces_nothing() {
        let bundle = bundle_with_plc(
            r#"<PLCConfig>
  <PLC name="CPLC" scanMs="100">
    <Logic type="st"><![CDATA[
PROGRAM p
VAR
    level : REAL;
    alarm AT %QX0.0 : BOOL;
END_VAR
alarm := level > 0.9;
END_PROGRAM
]]></Logic>
    <Read server="GIED1" item="x" variable="level"/>
  </PLC>
</PLCConfig>"#,
        );
        let out = run_pass(&bundle);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn parse_error_maps_to_file_coordinates() {
        // The bad token sits on CDATA line 2 → file line 4. The load parses
        // the program, so the finding is the load's, not the pass's.
        let bundle = bundle_with_plc(
            "<PLCConfig>\n  <PLC name=\"CPLC\">\n    <Logic type=\"st\"><![CDATA[\nx := ;\n]]></Logic>\n  </PLC>\n</PLCConfig>",
        );
        assert!(run_pass(&bundle).is_empty());
        let out = &bundle.diagnostics;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, codes::ST_PARSE_FAILED);
        let span = out[0].span.as_ref().expect("span");
        assert_eq!(span.file, "plc_config.xml");
        assert_eq!(span.line, 4);
        assert_eq!(span.column, 6);
    }

    #[test]
    fn semantic_findings_carry_real_spans() {
        let bundle = bundle_with_plc(
            "<PLCConfig>\n  <PLC name=\"CPLC\">\n    <Logic type=\"st\"><![CDATA[\nPROGRAM p\nVAR x : INT; END_VAR\nx := nope;\nEND_PROGRAM\n]]></Logic>\n  </PLC>\n</PLCConfig>",
        );
        let out = run_pass(&bundle);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, codes::ST_UNKNOWN_VARIABLE);
        assert_eq!(out[0].severity, Severity::Error);
        // `nope` is on CDATA line 4 (the CDATA text starts with a newline),
        // column 6 → file line 6.
        let span = out[0].span.as_ref().expect("span");
        assert_eq!((span.line, span.column), (6, 6));
    }

    #[test]
    fn dangling_bindings_are_flagged() {
        let bundle = bundle_with_plc(
            r#"<PLCConfig>
  <PLC name="CPLC">
    <Logic type="st"><![CDATA[
PROGRAM p
VAR out AT %QX0.0 : BOOL; trip : BOOL; END_VAR
out := trip;
END_PROGRAM
]]></Logic>
    <Goose gocb="G1LD0/LLN0$GO$gcb01" index="0" variable="trip"/>
    <Goose gocb="G1LD0/LLN0$GO$gcb01" index="1" variable="ghost"/>
    <Write server="IED1" item="ctl" variable="never_set"/>
  </PLC>
</PLCConfig>"#,
        );
        let out = run_pass(&bundle);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.code == codes::PLC_BINDING_UNDECLARED));
        assert!(out[0].message.contains("ghost"));
        assert!(out[1].message.contains("never_set"));
        // Spans anchor at the offending variable= attribute.
        let span = out[0].span.as_ref().expect("span");
        assert_eq!(span.line, 10);
    }

    #[test]
    fn scada_tag_on_undriven_output_is_flagged() {
        let mut bundle = bundle_with_plc(
            r#"<PLCConfig>
  <PLC name="CPLC">
    <Logic type="st"><![CDATA[
PROGRAM p
VAR driven AT %QW0 : INT; idle AT %QW1 : INT; b : BOOL; END_VAR
driven := 1;
b := idle > 0;
END_PROGRAM
]]></Logic>
  </PLC>
</PLCConfig>"#,
        );
        bundle.add_file(
            "scada_config.xml".into(),
            FileRole::ScadaConfig,
            r#"<ScadaConfig name="HMI">
  <DataSource name="CPLC" type="MODBUS" ip="10.0.0.9" port="502">
    <Point name="OkTag" kind="holding" address="0"/>
    <Point name="StaleTag" kind="holding" address="1"/>
    <Point name="GhostTag" kind="holding" address="7"/>
    <Point name="CmdTag" kind="coil" address="0" writable="true"/>
  </DataSource>
</ScadaConfig>"#
                .to_string(),
        );
        let mut out = Vec::new();
        ScadaBindingPass.run(&bundle, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.code == codes::SCADA_TAG_UNDRIVEN));
        assert!(out.iter().any(|d| d.message.contains("StaleTag")));
        assert!(out.iter().any(|d| d.message.contains("GhostTag")));
        assert!(out.iter().all(|d| d.span.is_some()));
    }
}
