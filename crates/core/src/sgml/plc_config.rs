//! The SG-ML *PLC Config XML*: which logic each PLC runs (Structured Text,
//! inline or as PLCopen XML) and how its variables bind to IED points over
//! MMS — the information OpenPLC61850 takes as its ICD list + mapping file.

use sgcr_scl::SourcePos;
use sgcr_xml::{Document, ElementRef, NodeKind};
use std::fmt;

/// How the control logic is provided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlcLogic {
    /// Inline IEC 61131-3 Structured Text.
    StructuredText(String),
    /// A complete PLCopen XML project document.
    PlcOpenXml(String),
}

/// A point polled from an IED into a PLC variable (server by IED name,
/// resolved against the SCD's communication section).
#[derive(Debug, Clone, PartialEq)]
pub struct PlcReadRule {
    /// IED name (resolved to an IP via the SCD).
    pub server: String,
    /// MMS item id.
    pub item: String,
    /// PLC variable.
    pub variable: String,
    /// Scaling multiplier.
    pub scale: f64,
}

/// A PLC boolean variable driving an IED control on change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlcWriteRule {
    /// IED name.
    pub server: String,
    /// Control item id.
    pub item: String,
    /// PLC variable watched for changes.
    pub variable: String,
}

/// A GOOSE dataset entry mapped into a PLC variable: the PLC subscribes to
/// the control block on the station bus and copies the entry's value into
/// the variable whenever a publication is accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlcGooseRule {
    /// Control block reference (`GIED1LD0/LLN0$GO$gcb01`).
    pub gocb_ref: String,
    /// Dataset entry index.
    pub index: usize,
    /// PLC variable receiving the value.
    pub variable: String,
}

/// One PLC's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlcDef {
    /// PLC name (must match a ConnectedAP in the SCD).
    pub name: String,
    /// Scan period in milliseconds.
    pub scan_ms: u64,
    /// The program.
    pub logic: PlcLogic,
    /// IED read bindings.
    pub reads: Vec<PlcReadRule>,
    /// IED write bindings.
    pub writes: Vec<PlcWriteRule>,
    /// GOOSE subscription bindings.
    pub gooses: Vec<PlcGooseRule>,
}

/// The parsed PLC Config file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlcConfig {
    /// PLC definitions in file order.
    pub plcs: Vec<PlcDef>,
}

/// An error parsing PLC Config XML.
#[derive(Debug, Clone, PartialEq)]
pub struct PlcConfigError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PlcConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PlcConfigError {}

fn err(message: impl Into<String>) -> PlcConfigError {
    PlcConfigError {
        message: message.into(),
    }
}

impl PlcConfig {
    /// Parses the XML.
    ///
    /// # Errors
    ///
    /// Returns [`PlcConfigError`] on malformed XML or a PLC without logic.
    pub fn parse(text: &str) -> Result<PlcConfig, PlcConfigError> {
        Ok(PlcConfig::parse_with_positions(text)?.0)
    }

    /// [`PlcConfig::parse`], also returning for each `<PLC>`, in file
    /// order, where the element starts and where its logic body starts.
    ///
    /// # Errors
    ///
    /// See [`PlcConfig::parse`].
    pub fn parse_with_positions(
        text: &str,
    ) -> Result<(PlcConfig, Vec<(SourcePos, SourcePos)>), PlcConfigError> {
        let doc = Document::parse(text).map_err(|e| err(e.to_string()))?;
        let root = doc.root_element();
        if root.name() != "PLCConfig" {
            return Err(err(format!(
                "expected <PLCConfig>, found <{}>",
                root.name()
            )));
        }
        let mut config = PlcConfig::default();
        let mut positions = Vec::new();
        for plc_el in root.children_named("PLC") {
            let name = plc_el.attr_or("name", "").to_string();
            if name.is_empty() {
                return Err(err("PLC without a name"));
            }
            let logic_el = plc_el
                .child("Logic")
                .ok_or_else(|| err(format!("PLC {name:?} has no <Logic>")))?;
            positions.push((super::pos_of(&plc_el), body_pos(&logic_el)));
            let body = logic_el.deep_text();
            let logic = match logic_el.attr_or("type", "st") {
                "st" => PlcLogic::StructuredText(body),
                "plcopen" => PlcLogic::PlcOpenXml(body),
                other => return Err(err(format!("unknown logic type {other:?}"))),
            };
            let reads = plc_el
                .children_named("Read")
                .iter()
                .map(|r| {
                    Ok(PlcReadRule {
                        server: r
                            .attr("server")
                            .ok_or_else(|| err("Read missing server"))?
                            .to_string(),
                        item: r
                            .attr("item")
                            .ok_or_else(|| err("Read missing item"))?
                            .to_string(),
                        variable: r
                            .attr("variable")
                            .ok_or_else(|| err("Read missing variable"))?
                            .to_string(),
                        scale: r.attr_parse("scale").unwrap_or(1.0),
                    })
                })
                .collect::<Result<Vec<_>, PlcConfigError>>()?;
            let writes = plc_el
                .children_named("Write")
                .iter()
                .map(|w| {
                    Ok(PlcWriteRule {
                        server: w
                            .attr("server")
                            .ok_or_else(|| err("Write missing server"))?
                            .to_string(),
                        item: w
                            .attr("item")
                            .ok_or_else(|| err("Write missing item"))?
                            .to_string(),
                        variable: w
                            .attr("variable")
                            .ok_or_else(|| err("Write missing variable"))?
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>, PlcConfigError>>()?;
            let gooses = plc_el
                .children_named("Goose")
                .iter()
                .map(|g| {
                    Ok(PlcGooseRule {
                        gocb_ref: g
                            .attr("gocb")
                            .ok_or_else(|| err("Goose missing gocb"))?
                            .to_string(),
                        index: g
                            .attr_parse("index")
                            .ok_or_else(|| err("Goose missing index"))?,
                        variable: g
                            .attr("variable")
                            .ok_or_else(|| err("Goose missing variable"))?
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>, PlcConfigError>>()?;
            config.plcs.push(PlcDef {
                name,
                scan_ms: plc_el.attr_parse("scanMs").unwrap_or(100),
                logic,
                reads,
                writes,
                gooses,
            });
        }
        Ok((config, positions))
    }

    /// Serializes back to XML.
    pub fn to_xml(&self) -> String {
        let mut doc = Document::new("PLCConfig");
        let root = doc.root_id();
        for plc in &self.plcs {
            let p = doc.add_element(root, "PLC");
            doc.set_attr(p, "name", &plc.name);
            doc.set_attr(p, "scanMs", &plc.scan_ms.to_string());
            let l = doc.add_element(p, "Logic");
            match &plc.logic {
                PlcLogic::StructuredText(st) => {
                    doc.set_attr(l, "type", "st");
                    doc.add_cdata(l, st);
                }
                PlcLogic::PlcOpenXml(xml) => {
                    doc.set_attr(l, "type", "plcopen");
                    doc.add_cdata(l, xml);
                }
            }
            for r in &plc.reads {
                let e = doc.add_element(p, "Read");
                doc.set_attr(e, "server", &r.server);
                doc.set_attr(e, "item", &r.item);
                doc.set_attr(e, "variable", &r.variable);
                if r.scale != 1.0 {
                    doc.set_attr(e, "scale", &r.scale.to_string());
                }
            }
            for w in &plc.writes {
                let e = doc.add_element(p, "Write");
                doc.set_attr(e, "server", &w.server);
                doc.set_attr(e, "item", &w.item);
                doc.set_attr(e, "variable", &w.variable);
            }
            for g in &plc.gooses {
                let e = doc.add_element(p, "Goose");
                doc.set_attr(e, "gocb", &g.gocb_ref);
                doc.set_attr(e, "index", &g.index.to_string());
                doc.set_attr(e, "variable", &g.variable);
            }
        }
        doc.to_xml()
    }
}

/// Where the text of a `<Logic>` body starts: inside its one CDATA
/// section, or unknown for any other layout.
fn body_pos(logic: &ElementRef<'_>) -> SourcePos {
    let doc = logic.document();
    match doc.node(logic.id()).children() {
        &[only] if matches!(doc.node(only).kind(), NodeKind::Cdata(_)) => doc
            .position(only)
            .map(|p| SourcePos::new(p.line, p.column + "<![CDATA[".len() as u32))
            .unwrap_or_default(),
        _ => SourcePos::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<PLCConfig>
  <PLC name="CPLC" scanMs="100">
    <Logic type="st"><![CDATA[
      PROGRAM cplc VAR total AT %QW0 : INT; p1 : REAL; END_VAR
      total := TO_INT(p1);
      END_PROGRAM
    ]]></Logic>
    <Read server="GIED1" item="GIED1LD0/MMXU1$MX$TotW$mag$f" variable="p1" scale="10"/>
    <Write server="GIED1" item="GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal" variable="cb_cmd"/>
    <Goose gocb="GIED1LD0/LLN0$GO$gcb01" index="1" variable="prot_op"/>
  </PLC>
</PLCConfig>"#;

    #[test]
    fn parse_sample() {
        let config = PlcConfig::parse(SAMPLE).unwrap();
        assert_eq!(config.plcs.len(), 1);
        let plc = &config.plcs[0];
        assert_eq!(plc.scan_ms, 100);
        assert!(matches!(&plc.logic, PlcLogic::StructuredText(st) if st.contains("PROGRAM cplc")));
        assert_eq!(plc.reads[0].scale, 10.0);
        assert_eq!(plc.writes[0].variable, "cb_cmd");
        assert_eq!(
            plc.gooses[0],
            PlcGooseRule {
                gocb_ref: "GIED1LD0/LLN0$GO$gcb01".to_string(),
                index: 1,
                variable: "prot_op".to_string(),
            }
        );
    }

    #[test]
    fn roundtrip() {
        let config = PlcConfig::parse(SAMPLE).unwrap();
        let text = config.to_xml();
        let reparsed = PlcConfig::parse(&text).unwrap();
        // Whitespace in CDATA is preserved exactly, so compare parsed forms.
        assert_eq!(reparsed.plcs[0].reads, config.plcs[0].reads);
        assert_eq!(reparsed.plcs[0].writes, config.plcs[0].writes);
        assert_eq!(reparsed.plcs[0].gooses, config.plcs[0].gooses);
    }

    #[test]
    fn errors() {
        assert!(PlcConfig::parse("<Nope/>").is_err());
        assert!(PlcConfig::parse(r#"<PLCConfig><PLC name="x"/></PLCConfig>"#).is_err());
        assert!(PlcConfig::parse(
            r#"<PLCConfig><PLC name="x"><Logic type="ladder">x</Logic></PLC></PLCConfig>"#
        )
        .is_err());
    }
}
