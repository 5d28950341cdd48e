//! A bundle's files parsed once, each under its bundle-relative name: the
//! input of the bundle rules ([`check_bundle`](crate::check_bundle)) and of
//! the build step ([`CompiledModel::build`](crate::CompiledModel::build)).
//! Each PLC's logic is parsed here too, and checked against the PLC
//! runtime, so nothing downstream parses a program again.
//!
//! Every file is parsed *leniently*: a flawed file still yields a model to
//! inspect, and a file that cannot be parsed at all becomes a coded
//! `SG0010` diagnostic instead of an error, so one pass over a bundle can
//! name every problem with its `file:line:column`.

use crate::files::{file_names, FileRole};
use crate::range::SgmlBundle;
use crate::sgml::ied_config::IedConfig;
use crate::sgml::plc_config::{PlcConfig, PlcLogic};
use crate::sgml::power_extra::PowerExtraConfig;
use sgcr_plc::{parse_plcopen, parse_program, Pos, Program};
use sgcr_scada::ScadaConfig;
use sgcr_scl::{
    codes, parse_scl_lenient, Diagnostic, SclDocument, SclError, SourcePos, Span, Substation,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A parsed SCL file with its bundle-relative name.
#[derive(Debug, Clone)]
pub struct SclFile {
    /// Bundle-relative file name.
    pub name: String,
    /// The parsed (lenient) document.
    pub doc: SclDocument,
}

/// A parsed supplementary config with its bundle-relative name.
#[derive(Debug, Clone)]
pub struct ConfigFile<T> {
    /// Bundle-relative file name.
    pub name: String,
    /// The parsed config.
    pub config: T,
    /// Where each `<IED>` of an IED Config or `<PLC>` of a PLC Config
    /// starts, in file order (empty for the other configs).
    pub elements: Vec<SourcePos>,
    /// Where the logic body of each `<PLC>` of a PLC Config starts, in file
    /// order — unknown unless the body is one CDATA section (empty for the
    /// other configs).
    pub logic: Vec<SourcePos>,
}

impl<T> ConfigFile<T> {
    /// The span of the `i`-th element, or of the file when its position is
    /// unknown.
    pub fn span(&self, i: usize) -> Span {
        match self.elements.get(i) {
            Some(pos) if pos.is_known() => Span::new(&self.name, pos.line, pos.column),
            _ => Span::new(&self.name, 1, 1),
        }
    }
}

impl ConfigFile<PlcConfig> {
    /// The span of `pos`, a position inside the `i`-th PLC's logic body, or
    /// of the `<PLC>` element when either position is unknown. Line 1 of
    /// the body shares its file line with the `<![CDATA[` opener, so only
    /// its columns shift by the body's column.
    pub fn logic_span(&self, i: usize, pos: Pos) -> Span {
        match self.logic.get(i) {
            Some(start) if start.is_known() && pos.is_known() => {
                let column = match pos.line {
                    1 => start.column + pos.column - 1,
                    _ => pos.column,
                };
                Span::new(&self.name, start.line + pos.line - 1, column)
            }
            _ => self.span(i),
        }
    }
}

/// Every model file of a bundle, parsed, with the diagnostics of parsing.
#[derive(Debug, Clone)]
pub struct ParsedBundle {
    /// Parsed SSD files.
    pub ssds: Vec<SclFile>,
    /// Parsed SCD files.
    pub scds: Vec<SclFile>,
    /// Parsed ICD files.
    pub icds: Vec<SclFile>,
    /// Parsed SED files.
    pub seds: Vec<SclFile>,
    /// The IED Config, when present and parsable.
    pub ied_config: Option<ConfigFile<IedConfig>>,
    /// The SCADA Config, when present and parsable.
    pub scada_config: Option<ConfigFile<ScadaConfig>>,
    /// The PLC Config, when present and parsable.
    pub plc_config: Option<ConfigFile<PlcConfig>>,
    /// Each PLC's program, in PLC Config order: its logic body parsed once,
    /// as Structured Text or PLCopen XML, or `None` when it does not parse.
    /// A body that does not parse and a program the PLC runtime refuses are
    /// `SG6000` errors among the [`diagnostics`](ParsedBundle::diagnostics).
    /// A compiled model shares each program; nothing copies it.
    pub programs: Vec<Option<Arc<Program>>>,
    /// The Power System Extra Config, when present and parsable.
    pub power_config: Option<ConfigFile<PowerExtraConfig>>,
    /// The SCADA workstation host name (default `SCADA`).
    pub scada_host: String,
    /// Diagnostics produced while parsing (parse failures, SCL structure).
    pub diagnostics: Vec<Diagnostic>,
}

impl Default for ParsedBundle {
    fn default() -> ParsedBundle {
        ParsedBundle {
            ssds: Vec::new(),
            scds: Vec::new(),
            icds: Vec::new(),
            seds: Vec::new(),
            ied_config: None,
            scada_config: None,
            plc_config: None,
            programs: Vec::new(),
            power_config: None,
            scada_host: "SCADA".to_string(),
            diagnostics: Vec::new(),
        }
    }
}

impl ParsedBundle {
    /// Parses an in-memory bundle, naming each file as
    /// [`SgmlBundle::write_to_dir`] would.
    pub fn from_bundle(bundle: &SgmlBundle) -> ParsedBundle {
        ParsedBundle::from_bundle_with(bundle, |_, _, _| {})
    }

    /// [`ParsedBundle::from_bundle`], calling `each(name, role, text)` for
    /// every file in load order — scenarios included, which this crate
    /// leaves to its callers.
    pub fn from_bundle_with(
        bundle: &SgmlBundle,
        mut each: impl FnMut(&str, FileRole, &str),
    ) -> ParsedBundle {
        let mut parsed = ParsedBundle::default();
        if let Some(host) = &bundle.scada_host {
            parsed.scada_host = host.clone();
        }
        // An ICD is named after the IED it describes, so ICDs parse first.
        let icds: Vec<_> = bundle.icds.iter().map(|t| parse_scl_lenient(t)).collect();
        let icd_ied = |i: usize| Some(icds[i].as_ref().ok()?.0.ieds.first()?.name.as_str());
        let files = file_names(bundle, icd_ied);
        let mut icds = icds.into_iter();
        for (name, role, text) in files {
            each(&name, role, text);
            if role != FileRole::Icd {
                parsed.add(name, role, text);
            } else if let Some(result) = icds.next() {
                parsed.add_scl(name, role, result);
            }
        }
        parsed
    }

    /// Registers a file with the bundle, parsing it according to its role.
    /// Scenarios are not parsed here.
    pub fn add(&mut self, name: String, role: FileRole, text: &str) {
        fn file<T>(name: &str, config: T, elements: Vec<SourcePos>) -> ConfigFile<T> {
            let name = name.to_string();
            ConfigFile {
                name,
                config,
                elements,
                logic: Vec::new(),
            }
        }
        let parsed = match role {
            FileRole::Ssd | FileRole::Scd | FileRole::Icd | FileRole::Sed => {
                return self.add_scl(name, role, parse_scl_lenient(text));
            }
            FileRole::IedConfig => IedConfig::parse_with_positions(text)
                .map(|(config, elements)| self.ied_config = Some(file(&name, config, elements)))
                .map_err(|e| e.to_string()),
            FileRole::PlcConfig => PlcConfig::parse_with_positions(text)
                .map(|(config, positions)| {
                    let (elements, logic) = positions.into_iter().unzip();
                    self.add_plc_config(ConfigFile {
                        logic,
                        ..file(&name, config, elements)
                    });
                })
                .map_err(|e| e.to_string()),
            FileRole::ScadaConfig => ScadaConfig::parse(text)
                .map(|config| self.scada_config = Some(file(&name, config, Vec::new())))
                .map_err(|e| e.to_string()),
            FileRole::PowerConfig => PowerExtraConfig::parse(text)
                .map(|config| self.power_config = Some(file(&name, config, Vec::new())))
                .map_err(|e| e.to_string()),
            FileRole::Scenario => Ok(()),
        };
        if let Err(detail) = parsed {
            self.diagnostics.push(parse_failure(&name, role, &detail));
        }
    }

    /// Registers the PLC Config and parses each PLC's program, refusing
    /// with `SG6000` a body that does not parse or a program the PLC
    /// runtime would refuse.
    fn add_plc_config(&mut self, file: ConfigFile<PlcConfig>) {
        let mut programs = Vec::with_capacity(file.config.plcs.len());
        for (i, plc) in file.config.plcs.iter().enumerate() {
            let refuse = |message: String, span: Span| {
                Diagnostic::error(codes::ST_PARSE_FAILED, message, format!("PLC {}", plc.name))
                    .with_span(span)
            };
            let parsed = match &plc.logic {
                PlcLogic::StructuredText(st) => parse_program(st).map_err(|e| {
                    let span = file.logic_span(i, e.pos);
                    refuse(format!("structured text does not parse: {e}"), span)
                }),
                PlcLogic::PlcOpenXml(xml) => parse_plcopen(xml)
                    .map_err(|e| refuse(format!("PLCopen XML does not parse: {e}"), file.span(i))),
            };
            let program = parsed.map(Arc::new);
            let program = program.map_err(|d| self.diagnostics.push(d)).ok();
            if let Some(Err(e)) = program.as_ref().map(check_runtime) {
                let message = format!("the PLC runtime refuses the program: {}", e.message);
                self.diagnostics.push(refuse(message, file.span(i)));
            }
            programs.push(program);
        }
        self.programs = programs;
        self.plc_config = Some(file);
    }

    fn add_scl(
        &mut self,
        name: String,
        role: FileRole,
        result: Result<(SclDocument, Vec<Diagnostic>), SclError>,
    ) {
        let (doc, diags) = match result {
            Ok(parsed) => parsed,
            Err(e) => {
                let failure = parse_failure(&name, role, &e.to_string());
                return self.diagnostics.push(failure);
            }
        };
        // Parse-time diagnostics carry context paths but no element
        // position; give them at least the file anchor.
        self.diagnostics
            .extend(diags.into_iter().map(|d| match d.span {
                Some(_) => d,
                None => d.with_span(Span::new(&name, 1, 1)),
            }));
        let file = SclFile { name, doc };
        match role {
            FileRole::Ssd => self.ssds.push(file),
            FileRole::Scd => self.scds.push(file),
            FileRole::Icd => self.icds.push(file),
            _ => self.seds.push(file),
        }
    }

    /// The first ICD document that describes the named IED — the one whose
    /// logical nodes gate the IED's features.
    pub fn icd_of(&self, ied: &str) -> Option<&SclDocument> {
        self.icds
            .iter()
            .map(|file| &file.doc)
            .find(|doc| doc.ied(ied).is_some())
    }

    /// Every substation the bundle declares, SSDs first, deduplicated by
    /// name: when an SSD and an SCD both carry a substation, the SSD wins —
    /// the SCD copy is the consolidated echo, not a second declaration.
    pub fn substation_sources(&self) -> Vec<(&SclFile, &Substation)> {
        let mut seen = BTreeSet::new();
        self.ssds
            .iter()
            .chain(&self.scds)
            .flat_map(|file| file.doc.substations.iter().map(move |s| (file, s)))
            .filter(|(_, s)| seen.insert(s.name.as_str()))
            .collect()
    }
}

/// The `SG0010` finding of a bundle file that cannot be parsed at all.
pub fn parse_failure(name: &str, role: FileRole, detail: &str) -> Diagnostic {
    Diagnostic::error(
        codes::PARSE_FAILED,
        format!("cannot parse {role} file: {detail}"),
        name.to_string(),
    )
    .with_span(Span::new(name, 1, 1))
}

/// Checks a parsed PLC program against the runtime the way every tenant
/// will instantiate it: each located variable needs a supported direct
/// address and each initializer must evaluate.
fn check_runtime(program: &Arc<Program>) -> Result<(), sgcr_plc::RuntimeError> {
    let probe_registers = sgcr_modbus::SharedRegisters::with_size(1024);
    sgcr_plc::PlcRuntime::new(Arc::clone(program), probe_registers).map(drop)
}
