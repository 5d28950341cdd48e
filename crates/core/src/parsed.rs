//! A bundle's files parsed once, each under its bundle-relative name: the
//! input of the bundle rules ([`check_bundle`](crate::check_bundle)) and of
//! the build step ([`CompiledModel::build`](crate::CompiledModel::build)).
//!
//! Every file is parsed *leniently*: a flawed file still yields a model to
//! inspect, and a file that cannot be parsed at all becomes a coded
//! `SG0010` diagnostic instead of an error, so one pass over a bundle can
//! name every problem with its `file:line:column`.

use crate::files::{file_names, FileRole};
use crate::range::SgmlBundle;
use crate::sgml::ied_config::IedConfig;
use crate::sgml::plc_config::PlcConfig;
use crate::sgml::power_extra::PowerExtraConfig;
use sgcr_scada::ScadaConfig;
use sgcr_scl::{
    codes, parse_scl_lenient, Diagnostic, SclDocument, SclError, SourcePos, Span, Substation,
};
use std::collections::BTreeSet;

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
        fn file<T>(name: &str, (config, elements): (T, Vec<SourcePos>)) -> Option<ConfigFile<T>> {
            let name = name.to_string();
            Some(ConfigFile {
                name,
                config,
                elements,
            })
        }
        let parsed = match role {
            FileRole::Ssd | FileRole::Scd | FileRole::Icd | FileRole::Sed => {
                return self.add_scl(name, role, parse_scl_lenient(text));
            }
            FileRole::IedConfig => IedConfig::parse_with_positions(text)
                .map(|parsed| self.ied_config = file(&name, parsed))
                .map_err(|e| e.to_string()),
            FileRole::PlcConfig => PlcConfig::parse_with_positions(text)
                .map(|parsed| self.plc_config = file(&name, parsed))
                .map_err(|e| e.to_string()),
            FileRole::ScadaConfig => ScadaConfig::parse(text)
                .map(|config| self.scada_config = file(&name, (config, Vec::new())))
                .map_err(|e| e.to_string()),
            FileRole::PowerConfig => PowerExtraConfig::parse(text)
                .map(|config| self.power_config = file(&name, (config, Vec::new())))
                .map_err(|e| e.to_string()),
            FileRole::Scenario => Ok(()),
        };
        if let Err(detail) = parsed {
            self.push_parse_failure(&name, role, &detail);
        }
    }

    fn add_scl(
        &mut self,
        name: String,
        role: FileRole,
        result: Result<(SclDocument, Vec<Diagnostic>), SclError>,
    ) {
        let (doc, diags) = match result {
            Ok(parsed) => parsed,
            Err(e) => return self.push_parse_failure(&name, role, &e.to_string()),
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

    /// Records a file that could not be parsed at all as `SG0010`.
    pub fn push_parse_failure(&mut self, name: &str, role: FileRole, detail: &str) {
        self.diagnostics.push(
            Diagnostic::error(
                codes::PARSE_FAILED,
                format!("cannot parse {role} file: {detail}"),
                name.to_string(),
            )
            .with_span(Span::new(name, 1, 1)),
        );
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
