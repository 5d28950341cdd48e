//! Loading an SG-ML bundle for analysis: the parse of every model file — a
//! [`ParsedBundle`], the same input the compiler checks and builds from —
//! plus what only the analyzer keeps: each file's raw text, so every
//! finding can be rendered with its source line, and the parsed exercise
//! scenarios.

use sgcr_core::{check_bundle, read_bundle_dir, CompiledModel, ParsedBundle, SgmlBundle};
use sgcr_scenario::Scenario;
use sgcr_scl::{Diagnostic, Severity};
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::OnceLock;

pub use sgcr_core::{role_of, FileRole, SclFile};

/// One raw source file of the bundle (kept for snippet rendering).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Bundle-relative file name.
    pub name: String,
    /// Role derived from the name.
    pub role: FileRole,
    /// Raw text.
    pub text: String,
}

/// An error reading a bundle directory.
#[derive(Debug)]
pub struct LoadError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for LoadError {}

/// The analyzed form of an SG-ML bundle: the parsed model files (every
/// parse failure already a coded diagnostic), their sources, and the
/// scenarios. Dereferences to the [`ParsedBundle`], which only
/// [`LoadedBundle::add_file`] changes, so the memoized check and model
/// stay current.
#[derive(Debug, Clone, Default)]
pub struct LoadedBundle {
    /// Every raw file, for snippet rendering.
    pub files: Vec<SourceFile>,
    parsed: ParsedBundle,
    /// Parsed exercise scenarios, with their file names.
    pub scenarios: Vec<(String, Scenario)>,
    check: OnceLock<Vec<Diagnostic>>,
    model: OnceLock<Option<CompiledModel>>,
}

impl Deref for LoadedBundle {
    type Target = ParsedBundle;

    fn deref(&self) -> &ParsedBundle {
        &self.parsed
    }
}

impl LoadedBundle {
    /// Loads and leniently parses a bundle directory, through the same walk
    /// as [`SgmlBundle::from_dir`], keeping file names so findings carry
    /// real spans.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on I/O failures or when the directory holds no
    /// SCL model files at all; individual files that fail to *parse* are
    /// reported as diagnostics, not errors.
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<LoadedBundle, LoadError> {
        let files = read_bundle_dir(dir.as_ref()).map_err(|e| LoadError { message: e.message })?;
        let mut loaded = LoadedBundle::default();
        for (name, role, text) in files {
            loaded.add_file(name, role, text);
        }
        Ok(loaded)
    }

    /// Builds a loaded bundle from an in-memory [`SgmlBundle`], naming each
    /// file as [`SgmlBundle::write_to_dir`] would.
    pub fn from_bundle(bundle: &SgmlBundle) -> LoadedBundle {
        let mut files = Vec::new();
        let parsed = ParsedBundle::from_bundle_with(bundle, |name, role, text| {
            files.push(SourceFile {
                name: name.to_string(),
                role,
                text: text.to_string(),
            });
        });
        let mut loaded = LoadedBundle {
            parsed,
            ..LoadedBundle::default()
        };
        for file in files {
            loaded.add_source(file);
        }
        loaded
    }

    /// Registers a file with the bundle, parsing it according to its role.
    pub fn add_file(&mut self, name: String, role: FileRole, text: String) {
        self.parsed.add(name.clone(), role, &text);
        self.add_source(SourceFile { name, role, text });
    }

    /// Keeps a file's source and parses it when it is a scenario.
    fn add_source(&mut self, file: SourceFile) {
        if file.role == FileRole::Scenario {
            match Scenario::parse(&file.text) {
                Ok(scenario) => self.scenarios.push((file.name.clone(), scenario)),
                Err(e) => self
                    .parsed
                    .push_parse_failure(&file.name, file.role, &e.to_string()),
            }
        }
        self.files.push(file);
        self.check = OnceLock::new();
        self.model = OnceLock::new();
    }

    /// The raw text of a bundle file, for snippet rendering.
    pub fn source_text(&self, file: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|f| f.name == file)
            .map(|f| f.text.as_str())
    }

    /// The findings of the bundle rules ([`check_bundle`]), computed once.
    pub fn check(&self) -> &[Diagnostic] {
        self.check.get_or_init(|| check_bundle(&self.parsed))
    }

    /// The compiled model, built once from the parsed documents — `None`
    /// when the bundle does not compile: a model file does not parse, a
    /// bundle rule fails, or a PLC program is refused.
    pub fn model(&self) -> Option<&CompiledModel> {
        self.model
            .get_or_init(|| {
                let is_error = |d: &Diagnostic| d.severity == Severity::Error;
                let in_model_file = |d: &&Diagnostic| {
                    let file = d.span.as_ref().map(|s| s.file.as_str()).unwrap_or("");
                    role_of(file) != Some(FileRole::Scenario)
                };
                let broken = self.diagnostics.iter().filter(in_model_file).any(is_error)
                    || self.check().iter().any(is_error);
                (!broken)
                    .then(|| CompiledModel::build(&self.parsed).ok())
                    .flatten()
            })
            .as_ref()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sgcr_scl::codes;

    #[test]
    fn unparsable_file_becomes_coded_diagnostic() {
        let mut loaded = LoadedBundle::default();
        loaded.add_file("bad.scd.xml".into(), FileRole::Scd, "<<< not xml".into());
        assert!(loaded.scds.is_empty());
        assert_eq!(loaded.diagnostics.len(), 1);
        assert_eq!(loaded.diagnostics[0].code, codes::PARSE_FAILED);
        assert_eq!(
            loaded.diagnostics[0].span.as_ref().map(|s| s.file.as_str()),
            Some("bad.scd.xml")
        );
    }

    #[test]
    fn power_config_that_is_not_xml_is_a_parse_failure() {
        let mut loaded = LoadedBundle::default();
        loaded.add_file("power_config.xml".into(), FileRole::PowerConfig, "{".into());
        assert_eq!(loaded.diagnostics.len(), 1);
        assert_eq!(loaded.diagnostics[0].code, codes::PARSE_FAILED);
    }
}
