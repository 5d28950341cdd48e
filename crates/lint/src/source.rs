//! Loading an SG-ML bundle for analysis: the parse of every model file — a
//! [`ParsedBundle`], the same input the compiler checks and builds from —
//! plus what only the analyzer keeps: each file's raw text, so every
//! finding can be rendered with its source line, and the exercise
//! scenarios. The bundle rules and the compile decision are taken from that
//! one parse, at most once each.

use sgcr_core::{
    check_bundle, read_bundle_dir, CompiledModel, ParsedBundle, RangeError, SgmlBundle,
};
use sgcr_scenario::{Scenario, ScenarioError};
use sgcr_scl::Diagnostic;
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, OnceLock};

pub use sgcr_core::{FileRole, SclFile};

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
#[derive(Debug, Default)]
pub struct LoadedBundle {
    /// Every raw file, for snippet rendering.
    pub files: Vec<SourceFile>,
    parsed: ParsedBundle,
    /// Each exercise scenario with its file name: the parsed scenario, or
    /// why it does not parse. A scenario is not a model file, so one that
    /// does not parse is a finding of the lint report but does not stop
    /// the bundle from compiling.
    pub scenarios: Vec<(String, Result<Scenario, ScenarioError>)>,
    check: OnceLock<Vec<Diagnostic>>,
    compiled: OnceLock<Result<Arc<CompiledModel>, RangeError>>,
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
            let scenario = Scenario::parse(&file.text);
            self.scenarios.push((file.name.clone(), scenario));
        }
        self.files.push(file);
        self.check = OnceLock::new();
        self.compiled = OnceLock::new();
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

    /// Whether the bundle compiles, decided once by
    /// [`CompiledModel::build`] over the parsed files and
    /// [`LoadedBundle::check`]: the shared model, or why the compiler
    /// refuses the bundle.
    pub fn compiled(&self) -> Result<&Arc<CompiledModel>, &RangeError> {
        self.compiled
            .get_or_init(|| CompiledModel::build(&self.parsed, self.check()).map(Arc::new))
            .as_ref()
    }

    /// The compiled model, `None` when the bundle does not compile (see
    /// [`LoadedBundle::compiled`]).
    pub fn model(&self) -> Option<&CompiledModel> {
        self.compiled().ok().map(Arc::as_ref)
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
