//! Loading and saving SG-ML model bundles as directories of files — the
//! form in which the paper's users hold their models ("power grid operators
//! can recycle their own IEC 61850 SCL files").
//!
//! Naming conventions within a bundle directory:
//!
//! * `*.ssd.xml`, `*.scd.xml`, `*.icd.xml`, `*.sed.xml` — SCL files (any
//!   number of each, loaded in lexicographic order);
//! * `ied_config.xml`, `scada_config.xml`, `plc_config.xml`,
//!   `power_config.xml` — the supplementary schemas (each optional);
//! * `*.scenario.xml` — exercise scenarios (any number, loaded in
//!   lexicographic order).
//!
//! [`read_bundle_dir`] is the one walk over such a directory; the compiler's
//! [`SgmlBundle::from_dir`] and the analyzer's loader both take it. An
//! in-memory bundle names its files the way [`SgmlBundle::write_to_dir`]
//! writes them, so a finding on a compiled bundle names the file a user
//! would open.

use crate::range::SgmlBundle;
use sgcr_scl::parse_scl_lenient;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::Path;

/// An error loading or saving a bundle directory.
#[derive(Debug)]
pub struct BundleIoError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BundleIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BundleIoError {}

fn io_err(context: &str, e: std::io::Error) -> BundleIoError {
    BundleIoError {
        message: format!("{context}: {e}"),
    }
}

/// What role a file plays in the bundle (derived from its name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `*.ssd.xml` — substation single-line diagram.
    Ssd,
    /// `*.scd.xml` — complete substation configuration.
    Scd,
    /// `*.icd.xml` — one IED's capabilities.
    Icd,
    /// `*.sed.xml` — inter-substation ties.
    Sed,
    /// `ied_config.xml` — thresholds + cyber↔physical mapping.
    IedConfig,
    /// `scada_config.xml` — HMI data sources, points, alarms.
    ScadaConfig,
    /// `plc_config.xml` — PLC logic and MMS bindings.
    PlcConfig,
    /// `power_config.xml` — profiles, events, solve interval.
    PowerConfig,
    /// `*.scenario.xml` — exercise scenario (stages + objectives).
    Scenario,
}

impl fmt::Display for FileRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileRole::Ssd => "SSD",
            FileRole::Scd => "SCD",
            FileRole::Icd => "ICD",
            FileRole::Sed => "SED",
            FileRole::IedConfig => "IED Config",
            FileRole::ScadaConfig => "SCADA Config",
            FileRole::PlcConfig => "PLC Config",
            FileRole::PowerConfig => "Power Config",
            FileRole::Scenario => "Scenario",
        };
        write!(f, "{s}")
    }
}

/// Derives a file's bundle role from its name, `None` for unrelated files.
pub fn role_of(name: &str) -> Option<FileRole> {
    const BY_NAME: [(&str, FileRole); 4] = [
        ("ied_config.xml", FileRole::IedConfig),
        ("scada_config.xml", FileRole::ScadaConfig),
        ("plc_config.xml", FileRole::PlcConfig),
        ("power_config.xml", FileRole::PowerConfig),
    ];
    const BY_SUFFIX: [(&str, FileRole); 5] = [
        (".ssd.xml", FileRole::Ssd),
        (".scd.xml", FileRole::Scd),
        (".icd.xml", FileRole::Icd),
        (".sed.xml", FileRole::Sed),
        (".scenario.xml", FileRole::Scenario),
    ];
    let by_suffix = BY_SUFFIX.iter().find(|(suffix, _)| name.ends_with(suffix));
    BY_NAME
        .iter()
        .find(|(n, _)| *n == name)
        .or(by_suffix)
        .map(|&(_, role)| role)
}

/// Reads every bundle file of a directory in name order, as
/// `(file name, role, text)`; files of no role are skipped.
///
/// # Errors
///
/// Returns [`BundleIoError`] on I/O failures or if the directory holds no
/// SCL model files (`*.ssd.xml` / `*.scd.xml`) at all.
pub fn read_bundle_dir(dir: &Path) -> Result<Vec<(String, FileRole, String)>, BundleIoError> {
    let mut paths: Vec<_> = fs::read_dir(dir)
        .map_err(|e| io_err(&format!("reading {}", dir.display()), e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(role) = role_of(name) else {
            continue;
        };
        let text = fs::read_to_string(&path)
            .map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
        files.push((name.to_string(), role, text));
    }
    if !files
        .iter()
        .any(|(_, role, _)| matches!(role, FileRole::Ssd | FileRole::Scd))
    {
        return Err(BundleIoError {
            message: format!(
                "{} contains no SCL model files (*.ssd.xml / *.scd.xml)",
                dir.display()
            ),
        });
    }
    Ok(files)
}

/// Names every file of an in-memory bundle as a directory holds it, in
/// field order: `(file name, role, text)`. An ICD is named after the first
/// IED it describes (`icd_ied(i)` for the i-th ICD) when that name is a
/// plain file stem, and a name already taken gets a numeric suffix, so no
/// two files share one name and none leaves the directory.
pub(crate) fn file_names<'a, 'b>(
    bundle: &'a SgmlBundle,
    icd_ied: impl Fn(usize) -> Option<&'b str>,
) -> Vec<(String, FileRole, &'a str)> {
    let mut files = Vec::new();
    let mut taken = BTreeSet::new();
    let mut push = |stem: String, suffix: &str, role: FileRole, text: &'a String| {
        let mut name = format!("{stem}{suffix}");
        let mut n = 1;
        while !taken.insert(name.clone()) {
            n += 1;
            name = format!("{stem}-{n}{suffix}");
        }
        files.push((name, role, text.as_str()));
    };
    let numbered = |texts: &'a [String], stem: &'static str, suffix: &'static str| {
        texts
            .iter()
            .enumerate()
            .map(move |(i, text)| (format!("{stem}{:02}", i + 1), suffix, text))
    };
    for (stem, suffix, text) in numbered(&bundle.ssds, "substation", ".ssd.xml") {
        push(stem, suffix, FileRole::Ssd, text);
    }
    for (stem, suffix, text) in numbered(&bundle.scds, "substation", ".scd.xml") {
        push(stem, suffix, FileRole::Scd, text);
    }
    let plain = |name: &&str| {
        let stem_char = |c: char| c.is_ascii_alphanumeric() || "_-.".contains(c);
        !name.is_empty() && !name.starts_with('.') && name.chars().all(stem_char)
    };
    for (i, text) in bundle.icds.iter().enumerate() {
        let stem = icd_ied(i)
            .filter(plain)
            .map_or_else(|| format!("ied{:03}", i + 1), str::to_string);
        push(stem, ".icd.xml", FileRole::Icd, text);
    }
    for (stem, suffix, text) in numbered(&bundle.seds, "tie", ".sed.xml") {
        push(stem, suffix, FileRole::Sed, text);
    }
    for (text, stem, role) in [
        (&bundle.ied_config, "ied_config", FileRole::IedConfig),
        (&bundle.scada_config, "scada_config", FileRole::ScadaConfig),
        (&bundle.plc_config, "plc_config", FileRole::PlcConfig),
        (&bundle.power_extra, "power_config", FileRole::PowerConfig),
    ] {
        if let Some(text) = text {
            push(stem.to_string(), ".xml", role, text);
        }
    }
    for (stem, suffix, text) in numbered(&bundle.scenarios, "exercise", ".scenario.xml") {
        push(stem, suffix, FileRole::Scenario, text);
    }
    files
}

impl SgmlBundle {
    /// Loads a bundle from a directory using the naming conventions above.
    ///
    /// # Errors
    ///
    /// Returns [`BundleIoError`] on I/O failures or if the directory holds
    /// no SCL files at all.
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<SgmlBundle, BundleIoError> {
        let mut bundle = SgmlBundle::default();
        for (_, role, text) in read_bundle_dir(dir.as_ref())? {
            match role {
                FileRole::Ssd => bundle.ssds.push(text),
                FileRole::Scd => bundle.scds.push(text),
                FileRole::Icd => bundle.icds.push(text),
                FileRole::Sed => bundle.seds.push(text),
                FileRole::IedConfig => bundle.ied_config = Some(text),
                FileRole::ScadaConfig => bundle.scada_config = Some(text),
                FileRole::PlcConfig => bundle.plc_config = Some(text),
                FileRole::PowerConfig => bundle.power_extra = Some(text),
                FileRole::Scenario => bundle.scenarios.push(text),
            }
        }
        Ok(bundle)
    }

    /// Writes the bundle into a directory (created if needed) using the
    /// same conventions, so a generated model can be inspected, edited, and
    /// reloaded — the open-source sharing workflow the paper describes.
    ///
    /// # Errors
    ///
    /// Returns [`BundleIoError`] on I/O failures.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), BundleIoError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| io_err(&format!("creating {}", dir.display()), e))?;
        let icds: Vec<_> = self
            .icds
            .iter()
            .map(|text| parse_scl_lenient(text).ok().map(|(doc, _)| doc))
            .collect();
        let icd_ied = |i: usize| Some(icds[i].as_ref()?.ieds.first()?.name.as_str());
        for (name, _, text) in file_names(self, icd_ied) {
            let path = dir.join(&name);
            fs::write(&path, text)
                .map_err(|e| io_err(&format!("writing {}", path.display()), e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_bundle_conventions() {
        assert_eq!(role_of("s1.ssd.xml"), Some(FileRole::Ssd));
        assert_eq!(role_of("s1.scd.xml"), Some(FileRole::Scd));
        assert_eq!(role_of("gied1.icd.xml"), Some(FileRole::Icd));
        assert_eq!(role_of("tie01.sed.xml"), Some(FileRole::Sed));
        assert_eq!(role_of("ied_config.xml"), Some(FileRole::IedConfig));
        assert_eq!(role_of("power_config.xml"), Some(FileRole::PowerConfig));
        assert_eq!(role_of("exercise01.scenario.xml"), Some(FileRole::Scenario));
        assert_eq!(role_of("README.md"), None);
    }

    #[test]
    fn names_are_unique_and_keep_their_role() {
        let bundle = SgmlBundle {
            ssds: vec![String::new()],
            icds: vec![String::new(); 4],
            plc_config: Some(String::new()),
            ..SgmlBundle::default()
        };
        let names = file_names(&bundle, |i| ["GIED1", "GIED1", "", "../x"].get(i).copied());
        let names: Vec<&str> = names.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "substation01.ssd.xml",
                "GIED1.icd.xml",
                "GIED1-2.icd.xml",
                "ied003.icd.xml",
                "ied004.icd.xml",
                "plc_config.xml"
            ]
        );
        for name in names {
            assert!(role_of(name).is_some(), "{name}");
        }
    }
}
