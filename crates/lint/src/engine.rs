//! The cache behind `sgml_processor lint --cache`.
//!
//! A lint run is one *query* keyed on the content of the whole bundle: a
//! 64-bit hash over an engine-version salt and every file's name and bytes,
//! in load order. A hit replays the stored report without parsing
//! anything; a miss runs [`crate::lint_bundle`] and stores its report as
//! JSON in `<key as 16 hex digits>.json` under a caller-supplied cache
//! directory. Either way the report is byte-identical to what
//! [`crate::lint_bundle`] produces on the same files.
//!
//! Any edit anywhere changes the key, and one parse of the bundle is what
//! every pass reads, so there is nothing smaller worth reusing. Timestamps
//! are ignored on purpose: `touch` changes nothing and a revert restores
//! the cached report.

use crate::source::{FileRole, LoadError, LoadedBundle, SourceFile};
use crate::{json, lint_bundle, LintReport};
use sgcr_core::{fnv1a_64, read_bundle_dir};
use std::fs;
use std::path::Path;

/// Cache-effectiveness counters for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Queries answered from the on-disk cache.
    pub reused: usize,
    /// Queries that had to run.
    pub recomputed: usize,
}

/// The outcome of a cached lint: the report (identical to
/// [`crate::lint_bundle`] on the same inputs), the sources (for snippet
/// rendering), and the cache counters.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The report.
    pub report: LintReport,
    /// The bundle, for [`crate::report::render_text`]: parsed on a miss,
    /// sources only on a hit.
    pub bundle: LoadedBundle,
    /// Reused/recomputed counters.
    pub stats: EngineStats,
}

/// Salt mixed into every query key so a new engine (new passes, changed
/// semantics) never reads results written by an old one.
const ENGINE_VERSION: &str = concat!("sgcr-lint-engine-v3/", env!("CARGO_PKG_VERSION"));

/// Lints a bundle directory through the query cache at `cache_dir`
/// (created on demand).
///
/// # Errors
///
/// Returns [`LoadError`] on I/O failures or when the directory holds no SCL
/// model files — the same contract as [`LoadedBundle::from_dir`]. Cache
/// problems are never errors: an unreadable or corrupt entry just
/// recomputes, and a cache that cannot be written just disables reuse.
pub fn lint_dir_incremental(
    dir: impl AsRef<Path>,
    cache_dir: impl AsRef<Path>,
) -> Result<IncrementalOutcome, LoadError> {
    let files = read_bundle_dir(dir.as_ref()).map_err(|e| LoadError { message: e.message })?;
    let cache_dir = cache_dir.as_ref();
    let path = cache_dir.join(format!("{:016x}.json", cache_key(&files)));

    let cached = fs::read_to_string(&path)
        .ok()
        .and_then(|text| json::from_json(&text).ok());
    let mut bundle = LoadedBundle::default();
    let (report, stats) = match cached {
        Some(report) => {
            // Rendering the replayed report needs the sources only.
            let sources = files.into_iter();
            bundle.files = sources
                .map(|(name, role, text)| SourceFile { name, role, text })
                .collect();
            (
                report,
                EngineStats {
                    reused: 1,
                    recomputed: 0,
                },
            )
        }
        None => {
            for (name, role, text) in files {
                bundle.add_file(name, role, text);
            }
            let report = lint_bundle(&bundle);
            // Best-effort: a cache that cannot be written disables reuse.
            let _ = fs::create_dir_all(cache_dir);
            let _ = fs::write(&path, json::to_json(&report));
            (
                report,
                EngineStats {
                    reused: 0,
                    recomputed: 1,
                },
            )
        }
    };
    Ok(IncrementalOutcome {
        report,
        bundle,
        stats,
    })
}

/// The cache key of a bundle: every file's name and bytes, mixed eight
/// bytes at a time — FNV-1a's byte loop would add about 5% to a cold run on
/// the paper's 121-file bundle. Each step is a bijection of the state, so
/// an edit of one word always changes the key; a collision would replay a
/// stale report.
fn cache_key(files: &[(String, FileRole, String)]) -> u64 {
    let mut key = fnv1a_64(ENGINE_VERSION.as_bytes());
    let mut mix = |word: u64| key = (key.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    for part in files.iter().flat_map(|(name, _, text)| [name, text]) {
        mix(part.len() as u64);
        for chunk in part.as_bytes().chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            mix(u64::from_le_bytes(word));
        }
    }
    key
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const SSD: &str = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="demo"/>
  <Substation name="S1">
    <VoltageLevel name="VL1">
      <Voltage multiplier="k">110</Voltage>
      <Bay name="B1">
        <ConnectivityNode name="bus1" pathName="S1/VL1/B1/bus1"/>
        <ConductingEquipment name="GRID" type="IFL">
          <Terminal name="T1" connectivityNode="S1/VL1/B1/bus1"/>
        </ConductingEquipment>
        <ConductingEquipment name="LOAD1" type="LOD">
          <Terminal name="T1" connectivityNode="S1/VL1/B1/bus1"/>
        </ConductingEquipment>
      </Bay>
    </VoltageLevel>
  </Substation>
</SCL>"#;

    const PLC: &str = r#"<PLCConfig>
  <PLC name="CPLC">
    <Logic type="st"><![CDATA[
PROGRAM p
VAR x : INT; y : INT; END_VAR
y := x / 0;
END_PROGRAM
]]></Logic>
  </PLC>
</PLCConfig>"#;

    fn write_bundle(dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join("s1.ssd.xml"), SSD).unwrap();
        fs::write(dir.join("plc_config.xml"), PLC).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sgcr-lint-engine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn incremental_report_matches_lint_bundle_and_reuses_queries() {
        let dir = temp_dir("match");
        let cache = dir.join("cache");
        write_bundle(&dir);

        let cold = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(cold.stats.reused, 0);
        assert_eq!(cold.stats.recomputed, 1);

        let full = lint_bundle(&LoadedBundle::from_dir(&dir).unwrap());
        assert_eq!(cold.report, full, "incremental must equal full lint");
        assert!(cold.report.has_errors(), "fixture divides by zero");

        // Warm run: everything reused, identical bytes out.
        let warm = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(warm.stats.reused, 1);
        assert_eq!(warm.stats.recomputed, 0);
        assert_eq!(
            json::to_json(&warm.report),
            json::to_json(&cold.report),
            "warm report must be byte-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn editing_one_file_recomputes_only_its_queries() {
        let dir = temp_dir("edit");
        let cache = dir.join("cache");
        write_bundle(&dir);
        let _ = lint_dir_incremental(&dir, &cache).unwrap();

        // Fix the PLC logic: the bundle's one query recomputes.
        fs::write(
            dir.join("plc_config.xml"),
            PLC.replace("y := x / 0;", "y := x / 2;"),
        )
        .unwrap();
        let edited = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(edited.stats.reused, 0);
        assert_eq!(edited.stats.recomputed, 1);
        assert!(!edited
            .report
            .diagnostics
            .iter()
            .any(|d| d.code == sgcr_scl::codes::ST_DIVISION_BY_ZERO));

        let full = lint_bundle(&LoadedBundle::from_dir(&dir).unwrap());
        assert_eq!(edited.report, full);

        // Reverting restores the original cached result.
        fs::write(dir.join("plc_config.xml"), PLC).unwrap();
        let reverted = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(reverted.stats.reused, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_recompute() {
        let dir = temp_dir("corrupt");
        let cache = dir.join("cache");
        write_bundle(&dir);
        let _ = lint_dir_incremental(&dir, &cache).unwrap();
        let full = lint_bundle(&LoadedBundle::from_dir(&dir).unwrap());
        // Garbage, and nesting deep enough to overflow a recursive parser.
        for corrupt in [String::from("{ not json"), "[".repeat(200_000)] {
            for entry in fs::read_dir(&cache).unwrap() {
                fs::write(entry.unwrap().path(), &corrupt).unwrap();
            }
            let rerun = lint_dir_incremental(&dir, &cache).unwrap();
            assert_eq!(rerun.stats.reused, 0);
            assert_eq!(rerun.stats.recomputed, 1);
            assert_eq!(rerun.report, full);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_rejected() {
        let dir = temp_dir("empty");
        let err = lint_dir_incremental(&dir, dir.join("cache")).unwrap_err();
        assert!(err.message.contains("no SCL model files"));
        let _ = fs::remove_dir_all(&dir);
    }
}
