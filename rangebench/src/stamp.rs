//! Provenance stamped on every result: `{commit, host, nproc, rustc, date,
//! seed}`.

use sgcr_obs::json::quote;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Where and on what a result was measured.
pub struct Stamp {
    /// `git rev-parse HEAD`, or `tree:<fnv64>` of the sources under
    /// `crates/` when the checkout is not a git repository.
    pub commit: String,
    pub host: String,
    pub nproc: usize,
    pub rustc: String,
    /// UTC, `YYYY-MM-DDTHH:MM:SSZ`.
    pub date: String,
    pub seed: u64,
}

impl Stamp {
    /// Collects the stamp for a run with workload seed `seed`.
    pub fn collect(seed: u64) -> Stamp {
        Stamp {
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| {
                format!("tree:{:016x}", source_fingerprint(Path::new("crates")))
            }),
            host: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map(|h| h.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            date: utc_now(),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\":{},\"host\":{},\"nproc\":{},\"rustc\":{},\"date\":{},\"seed\":{}}}",
            quote(&self.commit),
            quote(&self.host),
            self.nproc,
            quote(&self.rustc),
            quote(&self.date),
            self.seed
        )
    }
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// FNV-1a over the relative paths and contents of every file under `root`,
/// in sorted order — identifies the source tree without git.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut text = Vec::new();
    for path in files {
        text.extend_from_slice(path.to_string_lossy().as_bytes());
        text.extend_from_slice(&std::fs::read(&path).unwrap_or_default());
    }
    sgcr_core::fnv1a_64(&text)
}

fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Gregorian date of a day count since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }
}
