//! JSON output for `--format json`, plus the decoder that round-trips it
//! (and reads the incremental engine's cache entries) on top of
//! [`sgcr_obs::json::parse`]. The schema is deliberately small:
//!
//! ```json
//! {
//!   "errors": 1,
//!   "warnings": 0,
//!   "diagnostics": [
//!     {
//!       "code": "SG0201",
//!       "severity": "error",
//!       "message": "...",
//!       "context": "...",
//!       "span": { "file": "s.scd.xml", "line": 14, "column": 7 }
//!     }
//!   ]
//! }
//! ```
//!
//! `span` is omitted for findings with no source anchor. Parsing maps `code`
//! strings back through [`codes::lookup`], so only registered codes
//! round-trip — which is the point of having a registry.

use crate::LintReport;
use sgcr_obs::json::{parse, quote, Value};
use sgcr_scl::{codes, Diagnostic, Severity, Span};
use std::fmt::Write as _;

/// Serializes a report to JSON.
pub fn to_json(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"errors\": {},", report.error_count());
    let _ = writeln!(out, "  \"warnings\": {},", report.warning_count());
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"code\": {}, ", quote(d.code));
        let _ = write!(out, "\"severity\": {}, ", quote(d.severity.label()));
        let _ = write!(out, "\"message\": {}, ", quote(&d.message));
        let _ = write!(out, "\"context\": {}", quote(&d.context));
        if let Some(span) = &d.span {
            let _ = write!(
                out,
                ", \"span\": {{\"file\": {}, \"line\": {}, \"column\": {}}}",
                quote(&span.file),
                span.line,
                span.column
            );
        }
        out.push('}');
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Parses report JSON produced by [`to_json`] back into a [`LintReport`].
///
/// # Errors
///
/// Returns a message on malformed JSON (including documents nested deeper
/// than [`sgcr_obs::json::parse`] allows), an unregistered diagnostic code,
/// an unknown severity label, or a line/column that is not a `u32`.
pub fn from_json(text: &str) -> Result<LintReport, String> {
    let root = parse(text)?;
    let list = root
        .get("diagnostics")
        .and_then(Value::as_array)
        .ok_or("missing \"diagnostics\" array")?;

    let mut diagnostics = Vec::new();
    for item in list {
        let get_str = |key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("diagnostic missing string field {key:?}"))
        };
        let code_str = get_str("code")?;
        let code = codes::lookup(code_str)
            .ok_or_else(|| format!("unregistered diagnostic code {code_str:?}"))?
            .code;
        let severity = match get_str("severity")? {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "info" => Severity::Info,
            other => return Err(format!("unknown severity {other:?}")),
        };
        let mut diagnostic = Diagnostic::new(
            code,
            severity,
            get_str("message")?.to_string(),
            get_str("context")?.to_string(),
        );
        if let Some(span) = item.get("span") {
            let file = span
                .get("file")
                .and_then(Value::as_str)
                .ok_or("span missing file")?;
            let line = span
                .get("line")
                .and_then(as_u32)
                .ok_or("span missing line")?;
            let column = span
                .get("column")
                .and_then(as_u32)
                .ok_or("span missing column")?;
            diagnostic = diagnostic.with_span(Span::new(file, line, column));
        }
        diagnostics.push(diagnostic);
    }
    Ok(LintReport { diagnostics })
}

/// A whole number that fits a `u32`; fractions and out-of-range values are
/// rejected rather than truncated.
fn as_u32(value: &Value) -> Option<u32> {
    value
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX))
        .map(|n| n as u32)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::error(
                    codes::DUPLICATE_IP,
                    "IP \"10.0.1.5\" reused\nsecond line",
                    "SubNetwork bus",
                )
                .with_span(Span::new("s.scd.xml", 14, 7)),
                Diagnostic::warning(codes::ORPHAN_ICD, "orphan", "ICD x.icd.xml"),
            ],
        };
        let json = to_json(&report);
        let parsed = from_json(&json).expect("round trip");
        assert_eq!(parsed.diagnostics, report.diagnostics);
        assert_eq!(parsed.error_count(), 1);
        assert_eq!(parsed.warning_count(), 1);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = LintReport {
            diagnostics: Vec::new(),
        };
        let parsed = from_json(&to_json(&report)).expect("round trip");
        assert!(parsed.diagnostics.is_empty());
    }

    #[test]
    fn unregistered_code_is_rejected() {
        let json = r#"{"diagnostics": [{"code": "SG9999", "severity": "error",
            "message": "m", "context": "c"}]}"#;
        assert!(from_json(json).is_err());
    }

    #[test]
    fn bad_severity_and_span_values_are_rejected() {
        let with = |severity: &str, line: &str, column: &str| {
            format!(
                r#"{{"diagnostics": [{{"code": "SG0201", "severity": "{severity}",
                "message": "m", "context": "c",
                "span": {{"file": "f", "line": {line}, "column": {column}}}}}]}}"#
            )
        };
        assert!(from_json(&with("error", "14", "7")).is_ok());
        assert!(from_json(&with("fatal", "14", "7")).is_err());
        assert!(from_json(&with("error", "1.5", "7")).is_err());
        assert!(from_json(&with("error", "-1", "7")).is_err());
        assert!(from_json(&with("error", "14", "4294967296")).is_err());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(from_json("{").is_err());
        assert!(from_json("[]").is_err());
        assert!(from_json("{\"diagnostics\": 3}").is_err());
        assert!(from_json(&"[".repeat(200_000)).is_err(), "depth is bounded");
    }
}
