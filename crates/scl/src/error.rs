//! Errors and diagnostics for SCL processing.
//!
//! Every finding carries a stable `SGxxxx` code (catalogued in [`crate::codes`]
//! and `docs/diagnostics.md`), a severity, a human-readable message, a context
//! string (element path or file role), and — when the finding is anchored to a
//! location in a source file — a [`Span`].

use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but processable.
    Warning,
    /// The document cannot be used.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered output (`error`, `warning`, `info`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A source location a diagnostic is anchored to: file name plus 1-based
/// line and column of the offending element's `<`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Span {
    /// File the finding is in (bundle-relative name or file role).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

impl Span {
    /// Creates a span.
    pub fn new(file: impl Into<String>, line: u32, column: u32) -> Span {
        Span {
            file: file.into(),
            line,
            column,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// One finding produced while parsing or validating an SCL document or an
/// SG-ML bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`SG0101`, …); see [`crate::codes`].
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Context (element path or name).
    pub context: String,
    /// Source location, when the finding is anchored to one.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Creates a diagnostic with an explicit severity.
    pub fn new(
        code: &'static str,
        severity: Severity,
        message: impl Into<String>,
        context: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            context: context.into(),
            span: None,
        }
    }

    /// Creates an error diagnostic.
    pub fn error(
        code: &'static str,
        message: impl Into<String>,
        context: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic::new(code, Severity::Error, message, context)
    }

    /// Creates a warning diagnostic.
    pub fn warning(
        code: &'static str,
        message: impl Into<String>,
        context: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic::new(code, Severity::Warning, message, context)
    }

    /// Creates an info diagnostic.
    pub fn info(
        code: &'static str,
        message: impl Into<String>,
        context: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic::new(code, Severity::Info, message, context)
    }

    /// Attaches a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches a span when a position is known, leaves the diagnostic
    /// untouched otherwise.
    #[must_use]
    pub fn with_pos(self, file: &str, pos: Option<crate::types::SourcePos>) -> Diagnostic {
        match pos {
            Some(p) if p.is_known() => self.with_span(Span::new(file, p.line, p.column)),
            _ => self,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity.label(),
            self.code,
            self.message,
            self.context
        )?;
        if let Some(span) = &self.span {
            write!(f, " at {span}")?;
        }
        Ok(())
    }
}

/// An error produced while parsing an SCL file.
#[derive(Debug, Clone, PartialEq)]
pub enum SclError {
    /// The underlying bytes are not well-formed XML.
    Xml(String),
    /// The XML is not an SCL document at all.
    NotScl {
        /// Root element name found.
        root: String,
    },
    /// Structural errors were found (details in the diagnostics).
    Invalid {
        /// The findings, at least one of `Severity::Error`.
        diagnostics: Vec<Diagnostic>,
    },
}

impl fmt::Display for SclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SclError::Xml(msg) => write!(f, "not well-formed XML: {msg}"),
            SclError::NotScl { root } => {
                write!(f, "root element is <{root}>, expected <SCL>")
            }
            SclError::Invalid { diagnostics } => {
                write!(f, "invalid SCL document:")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SclError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_span() {
        let d = Diagnostic::error("SG0201", "duplicate IP 10.0.1.5", "SubNetwork StationBus")
            .with_span(Span::new("sub1.scd.xml", 14, 7));
        assert_eq!(
            d.to_string(),
            "error[SG0201]: duplicate IP 10.0.1.5 (SubNetwork StationBus) at sub1.scd.xml:14:7"
        );
    }

    #[test]
    fn display_without_span() {
        let d = Diagnostic::warning("SG0101", "msg", "ctx");
        assert_eq!(d.to_string(), "warning[SG0101]: msg (ctx)");
    }
}
