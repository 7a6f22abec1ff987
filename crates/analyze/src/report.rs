//! Findings, severities and the analysis report.

use crate::relevance::RelevanceMatrix;
use std::fmt;

/// How the `Database` builder reacts to analysis findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeMode {
    /// Error-severity findings (dead views) abort `build()`.
    Strict,
    /// Findings are recorded on the report but never abort.
    Warn,
    /// No analysis: no findings, no report. The default — the lint is
    /// opt-in per database.
    #[default]
    Off,
}

/// Severity of one finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory (e.g. a statement pattern that is always a no-op).
    Warning,
    /// A definite defect (e.g. a view that can never hold a tuple).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub severity: Severity,
    /// The view or statement the finding is about.
    pub subject: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.severity, self.subject, self.message)
    }
}

/// Everything one analysis run produced: findings plus the relevance
/// matrix.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    pub findings: Vec<Finding>,
    pub matrix: RelevanceMatrix,
    /// Whether a schema (DTD) informed the analysis; without one the
    /// verdicts rely on label alphabets alone.
    pub schema_informed: bool,
}

impl AnalysisReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    /// True when any error-severity finding exists — the condition
    /// that fails `AnalyzeMode::Strict` builds and the CI lint gate.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "analysis clean ({} views)", self.matrix.views.len());
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{finding}")?;
        }
        Ok(())
    }
}
