//! The workspace-wide error type.
//!
//! Historically every fallible engine entry point returned
//! [`XmlError`], even for failures that had nothing to do with XML
//! manipulation (unknown views, statement syntax, conflicting
//! transactions). [`Error`] replaces that convention: each failure
//! class keeps its own payload, and `From` impls let the lower-level
//! errors bubble up through `?` unchanged.

use std::fmt;
use xivm_pattern::parse_pattern::PatternParseError;
use xivm_pattern::xpath::XPathParseError;
use xivm_pulopt::Conflict;
use xivm_update::statement::StatementParseError;
use xivm_xml::XmlError;

/// Any failure the `xivm` façade can report.
///
/// Marked `#[non_exhaustive]`: new failure classes may be added
/// without a breaking release, so downstream matches need a `_` arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// XML parsing or document manipulation failed.
    Xml(XmlError),
    /// A tree-pattern text could not be parsed.
    Pattern(PatternParseError),
    /// An update statement (or one of its XPath operands) could not be
    /// parsed.
    Statement(StatementParseError),
    /// A transaction in independent mode contained order-dependent
    /// operations (the IO / LO / NLO rules of Section 5.3) and the
    /// conflict policy refused to reconcile them.
    Conflict(Vec<Conflict>),
    /// A view name was not declared on this database.
    UnknownView(String),
    /// The same view name was declared twice at build time.
    DuplicateView(String),
    /// `Database::builder()` was finished without a document.
    NoDocument,
    /// A view's pattern has more nodes than term expansion supports
    /// ([`MAX_TERM_NODES`](crate::etins::MAX_TERM_NODES)): its
    /// maintenance terms are enumerated per snowcap, exponentially many
    /// on a star-shaped pattern.
    PatternTooLarge { view: String, nodes: usize },
    /// A view's pattern names `#text`: text nodes are in no canonical
    /// relation, so such a node could bind nothing. A view reads text
    /// through `val` / `cont` annotations and value predicates.
    PatternNamesText(String),
    /// Propagation panicked mid-commit (a view's maintenance died or a
    /// fault was injected). The database rolled back to the last sealed commit
    /// and recomputed every view, so it remains consistent; the
    /// payload is the panic message. The one exception: if that
    /// recovery itself panicked the async service is *poisoned* —
    /// `flush()` and every later `apply_async` keep returning this
    /// error, and synchronous calls panic with the message (see
    /// [`crate::service`]).
    Panic(String),
    /// An async submission was abandoned because an *earlier*
    /// submission in the queue failed: its reserved sequence number
    /// could no longer be honored. The document was not touched by
    /// this submission — resubmit it to get a fresh ticket.
    Aborted,
    /// The builder's DTD text could not be parsed.
    Dtd(xivm_dtd::DtdParseError),
    /// `Database::builder().analyze(AnalyzeMode::Strict)` found
    /// error-severity findings (e.g. a view that can never hold a
    /// tuple under the DTD); the payload lists them.
    Analysis(Vec<xivm_analyze::Finding>),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Xml(e) => write!(f, "{e}"),
            Error::Pattern(e) => write!(f, "{e}"),
            Error::Statement(e) => write!(f, "{e}"),
            Error::Conflict(cs) => {
                write!(f, "transaction statements conflict ({} conflict(s)", cs.len())?;
                if let Some(first) = cs.first() {
                    write!(f, ", first: {:?}", first.kind)?;
                }
                write!(f, ")")
            }
            Error::UnknownView(name) => write!(f, "no view named {name:?} on this database"),
            Error::DuplicateView(name) => write!(f, "view {name:?} declared more than once"),
            Error::NoDocument => write!(f, "database built without a document"),
            Error::PatternTooLarge { view, nodes } => write!(
                f,
                "view {view:?} has {nodes} pattern nodes; at most {} are supported",
                crate::etins::MAX_TERM_NODES
            ),
            Error::PatternNamesText(view) => write!(f, "view {view:?} names #text, in no list"),
            Error::Panic(msg) => {
                write!(f, "propagation panicked mid-commit: {msg}")
            }
            Error::Aborted => {
                write!(f, "async submission aborted: an earlier queued submission failed")
            }
            Error::Dtd(e) => write!(f, "{e}"),
            Error::Analysis(findings) => {
                write!(f, "static analysis rejected the catalog ({} finding(s)", findings.len())?;
                if let Some(first) = findings.first() {
                    write!(f, ", first: {first}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Xml(e) => Some(e),
            Error::Pattern(e) => Some(e),
            Error::Statement(e) => Some(e),
            Error::Dtd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for Error {
    fn from(e: XmlError) -> Self {
        Error::Xml(e)
    }
}

impl From<PatternParseError> for Error {
    fn from(e: PatternParseError) -> Self {
        Error::Pattern(e)
    }
}

impl From<StatementParseError> for Error {
    fn from(e: StatementParseError) -> Self {
        Error::Statement(e)
    }
}

impl From<XPathParseError> for Error {
    fn from(e: XPathParseError) -> Self {
        Error::Statement(StatementParseError::from(e))
    }
}

impl From<xivm_dtd::DtdParseError> for Error {
    fn from(e: xivm_dtd::DtdParseError) -> Self {
        Error::Dtd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compile-time contract every public error type must satisfy:
    /// usable with `anyhow`-style dynamic error handling and across
    /// threads.
    fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

    #[test]
    fn public_error_types_are_std_errors() {
        assert_error::<Error>();
        assert_error::<XmlError>();
        assert_error::<PatternParseError>();
        assert_error::<StatementParseError>();
        assert_error::<XPathParseError>();
    }

    #[test]
    fn display_is_informative() {
        assert!(Error::UnknownView("Q9".into()).to_string().contains("Q9"));
        assert!(Error::DuplicateView("Q1".into()).to_string().contains("Q1"));
        assert!(Error::Conflict(Vec::new()).to_string().contains("conflict"));
        assert!(Error::NoDocument.to_string().contains("document"));
        let too_large = Error::PatternTooLarge { view: "wide".into(), nodes: 31 }.to_string();
        assert!(too_large.contains("wide") && too_large.contains("31"));
        assert!(Error::PatternNamesText("t".into()).to_string().contains("#text"));
        assert!(Error::Panic("boom".into()).to_string().contains("boom"));
        assert!(Error::Aborted.to_string().contains("aborted"));
        let xml = Error::from(XmlError::DeadNode);
        assert_eq!(xml.to_string(), XmlError::DeadNode.to_string());
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        assert!(Error::from(XmlError::NoRoot).source().is_some());
        assert!(Error::UnknownView("x".into()).source().is_none());
    }
}
