//! Error type shared by the XML substrate.

use std::fmt;

/// Errors raised while parsing or manipulating XML documents.
///
/// Marked `#[non_exhaustive]`: new failure classes may be added
/// without a breaking release, so downstream matches need a `_` arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XmlError {
    /// The parser encountered malformed input at the given byte offset.
    Parse { offset: usize, message: String },
    /// An operation referenced a node that does not exist or was deleted.
    DeadNode,
    /// An operation was attempted on a node of an unsupported kind,
    /// e.g. appending a child to a text node.
    InvalidTarget(String),
    /// The document has no root yet.
    NoRoot,
    /// An update could allocate more nodes than a
    /// [`NodeId`](crate::NodeId) can number: `used` slots are taken and
    /// it may need up to `wanted` more. Refused before any write.
    IndexSpaceExhausted { used: usize, wanted: usize },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Parse { offset, message } => {
                write!(f, "XML parse error at byte {offset}: {message}")
            }
            XmlError::DeadNode => write!(f, "operation on a deleted or unknown node"),
            XmlError::InvalidTarget(what) => write!(f, "invalid target node: {what}"),
            XmlError::NoRoot => write!(f, "document has no root element"),
            XmlError::IndexSpaceExhausted { used, wanted } => write!(
                f,
                "node id space exhausted: {used} slots used, the update may need {wanted} more"
            ),
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

    #[test]
    fn xml_error_is_a_std_error() {
        assert_error::<XmlError>();
    }

    #[test]
    fn display_is_informative() {
        let e = XmlError::Parse { offset: 7, message: "unexpected '<'".into() };
        assert!(e.to_string().contains("byte 7"));
        assert!(XmlError::DeadNode.to_string().contains("deleted"));
        assert!(XmlError::NoRoot.to_string().contains("root"));
        assert!(XmlError::InvalidTarget("text".into()).to_string().contains("text"));
        let full = XmlError::IndexSpaceExhausted { used: 9, wanted: 4 };
        assert!(full.to_string().contains("9 slots used") && full.to_string().contains("4 more"));
    }
}
