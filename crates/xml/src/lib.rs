//! XML storage substrate for algebraic incremental view maintenance.
//!
//! This crate provides the document substrate the paper's algorithms run
//! on: ordered labeled trees with element / attribute / text nodes
//! ([`Document`]), update-stable structural identifiers in the style of
//! Compact Dynamic Dewey IDs ([`DeweyId`]), per-label canonical
//! relations kept in document order ([`CanonicalIndex`]), and a small
//! XML parser / serializer pair.
//!
//! Documents are copy-on-write: nodes live in a chunked [`Arena`] and
//! canonical relations behind per-label `Arc`s, so `Document::clone`
//! is a cheap frozen snapshot and mutations copy only the chunks and
//! lists they touch — the substrate for MVCC snapshots and deep
//! commit pipelining in the layers above.

#![forbid(unsafe_code)]

pub mod arena;
pub mod canonical;
pub mod dewey;
pub mod document;
pub mod error;
pub mod forest;
pub mod label;
pub mod node;
pub mod parser;
pub mod serializer;

pub use arena::Arena;
pub use canonical::CanonicalIndex;
pub use dewey::{DeweyId, Step};
pub use document::Document;
pub use error::XmlError;
pub use forest::DeweyForest;
pub use label::{LabelId, LabelInterner, TEXT_LABEL};
pub use node::{Node, NodeId, NodeKind};
pub use parser::{check_forest, parse_document, ForestTemplate};
pub use serializer::{serialize_document, serialize_node};
