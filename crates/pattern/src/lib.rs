//! Tree patterns, XPath and the conjunctive view language.
//!
//! This crate implements the query-side substrates of the paper:
//!
//! * the tree pattern dialect **P** of Section 2.2 ([`TreePattern`]),
//!   with `/` and `//` edges, `ID` / `val` / `cont` stored-attribute
//!   annotations and `[val = c]` predicates, plus a compact textual
//!   syntax ([`fn@parse_pattern`]);
//! * the `XPath{/,//,*,[]}` dialect used by updates and views
//!   ([`xpath`]), including `and` / `or` predicates — evaluated
//!   directly over the document store (this plays the role Saxon plays
//!   in the paper's implementation: locating target nodes);
//! * the conjunctive XQuery view dialect of Figure 3 ([`view`]) and its
//!   translation to tree patterns (after Arion et al.);
//! * the algebraic compilation of patterns (Figure 4) into
//!   [`xivm_algebra::Plan`]s ([`compile`]), and an embedding-based
//!   reference evaluator ([`embed`]) used as a testing oracle.

#![forbid(unsafe_code)]

pub mod compile;
pub mod embed;
pub mod parse_pattern;
pub mod pattern;
pub mod view;
pub mod xpath;

pub use parse_pattern::parse_pattern;
pub use pattern::{Annotations, NodeTest, PatternNode, PatternNodeId, TreePattern};
