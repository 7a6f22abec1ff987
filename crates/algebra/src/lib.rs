//! Tuple algebra for XML view maintenance.
//!
//! The part of the logical algebra **A** of Section 2.2 that tree
//! patterns are evaluated with: projection and duplicate elimination
//! with derivation counts (`e_v`), and the structural comparisons `≺` /
//! `≺≺` — executed as the physical operator the paper's Section 3.4
//! assumes from the host XML engine, stack-based *structural joins*
//! over Dewey IDs [Al-Khalifa et al. 2002].
//!
//! Relations are ordered bags of [`Tuple`]s over a [`Schema`] of view
//! columns; each tuple field carries a structural ID and, when the view
//! stores them, the node's value and/or serialized content.
//!
//! Module map: [`relation`] / [`mod@tuple`] (ordered bags over schemas),
//! [`predicate`] (the axes), [`structjoin`] (the physical operator),
//! [`logical`] (Figure 4's plan tree of scans and joins), [`ops`]
//! (projection, δ with counts), [`ordered`] (sorted rows patched in
//! place — what snowcaps and the view store are kept by).
//! The workspace-wide picture, with this crate's row, lives in
//! `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]

pub mod logical;
pub mod ops;
pub mod ordered;
pub mod predicate;
pub mod relation;
pub mod structjoin;
pub mod tuple;

pub use logical::Plan;
pub use predicate::Axis;
pub use relation::{Column, Relation, Schema};
pub use structjoin::structural_join;
pub use tuple::{Field, Tuple};
