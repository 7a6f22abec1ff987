//! The XQuery Update subset of Section 2.3 and its runtime.
//!
//! * [`statement`] — statement-level updates: `delete q`,
//!   `insert xml into q`, `for $x in q insert xml into $x`,
//!   `insert q1 into q2`, and `replace q with xml`;
//! * [`builder`] — typed statement construction: the same forms from
//!   XPath values and [`builder::Element`] content trees instead of
//!   strings;
//! * [`pul`] — pending update lists (`compute-pul`, Section 3.4):
//!   atomic `ins↘` / `del` operations over structural IDs;
//! * [`apply`] — applying a PUL to the document (`apply-insert`),
//!   assigning Dewey IDs to the copied trees as a side effect;
//! * [`delta`] — the Δ⁺ / Δ⁻ tables (Algorithm 2, CD+ and its deletion
//!   counterpart CD−).
//!
//! A statement flows `statement` → [`compute_pul`] → (optionally the
//! Section 5 optimizer in `xivm_pulopt`) → [`apply_pul`], with the
//! [`delta`] tables extracted on both sides of the mutation — the
//! apply → optimize → propagate pipeline drawn in `ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod apply;
pub mod builder;
pub mod delta;
pub mod pul;
pub mod statement;

pub use apply::{apply_pul, apply_pul_for, Added, ApplyResult, DeltaLabels, LabelBuckets};
pub use builder::{element, UpdateBuilder};
pub use delta::{walk_deleted, DeltaMinus, DeltaPlus};
pub use pul::{compute_pul, AtomicOp, Pul};
pub use statement::UpdateStatement;
